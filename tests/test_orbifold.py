import gc
import math
from itertools import combinations, combinations_with_replacement

import pytest

from singlink import (
    CONTAINED,
    DISJOINT,
    MEETS,
    TORSION_FREE,
    TORSION_UNKNOWN,
    Stratum,
    UnsupportedDimensionError,
    WeightedPolynomial,
    WeightSystem,
    WrongDimensionError,
    analyze,
    divisibility_condition,
    fano,
    is_well_formed_space,
    orbifold_order,
    pair_well_formed,
    quasi_degree,
    singular_strata,
    torsion_status,
)


def strata_map(f):
    return {s.indices: (s.isotropy_order, s.incidence) for s in singular_strata(f)}


def torsion_of(f):
    """torsion_status read from the pair flag of f's strata, as analyze does."""
    return torsion_status(pair_well_formed(singular_strata(f), f.nvars), f.nvars)


def test_fano_sign_and_index(f60, f256_1, f256_2):
    for f in (f60, f256_1, f256_2):
        res = fano(f.system)
        assert res.is_fano and res.index == 1
    quintic = fano(WeightSystem((1, 1, 1, 1), 5))
    assert not quintic.is_fano
    assert quintic.index == -1
    quadric = fano(WeightSystem((1, 1, 1, 1), 2))
    assert quadric.is_fano and quadric.index == 2


def test_strata_of_the_degree_60_link(f60):
    assert strata_map(f60) == {
        (0,): (9, CONTAINED),
        (1,): (15, DISJOINT),
        (2,): (17, CONTAINED),
        (3,): (20, DISJOINT),
        (0, 1): (3, MEETS),
        (1, 3): (5, MEETS),
    }
    assert orbifold_order(singular_strata(f60)) == math.lcm(9, 17, 3, 5) == 765
    assert pair_well_formed(singular_strata(f60), f60.nvars)
    assert torsion_of(f60) == TORSION_FREE


def test_strata_of_the_first_degree_256_link(f256_1):
    # the weights are pairwise coprime, so only vertices carry isotropy
    assert strata_map(f256_1) == {
        (0,): (11, CONTAINED),
        (1,): (49, CONTAINED),
        (2,): (69, CONTAINED),
        (3,): (128, DISJOINT),
    }
    assert orbifold_order(singular_strata(f256_1)) == math.lcm(11, 49, 69) == 37191
    assert pair_well_formed(singular_strata(f256_1), f256_1.nvars)
    assert torsion_of(f256_1) == TORSION_FREE


def test_strata_of_the_second_degree_256_link(f256_2):
    assert strata_map(f256_2) == {
        (0,): (13, CONTAINED),
        (1,): (35, CONTAINED),
        (2,): (81, CONTAINED),
        (3,): (128, DISJOINT),
    }
    assert orbifold_order(singular_strata(f256_2)) == math.lcm(13, 35, 81) == 36855
    assert pair_well_formed(singular_strata(f256_2), f256_2.nvars)
    assert torsion_of(f256_2) == TORSION_FREE


def test_smooth_space_has_no_strata():
    f = quasi_degree([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], (1, 1, 1, 1))
    assert singular_strata(f) == ()
    assert orbifold_order(singular_strata(f)) == 1
    assert pair_well_formed(singular_strata(f), f.nvars)
    assert torsion_of(f) == TORSION_FREE


def test_contained_edge_blocks_pair_well_formedness():
    # z0*z3 + z1*z3: the edge {0, 1} carries gcd 2 and lies inside the surface
    f = quasi_degree([(1, 0, 0, 1), (0, 1, 0, 1)], (2, 2, 1, 3))
    assert strata_map(f) == {
        (0,): (2, CONTAINED),
        (1,): (2, CONTAINED),
        (3,): (3, CONTAINED),
        (0, 1): (2, CONTAINED),
    }
    assert orbifold_order(singular_strata(f)) == 6
    assert not pair_well_formed(singular_strata(f), f.nvars)
    assert torsion_of(f) == TORSION_UNKNOWN


def test_disjoint_strata_contribute_nothing_to_the_order():
    # every vertex is hit by a pure power, so only the meeting edge counts
    f = quasi_degree(
        [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 6, 0), (0, 0, 0, 2)], (2, 2, 1, 3)
    )
    assert strata_map(f) == {
        (0,): (2, DISJOINT),
        (1,): (2, DISJOINT),
        (3,): (3, DISJOINT),
        (0, 1): (2, MEETS),
    }
    assert orbifold_order(singular_strata(f)) == 2
    assert pair_well_formed(singular_strata(f), f.nvars)
    assert torsion_of(f) == TORSION_FREE


def test_single_monomial_on_an_edge_counts_as_disjoint():
    f = quasi_degree(
        [(2, 1, 0, 0), (0, 0, 6, 0), (0, 0, 0, 2)], (2, 2, 1, 3)
    )
    assert strata_map(f) == {
        (0,): (2, CONTAINED),
        (1,): (2, CONTAINED),
        (3,): (3, DISJOINT),
        (0, 1): (2, DISJOINT),
    }
    assert orbifold_order(singular_strata(f)) == 2
    assert pair_well_formed(singular_strata(f), f.nvars)


def test_vertex_incidence_follows_pure_powers(f60):
    # z1 appears as the pure power z1^4, so the vertex {1} misses the surface
    m = strata_map(f60)
    assert m[(1,)][1] == DISJOINT
    assert m[(0,)][1] == CONTAINED


def test_large_subsets_with_isotropy_are_refused():
    # triple {0, 1, 2} has gcd 2: the ambient space is not well formed
    f = quasi_degree([(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 2)], (2, 2, 2, 3))
    with pytest.raises(UnsupportedDimensionError):
        singular_strata(f)


def test_five_variables_are_refused():
    f = quasi_degree(
        [
            (2, 0, 0, 0, 0),
            (0, 2, 0, 0, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, 2, 0),
            (0, 0, 0, 0, 2),
        ],
        (1, 1, 1, 1, 1),
    )
    with pytest.raises(UnsupportedDimensionError):
        singular_strata(f)


def test_three_variable_curves_are_supported():
    f = quasi_degree([(2, 0, 0), (0, 2, 0), (0, 0, 3)], (3, 3, 2))
    m = strata_map(f)
    assert m[(0, 1)] == (3, MEETS)
    assert m[(2,)] == (2, DISJOINT)
    assert orbifold_order(singular_strata(f)) == 3
    with pytest.raises(WrongDimensionError):
        torsion_of(f)


def test_strata_are_equivariant_under_variable_permutation(f60):
    perm = (2, 0, 3, 1)  # new position of each old variable
    support = [
        tuple(m[perm.index(k)] for k in range(4)) for m in f60.sorted_support
    ]
    weights = tuple(f60.system.weights[perm.index(k)] for k in range(4))
    g = quasi_degree(support, weights)
    expected = {
        tuple(sorted(perm[i] for i in s.indices)): (s.isotropy_order, s.incidence)
        for s in singular_strata(f60)
    }
    assert strata_map(g) == expected
    sg, sf = singular_strata(g), singular_strata(f60)
    assert orbifold_order(sg) == orbifold_order(sf)
    assert pair_well_formed(sg, 4) == pair_well_formed(sf, 4)
    assert torsion_of(g) == torsion_of(f60)


def test_orbifold_order_divides_the_weight_lcm(f60, f256_1, f256_2):
    for f in (f60, f256_1, f256_2):
        assert math.lcm(*f.system.weights) % orbifold_order(singular_strata(f)) == 0


def test_stratum_validation():
    s = Stratum((2, 0), 5, MEETS)
    assert s.indices == (0, 2)
    with pytest.raises(ValueError):
        Stratum((0,), 1, MEETS)
    with pytest.raises(ValueError):
        Stratum((0,), 2, "touches")


def test_stratum_refuses_non_integer_indices():
    # truncation would store the indices (1, 2)
    with pytest.raises(TypeError, match="1.7 is a float"):
        Stratum((1.7, 2.2), 2, MEETS)


def test_stratum_refuses_a_non_integer_isotropy_order():
    # it used to be stored as is and fail later inside math.lcm
    with pytest.raises(TypeError, match="the isotropy order must be of type int; 2.5 is a float"):
        Stratum((0,), 2.5, MEETS)
    with pytest.raises(TypeError, match="True is a bool"):
        Stratum((0,), True, MEETS)


def test_torsion_status_requires_four_variables():
    f = quasi_degree([(2, 0), (0, 2)], (1, 1))
    with pytest.raises(WrongDimensionError):
        torsion_of(f)


def reference_torsion_status(w, strata):
    """Randell's criterion with every hypothesis tested: space well-formedness,
    the divisibility condition and pair well-formedness of the strata."""
    well_formed = is_well_formed_space(w) and divisibility_condition(w)
    pwf = pair_well_formed(strata, w.nvars)
    return TORSION_FREE if well_formed and pwf else TORSION_UNKNOWN


def reference_strata(f):
    """The per-subset scan singular_strata replaced: every vertex and edge with
    gcd > 1, its incidence read from the number of monomials using no variable
    outside it."""
    out = []
    for subset in (s for size in (1, 2) for s in combinations(range(f.nvars), size)):
        m = math.gcd(*(f.system.weights[i] for i in subset))
        if m > 1:
            others = [i for i in range(f.nvars) if i not in subset]
            count = sum(not any(mono[i] for i in others) for mono in f.support)
            out.append((subset, m, (CONTAINED, DISJOINT, MEETS)[min(count, 2)]))
    return out


def edge_supports(weights, max_degree):
    """Degree d -> every monomial of degree d in at most two variables, d <= max_degree."""
    out = {d: set() for d in range(1, max_degree + 1)}
    for i, j in combinations(range(len(weights)), 2):
        for a in range(max_degree // weights[i] + 1):
            for b in range((max_degree - a * weights[i]) // weights[j] + 1):
                if a or b:
                    m = tuple(a if k == i else b if k == j else 0 for k in range(len(weights)))
                    out[a * weights[i] + b * weights[j]].add(m)
    return out


def test_torsion_status_needs_only_the_strata():
    """The strata agree with the per-subset reference scan, and the torsion
    status read from them with Randell's criterion.  Each support is the full
    degree-d support restricted to vertices and edges, the only strata a
    four-variable singular_strata accepts, so its strata are those of the full
    support: the support where an edge whose gcd does not divide d would first
    escape being contained.  Nondecreasing weights stand for their
    relabelings."""
    checked = divisibility_fails = 0
    for ws in combinations_with_replacement(range(1, 11), 4):
        if math.gcd(*ws) != 1:
            continue
        for degree, support in edge_supports(ws, 40).items():
            f = WeightedPolynomial(frozenset(support), WeightSystem(ws, degree))
            try:
                strata = singular_strata(f)
            except UnsupportedDimensionError:
                continue
            got = [(s.indices, s.isotropy_order, s.incidence) for s in strata]
            assert got == reference_strata(f), (ws, degree)
            got = torsion_status(pair_well_formed(strata, f.nvars), f.nvars)
            assert got == reference_torsion_status(f.system, strata), (ws, degree)
            checked += 1
            divisibility_fails += not divisibility_condition(f.system)
    assert (checked, divisibility_fails) == (14800, 9703)


def test_no_stratum_outlives_its_report():
    """singular_strata keeps no cache: analyzing 472 distinct systems and dropping
    each report leaves no more Stratum objects alive than before."""

    def live_strata():
        gc.collect()
        return sum(type(o) is Stratum for o in gc.get_objects())

    before = live_strata()
    # z0^2 + z1^2 + z2*z3 on (m, m, k, 2m - k): mu = 1, T = 0 and one edge stratum, order m
    systems = [(m, k) for m in range(3, 40) for k in range(1, m) if math.gcd(m, k) == 1]
    assert len(systems) == 472
    for m, k in systems:
        f = quasi_degree([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)], (m, m, k, 2 * m - k))
        report = analyze(f)
        assert report.milnor_number == 1 and (m, MEETS) in {
            (s.isotropy_order, s.incidence) for s in report.strata
        }
    del f, report
    assert live_strata() == before
