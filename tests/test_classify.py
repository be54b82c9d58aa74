import json
import math
import random
import re
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest

from singlink import classify, milnor_algebra, monodromy, orbifold, weights
from singlink import (
    BUILTIN_REGISTRY,
    BoundExceededError,
    CANDIDATE,
    CONTAINED,
    KNOWN_SE,
    MEETS,
    NOT_FANO,
    NOT_QUASI_SMOOTH,
    NOT_WELL_FORMED,
    OBSTRUCTED,
    ConsistencyError,
    DISJOINT,
    ExpandedPoly,
    NonIntegralMilnorNumberError,
    RegistryEntry,
    SinglinkError,
    TORSION_FREE,
    TORSION_UNKNOWN,
    InexactDivisionError,
    IntegralityViolationError,
    UnsupportedDimensionError,
    WeightedPolynomial,
    WeightSystem,
    WrongDimensionError,
    analyze,
    divisibility_condition,
    is_well_formed_space,
    cross_checks,
    load_registry,
    orbifold_order,
    pair_well_formed,
    quasi_degree,
    registry_dump,
    registry_lookup,
    require_consistent,
    singular_strata,
    smale_name,
    smale_type,
    torsion_status,
)
from singlink.cli import entry, render_json, render_json_line
from poincare import hodge_numbers
from conftest import (
    F60_SUPPORT,
    F60_WEIGHTS,
    clear_memos,
    count_mask_builds,
    count_residue_passes,
)


def test_builtin_registry_round_trips_through_jsonl():
    text = registry_dump()
    assert load_registry(text) == BUILTIN_REGISTRY
    assert load_registry(text.replace("\n", "\n \t\n\n", 1)) == BUILTIN_REGISTRY
    assert len(text.splitlines()) == 3
    for line in text.splitlines():
        record = json.loads(line)
        assert list(record)[:5] == ["weights", "degree", "support", "tag", "citation"]


# the Fermat quintic: quasi-smooth, but K = O(1) is not anti-ample
FERMAT_QUINTIC = {
    "weights": [1, 1, 1, 1],
    "degree": 5,
    "support": [[5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]],
    "tag": "bad",
    "citation": "none",
}


def _entry_from(record, obstructed=False):
    return RegistryEntry(
        tuple(record["weights"]), record["degree"], tuple(map(tuple, record["support"])),
        record["tag"], record["citation"], obstructed,
    )


def test_registry_rejects_unobstructed_non_fano_claims():
    message = "registry entry bad claims an SE metric but is not a well-formed Fano pair"
    with pytest.raises(SinglinkError) as err:
        _entry_from(FERMAT_QUINTIC)
    assert not isinstance(err.value, ConsistencyError)
    assert message in str(err.value)
    with pytest.raises(SinglinkError) as err:
        load_registry(registry_dump() + json.dumps(FERMAT_QUINTIC) + "\n")
    assert not isinstance(err.value, ConsistencyError)
    assert f"registry line 4: {message}" in str(err.value)
    entry = dict(FERMAT_QUINTIC, obstructed=True)
    loaded = load_registry(json.dumps(entry) + "\n")
    assert len(loaded) == 1 and loaded[0].obstructed
    assert _entry_from(FERMAT_QUINTIC, obstructed=True) == loaded[0]
    text = registry_dump(loaded)
    assert json.loads(text)["obstructed"] is True
    assert load_registry(text) == loaded


# z0^2*z1 + z2^3 + z3^3: Fano with no strata, but singular along the z1-axis
SINGULAR_AXIS = {
    "weights": [1, 1, 1, 1],
    "degree": 3,
    "support": [[2, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
    "tag": "axis",
    "citation": "a cubic cone singular along a line",
}


@pytest.mark.parametrize("obstructed", [False, True])
def test_registry_refuses_an_entry_that_is_not_quasi_smooth(obstructed):
    record = dict(SINGULAR_AXIS, obstructed=obstructed)
    with pytest.raises(SinglinkError) as err:
        _entry_from(record, obstructed)
    assert not isinstance(err.value, ConsistencyError)
    assert "registry entry axis is not quasi-smooth at {z1}" in str(err.value)
    with pytest.raises(SinglinkError) as err:
        load_registry(registry_dump() + json.dumps(record) + "\n")
    assert not isinstance(err.value, ConsistencyError)
    assert "registry line 4: registry entry axis is not quasi-smooth at {z1}" in str(err.value)


def test_a_directly_built_entry_is_checked_too():
    # not only load_registry: the constructor refuses both claims, so no
    # registry passed to analyze can certify either support
    for record in (FERMAT_QUINTIC, SINGULAR_AXIS):
        with pytest.raises(SinglinkError) as err:
            _entry_from(record)
        assert not isinstance(err.value, ConsistencyError)
    quintic = quasi_degree(FERMAT_QUINTIC["support"], FERMAT_QUINTIC["weights"])
    r = analyze(quintic, registry=())
    assert r.se_status == NOT_FANO and r.registry_tag is None


def test_registry_reports_the_failing_line():
    good = registry_dump().splitlines()[0]
    with pytest.raises(SinglinkError) as err:
        load_registry(good + "\n" + '{"weights": [1, 2]}' + "\n")
    assert "registry line 2" in str(err.value)
    with pytest.raises(SinglinkError):
        load_registry('{"weights": [2, 4], "degree": 4, "support": [], "tag": "x", "citation": "y"}')


@pytest.mark.parametrize("n", [12, 3])
def test_registry_refuses_an_entry_without_four_variables(n):
    """analyze covers 4 variables only, so no other entry could ever match.  The
    count is refused first: an obstructed Fermat quadric in 12 equal weights
    would otherwise reach the 12! tie relabelings of the registry key."""
    record = {
        "weights": [1] * n,
        "degree": 2,
        "support": [[2 * (i == k) for i in range(n)] for k in range(n)],
        "tag": f"Q{n}",
        "citation": "none",
        "obstructed": True,
    }
    start = time.perf_counter()
    with pytest.raises(SinglinkError) as err:
        load_registry(json.dumps(record) + "\n")
    assert time.perf_counter() - start < 1
    assert str(err.value) == f"registry line 1: a registry entry has 4 variables, not {n}"
    assert isinstance(err.value.__cause__, WrongDimensionError)
    with pytest.raises(WrongDimensionError):
        _entry_from(record, obstructed=True)


def test_registry_refuses_non_integer_numbers():
    # a degree of 60.9 used to load as 60
    line = json.dumps(dict(json.loads(registry_dump().splitlines()[0]), degree=60.9))
    with pytest.raises(SinglinkError) as err:
        load_registry(line + "\n")
    assert str(err.value).startswith("registry line 1: ")
    assert "60.9 is a float" in str(err.value)
    dk1 = BUILTIN_REGISTRY[0]
    with pytest.raises(TypeError):
        RegistryEntry(**{**dk1._asdict(), "degree": 60.0})
    with pytest.raises(TypeError):
        RegistryEntry(**{**dk1._asdict(), "weights": (9.0, 15, 17, 20)})
    with pytest.raises(TypeError):
        RegistryEntry(**{**dk1._asdict(), "support": ((5.0, 1, 0, 0),) + dk1.support[1:]})
    with pytest.raises(TypeError):
        RegistryEntry(**{**dk1._asdict(), "reference_order": 765.0})


@pytest.mark.parametrize(
    "field, value, message",
    [
        # "false" used to load as obstructed=True through bool(...)
        ("obstructed", "false", "obstructed must be a bool, not 'false'"),
        ("obstructed", 0, "obstructed must be a bool, not 0"),
        # 5 used to load as the tag '5' through str(...)
        ("tag", 5, "tag must be a str, not 5"),
        ("citation", None, "citation must be a str, not None"),
        ("invariants", [], "'list' object has no attribute 'items'"),
    ],
)
def test_registry_refuses_fields_of_the_wrong_type(field, value, message):
    line = json.dumps(dict(json.loads(registry_dump().splitlines()[0]), **{field: value}))
    with pytest.raises(SinglinkError) as err:
        load_registry(line + "\n")
    assert str(err.value) == f"registry line 1: {message}"
    if field != "invariants":
        with pytest.raises(TypeError):
            RegistryEntry(**{**BUILTIN_REGISTRY[0]._asdict(), field: value})


def test_registry_refuses_an_unknown_reference_invariant():
    # a misspelt name would load silently and leave the reference cross-check unrun
    record = json.loads(registry_dump().splitlines()[1])
    assert record["invariants"] == {"orbifold_order": 37191}
    record["invariants"] = {"orbifold_ordr": 37191}
    with pytest.raises(SinglinkError) as err:
        load_registry(json.dumps(record) + "\n")
    assert str(err.value) == "registry line 1: unknown reference invariants ['orbifold_ordr']"
    record["invariants"] = {"orbifold_order": 37191, "b2": 1}
    with pytest.raises(SinglinkError, match="registry line 1: unknown reference invariants"):
        load_registry(json.dumps(record) + "\n")
    record["invariants"] = {"orbifold_order": 37191}
    assert load_registry(json.dumps(record) + "\n") == (BUILTIN_REGISTRY[1],)


@pytest.mark.parametrize(
    "value, error",
    [(None, "is null"), (0, "0 is not positive"), (-37191, "-37191 is not positive")],
)
def test_registry_refuses_a_reference_order_that_is_not_a_positive_int(value, error):
    record = json.loads(registry_dump().splitlines()[1])
    assert record["tag"] == "DK-2"
    record["invariants"] = {"orbifold_order": value}
    with pytest.raises(SinglinkError, match=f"^registry line 1: the reference orbifold order.*{error}"):
        load_registry(json.dumps(record) + "\n")
    if value is not None:
        with pytest.raises(ValueError):
            RegistryEntry(**{**BUILTIN_REGISTRY[1]._asdict(), "reference_order": value})
    # an absent key still means no reference
    del record["invariants"]
    (entry,) = load_registry(json.dumps(record) + "\n")
    assert entry.reference_order is None


def test_registry_refuses_a_relabeled_duplicate():
    dk1 = BUILTIN_REGISTRY[0]
    perm = (2, 0, 3, 1)
    duplicate = {
        "weights": [dk1.weights[i] for i in perm],
        "degree": dk1.degree,
        "support": [[m[i] for i in perm] for m in dk1.support],
        "tag": "DK-1 relabeled",
        "citation": "copy",
    }
    text = registry_dump() + json.dumps(duplicate) + "\n"
    with pytest.raises(SinglinkError) as err:
        load_registry(text)
    message = str(err.value)
    assert "registry line 4" in message
    assert "DK-1 relabeled" in message and "DK-1 from line 1" in message
    # on tied weights, every relabeling of the tie is a duplicate too
    c3 = TIED_REGISTRY[4]
    for perm in [(0, 1, 3, 2), (3, 2, 0, 1), (2, 3, 1, 0)]:
        g = _relabeled(c3.polynomial(), perm)
        copy = RegistryEntry(g.system.weights, g.system.degree, g.sorted_support, "C3 again", "")
        assert copy.support != c3.support
        with pytest.raises(SinglinkError) as err:
            load_registry(registry_dump((c3, copy)))
        assert str(err.value) == "registry line 2: C3 again duplicates C3 from line 1"


def test_registry_lookup_is_permutation_invariant(f60):
    permuted = quasi_degree(
        [
            (0, 1, 0, 5),
            (3, 0, 0, 1),
            (0, 4, 0, 0),
            (0, 0, 3, 0),
        ],
        (17, 15, 20, 9),
    )
    entry = registry_lookup(permuted)
    assert entry is not None and entry.tag == "DK-1"
    assert registry_lookup(f60).tag == "DK-1"


def test_registry_lookup_misses_on_different_support(f60):
    # same weights and degree, smaller support
    g = quasi_degree([(5, 1, 0, 0), (1, 0, 3, 0), (0, 4, 0, 0)], (9, 15, 17, 20))
    assert registry_lookup(f60) is not None
    assert registry_lookup(g) is None


def test_registry_entry_normalizes_and_validates():
    e = RegistryEntry(
        weights=(9, 15, 17, 20),
        degree=60,
        support=((0, 0, 0, 3), (5, 1, 0, 0), (0, 4, 0, 0), (1, 0, 3, 0)),
        tag="t",
        citation="c",
        reference_order=765,
    )
    assert e.support[0] == (0, 0, 0, 3)
    assert e.reference_order == 765
    with pytest.raises(SinglinkError):
        RegistryEntry((9, 15, 17, 20), 61, ((5, 1, 0, 0),), "t", "c")


def test_smale_type_and_name():
    assert smale_type(0, True) == 0
    assert smale_type(7, True) == 7
    assert smale_type(7, False) is None
    assert smale_name(0) == "S⁵"
    assert smale_name(1) == "S²×S³"
    assert smale_name(9) == "#9(S²×S³)"
    with pytest.raises(ValueError):
        smale_type(-1, True)
    with pytest.raises(ValueError):
        smale_name(-2)


def test_report_for_the_degree_60_link(report60):
    r = report60
    assert r.weights == (9, 15, 17, 20)
    assert r.degree == 60
    assert r.support == ((0, 0, 0, 3), (0, 4, 0, 0), (1, 0, 3, 0), (5, 1, 0, 0))
    assert r.permutation == (0, 1, 2, 3)
    assert r.quasi_smooth
    assert r.space_well_formed and r.divisibility_ok and r.pair_well_formed
    assert r.fano.is_fano and r.fano.index == 1
    assert r.milnor_number == 86
    assert r.divisor == ((1, 1), (3, -1), (4, -1), (12, 1), (20, 1), (60, 1))
    assert r.expanded.degree == 86
    assert r.b2_divisor == 2 and r.b2_hodge == 2
    assert dict(r.hodge) == {(0, 2): 0, (1, 1): 2, (2, 0): 0}
    assert r.signature == -1
    assert r.genus == 0
    assert {s.indices: (s.isotropy_order, s.incidence) for s in r.strata} == {
        (0,): (9, CONTAINED),
        (1,): (15, DISJOINT),
        (2,): (17, CONTAINED),
        (3,): (20, DISJOINT),
        (0, 1): (3, MEETS),
        (1, 3): (5, MEETS),
    }
    assert r.orbifold_order == 765
    assert r.orbifold_order_source == "derived"
    assert r.registry_reference_order is None
    assert r.torsion == TORSION_FREE
    assert r.smale_k == 2
    assert r.diffeomorphism_type == "#2(S²×S³)"
    assert r.se_status == KNOWN_SE
    assert r.registry_tag == "DK-1"
    assert "Demailly" in r.registry_citation
    assert len(r.assumptions) == 1 and "generic" in r.assumptions[0]
    assert any("Fano index 1" in n for n in r.notes)
    assert any("certified by the registry entry" in n for n in r.notes)


def test_reports_for_the_degree_256_links(report256_1, report256_2):
    for r, tag, order in ((report256_1, "DK-2", 37191), (report256_2, "DK-3", 36855)):
        assert r.quasi_smooth
        assert r.milnor_number == 255
        assert r.b2_divisor == 1 and r.b2_hodge == 1
        assert r.signature == 0
        assert r.genus == 0
        assert r.orbifold_order == order
        assert r.orbifold_order_source == "reference"
        assert r.registry_reference_order == order
        assert r.torsion == TORSION_FREE
        assert r.smale_k == 1
        assert r.diffeomorphism_type == "S²×S³"
        assert r.se_status == KNOWN_SE
        assert r.registry_tag == tag
        assert any("Stiefel" in n for n in r.notes)
        assert any("tabulated reference" in n for n in r.notes)


def test_report_for_the_quadric_link():
    f = quasi_degree(
        [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], (1, 1, 1, 1)
    )
    r = analyze(f)
    assert r.milnor_number == 1
    assert r.divisor == ((1, 1),)
    assert r.b2_divisor == 1 and r.b2_hodge == 1
    assert r.signature == 0
    assert r.genus is None  # four pure powers, no unique split variable
    assert r.strata == ()
    assert r.orbifold_order == 1
    assert r.torsion == TORSION_FREE
    assert r.smale_k == 1
    assert r.diffeomorphism_type == "S²×S³"
    assert r.se_status == CANDIDATE
    assert r.registry_tag is None and r.registry_citation is None
    assert any("Stiefel" in n for n in r.notes)


def test_report_for_the_quintic_link():
    f = quasi_degree(
        [(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0), (0, 0, 0, 5)], (1, 1, 1, 1)
    )
    r = analyze(f)
    assert r.milnor_number == 256
    assert not r.fano.is_fano and r.fano.index == -1
    assert r.b2_divisor == 52 and r.b2_hodge == 52
    assert r.signature == -35
    assert r.torsion == TORSION_FREE
    assert r.smale_k == 52
    assert r.diffeomorphism_type == "#52(S²×S³)"
    assert r.se_status == NOT_FANO
    assert not any("Fano index 1" in n for n in r.notes)


# z0^3 + z1^3 + z0*z2 + z1*z3: quasi-smooth, but its strata lie in the surface
PAIR_ILL_FORMED = quasi_degree(
    [(3, 0, 0, 0), (0, 3, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)], (1, 1, 2, 2)
)
# z3*(z0 + z1) on (2, 2, 1, 3): the weight-1 variable is in no monomial
CONTAINED_EDGE = quasi_degree([(1, 0, 0, 1), (0, 1, 0, 1)], (2, 2, 1, 3))
# z0^2*z1 + z2^3 + z3^3: singular along the z1-axis
SINGULAR_AXIS_CUBIC = quasi_degree([(2, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], (1, 1, 1, 1))


def test_report_for_a_pair_ill_formed_link():
    r = analyze(PAIR_ILL_FORMED)
    assert r.quasi_smooth
    assert r.milnor_number == 1
    assert r.b2_divisor == 1 and r.b2_hodge == 1
    assert not r.pair_well_formed
    assert r.torsion == TORSION_UNKNOWN
    assert r.smale_k is None
    assert r.diffeomorphism_type is None
    assert r.se_status == NOT_WELL_FORMED
    assert any("Z_q + Z_q" in n for n in r.notes)
    assert any("not certified" in n for n in r.notes)
    assert not any("quasi-smooth" in n for n in r.notes)


def test_report_for_a_support_that_is_not_quasi_smooth():
    r = analyze(CONTAINED_EDGE)
    # the weight-1 variable sorts to the front; notes use canonical labels
    assert r.weights == (1, 2, 2, 3)
    assert r.permutation == (2, 0, 1, 3)
    assert not r.quasi_smooth
    # the weight-derived invariants are still reported
    assert r.milnor_number == 6
    assert r.divisor == ((1, 1), (5, 1))
    assert r.b2_divisor == 2 and r.b2_hodge == 2
    assert r.signature == -1
    assert not r.pair_well_formed
    assert r.torsion == TORSION_UNKNOWN
    assert r.genus is None
    assert r.smale_k is None
    assert r.diffeomorphism_type is None
    assert r.se_status == NOT_QUASI_SMOOTH
    assert any("not quasi-smooth at {z0}" in n for n in r.notes)
    assert not any("Z_q + Z_q" in n for n in r.notes)


def test_report_for_a_cubic_singular_along_a_line():
    r = analyze(SINGULAR_AXIS_CUBIC)
    assert not r.quasi_smooth
    assert r.milnor_number == 16 and r.b2_divisor == 6
    assert r.strata == () and r.pair_well_formed and r.torsion == TORSION_FREE
    assert r.fano.is_fano and r.fano.index == 1
    assert r.smale_k is None
    assert r.diffeomorphism_type is None
    assert r.se_status == NOT_QUASI_SMOOTH
    notes = [n for n in r.notes if "quasi-smooth" in n]
    assert notes == [
        "the support is not quasi-smooth at {z1}: the generic member is singular "
        "off the origin, so the diffeomorphism type and SE status are withheld"
    ]
    assert not any("connected-sum classification applies" in n for n in r.notes)


def test_a_linear_monomial_is_refused_at_the_milnor_number():
    # z3 is linear: the germ is smooth, so the support passes but mu = 0
    f = quasi_degree(
        [(0, 0, 0, 1), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)], (1, 1, 1, 3)
    )
    with pytest.raises(NonIntegralMilnorNumberError) as err:
        analyze(f)
    assert "[stage: milnor number]" in str(err.value)


def _fermat(d):
    return quasi_degree([tuple(d if j == i else 0 for j in range(4)) for i in range(4)], (1, 1, 1, 1))


def test_analyze_refuses_a_milnor_number_over_the_ceiling_at_once():
    # Fermat d = 16: mu = 15^4 = 50,625 > MAX_MU; d = 15 (mu = 38,416) is below it
    assert 14**4 <= classify.MAX_MU < 15**4
    start = time.perf_counter()
    with pytest.raises(BoundExceededError) as err:
        analyze(_fermat(16))
    assert time.perf_counter() - start < 0.5
    assert "[stage: milnor number]" in str(err.value)
    assert "50625" in str(err.value)


def test_analyze_ceiling_admits_a_milnor_number_equal_to_it(monkeypatch):
    monkeypatch.setattr(classify, "MAX_MU", 16)
    assert analyze(_fermat(3)).milnor_number == 16
    monkeypatch.setattr(classify, "MAX_MU", 15)
    with pytest.raises(BoundExceededError):
        analyze(_fermat(3))


def _a2_stabilization(m):
    """z0^3 + z1^2 + z2*z3 on weights (2m, 3m, 1, 6m - 1): mu = 2 and socle degree T = 2m."""
    return quasi_degree([(3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 1)], (2 * m, 3 * m, 1, 6 * m - 1))


def test_analyze_refuses_a_socle_degree_over_the_ceiling_at_once():
    """analyze bounds mu, not T: T = 2 * 10^7 and T = 10^9, far above expand's
    degree ceiling, are reported at once, cold."""
    for m in (10**7, 5 * 10**8):
        clear_memos()
        start = time.perf_counter()
        r = analyze(_a2_stabilization(m))
        assert time.perf_counter() - start < 0.5
        assert (r.degree, r.milnor_number, r.diffeomorphism_type) == (6 * m, 2, "S⁵")


def test_analyze_admits_the_real_socle_ceiling_and_keeps_no_series():
    """T = 500,000 is expand's degree ceiling; T = 500,002, past it, is a report
    too, and neither builds a P(t)."""
    m = monodromy.MAX_DEGREE // 2
    for f in (_a2_stabilization(m), _a2_stabilization(m + 1)):
        r = analyze(f)
        assert (r.milnor_number, r.diffeomorphism_type) == (2, "S⁵")
        assert not hasattr(r, "series")
        facts = classify._weight_facts(WeightSystem(r.weights, r.degree))
        assert [k for k, v in facts.items() if isinstance(v, ExpandedPoly)] == ["expanded"]


def test_analyze_at_the_socle_ceiling_expands_only_delta(monkeypatch):
    """(500000, 750000, 1, 1499999), T = 500,000 and mu = 2: the one expansion a
    cold analyze makes is Delta(t), of degree mu; no P(t) of degree T is built.
    A call count, not a timer."""
    f = _a2_stabilization(250_000)
    assert (f.system.weights, f.system.degree) == ((500_000, 750_000, 1, 1_499_999), 1_500_000)
    built = []
    original = monodromy.expand

    def counted(factors):
        built.append(original(factors))
        return built[-1]

    for module in (classify, milnor_algebra, monodromy):
        if vars(module).get("expand") is original:
            monkeypatch.setattr(module, "expand", counted)
    clear_memos()
    r = analyze(f)
    assert [p.degree for p in built] == [r.milnor_number] == [2]
    assert built[0] is r.expanded


def test_analyze_is_equivariant_under_relabeling(report60):
    permuted = quasi_degree(
        [
            (0, 1, 0, 5),
            (3, 0, 0, 1),
            (0, 4, 0, 0),
            (0, 0, 3, 0),
        ],
        (17, 15, 20, 9),
    )
    r = analyze(permuted)
    assert r.permutation == (3, 1, 0, 2)
    assert r.weights == report60.weights
    assert r.support == report60.support
    assert r.milnor_number == report60.milnor_number
    assert r.divisor == report60.divisor
    assert r.strata == report60.strata
    assert r.orbifold_order == report60.orbifold_order
    assert r.se_status == report60.se_status
    assert r.registry_tag == report60.registry_tag
    assert r.smale_k == report60.smale_k


def test_analyze_without_isolation_assumption(f60):
    # isolatedness is decided from the support, so there is no keyword for it
    with pytest.raises(TypeError):
        analyze(f60, assume_isolated=False)


def test_analyze_with_an_empty_registry(f60):
    r = analyze(f60, registry=())
    assert r.se_status == CANDIDATE
    assert r.registry_tag is None
    assert r.orbifold_order == 765
    assert r.orbifold_order_source == "derived"


def test_analyze_with_an_obstructed_registry(f60):
    entry = BUILTIN_REGISTRY[0]._replace(obstructed=True)
    r = analyze(f60, registry=(entry,))
    assert r.se_status == OBSTRUCTED
    assert r.registry_tag == "DK-1"


def test_analyze_requires_four_variables():
    f = quasi_degree([(2, 0, 0), (0, 2, 0), (0, 0, 2)], (1, 1, 1))
    with pytest.raises(WrongDimensionError):
        analyze(f)


def test_errors_carry_the_pipeline_stage():
    f = quasi_degree(
        [(8, 0, 0, 0), (1, 0, 0, 2), (0, 3, 0, 1), (3, 0, 2, 0)], (2, 3, 5, 7)
    )
    with pytest.raises(NonIntegralMilnorNumberError) as err:
        analyze(f)
    assert "[stage: milnor number]" in str(err.value)


_WRONG_REFERENCE = BUILTIN_REGISTRY[0]._replace(reference_order=7)


@pytest.mark.parametrize(
    "f, registry, residue, error, message",
    [
        (
            quasi_degree([(8, 0, 0, 0), (1, 0, 0, 2), (0, 3, 0, 1), (3, 0, 2, 0)], (2, 3, 5, 7)),
            BUILTIN_REGISTRY, None, NonIntegralMilnorNumberError,
            "[stage: milnor number] Milnor product 429/5 is not a positive integer; the weight "
            "data is inconsistent with an isolated singularity link",
        ),
        (
            _fermat(16), BUILTIN_REGISTRY, None, BoundExceededError,
            "[stage: milnor number] Milnor number 50625 exceeds the analyze ceiling 50000",
        ),
        (
            quasi_degree([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 4)], (2, 2, 2, 1)),
            BUILTIN_REGISTRY, None, UnsupportedDimensionError,
            "[stage: strata] subset (1, 2, 3) of 3 variables has gcd 2 > 1; incidence rules "
            "cover vertices and edges only (the ambient space is not well formed)",
        ),
        (
            quasi_degree([(9, 0, 0, 0), (0, 9, 0, 0), (1, 0, 4, 0), (3, 0, 0, 1)], (1, 1, 2, 6)),
            BUILTIN_REGISTRY, None, IntegralityViolationError,
            "[stage: characteristic divisor] characteristic divisor has fractional coefficients "
            "{9: Fraction(25, 2), 3: Fraction(-1, 2)}; the weight data is inconsistent with an "
            "isolated singularity link",
        ),
        (
            quasi_degree([(7, 0, 0, 0), (0, 7, 0, 0), (0, 0, 7, 0), (3, 0, 0, 1)], (1, 1, 1, 4)),
            BUILTIN_REGISTRY, None, InexactDivisionError,
            "[stage: hodge numbers] the Poincare series is not a polynomial: 4 divides 1 of the "
            "weights but only 0 of the degrees d - w_i",
        ),
        (
            # z0^3 + z1^3 + z1*z2 + z1*z3 splits off z0; its branch curve has weights (1, 2, 2)
            quasi_degree([(3, 0, 0, 0), (0, 3, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)], (1, 1, 2, 2)),
            BUILTIN_REGISTRY, None, InexactDivisionError,
            "[stage: branch curve genus] the Poincare series is not a polynomial: 2 divides 2 "
            "of the weights but only 1 of the degrees d - w_i",
        ),
        (
            quasi_degree(F60_SUPPORT, F60_WEIGHTS), (_WRONG_REFERENCE,), None, ConsistencyError,
            "[stage: cross checks] orbifold order vs registry reference: got 765, expected 7",
        ),
        (
            quasi_degree(F60_SUPPORT, F60_WEIGHTS), BUILTIN_REGISTRY, 0, ConsistencyError,
            "[stage: cross checks] expanded vs factored Delta(t) mod P: got 66887296110255346, "
            "expected 0",
        ),
    ],
    ids=[
        "milnor_number", "mu_ceiling", "strata", "characteristic_divisor",
        "hodge_numbers", "branch_curve_genus", "registry_reference", "factored_residue",
    ],
)
def test_each_stage_labels_its_refusal(f, registry, residue, error, message, monkeypatch):
    """One refusal through every stage of analyze that can raise, with its exact
    text; residue, when set, is what a patched factored_residue returns, with the
    weight memo emptied first."""
    if residue is not None:
        monkeypatch.setattr(classify, "factored_residue", lambda divisor: residue)
        clear_memos()
    for _ in range(2):
        with pytest.raises(error) as caught:
            analyze(f, registry=registry)
        assert str(caught.value) == message


def test_cross_checks_catch_corrupted_reports(report60):
    assert all(c.passed for c in cross_checks(report60))
    require_consistent(report60)
    bad = report60._replace(b2_hodge=99)
    failed = [c for c in cross_checks(bad) if not c.passed]
    assert [c.name for c in failed] == ["b2 routes"]
    with pytest.raises(ConsistencyError) as err:
        require_consistent(bad)
    assert "b2 routes" in str(err.value)
    # the rendered b2_divisor is checked too, also where no Fano signature check reads it
    quintic = analyze(quasi_degree(FERMAT_QUINTIC["support"], FERMAT_QUINTIC["weights"]))
    assert not quintic.fano.is_fano and all(c.passed for c in cross_checks(quintic))

    def failed(report, **fields):
        return [(c.name, c.detail) for c in cross_checks(report._replace(**fields))
                if not c.passed]

    assert failed(quintic, b2_divisor=99) == [("b2 routes", "got (52, 99), expected (52, 52)")]
    # a replaced Milnor number fails against the divisor's degree
    assert failed(report60, milnor_number=87) == [
        ("divisor degree vs milnor number", "got 86, expected 87")
    ]


def test_cross_checks_validate_registry_reference(report256_1):
    bad = report256_1._replace(orbifold_order=1)
    names = [c.name for c in cross_checks(bad) if not c.passed]
    assert "orbifold order vs registry reference" in names


def test_reference_fixture_matches_the_registry(f60):
    entry = BUILTIN_REGISTRY[0]
    assert entry.weights == F60_WEIGHTS
    assert frozenset(entry.support) == frozenset(F60_SUPPORT)
    assert entry.polynomial() == f60


def test_analyze_relabels_a_built_polynomial_without_checking_it_again(monkeypatch):
    """A relabeling of a valid polynomial is valid: the caller's constructor checks
    the input once, and analyze's canonical copy runs no check of its own."""
    checked = []
    original = WeightedPolynomial.__new__

    def counted(cls, support, system):
        checked.append(original(cls, support, system))
        return checked[-1]

    monkeypatch.setattr(WeightedPolynomial, "__new__", staticmethod(counted))
    perm = (3, 1, 0, 2)
    support = frozenset(tuple(m[i] for i in perm) for m in F60_SUPPORT)
    f = WeightedPolynomial(support, WeightSystem(tuple(F60_WEIGHTS[i] for i in perm), 60))
    assert checked == [f]
    r = analyze(f)
    assert checked == [f]
    assert r.permutation == (2, 1, 3, 0) and r.registry_tag == "DK-1"
    canonical = classify._canonicalize(f)[0]
    assert canonical == WeightedPolynomial(canonical.support, WeightSystem(r.weights, 60))


FERMAT_CUBIC = quasi_degree(
    [(0, 0, 3, 0), (3, 0, 0, 0), (0, 0, 0, 3), (0, 3, 0, 0)], (1, 1, 1, 1)
)
# z0^2*z1 + z1^3 + z2^3 + z3^3; the registry holds it relabeled as (3, 2, 0, 1)
TIED_CUBIC = quasi_degree([(2, 1, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], (1, 1, 1, 1))
TIED_REGISTRY = BUILTIN_REGISTRY + (
    RegistryEntry((1, 1, 1, 1), 3, tuple(FERMAT_CUBIC.support), "F3", "Fermat cubic"),
    RegistryEntry(
        (1, 1, 1, 1), 3, ((0, 0, 1, 2), (0, 0, 3, 0), (3, 0, 0, 0), (0, 3, 0, 0)), "C3", "cubic"
    ),
)
EXAMPLES = {
    "contained_edge": CONTAINED_EDGE,
    "pair_ill_formed": PAIR_ILL_FORMED,
    "fermat_cubic": FERMAT_CUBIC,
    "tied_cubic": TIED_CUBIC,
}


@pytest.mark.parametrize(
    "name, tag",
    [
        ("f60", "DK-1"),
        ("f256_1", "DK-2"),
        ("f256_2", "DK-3"),
        ("contained_edge", None),
        ("pair_ill_formed", None),
        ("fermat_cubic", "F3"),
        ("tied_cubic", "C3"),
    ],
)
def test_public_functions_agree_with_the_report(name, tag, request):
    f = EXAMPLES.get(name) or request.getfixturevalue(name)
    r = analyze(f, registry=TIED_REGISTRY)
    w = f.system
    strata = singular_strata(f)
    assert hodge_numbers(w) == dict(r.hodge)
    assert sum(hodge_numbers(w).values()) == r.b2_hodge
    assert classify._weight_facts(w)["signature"] == r.signature
    assert pair_well_formed(strata, f.nvars) == r.pair_well_formed
    assert orbifold_order(strata) == r.orbifold_order
    assert torsion_status(pair_well_formed(strata, f.nvars), f.nvars) == r.torsion
    entry = registry_lookup(f, TIED_REGISTRY)
    assert (entry.tag if entry else None) == r.registry_tag == tag


def _relabeled(f, perm):
    """f with variable i renamed to the position of i in perm."""
    return quasi_degree(
        [tuple(m[i] for i in perm) for m in f.support], tuple(f.system.weights[i] for i in perm)
    )


# z0^2*z1 + z2^3 + z3^3: a tied cubic that no entry holds under any relabeling
AXIS_CUBIC = quasi_degree([(2, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], (1, 1, 1, 1))


@pytest.mark.parametrize(
    "f, tag",
    [(TIED_CUBIC, "C3"), (AXIS_CUBIC, None)] + [(e.polynomial(), e.tag) for e in TIED_REGISTRY],
    ids=["tied_cubic", "axis_cubic"] + [e.tag for e in TIED_REGISTRY],
)
def test_every_relabeling_finds_the_same_registry_entry(f, tag):
    for perm in permutations(range(4)):
        g = _relabeled(f, perm)
        entry = registry_lookup(g, TIED_REGISTRY)
        assert (entry.tag if entry else None) == tag
        assert analyze(g, registry=TIED_REGISTRY).registry_tag == tag


def _count_calls(monkeypatch, holder, name):
    """Count calls of holder.name, in every singlink module that binds it."""
    original = getattr(holder, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (classify, milnor_algebra, monodromy, orbifold):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("name", ["f256_1", "fermat_sextic"])
def test_analyze_builds_each_shared_intermediate_once(name, request, monkeypatch):
    """A cold analyze builds each shared intermediate once and no registry key:
    the canonical polynomial is looked up in the tie relabelings each entry
    built once.  No P(t) is built: the one expansion is Delta(t), and the
    exactness test and the monomial count stand where the series was read.  A
    second support on the same weight system reads every weight-only fact back
    from the memos and computes only its strata (and branch curve) anew."""
    if name == "fermat_sextic":
        f = quasi_degree([tuple(6 * (i == k) for i in range(4)) for k in range(4)], (1,) * 4)
        g = WeightedPolynomial(f.support | {(5, 1, 0, 0)}, f.system)
    else:
        f = request.getfixturevalue(name)
        g = WeightedPolynomial(f.support - {(17, 0, 1, 0)}, f.system)
    clear_memos()
    exact = _count_calls(monkeypatch, milnor_algebra, "require_polynomial_series")
    counts = _count_calls(monkeypatch, weights, "count_monomials")
    expanded = _count_calls(monkeypatch, monodromy, "expand")
    strata = _count_calls(monkeypatch, orbifold, "singular_strata")
    keys = _count_calls(monkeypatch, classify, "_tie_relabelings")
    space_wf = _count_calls(monkeypatch, weights, "is_well_formed_space")
    div_ok = _count_calls(monkeypatch, weights, "divisibility_condition")
    character = _count_calls(monkeypatch, milnor_algebra, "check_divisor_character")
    pair_flag = _count_calls(monkeypatch, orbifold, "pair_well_formed")
    divisor = _count_calls(monkeypatch, monodromy, "characteristic_divisor")
    analyze(f)
    dk2 = name == "f256_1"
    assert len(exact) == len(counts) == 1 + dk2  # DK-2 adds its branch curve's
    assert len(expanded) == 1  # Delta(t), never P(t)
    assert len(strata) == 1
    assert keys == []
    assert space_wf == div_ok == []  # the strata decide both ambient flags
    assert len(character) == len(pair_flag) == len(divisor) == 1
    analyze(g)
    assert len(exact) == len(counts) == 1 + 2 * dk2  # the branch curve's, again
    assert len(expanded) == 1
    assert len(strata) == 2
    assert keys == []
    assert space_wf == div_ok == []
    assert len(character) == len(divisor) == 1
    assert len(pair_flag) == 2


def test_analyze_builds_the_variable_masks_once_on_the_canonical_polynomial(monkeypatch):
    """The quasi-smoothness, strata and split-variable stages share one mask
    tuple per analyze.  An input whose weights are sorted is its own canonical
    polynomial; an unsorted relabeling's masks are built on the canonical copy
    only, never on the input."""
    built = count_mask_builds(monkeypatch)
    f = quasi_degree(F60_SUPPORT, F60_WEIGHTS)
    analyze(f)
    assert len(built) == 1 and built[0] is f
    assert isinstance(f.masks, tuple) and len(f.masks) == len(f.support)
    perm = (2, 0, 3, 1)
    g = quasi_degree(
        [tuple(m[i] for i in perm) for m in F60_SUPPORT], tuple(F60_WEIGHTS[i] for i in perm)
    )
    analyze(g)
    assert len(built) == 2 and built[1] is not g and built[1] == f
    assert "masks" not in vars(g)


def test_a_split_over_a_space_that_is_not_well_formed_stops_at_strata(monkeypatch):
    """z3^4 is the only pure power whose variable occurs once, and the other
    three weights share the factor 2.  The strata stage refuses that ambient
    space before any branch curve is read, on every call, and before the
    weight memo builds Delta(t) or tests P(t), so the memo keeps nothing for it."""
    support = {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 1, 1, 0), (0, 0, 0, 4)}
    f = WeightedPolynomial(frozenset(support), WeightSystem((2, 2, 2, 1), 4))
    assert classify._split_variable(f) == 3
    genus = _count_calls(monkeypatch, milnor_algebra, "genus_branch_curve")
    divisor = _count_calls(monkeypatch, monodromy, "characteristic_divisor")
    series = _count_calls(monkeypatch, milnor_algebra, "require_polynomial_series")
    clear_memos()
    for _ in range(2):
        with pytest.raises(UnsupportedDimensionError) as info:
            analyze(f)
        assert str(info.value).startswith(
            "[stage: strata] subset (1, 2, 3) of 3 variables has gcd 2 > 1; "
        )
        assert classify._weight_facts.cache_info().currsize == 0
    assert genus == divisor == series == []


def _bp_exponents(budget, prefix=()):
    """Nondecreasing exponent quadruples, each at least 2, with prod(a_i - 1) <= budget,
    in the order criterion 9's fill lists them."""
    if len(prefix) == 4:
        return [prefix]
    return [
        q for a in range(prefix[-1] if prefix else 2, budget + 2)
        for q in _bp_exponents(budget // (a - 1), prefix + (a,))
    ]


def test_a_brieskorn_pham_sweep_refuses_ill_formed_spaces_before_the_weight_memo(monkeypatch):
    """z0^a0 + ... + z3^a3 on weights L / a_i, L = lcm(a), for every quadruple
    with prod(a_i - 1) <= 300: all but 53 ambient spaces are not well formed, and
    each of those is refused at strata without building its divisor, so Delta(t)
    is built once per report and the memo holds only the accepted systems."""
    divisor = _count_calls(monkeypatch, monodromy, "characteristic_divisor")
    clear_memos()
    reports, refusals = [], []
    for exps in _bp_exponents(300):
        big_l = math.lcm(*exps)
        system = WeightSystem(tuple(big_l // a for a in exps), big_l)
        support = frozenset(tuple(a * (i == k) for i in range(4)) for k, a in enumerate(exps))
        try:
            reports.append(analyze(WeightedPolynomial(support, system)))
        except SinglinkError as exc:
            refusals.append(str(exc))
    assert len(reports) == 53 and len(refusals) == 1404
    assert all(message.startswith("[stage: strata] ") for message in refusals)
    assert len(divisor) == 53 == classify._weight_facts.cache_info().currsize


def test_analyze_keeps_no_weight_facts_above_the_mu_cutoff():
    """A system with mu above MEMO_MAX_MU (Fermat d = 8, mu = 2,401) builds its
    weight facts on every call and leaves the memo as it was."""
    d = next(d for d in range(2, 20) if (d - 1) ** 4 > classify.MEMO_MAX_MU)
    f = _fermat(d)
    before = classify._weight_facts.cache_info()
    first, second = analyze(f), analyze(f)
    assert classify._weight_facts.cache_info() == before
    assert first == second and first.expanded is not second.expanded


def test_the_weight_memo_keeps_at_most_its_entry_bound():
    """MEMO_ENTRIES + 50 distinct systems with mu = 2 leave MEMO_ENTRIES entries."""
    clear_memos()
    for m in range(1, classify.MEMO_ENTRIES + 51):
        assert analyze(_a2_stabilization(m)).milnor_number == 2
    info = classify._weight_facts.cache_info()
    assert info.currsize == info.maxsize == classify.MEMO_ENTRIES


def _full_support(ws, degree):
    """Every monomial of weighted degree `degree` on the weights ws."""
    ranges = (range(degree // w + 1) for w in ws)
    return frozenset(m for m in product(*ranges) if sum(a * w for a, w in zip(m, ws)) == degree)


def test_the_ambient_flags_read_from_the_strata_match_the_weight_kernels():
    """Every full-support system with weights <= 5 and d < 16 that analyze
    reports: space_well_formed and divisibility_ok, read from the strata, equal
    the weights module's kernels.  (1, 1, 2, 2) at d = 3 has the edge {z2, z3}
    of gcd 2 inside the hypersurface, so its divisibility flag renders false."""
    reports = []
    for ws in combinations_with_replacement(range(1, 6), 4):
        if math.gcd(*ws) != 1:
            continue
        for degree in range(1, 16):
            system = WeightSystem(ws, degree)
            try:
                r = analyze(WeightedPolynomial(_full_support(ws, degree), system))
            except SinglinkError:
                continue
            reports.append(r)
            assert r.space_well_formed == is_well_formed_space(system), system
            assert r.divisibility_ok == divisibility_condition(system), system
    assert (len(reports), sum(not r.divisibility_ok for r in reports)) == (217, 58)
    r = analyze(WeightedPolynomial(_full_support((1, 1, 2, 2), 3), WeightSystem((1, 1, 2, 2), 3)))
    rendered = json.loads(render_json_line(r))
    assert rendered["flags"]["divisibility_ok"] is False
    assert rendered["classification"]["torsion"] == TORSION_UNKNOWN
    assert rendered["classification"]["se_status"] == NOT_WELL_FORMED


def _sampled_supports(ws, degree, rng, draws=12):
    """Up to `draws` random supports of 4 to 6 degree-d monomials that analyze accepts."""
    monomials = sorted(_full_support(ws, degree))
    out = []
    for _ in range(draws):
        support = frozenset(rng.sample(monomials, min(len(monomials), rng.randint(4, 6))))
        f = WeightedPolynomial(support, WeightSystem(ws, degree))
        try:
            analyze(f)
        except SinglinkError:
            continue
        if f not in out:
            out.append(f)
    return out


def test_the_weight_memos_never_leak_support_facts():
    """Every support of a seeded sample of weight systems is analyzed cold (all
    memos emptied first) and then warm, in reverse order, so that each warm
    report reads facts another support put in the memos.  A small search found
    the first two systems: cubic surfaces, whose supports differ in
    quasi-smoothness, and quartics on (1, 1, 1, 2), whose supports differ in
    the incidence of the vertex z3."""
    rng = random.Random(18)
    pool = [
        (ws, degree)
        for ws in combinations_with_replacement(range(1, 8), 4)
        if math.gcd(*ws) == 1
        for degree in range(ws[-1] + 1, 16)
        if is_well_formed_space(WeightSystem(ws, degree))
        and math.prod(degree - w for w in ws) % math.prod(ws) == 0
    ]
    systems = [((1, 1, 1, 1), 3), ((1, 1, 1, 2), 4), *rng.sample(pool, 8)]
    cold = []
    for ws, degree in systems:
        for f in _sampled_supports(ws, degree, rng):
            clear_memos()
            cold.append((f, analyze(f)))
    by_system = {}
    for f, report in cold:
        by_system.setdefault(f.system, []).append(report)
    cubic, quartic = (by_system[WeightSystem(ws, d)] for ws, d in systems[:2])
    assert len({r.quasi_smooth for r in cubic}) == 2
    assert len({r.strata for r in quartic}) > 1
    assert len(by_system) >= 6
    for f, report in reversed(cold):
        assert analyze(f) == report, f


def test_a_refused_system_raises_the_same_error_on_every_call():
    """A refusal inside the weight memo is not cached, and singular_strata keeps
    no cache: each call raises afresh, with one stage label."""
    inexact = quasi_degree([(7, 0, 0, 0), (0, 7, 0, 0), (0, 0, 7, 0), (3, 0, 0, 1)], (1, 1, 1, 4))
    fermat = [tuple(a * (i == k) for i in range(4)) for k, a in enumerate((6, 3, 3, 3))]
    ill_formed = quasi_degree(fermat, (1, 2, 2, 2))
    inexact_and_ill_formed = quasi_degree(
        [(9, 0, 0, 0), (1, 4, 0, 0), (1, 0, 4, 0), (1, 0, 0, 4)], (1, 2, 2, 2)
    )
    for f, error, message in (
        (
            inexact,
            InexactDivisionError,
            "[stage: hodge numbers] the Poincare series is not a polynomial: 4 divides 1 of "
            "the weights but only 0 of the degrees d - w_i",
        ),
        (
            ill_formed,
            UnsupportedDimensionError,
            "[stage: strata] subset (1, 2, 3) of 3 variables has gcd 2 > 1; incidence rules "
            "cover vertices and edges only (the ambient space is not well formed)",
        ),
        (
            inexact_and_ill_formed,
            UnsupportedDimensionError,
            "[stage: strata] subset (1, 2, 3) of 3 variables has gcd 2 > 1; incidence rules "
            "cover vertices and edges only (the ambient space is not well formed)",
        ),
    ):
        for _ in range(2):
            with pytest.raises(error) as caught:
                analyze(f)
            assert str(caught.value) == message


def test_the_weight_only_rows_run_once_per_facts_build(monkeypatch, tmp_path, capsys):
    """The weight-only cross-check rows run when the weight memo builds a system's
    facts: a memo hit calls factored_residue zero times, and above MEMO_MAX_MU,
    where analyze builds the facts on every call, once per call.  A system whose
    facts fail a row is not cached, so each record on it fails with the same text."""
    residues = _count_calls(monkeypatch, monodromy, "factored_residue")
    clear_memos()
    residue = analyze(FERMAT_CUBIC).expanded.residue
    assert len(residues) == 1
    for f in (TIED_CUBIC, AXIS_CUBIC, _relabeled(FERMAT_CUBIC, (2, 0, 3, 1))):
        analyze(f)
    assert len(residues) == 1
    fermat8 = _fermat(8)
    assert analyze(fermat8).milnor_number == 7**4 > classify.MEMO_MAX_MU
    analyze(fermat8)
    assert len(residues) == 3

    monkeypatch.setattr(classify, "factored_residue", lambda divisor: 0)
    clear_memos()
    path = tmp_path / "cubics.jsonl"
    path.write_text(
        "".join(
            json.dumps({"weights": [1, 1, 1, 1], "degree": 3, "poly": poly}) + "\n"
            for poly in ("z0^3 + z1^3 + z2^3 + z3^3", "z0^2*z1 + z2^3 + z3^3")
        ),
        encoding="utf-8",
    )
    assert entry(["batch", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"[stage: cross checks] {RESIDUE_CHECK}: got {residue}, expected 0"
    assert captured.err.splitlines() == [
        f"line 1: failed ({message})", f"line 2: failed ({message})", "ok=0 skipped=0 failed=2"
    ]
    assert classify._weight_facts.cache_info().currsize == 0


@pytest.mark.parametrize("tag", ["DK-1", "DK-2", "DK-3", "fermat_sextic"])
def test_analyze_and_render_build_no_fraction(tag, monkeypatch):
    """Milnor number, divisor, series and report stay int from input to output;
    the series and characteristic-polynomial caches are emptied so their one
    build is covered too."""
    if tag == "fermat_sextic":
        f = quasi_degree([tuple(6 * (i == k) for i in range(4)) for k in range(4)], (1,) * 4)
    else:
        f = next(e for e in BUILTIN_REGISTRY if e.tag == tag).polynomial()
    clear_memos()
    new = Fraction.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    render_json(analyze(f))
    assert built == []


def test_a_repeated_weight_system_reuses_its_characteristic_polynomial(monkeypatch):
    """Two labelings of DK-1: Delta(t) is expanded once and its residue
    computed once, and the cached polynomial renders the golden."""
    relabeled = quasi_degree(
        [(0, 1, 0, 5), (3, 0, 0, 1), (0, 4, 0, 0), (0, 0, 3, 0)], (17, 15, 20, 9)
    )
    expanded = []

    def counted_expand(factors):
        expanded.append(factors)
        return original_expand(factors)

    original_expand = classify.expand  # the binding the weight memo expands Delta(t) with
    monkeypatch.setattr(classify, "expand", counted_expand)
    passes = count_residue_passes(monkeypatch)
    clear_memos()
    first = analyze(relabeled)
    second = analyze(quasi_degree(F60_SUPPORT, F60_WEIGHTS))
    assert len(expanded) == 1
    assert passes == [second.milnor_number] == [86]  # one Horner pass over Delta(t)
    assert second.expanded is first.expanded
    assert first.permutation == (3, 1, 0, 2) and second.permutation == (0, 1, 2, 3)
    golden = (Path(__file__).parent / "golden" / "report_dk1.json").read_text(encoding="utf-8")
    assert render_json(second) == golden
    assert render_json(first._replace(permutation=(0, 1, 2, 3))) == golden


RESIDUE_CHECK = "expanded vs factored Delta(t) mod P"


def test_the_residue_memo_never_hides_a_wrong_polynomial(report60):
    assert [c.name for c in cross_checks(report60)].count(RESIDUE_CHECK) == 1
    residue = report60.expanded.residue  # memoized on the instance
    times_t_minus_1 = monodromy.expand(report60.divisor + ((1, 1),))
    bad = report60._replace(expanded=times_t_minus_1)
    assert [c.name for c in cross_checks(bad) if not c.passed] == [RESIDUE_CHECK]
    bad_residue = residue * (monodromy.R - 1) % monodromy.P
    with pytest.raises(ConsistencyError, match=f"got {bad_residue}, expected {residue}"):
        require_consistent(bad)


def test_one_coefficient_off_by_one_anywhere_fails_the_residue_check(report60):
    coefficients = report60.expanded.coefficients
    for k in range(len(coefficients)):
        for delta in (1, -1):
            coeffs = list(coefficients)
            coeffs[k] += delta
            if not coeffs[-1]:
                continue  # the leading 1 cannot drop to 0 in an ExpandedPoly
            bad = report60._replace(expanded=ExpandedPoly(tuple(coeffs)))
            with pytest.raises(ConsistencyError, match=re.escape(RESIDUE_CHECK)):
                require_consistent(bad)


def test_the_residue_check_refuses_a_point_where_a_factor_vanishes(monkeypatch, report60):
    # a fresh instance, so no residue at the patched point outlives the test
    report = report60._replace(expanded=ExpandedPoly(report60.expanded.coefficients))
    monkeypatch.setattr(monodromy, "R", monodromy.P - 1)  # (-1)^4 = 1: DK-1 has (t^4 - 1)
    with pytest.raises(ConsistencyError, match="vanishes at R"):
        require_consistent(report)
