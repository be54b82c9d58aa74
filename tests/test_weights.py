import random
import time
from itertools import product

import pytest

from singlink import weights as weights_module
from singlink import (
    BoundExceededError,
    DegenerateDegreeError,
    EmptySubsetError,
    LengthMismatchError,
    NonPositiveWeightError,
    NotNormalizedError,
    NotQuasiHomogeneousError,
    WeightedPolynomial,
    WeightSystem,
    analyze,
    count_monomials,
    is_well_formed_space,
    quasi_degree,
    quasi_smooth_failure,
    validate_weights,
)
from conftest import clear_memos, fermat
from divisibility import divisibility_condition


def brute_count(weights, k):
    """Independent route: enumerate exponent boxes directly."""
    if k < 0:
        return 0
    ranges = [range(k // w + 1) for w in weights]
    return sum(
        1 for e in product(*ranges) if sum(a * w for a, w in zip(e, weights)) == k
    )


def test_validate_weights_accepts_normalized_tuples():
    assert validate_weights([9, 15, 17, 20]) == (9, 15, 17, 20)
    assert validate_weights((1,)) == (1,)


def test_validate_weights_rejects_empty_and_nonpositive():
    with pytest.raises(NonPositiveWeightError):
        validate_weights([])
    with pytest.raises(NonPositiveWeightError):
        validate_weights([3, 0, 5])
    with pytest.raises(NonPositiveWeightError):
        validate_weights([3, -2, 5])


def test_validate_weights_rejects_common_factor_without_rescaling():
    with pytest.raises(NotNormalizedError) as err:
        validate_weights([2, 4, 6, 8])
    assert err.value.gcd == 2


def test_weight_system_fields_and_degree_check():
    w = WeightSystem((9, 15, 17, 20), 60)
    assert w.nvars == 4
    assert w.total == 61
    with pytest.raises(DegenerateDegreeError):
        WeightSystem((1, 2), 0)


def test_weighted_polynomial_validates_uniform_degree():
    w = WeightSystem((1, 1, 1, 1), 3)
    WeightedPolynomial(frozenset({(3, 0, 0, 0), (1, 1, 1, 0)}), w)
    with pytest.raises(NotQuasiHomogeneousError) as err:
        WeightedPolynomial(frozenset({(3, 0, 0, 0), (1, 1, 0, 0)}), w)
    assert err.value.degrees == (2, 3)


def test_a_stated_degree_no_monomial_has_is_named():
    # a quadric stated at degree 3: the message names both degrees
    w = WeightSystem((1, 1, 1, 1), 3)
    with pytest.raises(NotQuasiHomogeneousError) as err:
        WeightedPolynomial(frozenset({(2, 0, 0, 0), (0, 2, 0, 0)}), w)
    assert err.value.degrees == (2,)
    assert str(err.value) == "monomials have weighted degrees 2; the stated degree is 3"
    with pytest.raises(NotQuasiHomogeneousError) as err:
        quasi_degree([(1, 0), (0, 2)], (1, 1))
    assert str(err.value) == "monomials have distinct weighted degrees: 1, 2"


def test_non_integer_numbers_are_refused_not_truncated():
    # each of these used to be truncated by int(): (1.7, 1, 1, 1), 2.9 became (1, 1, 1, 1), 2
    with pytest.raises(TypeError):
        WeightSystem((1.7, 1, 1, 1), 2.9)
    with pytest.raises(TypeError):
        WeightSystem((1, 1, 1, 1), 2.0)
    with pytest.raises(TypeError):
        WeightSystem((True, 1), 2)
    with pytest.raises(TypeError):
        validate_weights([9.9, 15, 17, 20])
    w = WeightSystem((1, 1), 2)
    with pytest.raises(TypeError):
        WeightedPolynomial(frozenset({(2.0, 0)}), w)
    with pytest.raises(TypeError):
        quasi_degree([(2.5, 0), (0, 2)], (1, 1))
    with pytest.raises(TypeError):
        quasi_degree([(2, 0), (0, 2)], (1.0, 1))


def test_weighted_polynomial_rejects_negative_exponents_and_bad_length():
    w = WeightSystem((1, 1), 2)
    with pytest.raises(ValueError):
        WeightedPolynomial(frozenset({(3, -1)}), w)
    with pytest.raises(LengthMismatchError):
        WeightedPolynomial(frozenset({(1, 1, 0)}), w)


def test_weighted_polynomial_refusals_keep_their_class_and_text():
    w = WeightSystem((1, 1), 2)
    refusals = [
        ({(True, 1)}, TypeError, "exponents must be of type int; True is a bool"),
        ({(2.0, 0)}, TypeError, "exponents must be of type int; 2.0 is a float"),
        ({(1, 1, 0)}, LengthMismatchError, "monomial (1, 1, 0) has 3 exponents, expected 2"),
        ({(3, -1)}, ValueError, "monomial (3, -1) has a negative exponent"),
        ({(2, 0), (1, 0)}, NotQuasiHomogeneousError,
         "monomials have weighted degrees 1, 2; the stated degree is 2"),
        # one monomial failing two checks: type, then length, then sign, then degree
        ({(2.0, 0, 0)}, TypeError, "exponents must be of type int; 2.0 is a float"),
        ({(3, -1, 0)}, LengthMismatchError, "monomial (3, -1, 0) has 3 exponents, expected 2"),
        ({(3, -2)}, ValueError, "monomial (3, -2) has a negative exponent"),
        ({(1, 1, 1)}, LengthMismatchError, "monomial (1, 1, 1) has 3 exponents, expected 2"),
        # every monomial's type is checked before any other check, and the degrees last
        ({(1, 1, 0), (0, 2), (2.0, 0)}, TypeError, "exponents must be of type int; 2.0 is a float"),
        ({(3, -1), (1, 0)}, ValueError, "monomial (3, -1) has a negative exponent"),
    ]
    for support, error, text in refusals:
        with pytest.raises(error) as err:
            WeightedPolynomial(frozenset(support), w)
        assert type(err.value) is error and str(err.value) == text, support
    # any iterable of exponent sequences is read into a frozenset of tuples
    f = WeightedPolynomial([[2, 0], (0, 2), [1, 1]], w)
    assert f.support == frozenset({(2, 0), (0, 2), (1, 1)})
    assert all(type(m) is tuple for m in f.support)


def test_empty_support_is_allowed_for_restrictions():
    w = WeightSystem((1, 1), 2)
    f = WeightedPolynomial(frozenset(), w)
    assert f.sorted_support == ()


def test_quasi_degree_infers_the_degree():
    f = quasi_degree([(5, 1, 0, 0), (0, 4, 0, 0)], (9, 15, 17, 20))
    assert f.system.degree == 60
    with pytest.raises(EmptySubsetError):
        quasi_degree([], (1, 1))
    with pytest.raises(NotQuasiHomogeneousError):
        quasi_degree([(1, 0), (0, 2)], (1, 1))


@pytest.mark.parametrize(
    "monomials, weights, error, text",
    [
        ([], (1, 1), EmptySubsetError, "a polynomial needs at least one monomial"),
        ([(2.5, 0)], (1, 1), TypeError, "exponents must be of type int; 2.5 is a float"),
        ([(1, 0, 0)], (1, 1), LengthMismatchError,
         "exponent vector has length 3, weights have length 2"),
        ([(3, -1)], (1, 1), ValueError, "monomial (3, -1) has a negative exponent"),
        ([(3, -1), (0, 2)], (1, 1), ValueError, "monomial (3, -1) has a negative exponent"),
        ([(1, 0), (0, 2)], (1, 1), NotQuasiHomogeneousError,
         "monomials have distinct weighted degrees: 1, 2"),
        ([(1, 0)], (2, 4), NotNormalizedError, "weights are not normalized: gcd = 2"),
        ([(1, 0)], (0, 1), NonPositiveWeightError, "weight 0 is not positive"),
        ([(1, 0)], (1.0, 1), TypeError, "weights must be of type int; 1.0 is a float"),
        ([(0, 0)], (1, 1), DegenerateDegreeError, "degree 0 is not positive"),
        # when several checks fail, the first in this order wins: exponent types, an empty
        # support, the weights, lengths, one degree, a positive degree, signs
        ([(2.5, 0)], (2, 4), TypeError, "exponents must be of type int; 2.5 is a float"),
        ([], (2, 4), EmptySubsetError, "a polynomial needs at least one monomial"),
        ([(1, 0, 0)], (2, 4), NotNormalizedError, "weights are not normalized: gcd = 2"),
        ([(1, 0, 0), (3, -1)], (1, 1), LengthMismatchError,
         "exponent vector has length 3, weights have length 2"),
        ([(3, -1), (0, 3)], (1, 1), NotQuasiHomogeneousError,
         "monomials have distinct weighted degrees: 2, 3"),
        ([(-1, 0)], (1, 1), DegenerateDegreeError, "degree -1 is not positive"),
        # an empty exponent vector is falsy, and still has the wrong length
        ([()], (1,), LengthMismatchError, "exponent vector has length 0, weights have length 1"),
    ],
)
def test_quasi_degree_refusals_keep_their_class_and_text(monomials, weights, error, text):
    with pytest.raises(error) as err:
        quasi_degree(monomials, weights)
    assert type(err.value) is error and str(err.value) == text


def test_well_formed_space_checks_all_delete_one_subsets():
    assert is_well_formed_space(WeightSystem((9, 15, 17, 20), 60))
    assert is_well_formed_space(WeightSystem((1, 1, 1, 1), 2))
    assert is_well_formed_space(WeightSystem((2, 2, 1, 3), 5))
    assert not is_well_formed_space(WeightSystem((2, 2, 4, 1), 8))
    assert not is_well_formed_space(WeightSystem((2, 2, 2, 3), 6))


def test_divisibility_condition_checks_delete_two_gcds():
    assert divisibility_condition(WeightSystem((9, 15, 17, 20), 60))
    assert divisibility_condition(WeightSystem((11, 49, 69, 128), 256))
    # the pair (2, 2) has gcd 2, which does not divide 5
    assert not divisibility_condition(WeightSystem((2, 2, 1, 1), 5))
    # fewer than 3 weights: vacuous
    assert divisibility_condition(WeightSystem((2, 3), 5))


def test_count_monomials_matches_brute_force_enumeration():
    rng = random.Random(20260815)
    for _ in range(60):
        n = rng.randint(1, 4)
        weights = [rng.randint(1, 9) for _ in range(n)]
        k = rng.randint(-2, 30)
        assert count_monomials(weights, k) == brute_count(weights, k), (weights, k)


def test_count_monomials_known_values():
    assert count_monomials((1, 1, 1), 2) == 6
    assert count_monomials((9, 15, 17), 19) == 0
    assert count_monomials((11, 49, 69), 127) == 0
    assert count_monomials((2, 3), 7) == 1
    assert count_monomials((1,), -1) == 0
    with pytest.raises(NonPositiveWeightError):
        count_monomials((0, 1), 3)


def test_count_monomials_matches_brute_force_at_the_edges_of_the_walk():
    # no weight, one weight (padded), and five weights (a walk three deep)
    for k in range(-2, 9):
        assert count_monomials((), k) == brute_count((), k) == (k == 0), k
    for weights in ((1,), (3,), (7,)):
        for k in (-1, 0, 6, 7):
            assert count_monomials(weights, k) == brute_count(weights, k), (weights, k)
    for weights in ((1, 1, 2, 3, 4), (2, 3, 5, 7, 11), (4, 6, 6, 9, 10)):
        for k in range(-1, 17):
            assert count_monomials(weights, k) == brute_count(weights, k), (weights, k)


def test_count_monomials_work_follows_the_walk_not_the_degree():
    # weights near 10^6 at degree 7*10^6 + 21: x + y + z = 7 and x + 3y + 7z = 21
    start = time.perf_counter()
    assert count_monomials((10**6 + 1, 10**6 + 3, 10**6 + 7), 7 * 10**6 + 21) == 3
    assert time.perf_counter() - start < 0.1


def test_count_monomials_refuses_a_walk_over_its_ceiling_before_walking():
    # four weights of 1 beside the two least: a box of 101^4 remainders, about 1 s to walk
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="would walk more than 1000000 remainders"):
        count_monomials((1,) * 6, 100)
    assert time.perf_counter() - start < 0.1
    assert weights_module.MAX_WALK == 1_000_000


def test_count_monomials_admits_a_walk_at_its_ceiling(monkeypatch):
    # (1, 1, 1, 1) at degree k walks a box of (k + 1)^2 remainders
    monkeypatch.setattr(weights_module, "MAX_WALK", 36)
    assert count_monomials((1, 1, 1, 1), 5) == brute_count((1, 1, 1, 1), 5) == 56
    assert count_monomials((2, 2, 1, 1), 11) == brute_count((2, 2, 1, 1), 11)
    with pytest.raises(BoundExceededError):
        count_monomials((1, 1, 1, 1), 6)
    assert count_monomials((1, 1, 1, 1), -1) == 0  # nothing to walk


def test_count_monomials_refuses_non_integer_weights():
    # truncation would count the monomials of (1, 2): 3 at degree 4
    with pytest.raises(TypeError, match="1.5 is a float"):
        count_monomials((1.5, 2), 4)


def test_missing_variables(f60):
    # a variable in no monomial fails the kernel's I = {i} case, first
    assert quasi_smooth_failure(f60) is None
    f = quasi_degree([(1, 0, 0, 1), (0, 1, 0, 1)], (2, 2, 1, 3))
    assert quasi_smooth_failure(f) == (2,)
    g = quasi_degree([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)], (1, 1, 1, 1))
    assert quasi_smooth_failure(g) == (3,)


def test_quasi_smooth_failure_refuses_too_many_variables(monkeypatch):
    """The subset table has 2^n - 1 rows: a 30-variable input is refused before
    it is built.  A count at the ceiling passes and one above it is refused."""
    start = time.perf_counter()
    with pytest.raises(BoundExceededError) as err:
        quasi_smooth_failure(fermat(2, 30))
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == (
        f"30 variables exceed the quasi-smoothness ceiling {weights_module.MAX_QUASI_SMOOTH_VARS}"
    )
    assert 4 <= weights_module.MAX_QUASI_SMOOTH_VARS < 20
    monkeypatch.setattr(weights_module, "MAX_QUASI_SMOOTH_VARS", 5)
    assert quasi_smooth_failure(fermat(2, 5)) is None
    with pytest.raises(BoundExceededError):
        quasi_smooth_failure(fermat(2, 6))


def test_only_the_four_variable_subset_table_is_kept(monkeypatch, f60):
    """A 16-variable call builds its 65,535-row table for itself alone; analyze,
    singular_strata and the registry read the one table kept, n = 4's."""
    built = []
    build = weights_module._subset_table
    monkeypatch.setattr(weights_module, "_subset_table", lambda n: built.append(n) or build(n))
    assert quasi_smooth_failure(fermat(2, 16)) is None
    assert built == [16]
    assert len(weights_module._subsets(16)) == 2**16 - 1
    assert built == [16, 16]
    clear_memos()
    analyze(f60)
    assert built == [16, 16]
    assert weights_module._subsets(4) is weights_module._SUBSETS_4 == build(4)


def test_quasi_smooth_failure_reads_the_support():
    def failure(monomials, weights):
        return quasi_smooth_failure(quasi_degree(monomials, weights))

    # z0^2*z1 + z2^3 + z3^3: z1 has neither a pure power nor a z1^m*z_e
    assert failure([(2, 1, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], (1, 1, 1, 1)) == (1,)
    # adding z1^3 mends it; a chain and a loop pass though z0 has no pure power
    assert failure([(2, 1, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)], (1, 1, 1, 1)) is None
    assert failure([(2, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 1), (0, 0, 0, 3)], (1, 1, 1, 1)) is None
    assert failure([(2, 1, 0), (0, 2, 1), (1, 0, 2)], (1, 1, 1)) is None
    # z0^2*z2 + z1^2*z2 + z2^3 + z3^3: {z0, z1} has one carrier, z2, not two
    assert failure([(2, 0, 1, 0), (0, 2, 1, 0), (0, 0, 3, 0), (0, 0, 0, 3)], (1, 1, 1, 1)) == (0, 1)
    # a linear monomial makes every subset without it pass
    assert failure([(0, 0, 0, 1), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)], (1, 1, 1, 3)) is None
