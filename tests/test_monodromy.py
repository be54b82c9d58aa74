import math
import random
import time
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations_with_replacement, permutations

import pytest

from singlink import classify, milnor_algebra, monodromy
from singlink import (
    BoundExceededError,
    ConsistencyError,
    Divisor,
    ExpandedPoly,
    IntegralityViolationError,
    NonIntegralMilnorNumberError,
    DegenerateDegreeError,
    InexactDivisionError,
    WeightSystem,
    analyze,
    bp_oracle,
    characteristic_divisor,
    expand,
    middle_betti,
    milnor_number,
    quasi_degree,
    to_factored,
)
from singlink.monodromy import P, R, factored_residue
from conftest import clear_memos, count_residue_passes
from divisor_ring import lambda_of


def naive_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def naive_product(polys):
    return reduce(naive_mul, polys, [1])


def reference_expand(factors):
    """The one-binomial-at-a-time expansion of (j, e) pairs: one linear pass per
    unit of exponent."""
    coeffs = [1]
    for j, e in factors:
        for _ in range(max(e, 0)):
            out = [0] * (len(coeffs) + j)
            for k, c in enumerate(coeffs):
                out[k + j] += c
                out[k] -= c
            coeffs = out
    for j, e in factors:
        for _ in range(max(-e, 0)):
            quotient = [0] * (len(coeffs) - j)
            for k in range(len(coeffs) - 1, j - 1, -1):
                quotient[k - j] = coeffs[k] + (quotient[k] if k < len(quotient) else 0)
            assert all(
                coeffs[k] == -(quotient[k] if k < len(quotient) else 0) for k in range(j)
            )
            coeffs = quotient
    return coeffs


def evaluate(p, x):
    """Exact value of an ExpandedPoly at x, by Horner."""
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


def multiplicity_at_one(p):
    """Exponent of (t - 1) in an ExpandedPoly, by repeated exact division: the
    prefix sums s_0 .. s_n of the coefficients give both the remainder
    P(1) = s_n and the negated quotient s_0 .. s_{n-1} of P / (t - 1).  This
    O(b2 * mu) pass is the exact reference for the residue check."""
    coeffs, count = p.coefficients, 0
    while True:
        sums = list(accumulate(coeffs))
        if sums.pop():
            return count
        coeffs, count = sums, count + 1


def brieskorn_pham_quadruples(bound):
    """Nondecreasing quadruples a_i >= 2 with prod(a_i - 1) <= bound."""
    out = []

    def extend(prefix, low, prod):
        if len(prefix) == 4:
            out.append(tuple(prefix))
            return
        a = low
        while prod * (a - 1) <= bound:
            extend(prefix + [a], a, prod * (a - 1))
            a += 1

    extend([], 2, 1)
    return out


def brieskorn_pham_system(exps):
    big_l = math.lcm(*exps)
    return WeightSystem(tuple(big_l // a for a in exps), big_l)


def random_quotient(rng):
    """prod (t^m - 1) / (t^j - 1) over random pairs j | m, as (j, e) pairs: a
    polynomial."""
    exps = {}
    for _ in range(rng.randint(1, 6)):
        m = rng.randint(1, 40)
        j = rng.choice([d for d in range(1, m + 1) if m % d == 0])
        exps[m] = exps.get(m, 0) + 1
        exps[j] = exps.get(j, 0) - 1
    return tuple(exps.items())


def geometric(n):
    """1 + t + ... + t^(n-1)."""
    return [1] * n


def plus_one(n):
    """t^n + 1."""
    return [1] + [0] * (n - 1) + [1]


def test_milnor_numbers_of_the_reference_links(f60, f256_1, f256_2):
    assert milnor_number(f60.system) == 86
    assert milnor_number(f256_1.system) == 255
    assert milnor_number(f256_2.system) == 255


def test_milnor_number_simple_cases():
    assert milnor_number(WeightSystem((1, 1, 1, 1), 2)) == 1
    assert milnor_number(WeightSystem((1, 1, 1, 1), 5)) == 256
    assert milnor_number(WeightSystem((2, 2, 2, 3), 6)) == 8


def test_milnor_number_rejects_degenerate_degree():
    with pytest.raises(DegenerateDegreeError):
        milnor_number(WeightSystem((12, 6, 1, 1), 4))


def test_milnor_number_rejects_zero_and_fractional_products():
    # d equal to the top weight makes one factor vanish
    with pytest.raises(NonIntegralMilnorNumberError):
        milnor_number(WeightSystem((2, 1, 1, 1), 2))
    # pairwise coprime weights with no divisibility at all
    with pytest.raises(NonIntegralMilnorNumberError):
        milnor_number(WeightSystem((2, 3, 5, 7), 16))


def test_characteristic_divisor_of_the_reference_links(f60, f256_1, f256_2):
    d60 = characteristic_divisor(f60.system)
    assert d60 == ((1, 1), (3, -1), (4, -1), (12, 1), (20, 1), (60, 1))
    assert type(d60) is Divisor
    for f in (f256_1, f256_2):
        assert characteristic_divisor(f.system) == ((1, 1), (2, -1), (256, 1))


def test_characteristic_divisor_degree_equals_milnor_number():
    rng = random.Random(8)
    seen = 0
    while seen < 25:
        ws = tuple(rng.randint(1, 12) for _ in range(rng.randint(2, 4)))
        if math.gcd(*ws) != 1:
            continue
        degree = math.lcm(*ws) * rng.randint(1, 3)
        if degree <= max(ws):
            continue
        w = WeightSystem(ws, degree)
        div = characteristic_divisor(w)
        assert sum(j * a for j, a in div) == milnor_number(w)
        seen += 1


@lru_cache(maxsize=None)
def reference_product(weights, degree):
    """prod(Lambda_u / v - 1) over the weights, in the Fraction divisor ring.

    Cached by prefix, so a sweep over weight tuples pays one product per tuple.
    """
    if not weights:
        return lambda_of(1)
    ratio = Fraction(degree, weights[-1])
    return reference_product(weights[:-1], degree) * reference_factor(
        ratio.numerator, ratio.denominator
    )


@lru_cache(maxsize=None)
def reference_factor(u, v):
    return lambda_of(u) / v - 1


def reference_characteristic_divisor(w):
    """The divisor-ring product with the pipeline's checks and messages."""
    if w.degree < max(w.weights):
        raise DegenerateDegreeError(
            f"degree {w.degree} is below the largest weight {max(w.weights)}"
        )
    mu = math.prod((Fraction(w.degree, wi) - 1 for wi in w.weights), start=Fraction(1))
    acc = reference_product(w.weights, w.degree)
    if not acc.is_integral():
        bad = {n: c for n, c in acc.terms.items() if c.denominator != 1}
        raise IntegralityViolationError(
            f"characteristic divisor has fractional coefficients {bad}; "
            "the weight data is inconsistent with an isolated singularity link"
        )
    if acc.degree() != mu:
        raise ConsistencyError(
            f"divisor degree {acc.degree()} differs from Milnor product {mu}"
        )
    return acc


def _outcome(fn, w):
    """The divisor's terms (a Divisor's or a RingDivisor's), or the error.

    A Divisor is checked where it is born: strictly ascending j, nonzero int a_j.
    """
    try:
        divisor = fn(w)
    except (DegenerateDegreeError, IntegralityViolationError, ConsistencyError) as exc:
        return type(exc), str(exc)
    if type(divisor) is Divisor:
        js = [j for j, _ in divisor]
        assert js == sorted(set(js)), divisor
        assert all(type(j) is int and type(a) is int and a for j, a in divisor), divisor
    return divisor.terms


def test_characteristic_divisor_matches_the_divisor_ring_product():
    """Every 4-tuple of weights <= 10 up to order (gcd 1), every degree up to 40.

    The order of the weights changes only the order of the terms, which
    shows in the message of a fractional result; 60 seeded tuples are
    checked in all their orders.
    """
    outcomes = set()
    for ws in combinations_with_replacement(range(1, 11), 4):
        if math.gcd(*ws) != 1:
            continue
        for degree in range(1, 41):
            w = WeightSystem(ws, degree)
            got = _outcome(characteristic_divisor, w)
            assert got == _outcome(reference_characteristic_divisor, w), (ws, degree)
            outcomes.add(got[0] if isinstance(got, tuple) else Divisor)
    assert outcomes == {Divisor, DegenerateDegreeError, IntegralityViolationError}
    rng = random.Random(5)
    for _ in range(60):
        ws = tuple(rng.randint(1, 10) for _ in range(4))
        if math.gcd(*ws) != 1:
            continue
        degree = rng.randint(max(ws), 40)
        for order in set(permutations(ws)):
            w = WeightSystem(order, degree)
            assert _outcome(characteristic_divisor, w) == _outcome(
                reference_characteristic_divisor, w
            ), (order, degree)


def test_characteristic_divisor_rejects_fractional_results():
    with pytest.raises(IntegralityViolationError):
        characteristic_divisor(WeightSystem((2, 3, 5, 7), 16))


def test_characteristic_polynomial_is_built_once_per_weight_system(f60, monkeypatch):
    """classify._weight_facts holds Delta(t) once per canonical weight system:
    two labelings of DK-1 build one divisor, expand it once and take one
    residue pass.  A refused system raises with its stage label on every call
    and leaves the memo as it was."""
    divisor = characteristic_divisor(f60.system)
    calls = []
    for name in ("characteristic_divisor", "expand"):
        original = getattr(monodromy, name)

        def counted(arg, name=name, original=original):
            calls.append((name, arg))
            return original(arg)

        for module in (classify, milnor_algebra, monodromy):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    passes = count_residue_passes(monkeypatch)
    clear_memos()
    relabeled = quasi_degree(
        [(0, 1, 0, 5), (3, 0, 0, 1), (0, 4, 0, 0), (0, 0, 3, 0)], (17, 15, 20, 9)
    )
    first, second = analyze(relabeled), analyze(f60)
    assert [arg for name, arg in calls if name == "characteristic_divisor"] == [f60.system]
    assert [arg for name, arg in calls if name == "expand" and arg == divisor] == [divisor]
    assert passes == [86]
    assert second.divisor == divisor and second.expanded == expand(divisor)
    assert second.expanded is first.expanded
    facts = classify._weight_facts(f60.system)
    with pytest.raises(TypeError):
        facts["divisor"] = ()  # the memo hands out a read-only mapping
    assert classify._weight_facts.cache_info().currsize == 1
    for _ in range(2):
        with pytest.raises(IntegralityViolationError) as err:
            classify._weight_facts(WeightSystem((2, 3, 5, 7), 16))
        assert str(err.value).startswith(
            "[stage: characteristic divisor] characteristic divisor has fractional coefficients"
        )
    assert classify._weight_facts.cache_info().currsize == 1


def test_residue_is_memoized_per_instance(monkeypatch):
    passes = count_residue_passes(monkeypatch)
    p = ExpandedPoly((1, -2, 1))  # (t - 1)^2
    assert p.residue == p.residue == (R - 1) ** 2
    assert passes == [2]
    assert ExpandedPoly((1, -2, 1)).residue == (R - 1) ** 2  # an equal instance counts again
    assert passes == [2, 2]


def test_quadric_divisor_collapses_to_the_unit():
    div = characteristic_divisor(WeightSystem((1, 1, 1, 1), 2))
    assert div == ((1, 1),)
    assert expand(div).coefficients == (-1, 1)


def test_to_factored_gives_the_ascending_pairs(f60):
    fac = to_factored(characteristic_divisor(f60.system))
    assert fac == ((1, 1), (3, -1), (4, -1), (12, 1), (20, 1), (60, 1))
    assert type(fac) is tuple
    assert sum(j * e for j, e in fac) == 86


def test_expand_adds_the_exponents_of_a_repeated_index():
    assert expand([(2, 1), (2, 1)]) == expand([(2, 2)])
    assert expand([(5, 0), (2, 3)]) == expand([(2, 3)])
    assert expand([(3, 2), (2, -1), (3, -1), (2, 1)]) == expand([(3, 1)])
    assert expand(iter([(1, 1)])).coefficients == (-1, 1)
    assert expand([]).coefficients == (1,)
    with pytest.raises(InexactDivisionError):
        expand([(2, -1)])
    with pytest.raises(ValueError):
        expand([(0, 1)])
    # a j < 1 is refused before any kernel runs: a numerator's first, then
    # the least such j; one whose exponents cancel is dropped
    with pytest.raises(ValueError, match=r"^binomial exponent 0 is not positive$"):
        expand([(0, -1)])
    with pytest.raises(ValueError, match=r"^binomial exponent -1 is not positive$"):
        expand([(-1, 2), (-2, -1)])
    assert expand([(0, 1), (0, -1)]).coefficients == (1,)


def test_expand_raises_on_inexact_division():
    for factors in (((3, 1), (2, -1)), ((4, 1), (3, -1)), ((6, 2), (4, -1)), ((1, 3), (2, -1))):
        with pytest.raises(InexactDivisionError):
            expand(factors)


def test_expand_refuses_a_product_above_the_degree_ceiling_before_it_allocates():
    assert not hasattr(classify, "MAX_SOCLE") and monodromy.MAX_DEGREE == 500_000
    assert expand([(500_000, 1)]).degree == 500_000
    with pytest.raises(BoundExceededError, match=r"^degree 500001 exceeds the expand ceiling 500000$"):
        expand([(500_001, 1)])
    with pytest.raises(BoundExceededError, match=r"^degree ~10\^5000 exceeds"):
        expand([(10**5000, 1), (2, -1)])
    # Fermat d = 1,000: mu = 999^4, about 10^12, refused before Delta(t) is expanded
    start = time.perf_counter()
    with pytest.raises(BoundExceededError) as err:
        classify._weight_facts.__wrapped__(WeightSystem((1, 1, 1, 1), 1000))
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == (
        f"[stage: characteristic divisor] degree {999**4} exceeds the expand ceiling 500000"
    )


def test_expanded_poly_validation_and_evaluation():
    with pytest.raises(ValueError):
        ExpandedPoly(())
    with pytest.raises(ValueError):
        ExpandedPoly((1, 0))
    p = ExpandedPoly((-1, 3, -3, 1))  # (t - 1)^3
    assert p.degree == 3
    assert evaluate(p, 1) == 0
    assert evaluate(p, 2) == 1
    assert multiplicity_at_one(p) == 3
    assert multiplicity_at_one(ExpandedPoly((1, 1))) == 0
    assert p.residue == (R - 1) ** 3 == factored_residue([(1, 3)])


def test_factored_and_expanded_polys_refuse_non_integers():
    # each used to be truncated: (2.7, 1) -> (2, 1) and (1.5, 1) -> (1, 1)
    with pytest.raises(TypeError, match="2.7 is a float"):
        expand([(2.7, 1)])
    with pytest.raises(TypeError, match="1.5 is a float"):
        expand([(3, 1), (2, 1.5)])
    with pytest.raises(TypeError, match="0.0 is a float"):
        expand([(2, 0.0)])
    with pytest.raises(TypeError, match="1.5 is a float"):
        ExpandedPoly((1.5, 1))
    with pytest.raises(TypeError, match="True is a bool"):
        ExpandedPoly((-1, True))


def test_expansion_matches_grouped_product_for_degree_60_link(f60):
    expanded = expand(characteristic_divisor(f60.system))
    grouped = naive_product(
        [
            [-1, 1], [-1, 1],
            geometric(15), plus_one(15), plus_one(30),
            geometric(5), plus_one(5), plus_one(10),
            [1, 0, -1, 0, 1],
            [1, -1, 1],
        ]
    )
    assert list(expanded.coefficients) == grouped
    assert expanded.degree == 86
    assert multiplicity_at_one(expanded) == 2


def test_expansion_matches_grouped_product_for_degree_256_links(f256_1, f256_2):
    grouped = naive_product([[-1, 1]] + [plus_one(2 ** k) for k in range(1, 8)])
    for f in (f256_1, f256_2):
        expanded = expand(characteristic_divisor(f.system))
        assert list(expanded.coefficients) == grouped
        assert expanded.degree == 255
        assert multiplicity_at_one(expanded) == 1


def test_expansion_of_the_eight_fold_cone_point():
    # weights (2,2,2,3), degree 6: Delta = (t+1)^2 (t^2-t+1)^3
    expanded = expand(characteristic_divisor(WeightSystem((2, 2, 2, 3), 6)))
    grouped = naive_product([[1, 1], [1, 1]] + [[1, -1, 1]] * 3)
    assert list(expanded.coefficients) == grouped
    assert evaluate(expanded, 1) == 4
    assert multiplicity_at_one(expanded) == 0


def test_middle_betti_from_the_divisor(f60, f256_1):
    assert middle_betti(characteristic_divisor(f60.system)) == 2
    assert middle_betti(characteristic_divisor(f256_1.system)) == 1
    assert middle_betti(Divisor()) == 0
    assert middle_betti(Divisor(((2, -1), (3, 2)))) == 1


def test_middle_betti_rejects_bad_divisors():
    with pytest.raises(IntegralityViolationError):
        middle_betti(Divisor(((1, -3), (2, 1))))


def test_bp_oracle_smallest_cases():
    assert bp_oracle((2, 2, 2)).coefficients == (1, 1)
    assert bp_oracle((2, 2, 2, 2)).coefficients == (-1, 1)
    assert bp_oracle((2, 2)).coefficients == (-1, 1)
    assert bp_oracle((3, 2)).coefficients == (1, -1, 1)


def test_bp_oracle_input_validation():
    with pytest.raises(ValueError):
        bp_oracle(())
    with pytest.raises(ValueError):
        bp_oracle((2, 1, 3))
    with pytest.raises(BoundExceededError):
        bp_oracle((7, 7, 7, 7), bound=100)


def test_bp_oracle_refuses_non_integer_exponents():
    # truncation would give the polynomial of (2, 3)
    with pytest.raises(TypeError, match="2.5 is a float"):
        bp_oracle((2.5, 3))


@pytest.mark.parametrize("bound", [2.5, True, 300.0])
def test_bp_oracle_refuses_a_non_integer_bound(bound):
    with pytest.raises(TypeError, match="oracle bound"):
        bp_oracle((2, 3), bound=bound)


def test_bp_oracle_agrees_with_divisor_pipeline():
    rng = random.Random(314)
    cases = [(3, 3, 3, 2), (2, 3, 5), (4, 4, 4), (6, 10, 15)]
    # the widest packed slots: high powers of few cyclotomic factors
    cases += [(5, 5, 5, 5), (6, 6, 6, 6), (7, 7, 7, 7), (2, 2, 2, 302)]
    while len(cases) < 20:
        cases.append(tuple(rng.randint(2, 9) for _ in range(rng.randint(2, 4))))
    for exps in cases:
        big_l = math.lcm(*exps)
        weights = tuple(big_l // a for a in exps)
        w = WeightSystem(weights, big_l)
        via_divisor = expand(characteristic_divisor(w))
        assert bp_oracle(exps).coefficients == via_divisor.coefficients, exps


def test_bp_oracle_degree_and_symmetry():
    p = bp_oracle((5, 3, 2))
    assert p.degree == 4 * 2 * 1
    # product of cyclotomics over a closed root multiset: palindromic up to sign
    coeffs = p.coefficients
    assert coeffs in (tuple(reversed(coeffs)), tuple(-c for c in reversed(coeffs)))


def _mobius(n):
    sign, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            sign = -sign
        k += 1
    return -sign if n > 1 else sign


def _times_binomial(poly, d):
    """poly * (t^d - 1)."""
    return [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]


def _over_binomial(poly, d):
    """poly / (t^d - 1), asserted exact."""
    quotient = [0] * (len(poly) - d)
    for i in range(len(quotient)):
        quotient[i] = (quotient[i - d] if i >= d else 0) - poly[i]
    assert ([0] * d + quotient)[len(quotient):] == poly[len(quotient):], "inexact"
    return quotient


# the largest order bp_oracle meets on the benchmark's oracle workload
# (all quadruples with prod(a_i - 1) <= 300)
CYCLOTOMIC_ORDERS = 1110


def test_cyclotomic_table_matches_the_mobius_product():
    """Phi_n = prod_{d | n} (t^d - 1)^{mu(n/d)}, for every n up to 1,110."""
    for n in range(1, CYCLOTOMIC_ORDERS + 1):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        poly = [1]
        for d in divisors:
            if _mobius(n // d) == 1:
                poly = _times_binomial(poly, d)
        for d in divisors:
            if _mobius(n // d) == -1:
                poly = _over_binomial(poly, d)
        assert monodromy._cyclotomic(n) == poly, n


def test_packed_product_matches_a_schoolbook_product_of_powers():
    rng = random.Random(2011)
    cases = []
    for _ in range(300):
        bits = rng.choice((1, 3, 8, 30, 70))
        factors = []
        for _ in range(rng.randint(1, 4)):
            p = [rng.randint(-(1 << bits), 1 << bits) for _ in range(rng.randint(1, 12))]
            p[-1] = p[-1] or rng.choice((-1, 1))
            factors.append((p, rng.randint(1, 4)))
        cases.append(factors)
    # length-1 factors, a negative leading coefficient, interior zeros
    cases += [[([7], 1), ([-3], 2)], [([-1], 3), ([2, 0, -5], 1)], [([1, 0, 0, -1], 4), ([-6], 1)]]
    # the slot's edge: a lone coefficient of exactly +-2^(8k - 1), which needs
    # k + 1 bytes (+2^(8k - 1) is one past the largest balanced digit of k
    # bytes), and adjacent coefficients +-c whose 1-norm 2c is exactly
    # 2^(8k - 1), in both orders; k + 1 bytes is, for k = 1, 3 and 7, the
    # widest slot of a 2-, 4- and 8-byte word and, for k = 2 and 4, one byte
    # past it, in the next word up; for k = 8 and 9 it is wider than any word
    for k in (1, 2, 3, 4, 7, 8, 9):
        edge = 1 << 8 * k - 1
        cases += [[([edge], 1)], [([-edge], 1)]]
        cases += [[([edge >> 1, -(edge >> 1)], 1)], [([-(edge >> 1), edge >> 1], 1)]]
        cases += [[([edge >> 1], 1), ([1, -1], 1)], [([edge >> 1], 1), ([-1, 1], 1)]]
    for factors in cases:
        expected = naive_product([p for p, e in factors for _ in range(e)])
        assert monodromy._packed_product(factors, len(expected)) == expected, factors
        with pytest.raises(ConsistencyError, match="did not terminate"):
            monodromy._packed_product(factors, len(expected) - 1)
    assert monodromy._packed_product([], 1) == [1]


def test_expand_matches_the_reference_on_brieskorn_pham_quadruples():
    quadruples = brieskorn_pham_quadruples(300)
    assert len(quadruples) == 1457
    for exps in quadruples:
        fac = characteristic_divisor(brieskorn_pham_system(exps))
        assert list(expand(fac).coefficients) == reference_expand(fac), exps


def test_expand_matches_the_reference_on_the_reference_links(f60, f256_1, f256_2):
    for f in (f60, f256_1, f256_2):
        fac = characteristic_divisor(f.system)
        assert any(e < 0 for _, e in fac)
        assert list(expand(fac).coefficients) == reference_expand(fac)


@pytest.mark.parametrize("d", range(2, 11))
def test_expand_matches_the_reference_on_fermat_surfaces(d):
    fac = characteristic_divisor(WeightSystem((1, 1, 1, 1), d))
    expanded = expand(fac)
    assert list(expanded.coefficients) == reference_expand(fac)
    assert expanded.degree == (d - 1) ** 4


def test_expand_matches_the_reference_on_random_quotients():
    rng = random.Random(2718)
    seen = 0
    while seen < 200:
        fac = random_quotient(rng)
        if not any(e < 0 for _, e in fac):
            continue
        assert list(expand(fac).coefficients) == reference_expand(fac), fac
        seen += 1


@pytest.mark.parametrize("e", [1, 2, 5, 40])
def test_mul_binomial_power_matches_the_naive_product_with_either_side_shorter(e):
    """Up to e input coefficients, one strided update per coefficient; past
    that, one contiguous update per binomial coefficient: both meet here."""
    rng = random.Random(e)
    for j in (1, 2, 7):
        binomial = [-1] + [0] * (j - 1) + [1]
        for n in (1, e, e + 1, e + 2):
            coeffs = [rng.randrange(-10 ** 40, 10 ** 40) for _ in range(n)]
            expected = naive_product([coeffs] + [binomial] * e)
            assert monodromy._mul_binomial_power(coeffs, j, e) == expected, (j, n)


def test_multiplicity_at_one_counts_the_factors_of_t_minus_one():
    # Q(t) = (t + 1)^3 (10^40 t^2 + 7 t - 3): big coefficients, a root at -1,
    # Q(1) = 8 (10^40 + 4) != 0
    q = naive_product([[1, 1]] * 3 + [[-3, 7, 10 ** 40]])
    rng = random.Random(99)
    for k in range(8):
        coeffs = naive_product([q] + [[-1, 1]] * k)
        assert multiplicity_at_one(ExpandedPoly(tuple(coeffs))) == k
        if k:
            coeffs[rng.randrange(len(coeffs))] += 1
            assert multiplicity_at_one(ExpandedPoly(tuple(coeffs))) == 0


def test_multiplicity_at_one_of_t_power_plus_one_is_zero():
    for k in range(1, 12):
        assert multiplicity_at_one(ExpandedPoly(tuple(plus_one(k)))) == 0


KERNELS = ("_mul_binomial_power", "_div_binomial")


def _count_kernel_calls(monkeypatch):
    """Count calls of expand's two kernels, patched where monodromy binds them."""
    calls = []
    for name in KERNELS:
        original = getattr(monodromy, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(monodromy, name, counted)
    return calls


def test_expand_makes_one_kernel_call_per_factor_and_denominator_unit(monkeypatch):
    fac = characteristic_divisor(WeightSystem((1, 1, 1, 1), 11))
    calls = _count_kernel_calls(monkeypatch)
    expanded = expand(fac)
    assert expanded.degree == 10_000
    assert calls
    assert len(calls) <= len(fac) + sum(-e for _, e in fac if e < 0)


def test_expand_divides_the_largest_denominator_first(monkeypatch, f60):
    """Each division shortens the list by its j, so the largest j goes first:
    DK-1's t^4 - 1 before its t^3 - 1, and every unit of an exponent in turn."""
    divided = []
    original = monodromy._div_binomial

    def spied(coeffs, j):
        divided.append(j)
        return original(coeffs, j)

    monkeypatch.setattr(monodromy, "_div_binomial", spied)
    assert expand(characteristic_divisor(f60.system)).degree == 86
    assert divided == [4, 3]
    divided.clear()
    assert expand([(2, -2), (6, 3), (3, -1)]) == expand([(2, 1), (6, 3), (3, -1), (2, -3)])
    assert divided == [3, 2, 2] * 2


def test_residue_calls_no_kernel(monkeypatch, f60):
    # both sides of the residue check are independent of expand's kernels
    divisor = characteristic_divisor(f60.system)
    expanded = expand(divisor)
    calls = _count_kernel_calls(monkeypatch)
    assert expanded.residue == factored_residue(divisor)
    assert calls == []


@pytest.mark.parametrize(
    "system",
    [
        WeightSystem((9, 15, 17, 20), 60),
        WeightSystem((11, 49, 69, 128), 256),
        WeightSystem((13, 35, 81, 128), 256),
        *(WeightSystem((1, 1, 1, 1), d) for d in (6, 8, 10)),
    ],
    ids=["DK-1", "DK-2", "DK-3", "fermat-6", "fermat-8", "fermat-10"],
)
def test_exact_multiplicity_at_one_is_the_divisor_b2(system):
    divisor = characteristic_divisor(system)
    expanded = expand(divisor)
    assert multiplicity_at_one(expanded) == middle_betti(divisor)
    assert expanded.residue == evaluate(expanded, R) % P == factored_residue(divisor)


def test_residue_matches_exact_evaluation_on_big_and_negative_coefficients():
    rng = random.Random(61)
    for _ in range(50):
        coeffs = [rng.randrange(-10 ** 40, 10 ** 40) for _ in range(rng.randint(1, 30))]
        coeffs[-1] = coeffs[-1] or 1
        p = ExpandedPoly(tuple(coeffs))
        assert p.residue == evaluate(p, R) % P
        assert 0 <= p.residue < P


def test_residue_matches_exact_evaluation_across_block_boundaries():
    """Lengths on both sides of one and more residue blocks: a walk that drops
    the top partial block or the bottom block misses these."""
    block = monodromy._BLOCK
    rng = random.Random(1980)
    for n in (1, block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1,
              5 * block + 7):
        coeffs = [rng.randrange(-10 ** 300, 10 ** 300) for _ in range(n)]
        coeffs[-1] = coeffs[-1] or 1
        p = ExpandedPoly(tuple(coeffs))
        assert p.residue == evaluate(p, R) % P, n
    for d in range(11, 16):
        divisor = characteristic_divisor(WeightSystem((1, 1, 1, 1), d))
        assert expand(divisor).residue == factored_residue(divisor), d


def test_factored_residue_refuses_a_point_where_a_factor_vanishes(monkeypatch, f60):
    divisor = characteristic_divisor(f60.system)  # j = 1, 3, 4, 12, 20, 60
    monkeypatch.setattr(monodromy, "R", P - 1)  # R^j = 1 for every even j
    with pytest.raises(ConsistencyError, match=r"R\^4 = 1 mod P"):
        factored_residue(divisor)
    monkeypatch.setattr(monodromy, "R", 1)
    with pytest.raises(ConsistencyError, match=r"R\^1 = 1 mod P"):
        factored_residue(divisor)


def test_bp_oracle_calls_no_kernel(monkeypatch):
    # the oracle builds its cyclotomic table with its own arithmetic, so it
    # shares no failure mode with expand
    monodromy._cyclotomic.cache_clear()
    calls = _count_kernel_calls(monkeypatch)
    assert bp_oracle((4, 6, 9, 10)).degree == 3 * 5 * 8 * 9
    assert calls == []


@pytest.mark.parametrize("wrong", [lambda c: c + [0], lambda c: c[1:]], ids=["deg 3", "deg 1"])
def test_bp_oracle_counts_each_galois_orbit_against_phi(wrong, monkeypatch):
    """An orbit is full when it holds phi(order) residues, phi(order) being the
    degree of the oracle's own Phi_order: a table entry of the wrong degree
    breaks the count at its order."""
    true = monodromy._cyclotomic
    monkeypatch.setattr(monodromy, "_cyclotomic", lambda n: wrong(true(n)) if n == 3 else true(n))
    with pytest.raises(ConsistencyError, match="roots of order 3 do not fill Galois orbits"):
        bp_oracle((3, 3, 3, 3))
    assert bp_oracle((2, 2, 2, 2)).coefficients == (-1, 1)  # orders 1 and 2 still pass


def test_oracle_exact_division_refuses_an_inexact_quotient():
    # t / 2t has no integer quotient; (t + 1) / (t - 1) leaves 2
    with pytest.raises(ConsistencyError, match=r"^cyclotomic division is not exact$"):
        monodromy._exact_div([0, 1], [0, 2])
    with pytest.raises(ConsistencyError, match=r"^cyclotomic division leaves a remainder$"):
        monodromy._exact_div([1, 1], [-1, 1])
