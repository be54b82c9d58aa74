import math
import random
import re
from functools import lru_cache
from itertools import zip_longest
from types import SimpleNamespace

import pytest

import poincare
from singlink import classify, milnor_algebra, monodromy
from singlink import (
    ConsistencyError,
    DegenerateDegreeError,
    Divisor,
    ExpandedPoly,
    InexactDivisionError,
    IntegralityViolationError,
    WeightSystem,
    WrongDimensionError,
    characteristic_divisor,
    count_monomials,
    genus_branch_curve,
    middle_betti,
)
from singlink.cli import entry
from singlink.monodromy import factored_residue
from conftest import clear_memos, one_above_mu
from poincare import graded_dim as _dim, hodge_numbers, poincare_series, series_genus


def truncated_series(weights, degree, top):
    """Independent route: multiply the closed product as power series.

    1/(t^w - 1) has no series at 0, but the full product does: expand each
    factor (t^{d-w} - 1) * (1 + t^w + t^{2w} + ...) * (-1) ... equivalently
    compute (1 - t^{d-w}) / (1 - t^w) = sum_{j} t^{jw} truncated, factor by
    factor, which is exact for a complete intersection.
    """
    series = [0] * (top + 1)
    series[0] = 1
    for w in weights:
        # multiply by 1 - t^{d-w}
        nxt = list(series)
        for k in range(degree - w, top + 1):
            nxt[k] -= series[k - (degree - w)]
        # divide by 1 - t^w: cumulative sum with stride w
        for k in range(w, top + 1):
            nxt[k] += nxt[k - w]
        series = nxt
    return tuple(series)


def test_series_of_the_reference_links(f60, f256_1, f256_2):
    for f, mu in ((f60, 86), (f256_1, 255), (f256_2, 255)):
        s = poincare_series(f.system)
        assert sum(s.coefficients) == mu
        assert s.degree == sum(f.system.degree - 2 * wi for wi in f.system.weights)
        assert s.coefficients == s.coefficients[::-1]


def test_series_matches_truncated_power_series_expansion():
    rng = random.Random(2718)
    seen = 0
    while seen < 25:
        ws = tuple(rng.randint(1, 10) for _ in range(rng.randint(2, 4)))
        if math.gcd(*ws) != 1:
            continue
        degree = math.lcm(*ws) * rng.randint(1, 2)
        if degree <= max(ws):
            continue
        w = WeightSystem(ws, degree)
        s = poincare_series(w)
        assert s.coefficients == truncated_series(ws, degree, s.degree)
        seen += 1


def test_series_rejects_degree_not_above_every_weight():
    with pytest.raises(DegenerateDegreeError):
        poincare_series(WeightSystem((2, 1, 1, 1), 2))
    with pytest.raises(DegenerateDegreeError):
        poincare_series(WeightSystem((5, 1), 5))


def test_a_refused_weight_system_raises_on_every_call_and_is_not_cached():
    w = WeightSystem((2, 1, 1, 1), 2)
    for _ in range(2):
        with pytest.raises(DegenerateDegreeError):
            poincare_series(w)


def test_series_is_the_expanded_poly_of_its_weight_system():
    w = WeightSystem((9, 15, 17, 20), 60)
    factors = [(w.degree - wi, 1) for wi in w.weights] + [(wi, -1) for wi in w.weights]
    assert poincare_series(w) == monodromy.expand(factors)


def test_series_raises_on_data_with_no_algebra():
    # (2, 3) at degree 7: the closed product is not a polynomial
    with pytest.raises(InexactDivisionError):
        poincare_series(WeightSystem((2, 3), 7))


def test_series_total_is_checked_against_the_milnor_product(monkeypatch):
    monkeypatch.setattr(poincare, "milnor_product", one_above_mu(poincare.milnor_product))
    with pytest.raises(ConsistencyError, match=r"^series total 86 differs from the Milnor product$"):
        poincare_series(WeightSystem((9, 15, 17, 20), 60))


def test_series_is_one_expand_call(monkeypatch):
    """The reference P(t) is expanded by monodromy.expand, the one binomial-quotient
    kernel: neither it nor milnor_algebra binds expand or its kernels of its own."""
    kernels = (monodromy._mul_binomial_power, monodromy._div_binomial)
    for module in (poincare, milnor_algebra):
        assert not [name for name, value in vars(module).items() if value in kernels]
    assert poincare.expand is monodromy.expand
    assert "expand" not in vars(milnor_algebra)
    calls = []

    def counted(factors):
        calls.append(factors)
        return monodromy.expand(factors)

    monkeypatch.setattr(poincare, "expand", counted)
    w = WeightSystem((9, 15, 17, 20), 60)
    assert sum(poincare_series(w).coefficients) == 86
    assert len(calls) == 1


def test_poincare_series_validation():
    with pytest.raises(ValueError):
        ExpandedPoly(())
    # a float used to be truncated: (1.5, 2, 1.5) was stored as (1, 2, 1)
    with pytest.raises(TypeError, match="1.5 is a float"):
        ExpandedPoly((1.5, 2, 1.5))
    s = ExpandedPoly((1, 2, 1))
    assert s.degree == 2
    assert sum(s.coefficients) == 4
    assert s.coefficients[1] == 2
    assert _dim(s, 3) == 0
    assert _dim(s, -1) == 0


@pytest.mark.parametrize(
    "bad, message",
    [
        ((1, -1, 1), "graded dimensions cannot be negative"),
        ((1, 2, 2), "graded dimensions are not symmetric about T/2"),
        ((1, 2, 1), "series total 4 differs from the Milnor product"),
    ],
)
def test_series_checks_raise_consistency_errors(monkeypatch, capsys, tmp_path, bad, message):
    """A negative, asymmetric or wrongly summing expansion is a broken
    computation, not refused input: the reference poincare_series raises
    ConsistencyError.  analyze builds no P(t); the broken computation it meets
    instead is a divisor that is not Milnor-Orlik's, here DK-1's with bad added
    to its first three a_j.  The character check refuses it: analyze exits 2,
    and batch fails that record on its own line."""
    monkeypatch.setattr(poincare, "expand", lambda factors: ExpandedPoly(bad))
    w = WeightSystem((9, 15, 17, 20), 60)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        poincare_series(w)
    divisor = characteristic_divisor(w)
    shifted = [(j, a + da) for (j, a), da in zip_longest(divisor, bad, fillvalue=0)]
    broken = Divisor((j, a) for j, a in shifted if a)
    monkeypatch.setattr(classify, "characteristic_divisor", lambda w: broken)
    clear_memos()
    refusal = (
        "[stage: characteristic divisor] divisor character 2 at order 1 differs from the weights' 1"
    )
    poly = "z0^5*z1 + z0*z2^3 + z1^4 + z3^3"
    assert entry(["analyze", "--weights", "9,15,17,20", "--poly", poly]) == 2
    assert capsys.readouterr().err == f"consistency failure: {refusal}\n"
    records = tmp_path / "dk1.jsonl"
    records.write_text(f'{{"weights": [9, 15, 17, 20], "degree": 60, "poly": "{poly}"}}\n')
    assert entry(["batch", str(records)]) == 0
    assert capsys.readouterr().err == f"line 1: failed ({refusal})\nok=0 skipped=0 failed=1\n"


def test_graded_dims_of_the_degree_60_link(f60):
    w = f60.system
    assert poincare_series(w).coefficients[59] == 2
    assert _dim(poincare_series(w), -1) == 0
    assert _dim(poincare_series(w), 119) == 0
    assert poincare_series(w).coefficients[0] == 1


def test_graded_dim_of_the_second_degree_256_link(f256_2):
    assert poincare_series(f256_2.system).coefficients[255] == 1


def test_graded_dim_matches_monomial_count_in_low_degrees():
    rng = random.Random(515)
    seen = 0
    while seen < 20:
        ws = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 4)))
        if math.gcd(*ws) != 1:
            continue
        degree = math.lcm(*ws) * 2
        if degree <= max(ws):
            continue
        w = WeightSystem(ws, degree)
        # below every partial degree d - w_i the Jacobian ideal is empty
        cutoff = min(degree - wi for wi in ws)
        series = poincare_series(w).coefficients
        for k in range(cutoff):
            assert series[k] == count_monomials(ws, k), (ws, degree, k)
        seen += 1


def test_hodge_numbers_of_the_reference_links(f60, f256_1, f256_2):
    assert hodge_numbers(f60.system) == {(0, 2): 0, (1, 1): 2, (2, 0): 0}
    assert hodge_numbers(f256_1.system) == {(0, 2): 0, (1, 1): 1, (2, 0): 0}
    assert hodge_numbers(f256_2.system) == {(0, 2): 0, (1, 1): 1, (2, 0): 0}


def test_hodge_route_agrees_with_divisor_route_for_middle_betti():
    rng = random.Random(99)
    seen = 0
    while seen < 20:
        ws = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 4)))
        if math.gcd(*ws) != 1:
            continue
        degree = math.lcm(*ws) * rng.randint(2, 3)
        w = WeightSystem(ws, degree)
        hodge = hodge_numbers(w)
        assert sum(hodge.values()) == middle_betti(characteristic_divisor(w))
        seen += 1


def test_hodge_numbers_of_the_quintic_threefold():
    w = WeightSystem((1, 1, 1, 1), 5)
    assert hodge_numbers(w) == {(0, 2): 4, (1, 1): 44, (2, 0): 4}
    assert sum(hodge_numbers(w).values()) == 52
    with pytest.raises(WrongDimensionError):
        hodge_numbers(WeightSystem((1,), 2))


def _signature(w):
    """The surface signature a report carries for w."""
    return classify._weight_facts.__wrapped__(w)["signature"]


def test_signature_values():
    assert _signature(WeightSystem((9, 15, 17, 20), 60)) == -1
    assert _signature(WeightSystem((11, 49, 69, 128), 256)) == 0
    assert _signature(WeightSystem((13, 35, 81, 128), 256)) == 0
    assert _signature(WeightSystem((1, 1, 1, 1), 2)) == 0


def test_signature_is_one_minus_betti_below_the_anticanonical_degree():
    # d < |w| kills the outer Hodge numbers, leaving tau = 1 - b2
    for ws, d in (
        ((9, 15, 17, 20), 60),
        ((11, 49, 69, 128), 256),
        ((13, 35, 81, 128), 256),
        ((1, 1, 1, 1), 2),
        ((2, 2, 1, 3), 5),
    ):
        w = WeightSystem(ws, d)
        assert d < w.total
        h = hodge_numbers(w)
        assert h[(0, 2)] == 0 and h[(2, 0)] == 0
        assert _signature(w) == 1 - sum(h.values())


def test_genus_of_the_branch_curves():
    assert genus_branch_curve(WeightSystem((9, 15, 17), 60)) == 0
    assert genus_branch_curve(WeightSystem((11, 49, 69), 256)) == 0
    assert genus_branch_curve(WeightSystem((13, 35, 81), 256)) == 0
    with pytest.raises(WrongDimensionError):
        genus_branch_curve(WeightSystem((9, 15, 17, 20), 60))


def test_genus_is_checked_against_the_monomial_count(monkeypatch):
    # the cubic curve: g = 1 at degree 0, where one monomial is counted
    w = WeightSystem((1, 1, 1), 3)
    assert genus_branch_curve(w) == 1
    monkeypatch.setattr(milnor_algebra, "count_monomials", lambda ws, k: count_monomials(ws, k) + 1)
    with pytest.raises(
        ConsistencyError,
        match=r"^closed-form genus 1 differs from the monomial count 2 at degree 0$",
    ):
        genus_branch_curve(w)


def test_a_closed_form_genus_off_a_polynomial_series_is_shown_as_a_fraction(monkeypatch):
    # (1, 1, 3) at d = 5 has no polynomial P(t); past that guard the closed form is 2/3
    w = WeightSystem((1, 1, 3), 5)
    with pytest.raises(InexactDivisionError):
        genus_branch_curve(w)
    monkeypatch.setattr(milnor_algebra, "require_polynomial_series", lambda w: None)
    with pytest.raises(ConsistencyError) as err:
        genus_branch_curve(w)
    assert str(err.value) == "closed-form genus 2/3 differs from the monomial count 1 at degree 0"


def test_genus_counts_monomials_below_the_partial_degrees():
    rng = random.Random(47)
    seen = 0
    while seen < 20:
        ws = tuple(rng.randint(1, 9) for _ in range(3))
        if math.gcd(*ws) != 1:
            continue
        degree = math.lcm(*ws) * 2
        if degree <= max(ws):
            continue
        w = WeightSystem(ws, degree)
        g = genus_branch_curve(w)
        assert g == count_monomials(ws, degree - sum(ws))
        seen += 1


DK1 = WeightSystem((9, 15, 17, 20), 60)
DK1_POLY = "z0^5*z1 + z0*z2^3 + z1^4 + z3^3"
# -Lambda4 - Lambda3 turned into -Lambda5 - Lambda2: the same degree 86 and b2 = 2
DK1_MUTATION = ((1, 1), (2, -1), (5, -1), (12, 1), (20, 1), (60, 1))


@pytest.mark.parametrize(
    "mutant, refusal",
    [
        (DK1_MUTATION, "divisor index 2 is no lcm of the d / gcd(d, w_i)"),
        (((1, 1), (3, -1), (4, -1), (12, 2), (20, 1), (60, 1)),
         "divisor character 18 at order 12 differs from the weights' 6"),
    ],
    ids=["dk1_mutation", "one_coefficient_off"],
)
def test_a_divisor_that_is_not_milnor_orliks_makes_analyze_exit_2(
    mutant, refusal, monkeypatch, capsys
):
    """The DK-1 mutation passes the degree and b2 rows, so only the character
    check sees it; so does a divisor with one a_j perturbed."""
    assert characteristic_divisor(DK1) != mutant
    assert sum(j * a for j, a in DK1_MUTATION) == 86 and middle_betti(Divisor(DK1_MUTATION)) == 2
    monkeypatch.setattr(classify, "characteristic_divisor", lambda w: Divisor(mutant))
    clear_memos()
    assert entry(["analyze", "--weights", "9,15,17,20", "--poly", DK1_POLY]) == 2
    assert capsys.readouterr().err == (
        f"consistency failure: [stage: characteristic divisor] {refusal}\n"
    )
    assert classify._weight_facts.cache_info().currsize == 0


@pytest.mark.parametrize(
    "name, patch, refusal",
    [
        ("_scaled_character", lambda c: lambda w, n: c(w, n) + (n == 60),
         "divisor character 86 at order 60 differs from the weights' 3947401/45900"),
        ("_scaled_character", lambda c: lambda w, n: -c(w, n),
         "divisor character 1 at order 1 differs from the weights' -1"),
        ("_character_orders", lambda orders: lambda w: orders(w)[:-1],
         "divisor index 60 is no lcm of the d / gcd(d, w_i)"),
        ("_character_orders", lambda orders: lambda w: [n for n in orders(w) if n != 12],
         "divisor index 12 is no lcm of the d / gcd(d, w_i)"),
    ],
    ids=["C_at_the_top_order", "C_negated", "L_S_without_the_top", "L_S_without_an_lcm"],
)
def test_patching_the_character_or_its_orders_makes_the_check_raise(
    name, patch, refusal, monkeypatch, f60
):
    divisor = characteristic_divisor(DK1)
    assert milnor_algebra._character_orders(DK1) == [1, 3, 4, 12, 20, 60]
    milnor_algebra.check_divisor_character(DK1, divisor)
    monkeypatch.setattr(milnor_algebra, name, patch(getattr(milnor_algebra, name)))
    with pytest.raises(ConsistencyError, match=f"^{re.escape(refusal)}$"):
        milnor_algebra.check_divisor_character(DK1, divisor)
    clear_memos()
    with pytest.raises(ConsistencyError) as caught:
        classify.analyze(f60)
    assert str(caught.value) == f"[stage: characteristic divisor] {refusal}"


@lru_cache(maxsize=None)
def _systems_below_degree_40():
    """Every normalized nondecreasing 4-weight system with d < 40 and an integral
    characteristic divisor, each with its P(t)-route Hodge numbers, or None where
    the reference refuses it as no polynomial."""
    out = []
    for d in range(2, 40):
        for a in range(1, d):
            for b in range(a, d):
                for c in range(b, d):
                    num, den = (d - a) * (d - b) * (d - c), a * b * c
                    for e in range(c, d):
                        if num * (d - e) % (den * e) or math.gcd(a, b, c, e) != 1:
                            continue
                        w = WeightSystem((a, b, c, e), d)
                        try:
                            characteristic_divisor(w)
                        except IntegralityViolationError:
                            continue
                        try:
                            out.append((w, hodge_numbers(w)))
                        except InexactDivisionError:
                            out.append((w, None))
    return out


def test_the_exactness_test_refuses_what_the_series_refuses_below_degree_40():
    systems = _systems_below_degree_40()
    refused = [w for w, hodge in systems if hodge is None]
    assert (len(systems), len(refused)) == (12_942, 1_897)
    for w, hodge in systems:
        try:
            milnor_algebra.require_polynomial_series(w)
        except InexactDivisionError:
            assert hodge is None, w
        else:
            assert hodge is not None, w


def test_hodge_data_and_genus_match_the_series_below_degree_40(monkeypatch):
    """p_g, h^{1,1} and the signature as analyze's weight memo builds them (its
    Delta(t) expansion stubbed out, since mu reaches 38^4 here, by a stand-in that
    carries only the residue of the divisor's factored form, so the memo's
    cross-check rows still run), and the closed-form genus of every branch curve a
    split leaves, against P(t)."""
    monkeypatch.setattr(
        classify, "expand", lambda divisor: SimpleNamespace(residue=factored_residue(divisor))
    )
    curves = set()
    for w, hodge in _systems_below_degree_40():
        if hodge is None:
            continue
        facts = classify._weight_facts.__wrapped__(w)
        assert facts["hodge"] == tuple(sorted(hodge.items())), w
        assert facts["signature"] == 1 + 2 * hodge[0, 2] - hodge[1, 1], w
        for s, ws in enumerate(w.weights):
            rest = w.weights[:s] + w.weights[s + 1:]
            if w.degree % ws == 0 and math.gcd(*rest) == 1:
                curves.add(WeightSystem(rest, w.degree))
    refused = 0
    for w3 in curves:
        try:
            g = series_genus(w3)
        except InexactDivisionError:
            refused += 1
            with pytest.raises(InexactDivisionError):
                genus_branch_curve(w3)
        else:
            assert genus_branch_curve(w3) == g, w3
    assert (len(curves), refused) == (7_378, 5_385)
