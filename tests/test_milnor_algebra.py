import math
import random

import pytest

from singlink import classify, milnor_algebra, monodromy
from singlink import (
    ConsistencyError,
    DegenerateDegreeError,
    ExpandedPoly,
    InexactDivisionError,
    WeightSystem,
    WrongDimensionError,
    characteristic_divisor,
    count_monomials,
    genus_branch_curve,
    hodge_numbers,
    middle_betti,
    poincare_series,
)
from singlink.cli import entry
from singlink.milnor_algebra import _dim
from conftest import clear_memos, one_above_mu


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
    monkeypatch.setattr(milnor_algebra, "milnor_product", one_above_mu(milnor_algebra.milnor_product))
    with pytest.raises(ConsistencyError, match=r"^series total 86 differs from the Milnor product$"):
        poincare_series(WeightSystem((9, 15, 17, 20), 60))


def test_series_is_one_expand_call(monkeypatch):
    """P(t) is expanded by monodromy.expand, the one binomial-quotient kernel:
    milnor_algebra binds neither of expand's kernels of its own."""
    kernels = (monodromy._mul_binomial_power, monodromy._div_binomial)
    assert not [name for name, value in vars(milnor_algebra).items() if value in kernels]
    assert milnor_algebra.expand is monodromy.expand
    calls = []

    def counted(factors):
        calls.append(factors)
        return monodromy.expand(factors)

    monkeypatch.setattr(milnor_algebra, "expand", counted)
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
    computation, not refused input: poincare_series raises ConsistencyError,
    analyze exits 2 on it, and batch fails that record on its own line."""
    monkeypatch.setattr(milnor_algebra, "expand", lambda factors: ExpandedPoly(bad))
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        poincare_series(WeightSystem((9, 15, 17, 20), 60))
    clear_memos()
    poly = "z0^5*z1 + z0*z2^3 + z1^4 + z3^3"
    assert entry(["analyze", "--weights", "9,15,17,20", "--poly", poly]) == 2
    assert capsys.readouterr().err == f"consistency failure: [stage: hodge numbers] {message}\n"
    records = tmp_path / "dk1.jsonl"
    records.write_text(f'{{"weights": [9, 15, 17, 20], "degree": 60, "poly": "{poly}"}}\n')
    assert entry(["batch", str(records)]) == 0
    assert capsys.readouterr().err == (
        f"line 1: failed ([stage: hodge numbers] {message})\nok=0 skipped=0 failed=1\n"
    )


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
        for k in range(cutoff):
            assert poincare_series(w).coefficients[k] == count_monomials(ws, k), (ws, degree, k)
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
        match=r"^graded dimension 1 at degree 0 differs from the monomial count 2 below",
    ):
        genus_branch_curve(w)


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
