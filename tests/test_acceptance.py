"""Acceptance gate: the shipped claims, one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Every
criterion asserts exact equalities; the reference numbers are hand-checked
values for the three registry links and independently expanded grouped
products for their characteristic polynomials.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from singlink import classify
from singlink import (
    BUILTIN_REGISTRY,
    WeightSystem,
    bp_oracle,
    characteristic_divisor,
    count_monomials,
    expand,
    fano,
    load_registry,
    middle_betti,
    milnor_number,
    quasi_degree,
    registry_dump,
)
from poincare import graded_dim as _dim, hodge_numbers, poincare_series
from conftest import (
    F256_1_SUPPORT,
    F256_1_WEIGHTS,
    F256_2_SUPPORT,
    F256_2_WEIGHTS,
    F60_SUPPORT,
    F60_WEIGHTS,
    GROUPED_256,
    GROUPED_60,
    brieskorn_pham_quadruples,
    brieskorn_pham_system,
)
from divisor_ring import RingDivisor, lambda_of

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, summary):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d}: FAIL - {summary}")
        raise
    print(f"criterion {number:2d}: PASS - {summary}")


def test_criterion_1_milnor_numbers(all_reports):
    with criterion(1, "Milnor numbers 86, 255, 255"):
        assert [r.milnor_number for r in all_reports] == [86, 255, 255]


def test_criterion_2_characteristic_divisors(all_reports):
    with criterion(2, "characteristic divisors of both families"):
        d60 = ((1, 1), (3, -1), (4, -1), (12, 1), (20, 1), (60, 1))
        d256 = ((1, 1), (2, -1), (256, 1))
        assert all_reports[0].divisor == d60
        assert all_reports[1].divisor == d256
        assert all_reports[2].divisor == d256


def test_criterion_3_expanded_polynomials(all_reports):
    with criterion(3, "expansions equal the grouped products"):
        assert list(all_reports[0].expanded.coefficients) == GROUPED_60
        assert list(all_reports[1].expanded.coefficients) == GROUPED_256
        assert list(all_reports[2].expanded.coefficients) == GROUPED_256


def test_criterion_4_betti_numbers_two_routes(all_reports):
    with criterion(4, "b2 = 2, 1, 1 by divisor and Hodge routes"):
        assert [r.b2_divisor for r in all_reports] == [2, 1, 1]
        assert [r.b2_hodge for r in all_reports] == [2, 1, 1]
        for r in all_reports:
            assert r.b2_divisor == r.b2_hodge


def test_criterion_5_signature_and_genus(all_reports):
    with criterion(5, "signatures -1, 0, 0 and genera 0, 0, 0"):
        assert [r.signature for r in all_reports] == [-1, 0, 0]
        assert [r.genus for r in all_reports] == [0, 0, 0]


def test_criterion_6_orbifold_orders(all_reports):
    with criterion(6, "orbifold orders 765 (derived), 37191, 36855"):
        assert [r.orbifold_order for r in all_reports] == [765, 37191, 36855]
        assert all_reports[0].orbifold_order_source == "derived"
        assert all_reports[0].registry_reference_order is None
        assert all_reports[1].orbifold_order_source == "reference"
        assert all_reports[2].orbifold_order_source == "reference"
        assert all_reports[1].registry_reference_order == 37191
        assert all_reports[2].registry_reference_order == 36855


def test_criterion_7_diffeomorphism_types(all_reports):
    with criterion(7, "#2(S2xS3) and twice S2xS3, torsion-free"):
        assert [r.diffeomorphism_type for r in all_reports] == [
            "#2(S²×S³)", "S²×S³", "S²×S³",
        ]
        for r in all_reports:
            assert r.torsion == "torsion_free"
            assert r.space_well_formed and r.divisibility_ok and r.pair_well_formed


def test_criterion_8_fano_indices(all_reports):
    with criterion(8, "Fano index 1 for all registry links"):
        for r in all_reports:
            assert r.fano.is_fano and r.fano.index == 1


def test_criterion_9_oracle_equivalence():
    start = time.monotonic()
    tuples = brieskorn_pham_quadruples(500)
    mismatches = []
    for exps in tuples:
        via_divisor = expand(characteristic_divisor(brieskorn_pham_system(exps)))
        via_roots = bp_oracle(exps, bound=500)
        if via_divisor.coefficients != via_roots.coefficients:
            mismatches.append(exps)
    elapsed = time.monotonic() - start
    with criterion(
        9, f"pipeline equals oracle on {len(tuples)} exponent tuples ({elapsed:.1f}s)"
    ):
        assert len(tuples) > 100
        assert not mismatches, mismatches[:5]
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def _pipeline_accepts(system):
    try:
        milnor_number(system)
        characteristic_divisor(system)
        poincare_series(system)
    except Exception:
        return False
    return True


def _random_valid_systems(count, fano_quota):
    """Weight systems on which the whole exact pipeline succeeds.

    A quota of four-variable Fano systems is enforced so the signature
    property is exercised, not just vacuously satisfied.
    """
    rng = random.Random(20260815)
    general, fano4 = [], []
    while len(general) < count - fano_quota or len(fano4) < fano_quota:
        if len(fano4) < fano_quota:
            ws = tuple(rng.randint(1, 10) for _ in range(4))
            if math.gcd(*ws) != 1:
                continue
            degree = sum(ws) - rng.randint(1, 3)
            if degree <= max(ws):
                continue
            system = WeightSystem(ws, degree)
            if _pipeline_accepts(system):
                fano4.append(system)
            continue
        nvars = rng.choice((2, 3, 4, 4))
        ws = tuple(rng.randint(1, 12) for _ in range(nvars))
        if math.gcd(*ws) != 1:
            continue
        if rng.random() < 0.5:
            degree = math.lcm(*ws) * rng.randint(1, 2)
        else:
            degree = sum(ws) - rng.randint(-1, 2)
        if degree <= max(ws):
            continue
        system = WeightSystem(ws, degree)
        if _pipeline_accepts(system):
            general.append(system)
    return general + fano4


def test_criterion_10_invariant_suites():
    with criterion(10, "invariant properties on 200 random systems"):
        systems = _random_valid_systems(200, fano_quota=60)
        assert len(systems) == 200
        fano_surfaces = 0
        for system in systems:
            mu = milnor_number(system)
            divisor = characteristic_divisor(system)
            series = poincare_series(system)
            assert sum(j * a for j, a in divisor) == mu
            assert sum(series.coefficients) == mu
            assert series.coefficients == series.coefficients[::-1]
            cutoff = min(system.degree - w for w in system.weights)
            for k in range(min(cutoff, 12)):
                assert _dim(series, k) == count_monomials(system.weights, k)
            if system.nvars == 4:
                # b2_hodge as reports sum it; Delta(t) of these mu (up to ~10^12) is not expanded
                assert sum(hodge_numbers(system).values()) == middle_betti(divisor)
                if fano(system).is_fano:
                    fano_surfaces += 1
                    signature = classify._weight_facts.__wrapped__(system)["signature"]
                    assert signature == 1 - middle_betti(divisor)
        assert fano_surfaces >= 30

        rng = random.Random(4)

        def random_divisor():
            return RingDivisor(
                {
                    rng.randint(1, 12): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 4))
                }
            )

        one = lambda_of(1)
        for _ in range(200):
            x, y, z = random_divisor(), random_divisor(), random_divisor()
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * one == x
            assert (x * y).degree() == x.degree() * y.degree()


def test_criterion_11_registry_round_trip():
    with criterion(11, "registry citations round-trip against the golden file"):
        text = registry_dump()
        assert text == (GOLDEN / "registry.jsonl").read_text(encoding="utf-8")
        entries = load_registry(text)
        assert entries == BUILTIN_REGISTRY
        assert [e.tag for e in entries] == ["DK-1", "DK-2", "DK-3"]
        for e in entries:
            assert "Demailly" in e.citation and "Sasakian-Einstein" in e.citation


def test_acceptance_inputs_match_the_shipped_registry():
    # the fixtures driving criteria 1-8 are literally the registry entries
    cases = (
        (F60_SUPPORT, F60_WEIGHTS),
        (F256_1_SUPPORT, F256_1_WEIGHTS),
        (F256_2_SUPPORT, F256_2_WEIGHTS),
    )
    for entry, (support, weights) in zip(BUILTIN_REGISTRY, cases):
        assert entry.polynomial() == quasi_degree(support, weights)
