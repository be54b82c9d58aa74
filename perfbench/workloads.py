"""One timed pass of each workload, followed by its correctness checks.

Every call into the program goes through a module attribute
(``cli.parse_polynomial``, not a name imported from it), so the tracer's
patches see the benchmark's own calls too.  Checks run between operations,
outside the operation timers and with tracing paused.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import calibration
import inputs
import reference as ref
from singlink import classify, cli, errors, monodromy
from singlink import weights as sl_weights

BP_BOUND = 5000  # largest mu the oracle accepts by default
SCAN_BLOCK = 1000  # rows timed together; one row is too fast to time alone
SCAN_SAMPLE = 50  # non-null rows per scan part re-derived by the program's main path
FERMAT_ORACLE_MU_LATER = 1000  # oracle check bound after the first pass of a run

# Seed-independent results of the full workloads, pinned from the code this
# benchmark was written against.  A digest covers invariants, never JSON
# layout, so a deliberate schema change does not read as a wrong answer.
CATALOG_DIGEST = "394200907df85b93"  # the catalog's classes do not depend on the seed
FERMAT_DIGEST = "49afea8e81d42df3"
ORACLE_DIGEST = "4fdc093330d22c3d"
SCAN_EXPECTED = {  # part -> (rows, digest)
    (96, 4): (463280, "587013b5091a3682"),
    (24, 5): (35631, "26f47653ee9ea1ab"),
}


@dataclass
class Pass:
    """What one pass measured and found."""

    ops: int = 0
    wall_s: float = 0.0  # normalized time spent in timed operations
    raw_wall_s: float = 0.0  # the same, as measured
    op_times: list = field(default_factory=list)  # normalized seconds per operation
    op_counts: list = field(default_factory=list)  # operations timed together
    failed: int = 0
    digest: str = ""
    notes: list = field(default_factory=list)


class NullTracer:
    op = -1

    def paused(self):
        return nullcontext()


def _fail(result: Pass, what: str) -> None:
    result.failed += 1
    if result.failed <= 5:
        print(f"check failed: {what}", file=sys.stderr)


def _each_op(result: Pass, items, op, check, summary, tracer) -> None:
    """Time op(item) for every item, then run check(item, output) untimed.

    The pass's digest covers summary(item, output) of every operation that
    did not raise; outputs themselves are dropped, as a batch run drops them.
    """
    kept = []
    with calibration.Timer() as timer:
        for i, item in enumerate(items):
            tracer.op = i
            timer.start()
            try:
                output = op(item)
            except Exception as exc:  # any error of the program is a failed operation
                timer.stop()
                result.failed += 1
                if result.failed <= 5:
                    print(f"operation failed on {item!r}:", file=sys.stderr)
                    traceback.print_exception(exc, file=sys.stderr)
                continue
            timer.stop()
            with tracer.paused():
                bad = check(item, output)
                kept.append(summary(item, output))
            if bad:
                _fail(result, f"{item!r}: {', '.join(bad)}")
    result.ops += len(items)
    _record(result, timer)
    result.digest = ref.digest(kept)


def _record(result: Pass, timer: calibration.Timer) -> None:
    result.wall_s += timer.wall_s
    result.raw_wall_s += timer.raw_s
    result.op_times += timer.op_times
    result.op_counts += timer.op_counts


def _divisor_ints(divisor) -> dict[int, int] | None:
    terms = divisor.terms
    if any(c.denominator != 1 for c in terms.values()):
        return None
    return {n: int(c) for n, c in terms.items()}


def invariants(report) -> list:
    coefficients = ",".join(map(str, report.expanded.coefficients))
    return [
        hashlib.sha256(coefficients.encode()).hexdigest()[:16],
        list(report.weights),
        report.degree,
        report.milnor_number,
        sorted(_divisor_ints(report.divisor).items()),
        report.b2_divisor,
        report.signature,
        report.genus,
        report.orbifold_order,
        report.diffeomorphism_type,
        report.se_status,
    ]


def check_report(report) -> list[str]:
    """Compare a report with the spectrum route; names of failed checks."""
    expected = ref.spectrum_divisor(report.weights, report.degree)
    bad = []
    if _divisor_ints(report.divisor) != expected:
        bad.append("divisor")
    if report.milnor_number != sum(j * a for j, a in expected.items()):
        bad.append("milnor number")
    if report.b2_divisor != sum(expected.values()):
        bad.append("b2")
    num, den = ref.factored_value_at_two(expected)
    if ref.value_at_two(report.expanded.coefficients) * den != num:
        bad.append("expanded at t = 2")
    return bad


def _check_oracle(report, exponents) -> bool:
    return monodromy.bp_oracle(exponents).coefficients == report.expanded.coefficients


def _pure_powers(support) -> tuple[int, ...] | None:
    powers = []
    for m in support:
        nonzero = [a for a in m if a]
        if len(nonzero) != 1:
            return None
        powers.append(nonzero[0])
    return tuple(sorted(powers))


def run_catalog(
    lines: list[str], goldens: dict[str, str], expected: str | None = None, tracer=NullTracer()
) -> Pass:
    """parse -> WeightedPolynomial -> analyze -> render_json_line, per batch line.

    `goldens` maps the lines of DK-1..DK-3 to their golden render_json text.
    """

    def op(line):
        record = json.loads(line)
        ws = tuple(int(w) for w in record["weights"])
        system = sl_weights.WeightSystem(ws, int(record["degree"]))
        support = cli.parse_polynomial(str(record["poly"]), nvars=len(ws))
        report = classify.analyze(sl_weights.WeightedPolynomial(support, system))
        cli.render_json_line(report)
        return report

    def check(line, report):
        bad = check_report(report)
        if line in goldens and cli.render_json(report) != goldens[line]:
            bad.append("golden bytes")
        powers = _pure_powers(report.support)
        if powers and report.milnor_number <= BP_BOUND and not _check_oracle(report, powers):
            bad.append("bp_oracle")
        return bad

    result = Pass()
    _each_op(result, lines, op, check, lambda line, report: invariants(report), tracer)
    if expected is not None and result.digest != expected:
        _fail(result, f"catalog digest {result.digest} != {expected}")
    return result


def run_fermat(
    degrees: list[int], expected: str | None = None, oracle_mu: int = BP_BOUND, tracer=NullTracer()
) -> Pass:
    """analyze + render_json on the Fermat surfaces sum z_i^d, weights (1,1,1,1).

    Rungs with mu <= oracle_mu are compared with bp_oracle.
    """

    def op(d):
        support = [tuple(d if j == k else 0 for j in range(4)) for k in range(4)]
        report = classify.analyze(sl_weights.quasi_degree(support, (1, 1, 1, 1)))
        cli.render_json(report)
        return report

    def check(d, report):
        bad = check_report(report)
        if report.milnor_number <= oracle_mu and not _check_oracle(report, (d,) * 4):
            bad.append("bp_oracle")
        return bad

    result = Pass()
    _each_op(result, degrees, op, check, lambda d, report: invariants(report), tracer)
    if expected is not None and result.digest != expected:
        _fail(result, f"fermat digest {result.digest} != {expected}")
    return result


def _scan_row_matches(row) -> bool:
    """A scan row against milnor_number and middle_betti(characteristic_divisor)."""
    system = sl_weights.WeightSystem(tuple(row["weights"]), row["degree"])
    try:
        b2 = monodromy.middle_betti(monodromy.characteristic_divisor(system))
    except errors.SinglinkError:
        b2 = None
    return monodromy.milnor_number(system) == row["milnor_number"] and b2 == row["b2_divisor"]


def run_scan(
    parts: list[tuple[int, int]], seed: int, expected: dict | None = None, tracer=NullTracer()
) -> Pass:
    """scan_rows over each (max weight, variables) part; rows timed in blocks."""
    result = Pass()
    rng = random.Random(seed)
    for i, (max_weight, nvars) in enumerate(parts):
        tracer.op = i
        count = degree_sum = 0
        kept = []
        with calibration.Timer() as timer:
            timer.start()
            try:
                for row in cli.scan_rows(max_weight, index=1, nvars=nvars):
                    count += 1
                    degree_sum += row["degree"]
                    if row["milnor_number"] is not None:
                        kept.append(row)
                    if count % SCAN_BLOCK == 0:
                        timer.stop(SCAN_BLOCK)
                        timer.start()
            except Exception:  # any error of the program is a failed operation
                _fail(result, f"scan {max_weight}/{nvars} raised")
                traceback.print_exc(file=sys.stderr)
            if count % SCAN_BLOCK or not count:
                timer.stop(max(count % SCAN_BLOCK, 1))
        result.ops += max(count, 1)
        _record(result, timer)
        with tracer.paused():
            items = [[count, degree_sum]] + [
                [r["weights"], r["degree"], r["milnor_number"], r["b2_divisor"]] for r in kept
            ]
            digest = ref.digest(items)
            result.notes.append(f"scan {max_weight}/{nvars}: {count} rows, digest {digest}")
            pinned = expected and expected[(max_weight, nvars)]
            if pinned and pinned != (count, digest):
                _fail(result, f"scan {max_weight}/{nvars}: rows/digest {count}/{digest} != {pinned}")
            if (max_weight, nvars) == (96, 4) and not any(
                r["weights"] == [9, 15, 17, 20] and r["degree"] == 60
                and r["milnor_number"] == 86 and r["b2_divisor"] == 2
                for r in kept
            ):
                _fail(result, "scan 96/4: DK-1 row missing or wrong")
            for row in rng.sample(kept, min(SCAN_SAMPLE, len(kept))):
                if not _scan_row_matches(row):
                    _fail(result, f"scan row {row}")
            result.digest += digest
    return result


def run_oracle(
    tuples: list[tuple[int, ...]], expected: str | None = None, tracer=NullTracer()
) -> Pass:
    """expand(to_factored(characteristic_divisor)) against bp_oracle, per tuple."""

    def op(a):
        big_l = math.lcm(*a)
        system = sl_weights.WeightSystem(tuple(big_l // x for x in a), big_l)
        divisor = monodromy.characteristic_divisor(system)
        same = monodromy.expand(monodromy.to_factored(divisor)) == monodromy.bp_oracle(a)
        return divisor, same

    def check(a, output):
        return [] if output[1] else ["expansion differs from bp_oracle"]

    def summary(a, output):
        return [sorted(a), sorted(_divisor_ints(output[0]).items())]

    result = Pass()
    _each_op(result, tuples, op, check, summary, tracer)
    if expected is not None and result.digest != expected:
        _fail(result, f"oracle digest {result.digest} != {expected}")
    return result


def run_workload(
    workload: str, seed: int, root, catalog_path, first: bool, tracer=NullTracer()
) -> Pass:
    """One full pass of a named workload on the inputs its seed gives.

    The oracle check of the Fermat rung d = 8 (mu = 2,401) takes about
    twice as long as the rest of the pass, so only the first pass of a run
    makes it; every pass must reproduce the first pass's digest, which
    covers the expanded coefficients.
    """
    if workload == "catalog":
        lines = catalog_path.read_text(encoding="utf-8").splitlines()
        goldens = {json.dumps(record): text for text, record, _ in inputs.golden_records(root)}
        return run_catalog(lines, goldens, CATALOG_DIGEST, tracer=tracer)
    if workload == "fermat":
        oracle_mu = BP_BOUND if first else FERMAT_ORACLE_MU_LATER
        return run_fermat(list(inputs.FERMAT_DEGREES), FERMAT_DIGEST, oracle_mu, tracer=tracer)
    if workload == "scan":
        return run_scan(list(inputs.SCAN_PARTS), seed, SCAN_EXPECTED, tracer=tracer)
    if workload == "oracle":
        return run_oracle(inputs.bp_tuples(), ORACLE_DIGEST, tracer=tracer)
    raise ValueError(f"unknown workload {workload!r}")
