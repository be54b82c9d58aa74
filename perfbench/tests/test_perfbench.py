"""Tests of the benchmark's own parts: generator, tracer, checks, metric names.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from singlink import cli, divisor, monodromy  # noqa: E402


def test_catalog_draw_depends_only_on_the_seed():
    first = inputs.catalog_records(7, ROOT)
    assert first == inputs.catalog_records(7, ROOT)
    assert first != inputs.catalog_records(8, ROOT)
    assert [r["weights"] for r in first[:3]] == [[9, 15, 17, 20], [11, 49, 69, 128], [13, 35, 81, 128]]
    supports = {
        (tuple(r["weights"]), r["degree"], frozenset(cli.parse_polynomial(r["poly"])))
        for r in first
    }
    assert len(supports) == len(first) == 2294


def test_spectrum_route_gives_the_dk1_divisor():
    assert reference.spectrum_divisor((9, 15, 17, 20), 60) == {
        60: 1, 20: 1, 12: 1, 4: -1, 3: -1, 1: 1
    }


def _small_catalog():
    lines = [json.dumps(r) for r in inputs.catalog_records(3, ROOT)[:33]]
    goldens = {json.dumps(record): text for text, record, _ in inputs.golden_records(ROOT)}
    return lambda t: workloads.run_catalog(lines, goldens, tracer=t)


SMALL_PASSES = {
    "catalog": _small_catalog,
    "fermat": lambda: lambda t: workloads.run_fermat([7, 5], tracer=t),
    "scan": lambda: lambda t: workloads.run_scan([(16, 4), (8, 5)], seed=3, tracer=t),
    "oracle": lambda: lambda t: workloads.run_oracle(inputs.bp_tuples(bound=40), tracer=t),
}


def _bindings() -> dict:
    """Every attribute of the singlink modules and of the traced classes."""
    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "singlink"]
    holders += [divisor.Divisor, monodromy.ExpandedPoly]
    return {(id(h), key): value for h in holders for key, value in list(vars(h).items())}


@pytest.mark.parametrize("workload", sorted(SMALL_PASSES))
def test_traced_pass_agrees_with_untraced_and_restores_originals(workload):
    one_pass = SMALL_PASSES[workload]()
    before = _bindings()
    plain = one_pass(workloads.NullTracer())
    traced_by = tracer.Tracer()
    traced_by.install()
    try:
        traced = one_pass(traced_by)
    finally:
        traced_by.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert plain.ops == traced.ops > 0
    assert any(calls for calls, _ in traced_by.stats.values())
    assert traced_by.spans and all(s[2] <= s[3] for s in traced_by.spans)


def test_a_removed_function_reads_zero_calls(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "weights", ("no_such_function", "restrict"))
    traced_by = tracer.Tracer()
    traced_by.install()
    try:
        workloads.run_fermat([5], tracer=traced_by)
    finally:
        traced_by.restore()
    assert traced_by.stats["weights.no_such_function"] == [0, 0.0]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    plain = [{"wall_s": 1.0, "raw_wall_s": 1.0, "ops": 2, "op_times": [0.4, 0.6], "op_counts": [1, 1],
              "rss_mb": 9.0}]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(plain, 0.1))
    traced = [dict(plain[0], calls={n: 1 for n in tracer.span_names()},
                   self_s={n: 0.1 for n in tracer.span_names()},
                   sizes=dict.fromkeys(tracer.SIZES, 1))]
    metrics, unstable = run.per_layer(plain, traced)
    assert unstable == 0
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in metrics.values()]
