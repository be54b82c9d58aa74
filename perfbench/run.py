"""Benchmark for singlink: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see perfbench/README.md):
catalog, fermat, scan, oracle.  Every pass runs in a fresh interpreter
(perfbench/worker.py), one at a time; passes repeat until the next one
would end after --seconds, with at least MIN_PASSES of them.

--trace 0 prints the end-to-end metrics, from each operation's median time
over the passes.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the traced ones.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("catalog", "fermat", "scan", "oracle")
MIN_PASSES = 3
SETUP_PROBES = 15
TIME_LIMIT_S = 170  # a run must end within 180 s
PROBE = (  # the kernel is imported after the timed import, which needs fractions too
    "import time\n"
    "start = time.perf_counter()\n"
    "import singlink, singlink.cli\n"
    "took = time.perf_counter() - start\n"
    "from calibration import REFERENCE_S, kernel_seconds\n"
    "print(took * REFERENCE_S / kernel_seconds(repeats=5))\n"
)
OP_NAMES = {"catalog": "records", "fermat": "rungs", "scan": "rows", "oracle": "tuples"}


class RunError(Exception):
    pass


def _child(argv: list[str], deadline: float) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    try:
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{argv[1]} did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"{argv[1]} exited with code {proc.returncode}")
    return proc.stdout.splitlines()[-1]


def setup_seconds(deadline: float) -> float:
    """Median normalized import time of singlink and singlink.cli, each in a
    fresh interpreter."""
    return statistics.median(
        float(_child([sys.executable, "-c", PROBE], deadline)) for _ in range(SETUP_PROBES)
    )


def one_pass(args, trace: bool, first: bool, catalog: Path, deadline: float) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
        "1" if trace else "0", "1" if first else "0", str(catalog),
        str(OUT / f"spans-{args.workload}.jsonl"),
    ]
    return json.loads(_child(argv, deadline))


def measure(args, catalog: Path, deadline: float) -> tuple[list[dict], list[dict]]:
    """Untraced passes (and, with --trace 1, a traced pass after each)."""
    stop = time.monotonic() + args.seconds
    plain, traced = [], []
    while True:
        started = time.monotonic()
        plain.append(one_pass(args, False, not plain, catalog, deadline))
        if args.trace:
            traced.append(one_pass(args, True, False, catalog, deadline))
        took = time.monotonic() - started
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if enough and time.monotonic() + took > stop:
            return plain, traced


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(plain: list[dict], setup_s: float) -> dict:
    """Every pass runs the same operations in the same order.  Each
    operation's time is its median over the passes, so one slow stretch of
    one pass moves no metric; wall_s sums those medians."""
    latencies = [statistics.median(times) for times in zip(*(p["op_times"] for p in plain))]
    wall_s = sum(t * n for t, n in zip(latencies, plain[0]["op_counts"]))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (plain[0]["ops"] / wall_s, "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.50), "ms"),
        "latency_p99_ms": (1000 * percentile(latencies, 0.99), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, int]:
    """Layer metrics and the number of passes whose counts did not repeat."""
    first = traced[0]
    unstable = sum(1 for t in traced[1:] if (t["calls"], t["sizes"]) != (first["calls"], first["sizes"]))
    metrics = {}
    for name, calls in first["calls"].items():
        metrics[f"{name}.calls"] = (calls / first["ops"], "calls/op")
        metrics[f"{name}.self_s"] = (statistics.median(t["self_s"][name] for t in traced), "s")
    for name, value in first["sizes"].items():
        metrics[name] = (value, "bytes" if name == "cli.json_bytes" else "count")
    overhead = statistics.median(t["wall_s"] for t in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    metrics["trace_overhead_share"] = (overhead - 1, "ratio")
    return metrics, unstable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "singlink" / "__init__.py").is_file():
        print(f"error: no singlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    OUT.mkdir(exist_ok=True)
    catalog = OUT / "catalog.jsonl"
    try:
        if args.workload == "catalog":
            records = inputs.catalog_records(args.seed, ROOT)
            inputs.write_catalog(records, catalog)
            print(f"catalog: {len(records)} records, "
                  f"{inputs.distinct_weight_systems(records)} distinct weight systems")
        setup_s = 0.0 if args.trace else setup_seconds(deadline)
        plain, traced = measure(args, catalog, deadline)
    except (RunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = plain + traced
    failed = sum(p["failed"] for p in runs)
    digests = {p["digest"] for p in runs}
    if len(digests) != 1:
        print(f"error: passes disagree on the invariant digest: {sorted(digests)}", file=sys.stderr)
        failed += 1
    if args.trace:
        metrics, unstable = per_layer(plain, traced)
        if unstable:
            print("error: call or size counts differ between traced passes", file=sys.stderr)
            failed += unstable
    else:
        metrics = end_to_end(plain, setup_s)

    samples = len(plain[0]["op_times"])
    beyond = samples - math.ceil(0.99 * samples)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes of {plain[0]['ops']} {OP_NAMES[args.workload]}; latency percentiles over "
          f"{samples} samples ({beyond} above p99), each a median over passes; measured wall_s "
          f"{statistics.median(p['raw_wall_s'] for p in plain):.3f}; digest {plain[0]['digest']}")
    for note in plain[0]["notes"]:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["ops"] for p in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
