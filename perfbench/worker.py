"""One pass of one workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE FIRST CATALOG_JSONL SPANS_JSONL

run.py starts one worker per pass, so no lru_cache or other state of the
program carries over from one pass to the next, as for separate CLI calls.
FIRST = 1 marks the first pass of a run, which makes the slowest checks.
With TRACE = 1 the pass runs under the tracer and the spans are written to
SPANS_JSONL.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, seed, trace, first, catalog_path, spans_path = argv
    args = (workload, int(seed), ROOT, Path(catalog_path), first == "1")
    import workloads
    from tracer import Tracer

    out = {}
    if trace == "1":
        tracer = Tracer()
        tracer.install()
        try:
            result = workloads.run_workload(*args, tracer)
        finally:
            tracer.restore()
        tracer.write_spans(spans_path)
        out["calls"] = {name: calls for name, (calls, _) in tracer.stats.items()}
        # self times scaled like the pass's timed operations
        scale = result.wall_s / result.raw_wall_s
        out["self_s"] = {name: self_s * scale for name, (_, self_s) in tracer.stats.items()}
        out["sizes"] = tracer.sizes
    else:
        result = workloads.run_workload(*args)
    out.update(
        wall_s=result.wall_s,
        raw_wall_s=result.raw_wall_s,
        ops=result.ops,
        op_times=result.op_times,
        op_counts=result.op_counts,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        failed=result.failed,
        digest=result.digest,
        notes=result.notes,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
