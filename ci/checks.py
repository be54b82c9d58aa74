"""The checks too heavy for Tier-1: memory peaks of long batches, a sweep, a residue at
large mu, the benchmark's smoke runs, and the numbers CI records.

    PYTHONPATH=src python ci/checks.py [NAME ...]

runs the named checks, or all of them, each in a fresh interpreter, so that the peak
RSS a check reads is its own.  It prints what each check records, each check's wall
time and the total, and exits 1 if any check fails.  It needs only singlink on the
path, not the installed script.  Peak RSS is read from ru_maxrss, which is in KiB on
Linux.
"""

import contextlib
import io
import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# what each fresh interpreter runs: check argv[1] with the temporary directory argv[2]
CHILD = (f"import sys; sys.path.insert(0, {HERE!r}); import checks; "
         "checks.CHECKS[sys.argv[1]][1](sys.argv[2])")


def _fermat14(tmp):
    """Fermat d = 14: the blocked residue of Delta(t) (mu = 28,561, about 56 blocks) is the
    plain Horner value mod P.  Records a cold analyze and both JSON renderers."""
    from singlink import analyze, classify, quasi_degree
    from singlink.cli import render_json, render_json_line
    from singlink.monodromy import P, R

    f = quasi_degree([tuple(14 * (i == k) for i in range(4)) for k in range(4)], (1,) * 4)
    classify._weight_facts.cache_clear()
    start = time.perf_counter()
    report = analyze(f)
    print(f"Fermat d = 14: cold analyze {1e3 * (time.perf_counter() - start):.1f} ms")
    horner = 0
    for c in reversed(report.expanded.coefficients):
        horner = (horner * R + c) % P
    assert report.expanded.residue == horner, (report.expanded.residue, horner)
    for render in (render_json, render_json_line):
        start = time.perf_counter()
        render(report)
        print(f"Fermat d = 14: {render.__name__} {1e3 * (time.perf_counter() - start):.1f} ms")


def _batch(tmp, records, summary, max_rss_mb):
    """Write the records to a file, run batch on it, assert its summary line and this
    interpreter's peak RSS, and return the batch's wall time and that peak."""
    import resource

    from singlink.cli import entry

    path = os.path.join(tmp, "records.jsonl")
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = entry(["batch", path, "--out", os.devnull])
    elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert code == 0 and err.getvalue() == summary, (code, err.getvalue())
    assert rss_mb < max_rss_mb, rss_mb
    return elapsed, rss_mb


def _socle_batch(tmp):
    """20 distinct systems with T near 460,000, under expand's degree ceiling: batch keeps
    no P(t) alive."""
    records = (
        {"weights": [2 * m, 3 * m, 1, 6 * m - 1], "degree": 6 * m, "poly": "z0^3 + z1^2 + z2*z3"}
        for m in range(230000, 230020)
    )
    elapsed, rss_mb = _batch(tmp, records, "ok=20 skipped=0 failed=0\n", 60)
    print(f"socle batch, 20 records with T near 460,000: {elapsed:.2f} s, peak RSS {rss_mb:.1f} MB")


def _distinct_batch(tmp):
    """300 distinct pure-power systems (weights dividing d <= 74, every 3-subset with gcd 1)
    with mu in [2,000, 10,000], above the memos' mu cutoff: neither memo keeps them, so the
    peak stays flat."""
    import itertools

    records = []
    for d in range(2, 75):
        divisors = [w for w in range(1, d) if d % w == 0]
        for ws in itertools.combinations_with_replacement(divisors, 4):
            mu = math.prod(d // w - 1 for w in ws)
            if 2000 <= mu <= 10000 and all(math.gcd(*s) == 1 for s in itertools.combinations(ws, 3)):
                poly = " + ".join(f"z{i}^{d // w}" for i, w in enumerate(ws))
                records.append({"weights": list(ws), "degree": d, "poly": poly})
    elapsed, rss_mb = _batch(tmp, records[:300], "ok=300 skipped=0 failed=0\n", 45)
    print(f"batch of 300 distinct pure-power systems: {elapsed:.2f} s, peak RSS {rss_mb:.1f} MB")


def _long_stream(tmp):
    """20,000 distinct systems, far past MEMO_ENTRIES: z0^2 + z1^2 + z2*z3 on
    (m, m, k, 2m - k) with gcd(m, k) = 1 has mu = 1 and T = 0, so every entry is small and
    the memos evict; the peak stays flat only if no per-system cache grows."""
    records = (
        {"weights": [m, m, k, 2 * m - k], "degree": 2 * m, "poly": "z0^2 + z1^2 + z2*z3"}
        for m in range(2, 259) for k in range(1, m) if math.gcd(m, k) == 1
    )
    first = (record for _, record in zip(range(20000), records))
    elapsed, rss_mb = _batch(tmp, first, "ok=20000 skipped=0 failed=0\n", 35)
    print(f"batch of 20,000 distinct mu = 1 systems: {elapsed:.2f} s, peak RSS {rss_mb:.1f} MB")


def _bp_sweep(tmp):
    """z0^a0 + ... + z3^a3 on weights lcm(a) / a_i for every prod(a_i - 1) <= 1,000: an
    ambient space that is not well formed is refused at strata, before its divisor is built."""
    from singlink import SinglinkError, WeightedPolynomial, WeightSystem, analyze

    def quadruples(budget, prefix=()):
        if len(prefix) == 4:
            yield prefix
            return
        for a in range(prefix[-1] if prefix else 2, budget + 2):
            yield from quadruples(budget // (a - 1), prefix + (a,))

    start = time.perf_counter()
    reports, strata, other = 0, 0, []
    for exps in quadruples(1000):
        big_l = math.lcm(*exps)
        system = WeightSystem(tuple(big_l // a for a in exps), big_l)
        support = frozenset(tuple(a * (i == k) for i in range(4)) for k, a in enumerate(exps))
        try:
            analyze(WeightedPolynomial(support, system))
            reports += 1
        except SinglinkError as exc:
            if str(exc).startswith("[stage: strata] "):
                strata += 1
            else:
                other.append((exps, str(exc)))
    elapsed = time.perf_counter() - start
    assert (reports, strata, other) == (129, 6625, []), (reports, strata, other[:5])
    print(f"Brieskorn-Pham sweep, prod(a_i - 1) <= 1,000: {reports} reports and {strata} "
          f"strata refusals in {elapsed:.2f} s")


def _bench_smoke(tmp):
    """One short untraced run of each benchmark workload: its result line reads correct, with
    no failed operation.  Records each run's summary line and result line."""
    import subprocess

    for workload in ("oracle", "catalog", "fermat", "scan"):
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload]
        run = subprocess.run(argv + ["--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = run.stdout.splitlines()
        print(*[line for line in lines if line.startswith(f"{workload} seed ")], lines[-1], sep="\n")
        result = json.loads(lines[-1])
        assert result["correct"] is True and result["failed"] == 0, result


def _line_counts(directory):
    """{file name: line count} of the .py files in directory under the repo root."""
    path = os.path.join(ROOT, directory)
    counts = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                counts[name] = fh.read().count("\n")
    return counts


def _summary(tmp):
    """Records, as no gate: the line count of each source file and of the tests, the size
    of the public API (tests/test_public_api.py pins the names), and the cumulative import
    time of singlink and singlink.cli, what every CLI call pays first."""
    import subprocess

    import singlink

    counts = _line_counts(os.path.join("src", "singlink"))
    print(f"src/singlink/*.py: {sum(counts.values())} lines")
    for name, lines in counts.items():
        print(f"{lines:5d} src/singlink/{name}")
    print(f"tests/*.py: {sum(_line_counts('tests').values())} lines")
    print(f"singlink.__all__: {len(singlink.__all__)} names")
    argv = [sys.executable, "-X", "importtime", "-c", "import singlink, singlink.cli"]
    timings = subprocess.run(argv, stderr=subprocess.PIPE, text=True, check=True).stderr
    for line in timings.splitlines():
        _, cumulative, module = line.split("|")
        if module.strip() in ("singlink", "singlink.cli"):
            print(f"import {module.strip()}: {cumulative.strip()} us cumulative")


# name: (timeout in s or None, check)
CHECKS = {
    "fermat14": (60, _fermat14),
    "socle_batch": (60, _socle_batch),
    "distinct_batch": (60, _distinct_batch),
    "long_stream": (60, _long_stream),
    "bp_sweep": (60, _bp_sweep),
    "bench_smoke": (None, _bench_smoke),
    "summary": (None, _summary),
}


def main(names):
    import subprocess
    import tempfile

    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(f"unknown checks {unknown}; the checks are {list(CHECKS)}", file=sys.stderr)
        return 1
    failed = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or CHECKS:
            timeout = CHECKS[name][0]
            begun = time.perf_counter()
            try:
                argv = [sys.executable, "-c", CHILD, name, tmp]
                outcome = subprocess.run(argv, timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                outcome = f"timed out after {timeout} s"
            if outcome != 0:
                failed.append(name)
            verdict = "passed" if outcome == 0 else f"FAILED ({outcome})"
            print(f"{name}: {verdict} in {time.perf_counter() - begun:.2f} s", flush=True)
    print(f"{len(names or CHECKS)} checks, {len(failed)} failed, in {time.perf_counter() - start:.2f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
