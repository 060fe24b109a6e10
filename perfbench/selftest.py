"""Self-test of the benchmark at tiny sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that every workload emits every end-to-end metric (and, traced, every
per-layer metric) with its unit; that the default seed matches the recorded
artifact digests while another seed skips them and still runs the oracle
checks; that a deliberately wrong reference makes operations fail; and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the harness; importing it runs nothing)
import tracing  # noqa: E402

WORKLOADS = ("spectral", "soup", "fields")
problems = []


def bench(workload, seed, trace=0, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc, what):
    if proc.returncode != 0:
        problems.append("%s: exit %d: %s" % (what, proc.returncode, proc.stderr[-500:]))
        return None, None
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (what, sorted(result)))
    return record, result


def expect(cond, message):
    if not cond:
        problems.append(message)


def check_metrics(what, metrics, wanted):
    expect(set(metrics) == set(wanted), "%s: metrics %s" % (
        what, sorted(set(metrics) ^ set(wanted))))
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float)),
               "%s: %s is %r" % (what, name, m))


def main():
    for w in WORKLOADS:
        what = "%s seed 0" % w
        record, result = parse(bench(w, run.DEFAULT_SEED), what)
        if result:
            check_metrics(what, result["metrics"], run.END_TO_END)
            expect(result["correct"] and result["failed"] == 0, what + ": failures "
                   + json.dumps(record["failures"]))
            expect(record["digests"].startswith("matched"), what + ": digests " + record["digests"])

        what = "%s seed 1 traced" % w
        record, result = parse(bench(w, 1, 1), what)
        if result:
            check_metrics(what, result["metrics"], tracing.PER_LAYER)
            expect(result["correct"], what + ": failures " + json.dumps(record["failures"]))
            expect(record["digests"].startswith("skipped"), what + ": digests "
                   + record["digests"])
            expect(record["reference_checks"] > 0, what + ": no oracle checks ran")

        what = "%s wrong reference" % w
        record, result = parse(bench(w, run.DEFAULT_SEED, 0, "--wrong-reference"), what)
        if result:
            expect(not result["correct"] and result["failed"] > 0,
                   what + ": no operation failed")

    # without the sources next to it the benchmark must refuse to run
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("soup", 0, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "bare directory: exit %d, stdout %r" % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
