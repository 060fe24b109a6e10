"""loopzeta benchmark: one workload per run, in one fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectral --seed 0 --seconds 22 --trace 0

The process starts cold, as every CLI invocation does, imports loopzeta from
./src, builds the workload's inputs from the seed, then makes the workload's
calls one after another, timing each and checking each result. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, their times at
reference host speed (hostspeed.py); with --trace 1 a span recorder wraps
the layers and the metrics are the per-layer ones (the traced run first runs
the same workload untraced, in a child process, to measure the tracing
overhead). The line before it is a JSON record with the provenance,
every end-to-end figure and the failures. Records, spans and temporary field
files go to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# the tail is the highest of these percentiles with at least TAIL_BEYOND
# stream ops beyond it: a run's few dozen slowest calls depend on its seed's
# inputs (reweight samples whose squares are new to the caches) and on host
# hiccups, so a percentile with only ten calls beyond it reads those
TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_BEYOND = 100

# times are at reference host speed (hostspeed.py); the record also holds
# them as measured
END_TO_END = {"setup_s": "s", "wall_ref_s": "ref_s", "op_p50_ref_ms": "ref_ms",
              "op_tail_ref_ms": "ref_ms", "peak_rss_mb": "MB", "error_margin": "ratio"}


def _process_age() -> float:
    """Seconds since this process started (Linux; 0 elsewhere), so that
    set-up time includes interpreter start."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


# set-up time runs from process start: its age now, plus the time after this
_AGE_AT_START = _process_age()
_T_START = time.perf_counter()


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("spectral", "soup", "fields", "all"),
                   help="all: each workload in turn, each in its own fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long sizes for the self-test")
    p.add_argument("--wrong-reference", action="store_true",
                   help="offset every oracle value (self-test of the checks)")
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's artifact digests as the reference")
    return p.parse_args(argv)


def _import_loopzeta():
    src = ROOT / "src"
    if not (src / "loopzeta" / "__init__.py").is_file():
        sys.exit("perfbench: error: no loopzeta sources under %s" % src)
    sys.path.insert(0, str(src))
    import loopzeta

    if Path(loopzeta.__file__).resolve().parent != (src / "loopzeta").resolve():
        sys.exit("perfbench: error: imported loopzeta from %s" % loopzeta.__file__)
    return loopzeta


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS's own thread count, read through ctypes from the library
    numpy loaded (None if it cannot be found)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read without starting git; 'unknown' when the
    checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(args):
    import numpy
    import scipy
    import scipy.fft

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "scale": args.scale, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(), "fft_workers": scipy.fft.get_workers(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# digests of seeded artifacts (default seed only)
# ---------------------------------------------------------------------------

class Digest:
    """Running SHA-256 over the artifacts, compared at checkpoints (counts of
    artifacts that are powers of two, and the last one) with the reference
    recorded from the seed commit."""

    def __init__(self, reference):
        self.reference = reference or {}
        self.hash = hashlib.sha256()
        self.count = 0
        self.seen = {}
        self.mismatches = 0

    def add(self, chunk) -> bool:
        self.hash.update(chunk)
        self.count += 1
        key = str(self.count)
        if self.count & (self.count - 1) == 0:
            self.seen[key] = self.hash.hexdigest()
        expected = self.reference.get(key)
        if expected is None:
            return True
        ok = self.hash.hexdigest() == expected
        self.mismatches += not ok
        return ok

    def finish(self):
        self.seen[str(self.count)] = self.hash.hexdigest()


def _load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _tail(latencies_ms):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond
    it; the maximum when there are too few operations for p50."""
    n = len(latencies_ms)
    pct = 100
    for p in TAIL_LADDER:
        if n * (100 - p) >= 100 * TAIL_BEYOND:
            pct = p
    if pct == 100:
        return max(latencies_ms), pct
    return statistics.quantiles(latencies_ms, n=100, method="inclusive")[int(pct) - 1], pct


def _timings(ops, latencies):
    """Total time (s) of all ops, and the quartile, median and tail latency
    (ms) of the stream ops."""
    stream = [t * 1e3 for op, t in zip(ops, latencies) if op.stream]
    tail, pct = _tail(stream)
    return {"wall_s": sum(latencies),
            "op_p25_ms": statistics.quantiles(stream, n=4, method="inclusive")[0],
            "op_p50_ms": statistics.median(stream), "op_tail_ms": tail}, pct


def _by_kind(ops, latencies):
    """Count, median latency and total time per kind of operation."""
    groups = {}
    for op, t in zip(ops, latencies):
        groups.setdefault(op.kind, []).append(t)
    return {k: {"count": len(v), "p50_ms": statistics.median(v) * 1e3, "total_s": sum(v)}
            for k, v in groups.items()}


def _execute(workload, checks_factory, digest, recorder, calibrator):
    """Run every op; returns start times and latencies (s), failures and the
    reference-check ratios."""
    starts, latencies, cpu, failures, margins = [], [], [], [], []
    state = workload.state
    clock = time.perf_counter
    calibrator.sample()
    for i, op in enumerate(workload.ops):
        error = None
        c0, t0 = time.process_time(), clock()
        calibrator.start_op()
        try:
            result = op.run(state)
        except Exception as exc:  # a failed op is counted, the run goes on
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        sampling = calibrator.end_op()
        latencies.append(clock() - t0 - sampling)
        starts.append(t0)
        cpu.append(time.process_time() - c0 - sampling)
        if recorder is not None:
            recorder.active = False
        if error is None:
            if op.key is not None:
                state[op.key] = result
            chk = checks_factory()
            try:
                if op.check is not None:
                    op.check(result, chk, state)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
            bad = [name for name, _, ok, _ in chk.items if not ok]
            if bad and error is None:
                error = "failed checks: " + ", ".join(sorted(set(bad)))
            margins.extend(r for _, r, _, ref in chk.items if ref and r is not None)
            if digest is not None and op.artifact is not None:
                if not digest.add(op.artifact(result)) and error is None:
                    error = "artifact digest differs from the seed commit's"
        del result
        calibrator.maybe_sample()
        if recorder is not None:
            recorder.active = True
        if error is not None:
            failures.append((i, op.kind, error))
    calibrator.sample()
    return starts, latencies, cpu, failures, margins


def _steal_s():
    """Time the hypervisor ran other guests while this machine's CPUs were
    runnable (Linux /proc/stat 'steal'; 0 elsewhere)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def _untraced_wall(args):
    """wall_ref_s of the same run with tracing off, in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--scale", args.scale]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit("perfbench: error: untraced run failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-2])["at_reference_speed"]["wall_s"]


def _run_all(args):
    """Run every workload in a fresh child process and print one table."""
    summary, status = {}, 0
    for w in ("spectral", "soup", "fields"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print("%-9s error: %s" % (w, proc.stderr.strip()))
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        summary[w] = {"fail_frac": record["fail_frac"], "digests": record["digests"],
                      "metrics": result["metrics"]}
        print("%-9s fail_frac %.4g (%d/%d), digests %s" % (
            w, record["fail_frac"], result["failed"], result["attempted"], record["digests"]))
        for name, m in result["metrics"].items():
            print("%-9s %-40s %14.6g %s" % (w, name, m["value"], m["unit"]))
    print(json.dumps(summary))
    return status


def main(argv=None):
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_loopzeta()
    import hostspeed
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / ("tmp-%d" % os.getpid())
    scratch.mkdir(exist_ok=True)
    import_s = _AGE_AT_START + (time.perf_counter() - _T_START)

    # set-up: build the inputs several times; they must come out identical
    builds, workload = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh = workloads.build(args.workload, args.seed, args.seconds, args.scale, scratch)
        builds.append(time.perf_counter() - t0)
        if workload is not None and fresh.fingerprint != workload.fingerprint:
            sys.exit("perfbench: error: input generation is not deterministic")
        workload = fresh
    setup_s = import_s + statistics.median(builds)

    untraced_wall = _untraced_wall(args) if args.trace else None

    digest = None
    reference = _load_digests().get(args.scale, {}).get(args.workload)
    if args.seed == DEFAULT_SEED and (reference is not None or args.record_digests):
        digest = Digest(None if args.record_digests else reference["checkpoints"])
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
    # traced runs sample only between operations, so that spans hold no
    # calibration time
    calibrator = hostspeed.Calibrator(during_ops=not args.trace)
    steal0 = _steal_s()
    try:
        with calibrator:
            starts, latencies, cpu, failures, margins = _execute(
                workload, lambda: workloads.Checks(args.wrong_reference), digest,
                recorder, calibrator)
    finally:
        if recorder is not None:
            recorder.uninstall()
        if workload.cleanup is not None:
            workload.cleanup()
        scratch.rmdir()
    steal_s = _steal_s() - steal0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_ops = {i for i, _, _ in failures}
    if digest is not None:
        digest.finish()
        if args.record_digests:
            table = _load_digests()
            table.setdefault(args.scale, {})[args.workload] = {
                "seed": args.seed, "seconds": args.seconds, "checkpoints": digest.seen}
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        digest_status = "%s (%d artifacts)" % (
            "recorded" if args.record_digests else
            "matched" if digest.mismatches == 0 else "mismatch", digest.count)
    else:
        digest_status = "skipped (seed %d is not the default seed %d)" % (
            args.seed, DEFAULT_SEED) if args.seed != DEFAULT_SEED else "no reference"

    ref_latencies = calibrator.normalize(starts, latencies)
    measured, tail_pct = _timings(workload.ops, latencies)
    at_ref, _ = _timings(workload.ops, ref_latencies)
    wall_s = measured["wall_s"]
    figures = {
        "setup_s": setup_s, "wall_ref_s": at_ref["wall_s"],
        "op_p50_ref_ms": at_ref["op_p50_ms"], "op_tail_ref_ms": at_ref["op_tail_ms"],
        "peak_rss_mb": peak_rss_mb, "error_margin": max(margins) if margins else 0.0,
    }
    attempted, failed = len(latencies), len(failed_ops)
    if args.trace:
        values = tracing.per_layer_metrics(recorder, wall_s, at_ref["wall_s"] - untraced_wall)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k]} for k, v in values.items()}
        recorder.write(OUT_DIR / ("spans-%s-seed%d.json.gz" % (args.workload, args.seed)))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in figures.items()}

    record = {
        "provenance": _provenance(args),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in figures.items()},
        "fail_frac": failed / attempted,
        "measured": measured, "at_reference_speed": at_ref,
        "host_slowdown": statistics.median(calibrator.values) / hostspeed.KERNEL_REF_S,
        "calibration_samples": len(calibrator.values),
        "op_tail_pct": tail_pct, "op_count": attempted,
        "stream_op_count": sum(op.stream for op in workload.ops),
        "cpu_s": sum(cpu), "machine_steal_s": steal_s,
        "setup": {"import_s": import_s, "input_builds_s": builds},
        "ops": _by_kind(workload.ops, latencies),
        "reference_checks": len(margins), "digests": digest_status,
        "failures": [{"op": i, "kind": k, "error": e} for i, k, e in failures[:20]],
    }
    if args.trace:
        record["per_layer"] = metrics
        record["untraced_wall_ref_s"] = untraced_wall
    print(json.dumps(record))
    record["latencies_ms"] = [t * 1e3 for t in latencies]
    record["latencies_ref_ms"] = [t * 1e3 for t in ref_latencies]
    record["op_starts_s"] = [t - starts[0] for t in starts]
    record["calibration"] = [[t - starts[0], v] for t, v in
                             zip(calibrator.times, calibrator.values)]
    (OUT_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
