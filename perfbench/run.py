"""intsing benchmark: one workload, timed or traced, with checked outputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` makes the workload's operations in a closed loop,
one at a time, for ``--seconds`` seconds and at least one pass over its
inputs, and prints the end-to-end metrics at reference CPU speed (see
`SpeedSampler`).  ``--trace 1`` makes the workload's fixed number of
operations once plainly and once with the tracer installed, and prints the
per-layer metrics.  Every operation's output is checked by the workload's
oracle; the last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` and the exit code is non-zero when any operation
failed.  See README.md in this directory.
"""

import os

# Pin BLAS to one thread before numpy is first imported; this process only.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
MAX_PRINTED_FAILURES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
}

# The per-workload names of those metrics, for the report lines:
# workload -> [(name, end-to-end metric, scale, unit)].
NAMED = {
    "kovalevskaya-diagram": [("diagram_s", "op_p50_ms", 1e-3, "s")],
    "classify-disguised": [
        ("classify_points_per_s", "ops_per_s", 1.0, "1/s"),
        ("classify_p50_ms", "op_p50_ms", 1.0, "ms"),
        ("classify_p99_ms", "op_p99_ms", 1.0, "ms"),
    ],
    "verify-disguised": [("verify_s", "op_p50_ms", 1e-3, "s")],
    "atoms-fuzz": [
        ("atoms_products_per_s", "ops_per_s", 1.0, "1/s"),
        ("atoms_p50_us", "op_p50_ms", 1e3, "us"),
        ("atoms_p99_us", "op_p99_ms", 1e3, "us"),
    ],
}


def calibration_loop() -> None:
    """Fixed pure-Python work that no intsing code can change."""
    d: dict = {}
    for i in range(1400):
        k = i % 97
        d[k] = d.get(k, 0) + i


class SpeedSampler:
    """Times `calibration_loop` every PERIOD_S seconds from SIGALRM.

    The CPU speed a process gets on a shared machine swings with the load of
    its co-tenants: on the 2-vCPU virtual machine the benchmark was written
    on, phases from a fraction of a second to a few seconds long ran the same
    code at speeds 1.5-1.7x apart, and the loop slowed by about the same
    factor as the workloads.  A loop that also called numpy ran about 1.6x
    slower between operations than back to back, its caches evicted by the
    workload, so the reference would move with the program's cache
    footprint; this one showed no gap beyond the swings between runs.  `scaled` turns a wall-clock interval into
    seconds at reference speed, the speed at which the loop takes REF_S: the
    interval net of the sampling it contains, times REF_S x the mean of
    1/(loop time) over the samples taken from WINDOW_S before the interval
    to WINDOW_S after it.  Intervals are scaled once the run is over and the
    samples after them exist.  A window much wider than WINDOW_S spans phase
    changes and made the p99 of short operations noisier; sampling costs
    about 2 % of the run.
    """

    PERIOD_S = 0.01
    WINDOW_S = 0.25
    REF_S = 2e-4

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        calibration_loop()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, t0, 0, n)
        hi = bisect.bisect_left(self.starts, t1, lo, n)
        first = bisect.bisect_left(self.starts, t0 - self.WINDOW_S, 0, lo)
        last = max(bisect.bisect_left(self.starts, t1 + self.WINDOW_S, hi, n), first + 1)
        net = (t1 - t0) - sum(self.durations[lo:hi])
        return net * self.REF_S * statistics.fmean(1.0 / d for d in self.durations[first:last])

    def speed(self) -> float:
        """Median speed over the run, relative to reference speed."""
        return self.REF_S / statistics.median(self.durations)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NAMED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(modules) -> dict:
    out = {}
    for m in modules:
        with open(SRC / "intsing" / f"{m}.py") as fh:
            out[m] = sum(1 for _ in fh)
    return out


class Failures:
    def __init__(self):
        self.count = 0

    def add(self, i: int, reason: str) -> None:
        self.count += 1
        if self.count <= MAX_PRINTED_FAILURES:
            print(f"FAILED op {i}: {reason}", file=sys.stderr)


def one_op(w, i: int, failures: Failures):
    """Run and check operation i; return (start, end, output or None)."""
    t0 = time.perf_counter()
    try:
        out = w.run(i)
    except Exception:
        t1 = time.perf_counter()
        failures.add(i, traceback.format_exc().strip().replace("\n", " | "))
        return t0, t1, None
    t1 = time.perf_counter()
    reason = w.check(i, out)
    if reason is not None:
        failures.add(i, reason)
    return t0, t1, out


def timed_run(w, seconds: float, failures: Failures) -> list:
    """Operations 0, 1, ... until `seconds` have passed and at least
    `w.min_ops` ran; return their (start, end) intervals."""
    intervals = []
    deadline = time.perf_counter() + seconds
    while len(intervals) < w.min_ops or time.perf_counter() < deadline:
        t0, t1, _ = one_op(w, len(intervals), failures)
        intervals.append((t0, t1))
    return intervals


def latency_metrics(seconds: list) -> dict:
    import numpy as np

    ms = np.array(seconds) * 1e3
    return {
        "op_p50_ms": float(np.median(ms)),
        "op_p99_ms": float(np.percentile(ms, 99)),
        "ops_per_s": len(seconds) / sum(seconds),
    }


def traced_run(w, build, workload: str, failures: Failures, lines: dict, seed: int):
    """The workload's fixed operations plainly, then one more set-up and the
    same operations under the tracer."""
    plain = 0.0
    for i in range(w.trace_ops):
        t0, t1, _ = one_op(w, i, failures)
        plain += t1 - t0
    tracer = tracing.Tracer()
    counts: dict = {}
    traced = 0.0
    tracer.install()
    try:
        with tracer.operation(-1, "setup"):
            build().close()
        for i in range(w.trace_ops):
            with tracer.operation(i, "op"):
                t0, t1, out = one_op(w, i, failures)
            traced += t1 - t0
            if out is not None:
                for k, v in w.counts(out).items():
                    counts[k] = counts.get(k, 0) + v
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(counts, lines, traced / plain)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": w.trace_ops, "spans": tracer.spans}, fh)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"per-layer report, workload {workload} (traced {traced:.3f} s, untraced {plain:.3f} s, {w.trace_ops} ops)")
    print(f"  {'workload':22s} {'span':46s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} {'failed':>6s}")
    for name, st in tracer.stats.items():
        if st.calls:
            by = f" {dict(st.failed_by)}" if st.failed_by else ""
            print(f"  {workload:22s} {name:46s} {st.calls:8d} {st.busy_s:10.4f} {st.self_s:10.4f} {st.failed:6d}{by}")
    stat_names = {f"{t}.{s}" for t in tracing.TARGETS for s in ("calls", "busy_s", "self_s", "failed")}
    for name, m in metrics.items():
        if name not in stat_names and (m["value"] or name == "trace.overhead_ratio"):
            print(f"  {workload:22s} {name:46s} {m['value']:>14.6g} {m['unit']}")
    for name, ((num_label, num), (base_label, base)) in tracer.ratio_bases(counts).items():
        if base:
            print(f"  {workload:22s} {name} = {num_label} / {base_label} = {num} / {base}")
    return metrics, 2 * w.trace_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace:  # the traced run reports plain wall-clock times
        return run(args, None)
    clock = SpeedSampler()
    clock.start()
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock) -> int:
    t_import = time.perf_counter()
    if not (SRC / "intsing" / "__init__.py").is_file():
        print(f"error: no intsing sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import intsing

    if Path(intsing.__file__).resolve().parent != SRC / "intsing":
        print(f"error: imported intsing from {intsing.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    import_interval = (t_import, time.perf_counter())
    snapshot = tracing.namespace_snapshot()
    lines = src_lines(tracing.SRC_MODULES)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_lines": lines,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    builds = []
    w = None
    failures = Failures()
    try:
        for _ in range(SETUP_REPEATS):
            if w is not None:
                w.close()
            t0 = time.perf_counter()
            w = cls(args.seed, str(OUT_DIR))
            builds.append((t0, time.perf_counter()))
        if args.trace:
            metrics, attempted = traced_run(
                w, lambda: cls(args.seed, str(OUT_DIR)), args.workload, failures, lines, args.seed
            )
        else:
            intervals = timed_run(w, args.seconds, failures)
            attempted = len(intervals)
            import_s = clock.scaled(*import_interval)
            build_s = [clock.scaled(*b) for b in builds]
            setup_s = import_s + statistics.median(build_s)
            scaled = [clock.scaled(*iv) for iv in intervals]
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **latency_metrics(scaled),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        if w is not None:
            w.close()

    leaked = [k for k, v in tracing.namespace_snapshot().items() if snapshot.get(k, v) != v]
    if leaked:
        failures.add(-1, f"intsing attributes differ from their import-time objects: {leaked[:5]}")
    correct = failures.count == 0

    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, failed {failures.count}, "
          f"error_rate {failures.count / attempted:.6g}")
    if not args.trace:
        print(f"  setup_s {setup_s:.6g} s (import {import_s:.6g} s + median of {SETUP_REPEATS} builds "
              f"{', '.join(f'{b:.4g}' for b in build_s)})")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MB")
        for name, key, scale, unit in NAMED[args.workload]:
            print(f"  {name} {metrics[key]['value'] * scale:.6g} {unit} (n={attempted})")
        raw = latency_metrics([t1 - t0 for t0, t1 in intervals])
        print(f"  times are at reference speed; this run's median speed was {clock.speed():.4g}x reference "
              f"({len(clock.durations)} samples)")
        for key, m in metrics.items():
            wall_note = f" (wall clock {raw[key]:.6g})" if key in raw else ""
            print(f"  [{key} {m['value']:.6g} {m['unit']}{wall_note}]")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failures.count, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
