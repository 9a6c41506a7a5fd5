"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

Run from the root of a source checkout.  Checks, in order:

1. BENCHMARK.json names exactly the metrics the runner and tracer report.
2. Installing the tracer rebinds the targets everywhere they are bound
   (module namespaces, the package namespace, classes), and uninstalling it
   restores every intsing attribute to its import-time object.
3. The workload's composed diagram equals, as `diagram_to_dict`, the CLI
   default `kovalevskaya_diagram(0.5)`.
4. Two traced runs of one seed give identical call and work counts, for each
   named workload (default: all four).
5. In a directory holding only BENCHMARK.json and this directory, the runner
   exits non-zero without printing a result.

Exits non-zero when any check fails.  Runs the runner in child processes one
at a time and waits for each.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".failed", ".distinct_keys", ".seeds", ".arcs", ".arc_points")


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    want_e2e = list(run.END_TO_END_UNITS.items())
    got_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if got_e2e != want_e2e:
        errors.append(f"end_to_end {got_e2e} != runner's {want_e2e}")
    got_layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if got_layers != tracing.PER_LAYER:
        errors.append("per_layer differs from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        errors.append("workloads differ from workloads.WORKLOADS")
    return errors


def check_install_restores() -> list[str]:
    import intsing
    from intsing import bifurcation, classify, cli, expr

    before = tracing.namespace_snapshot()
    originals = (classify.classify_point, classify.williamson_type, expr.Expression.__dict__["jet2"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        errors = []
        if intsing.classify_point is originals[0] or cli.classify_point is originals[0]:
            errors.append("classify_point not rebound in the package or cli namespace")
        if bifurcation.williamson_type is originals[1]:
            errors.append("williamson_type imported into bifurcation not rebound")
        if expr.Expression.__dict__["jet2"] is originals[2]:
            errors.append("Expression.jet2 not rebound")
    finally:
        tracer.uninstall()
    changed = [k for k, v in tracing.namespace_snapshot().items() if before.get(k, v) != v]
    if changed:
        errors.append(f"attributes not restored after uninstall: {changed[:5]}")
    return errors


def check_default_diagram() -> list[str]:
    from intsing import bifurcation, kovalevskaya

    w = workloads.KovalevskayaDiagram(0, str(OUT_DIR))
    composed, _ = w.run(0)
    reference = kovalevskaya.kovalevskaya_diagram(workloads.G)
    if bifurcation.diagram_to_dict(composed) != bifurcation.diagram_to_dict(reference):
        return ["composed diagram differs from kovalevskaya_diagram(0.5)"]
    return []


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run of {workload} exited {proc.returncode}: {proc.stderr[-500:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def check_traced_counts_repeat(names) -> list[str]:
    errors = []
    for name in names:
        first, second = traced_counts(name, 1), traced_counts(name, 1)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            errors.append(f"{name}: traced counts differ between runs: {diff}")
        print(f"  {name}: {sum(v for k, v in first.items() if k.endswith('.calls'))} calls, "
              f"{'identical' if not diff else 'DIFFERENT'}")
    return errors


def check_fails_without_sources() -> list[str]:
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "atoms-fuzz", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"runner without sources exited {proc.returncode} with stdout {proc.stdout[-200:]!r}"]
    return []


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    checks = [
        ("BENCHMARK.json matches the runner", check_benchmark_json),
        ("tracer install/uninstall", check_install_restores),
        ("composed diagram equals kovalevskaya_diagram(0.5)", check_default_diagram),
        ("traced call counts repeat", lambda: check_traced_counts_repeat(names)),
        ("runner fails without sources", check_fails_without_sources),
    ]
    failed = 0
    for title, fn in checks:
        errors = fn()
        print(f"{'PASS' if not errors else 'FAIL'} {title}")
        for e in errors:
            print(f"  {e}")
        failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
