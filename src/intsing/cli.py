"""Command-line entry point wiring all modules together.

Subcommands: verify, classify, trace, atoms, kovalevskaya.  Every output
is JSON with sorted keys and repr floats, so identical configurations and
seeds produce byte-identical files; the seed and tolerances used are
echoed into each report.  A malformed input file or option value gives a
JSON {"error": ...} report and exit 1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from .atoms import (
    AtomsError,
    complexity,
    cross_check_criteria,
    exceptions_report,
    named_product,
    named_products,
    product_from_dict,
    stability_verdict,
)
from .bifurcation import ScanParams, TraceParams, export_diagram, diagram_to_dict, scan_singular_points, trace_diagram
from .canonical import CanonicalSpec, build_canonical
from .classify import DEFAULT_ATTEMPTS, DEFAULT_SEED, DEFAULT_TOL, ClassifyError, classify_point
from .expr import EvalError
from .kovalevskaya import DIAGRAM_PARAMS, SCAN_BOX, build_kovalevskaya, kovalevskaya_diagram
from .kovalevskaya import report as kovalevskaya_report
from .phasespace import IntegrableModel, check_commutation, load_model

DEFAULT_SAMPLES = 1000
MAX_SAMPLES = 10**6  # most points a command samples: --samples, and a trace scan's resolution ** min(dim, 4)
TRACE_STEP = 0.05
TRACE_VALUE_BOUND = 4.0
COMMUTATION_TOL = 1e-9
JACOBI_TOL = 1e-10


class InputError(ValueError):
    pass


def _read_input(path: str, load):
    """load(path), with a file that is missing, not JSON or not a model or product
    (KeyError, or ValueError: JSONDecodeError, ModelError, ParseError, AtomsError) as InputError."""
    try:
        return load(path)
    except (OSError, KeyError, ValueError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _finite(value: float, option: str) -> float:
    """value, refused when it is NaN or infinite (as a model parameter is)."""
    if not math.isfinite(value):
        raise InputError(f"{option} must be a finite number, got {value!r}")
    return value


def _number(text: str, option: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"{option}: {text!r} is not a number") from None
    return _finite(value, option)


def _check_options(args) -> None:
    """Refuse a negative seed, --g with a model other than the built-in
    kovalevskaya (the only one that reads it), a count below 1, more than
    MAX_SAMPLES --samples, a float option that is not finite, and a step, value
    bound or tolerance that is not positive."""
    if args.seed < 0:
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    if getattr(args, "g", None) is not None and getattr(args, "model", "kovalevskaya") != "kovalevskaya":
        raise InputError(f"--g is the built-in kovalevskaya model's parameter; --model {args.model} takes none")
    for name in ("samples", "resolution", "attempts"):
        count = getattr(args, name, None)
        if count is not None and count < 1:
            raise InputError(f"--{name} must be at least 1, got {count}")
    if getattr(args, "samples", 0) > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    for name in ("g", "step", "value_bound", "tol"):
        value, option = getattr(args, name, None), "--" + name.replace("_", "-")
        if value is None:
            continue
        _finite(value, option)
        if name != "g" and value <= 0:
            raise InputError(f"{option} must be positive, got {value!r}")


def _load_product(path: str):
    with open(path) as fh:
        return product_from_dict(json.load(fh))


def _emit(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def resolve_model(spec: str, g: float | None = None) -> IntegrableModel:
    """Built-in registry ('kovalevskaya', 'canonical:r,ke,kh,kf') or a file."""
    if spec == "kovalevskaya":
        return build_kovalevskaya(0.0 if g is None else g)
    if spec.startswith("canonical:"):
        try:
            counts = CanonicalSpec(*(int(x) for x in spec.split(":", 1)[1].split(",")))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad canonical spec {spec!r}; want canonical:r,ke,kh,kf ({exc})") from None
        return build_canonical(counts)
    return _read_input(spec, load_model)


def _parse_point(text: str, model: IntegrableModel) -> np.ndarray:
    out, given = np.zeros(model.dim), set()
    if text.strip():
        for item in text.split(","):
            name, _, valtext = item.partition("=")
            name = name.strip()
            if name not in model.coords:
                raise InputError(f"unknown coordinate {name!r}; model has {model.coords}")
            if name in given:
                raise InputError(f"coordinate {name!r} is given twice in --point")
            given.add(name)
            out[model.coords.index(name)] = _number(valtext, "--point")
    return out


def _parse_box(text: str | None, spec: str, model: IntegrableModel):
    """'lo:hi' for all coordinates, or one comma-separated pair per coordinate;
    without text the built-in kovalevskaya spec's SCAN_BOX, else [-1, 1] per
    coordinate.  A pair with lo >= hi (empty or reversed) is refused."""
    if not text:
        return SCAN_BOX if spec == "kovalevskaya" else [(-1.0, 1.0)] * model.dim
    pairs = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        pairs.append((_number(lo, "--box"), _number(hi, "--box")))
        if pairs[-1][0] >= pairs[-1][1]:
            raise InputError(f"--box pair {part!r} needs lo < hi")
    if len(pairs) == 1:
        return pairs * model.dim
    if len(pairs) != model.dim:
        raise InputError(f"--box needs 1 or {model.dim} lo:hi pairs, got {len(pairs)}")
    return pairs


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    model = resolve_model(args.model, args.g)
    box = 2.0 if model.structure.casimirs else 1.0
    st, params = model.structure, model.params
    try:
        comm = check_commutation(model, samples=args.samples, tol=COMMUTATION_TOL, box=box, seed=args.seed)
        jacobi = st.jacobi_residual(samples=min(args.samples, 1000), box=box, seed=args.seed, params=params)
        casimir = st.casimir_residual(samples=min(args.samples, 200), box=box, seed=args.seed, params=params)
    except EvalError as exc:  # a component, bivector entry or Casimir has a pole at a sample point
        _emit({"error": f"{exc} at a sample point", "model": args.model, "seed": args.seed}, args.out)
        return 1
    checks = {
        "commutation": (comm, COMMUTATION_TOL),
        "jacobi": (jacobi, JACOBI_TOL),
        "casimirs": (casimir, COMMUTATION_TOL),
    }
    report = {"model": args.model, "g": args.g, "seed": args.seed, "samples": args.samples}
    for name, (check, tol) in checks.items():
        # the maximum skips NaN, so a check with a non-finite sample fails whatever it reads
        worst, nonfinite = float(check.max_residual), check.nonfinite
        ok = worst <= tol and not nonfinite
        report[name] = {"max_residual": worst, "nonfinite_samples": nonfinite, "tol": tol, "pass": ok}
    report["commutation"]["worst_pair"] = list(comm.worst_pair) if comm.worst_pair else None
    passed = all(report[name]["pass"] for name in checks)
    report["pass"] = passed
    _emit(report, args.out)
    return 0 if passed else 1


def cmd_classify(args) -> int:
    model = resolve_model(args.model, args.g)
    point = _parse_point(args.point, model)
    try:
        result = classify_point(model, point, tol=args.tol, attempts=args.attempts, seed=args.seed)
    except Exception as exc:
        _emit({"error": str(exc), "model": args.model, "seed": args.seed}, args.out)
        return 1
    result["model"] = args.model
    if args.g is not None:
        result["g"] = args.g
    _emit(result, args.out)
    return 0


def cmd_trace(args) -> int:
    if args.model == "kovalevskaya" and (args.step, args.value_bound, args.seed) != (None, None, DIAGRAM_PARAMS.seed):
        p = DIAGRAM_PARAMS
        raise InputError(
            f"trace --model kovalevskaya follows a fixed recipe (step {p.step}, value box {p.value_box}, "
            f"seed {p.seed}); drop --step, --value-bound and --seed"
        )
    model = resolve_model(args.model, args.g)
    axes = min(model.dim, 4)
    if args.resolution**axes > MAX_SAMPLES:
        raise InputError(f"--resolution {args.resolution} scans {args.resolution}^{axes} samples, more than {MAX_SAMPLES}")
    box = _parse_box(args.box, args.model, model)
    if args.model == "kovalevskaya":
        diagram = kovalevskaya_diagram(
            args.g if args.g is not None else 0.0, box=box, resolution=args.resolution, tol=args.tol
        )
    else:
        seeds = scan_singular_points(
            model, box, resolution=args.resolution, tol=args.tol, params=ScanParams(seed=args.seed)
        )
        step = TRACE_STEP if args.step is None else args.step
        bound = TRACE_VALUE_BOUND if args.value_bound is None else args.value_bound
        params = TraceParams(step=step, value_box=(-bound, bound), seed=args.seed)
        diagram = trace_diagram(model, seeds, params, tol=args.tol)
    wrote = []
    for fmt, path in (("svg", args.svg), ("csv", args.csv), ("json", args.json_out)):
        if path:
            export_diagram(diagram, fmt, path)
            wrote.append(path)
    if not wrote:
        _emit(diagram_to_dict(diagram), None)
    else:
        summary = {
            "model": args.model,
            "g": args.g,
            "seed": args.seed,
            "arcs": len(diagram.arcs),
            "labels": sorted({a.label for a in diagram.arcs}),
            "vertices": len(diagram.vertices),
            "files": wrote,
        }
        _emit(summary, None)
    return 0


def cmd_atoms_check(args) -> int:
    if args.name is not None:
        entry = named_product(args.name)
        if isinstance(entry, dict):
            _emit({"name": args.name, "exception": entry, "seed": args.seed}, args.out)
            return 0
        product = entry
    else:
        product = _read_input(args.product, _load_product)
    report = cross_check_criteria(product)
    out = {
        "name": product.name,
        "components": [c.name for c in product.components],
        "group": product.group.name,
        "complexity": complexity(product),
        "iv": report.iv,
        "vi": report.vi,
        "verdict": stability_verdict(product),
        "ki_components": [k.connected_components for k in report.ki_sets],
        "seed": args.seed,
    }
    _emit(out, args.out)
    return 0


def cmd_atoms_list(args) -> int:
    reg = named_products()
    out = {
        "products": sorted(name for name, v in reg.items() if not isinstance(v, dict)),
        "exceptions": exceptions_report(),
        "seed": args.seed,
    }
    _emit(out, args.out)
    return 0


def cmd_kovalevskaya_report(args) -> int:
    diagram = kovalevskaya_diagram(args.g, tol=args.tol) if args.diagram or args.svg else None
    rep = kovalevskaya_report(args.g, tol=args.tol, attempts=args.attempts, seed=args.seed, diagram=diagram)
    if args.svg:
        export_diagram(diagram, "svg", args.svg)
        rep["svg"] = args.svg
    _emit(rep, args.out)
    if rep["expected_types"] is not None and not rep["matches_expected"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(
    p: argparse.ArgumentParser, out_help: str = "write JSON report here (default: stdout)", out_dest: str = "out"
):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", dest=out_dest, default=None, help=out_help)


@cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intsing",
        description="Singularity analysis of integrable Hamiltonian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check commutation, Jacobi and Casimir identities")
    p.add_argument("--model", required=True)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="Williamson type of a phase-space point")
    p.add_argument("--model", required=True)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--point", required=True, help='e.g. "R1=1,S1=0.5" (missing coords are 0)')
    p.add_argument("--attempts", type=int, default=DEFAULT_ATTEMPTS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("trace", help="trace a bifurcation diagram")
    p.add_argument("--model", required=True)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--box", default=None, help='scan box "lo:hi" or one pair per coordinate')
    p.add_argument("--resolution", type=int, default=7)
    fixed = "; kovalevskaya follows its own recipe"
    p.add_argument("--step", type=float, default=None, help=f"default {TRACE_STEP}{fixed}")
    p.add_argument("--value-bound", type=float, default=None, help=f"default {TRACE_VALUE_BOUND}{fixed}")
    p.add_argument("--csv", default=None)
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p, out_help="write the diagram as SVG here", out_dest="svg")
    p.set_defaults(func=cmd_trace, out=None)  # reports and errors go to stdout

    atoms = sub.add_parser("atoms", help="atom-combinatorics checks")
    asub = atoms.add_subparsers(dest="atoms_command", required=True)
    p = asub.add_parser("check", help="complexity/connectedness/stability of a product")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--product", help="JSON product spec file")
    src.add_argument("--name", help='built-in name, e.g. "(B*C2)/Z2"')
    _add_common(p)
    p.set_defaults(func=cmd_atoms_check)
    p = asub.add_parser("list", help="list built-in products and documented exceptions")
    _add_common(p)
    p.set_defaults(func=cmd_atoms_list)

    kov = sub.add_parser("kovalevskaya", help="Kovalevskaya-top reports")
    ksub = kov.add_subparsers(dest="kov_command", required=True)
    p = ksub.add_parser("report", help="fixed points, types, regime, diagram")
    p.add_argument("--g", type=float, required=True)
    p.add_argument("--attempts", type=int, default=DEFAULT_ATTEMPTS)
    p.add_argument("--diagram", action="store_true", help="include the traced diagram in the JSON")
    p.add_argument("--svg", default=None, help="also render the diagram to this SVG file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_kovalevskaya_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except (InputError, AtomsError, ClassifyError) as exc:  # ClassifyError: a built-in point refused, as at a huge --g
        _emit({"error": str(exc), "seed": args.seed}, args.out)
        return 1


if __name__ == "__main__":
    sys.exit(main())
