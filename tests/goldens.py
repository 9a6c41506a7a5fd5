"""Golden reports: what "same behaviour" means for a refactor.

Each entry of ``SOURCES`` computes one report from the current program.  The
files under ``tests/golden/`` hold those reports as captured at a reference
commit; ``assert_matches`` compares a fresh report with its file.  Discrete
fields (ints, bools, strings, None, dict keys and list lengths) must be
identical; floats must agree to ``FLOAT_TOL``, relative or absolute.

Rewrite the files only when a change is meant to alter an output:

    PYTHONPATH=src python tests/goldens.py

A diagram that a change is meant to alter is first compared with its old file
by ``geometric_mismatches``: same vertices, and every old arc point covered by
a new arc with its label.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np

from intsing import cli
from intsing.atoms import named_products, product_to_dict
from intsing.bifurcation import TraceParams, diagram_to_dict
from intsing.canonical import CanonicalSpec, build_canonical, randomized_disguise
from intsing.classify import classify_point
from intsing.expr import ParseError, parse
from intsing.groups import BUILTIN_GROUPS, group_by_name
from intsing.kovalevskaya import COORDS, H_SRC, K_SRC, build_kovalevskaya, kovalevskaya_diagram
from intsing.phasespace import load_model, model_to_dict, save_model

from test_classify import all_specs

GOLDEN_DIR = Path(__file__).parent / "golden"
MODEL_DIR = Path(__file__).parent / "models"
FLOAT_TOL = 1e-9
DISGUISES_PER_TYPE = 2


def _cli_json(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "report": json.loads(buf.getvalue())}


def classify_disguised() -> list[dict]:
    """`classify_point` at the marked point of seeded disguises of all 45
    canonical types with n <= 4."""
    out = []
    for index, spec in enumerate(all_specs(4)):
        model = build_canonical(spec)
        for j in range(DISGUISES_PER_TYPE):
            seed = DISGUISES_PER_TYPE * index + j
            d = randomized_disguise(model, seed=seed)
            out.append(
                {
                    "spec": [spec.r, spec.k_e, spec.k_h, spec.k_f],
                    "seed": seed,
                    "result": classify_point(d.model, d.point.coordinates),
                }
            )
    return out


def _trace(argv: list[str]) -> dict:
    """`trace ARGV --json FILE`: the summary without the file name, and the
    diagram the file holds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diagram.json")
        summary = _cli_json(["trace", *argv, "--json", path])
        with open(path) as fh:
            diagram = json.load(fh)
    del summary["report"]["files"]
    return {"summary": summary, "diagram": diagram}


def trace_degenerate(name: str) -> dict:
    """`_trace` of `--model degenerate_NAME.json --resolution 3`, without the
    model file's name.  On these degenerate models branches creep with their
    values almost standing still: the join test of m2 sees about 600 filed
    entries within its radius per test, and m1 files entries whose value
    chords are NaN."""
    out = _trace(["--model", str(MODEL_DIR / f"degenerate_{name}.json"), "--resolution", "3"])
    del out["summary"]["report"]["model"]
    return out


def atoms_check_catalog() -> dict:
    return {name: _cli_json(["atoms", "check", "--name", name]) for name in sorted(named_products())}


def named_products_and_homomorphisms() -> dict:
    """`product_to_dict` of every named product, and `homomorphisms_to_sym(k)`
    of every built-in group for k <= 4 (the list order included)."""
    return {
        "products": {name: product_to_dict(p) for name, p in named_products().items() if not isinstance(p, dict)},
        "homomorphisms": {
            name: {str(k): group_by_name(name).homomorphisms_to_sym(k) for k in range(5)} for name in BUILTIN_GROUPS
        },
    }


def coarse_kovalevskaya_diagram():
    """The coarse g=0.5 diagram of `test_diagram_contains_vertices`."""
    return kovalevskaya_diagram(
        0.5,
        resolution=5,
        trace_params=TraceParams(step=0.1, max_steps=120, value_box=(-6, 8), phase_bound=12.0),
    )


CRITERION_3_STEP = 0.08


def criterion_3_kovalevskaya_diagram(g: float):
    """A resolution-6 diagram of `test_criterion_3_vertex_values_on_diagram`."""
    return kovalevskaya_diagram(
        g,
        resolution=6,
        trace_params=TraceParams(step=CRITERION_3_STEP, max_steps=200, value_box=(-6, 8), phase_bound=12.0),
    )


WALKER_SEED = 1


def _walker_outputs(model) -> dict:
    """What the expression walkers make of a model: its file form, and the
    source text of every component partial, bracket of two components and
    Casimir Hamiltonian field."""
    st = model.structure
    return {
        "model": model_to_dict(model),
        "partials": [[c.diff(x).to_source() for x in model.coords] for c in model.components],
        "brackets": [st.bracket(f, g).to_source() for f, g in combinations(model.components, 2)],
        "casimir_fields": [[e.to_source() for e in st.ham_field(c)] for c in st.casimirs],
    }


def expression_walkers() -> dict:
    """`_walker_outputs` of Kovalevskaya at g=0.5 and of seeded disguises of
    canonical:0,1,1,1 and 1,1,1,1, and the `verify` reports of the
    `verify-disguised` benchmark workload (without the model file's name)."""
    disguises = {
        spec: randomized_disguise(build_canonical(CanonicalSpec(*spec)), seed=WALKER_SEED).model
        for spec in ((0, 1, 1, 1), (1, 1, 1, 1))
    }
    out = {"kovalevskaya_g0.5": _walker_outputs(build_kovalevskaya(0.5))}
    out.update((",".join(map(str, spec)), _walker_outputs(m)) for spec, m in disguises.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "disguise.json")
        save_model(disguises[(0, 1, 1, 1)], path)
        reports = [
            _cli_json(["verify", "--model", "kovalevskaya", "--g", "0.5", "--seed", str(WALKER_SEED)]),
            _cli_json(["verify", "--model", path, "--seed", str(WALKER_SEED)]),
        ]
    del reports[1]["report"]["model"]
    out["verify"] = reports
    return out


def file_model() -> dict:
    """Kovalevskaya at g=0.5 as `save_model` writes it, with its first bivector
    item turned to (j, i): `model_to_dict` of the reloaded file, and `verify`
    and `classify` on it (without the file's name)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(build_kovalevskaya(0.5), path)
        with open(path) as fh:
            d = json.load(fh)
        first = d["structure"]["bivector"][0]
        d["structure"]["bivector"][0] = {"i": first["j"], "j": first["i"], "expr": f"-({first['expr']})"}
        with open(path, "w") as fh:
            json.dump(d, fh)
        out = {
            "model": model_to_dict(load_model(path)),
            "verify": _cli_json(["verify", "--model", path, "--seed", "1"]),
            "classify": _cli_json(["classify", "--model", path, "--point", "R1=1,S1=0.5"]),
        }
    for report in (out["verify"], out["classify"]):
        del report["report"]["model"]
    return out


CORPUS_SEED = 1
CORPUS_RANDOM = 200
CORPUS_SYMBOLS = ("a", "b", "x", "y", "x1", "e", "E")
# Pieces of the random corpus strings: the grammar's alphabet, whitespace the
# tokenizer skips and characters it refuses, and constants at the float bounds.
CORPUS_PIECES = (
    *"0123456789.", "x", "y", "x1", "a", "e", "E", *"+-*/^()", " ", "\t", "\n", "\x0b", "_", "é",
    "1e400", "1e-400", "1e-200", "9" * 309, "0.5", "1/2", "(1/3)", "2^2000", "0.5^1075", "^-1", "^0", "^1",
    "^x", "^1.5", "^^", "0^0", "((", "))",
)
CORPUS_FIXED = [
    # tokenizer boundaries and refused characters
    "1.e5", ".5e-3", "1e", "2E+", "1.2.3", "1..2", "x1e2", "1e+5x", " \t\n\r(a^2) ", "a_b", "é", "٣", ".",
    ".e5", "\x0b1",
    # parse errors and the bounds on nesting and minus chains
    "0", "x1*+y", "x1*z9", "-" * 1200 + "x1", "-" * 1201 + "x1", "(" * 100 + "x1" + ")" * 100,
    "(" * 101 + "x1" + ")" * 101, "(" * 1200 + "x1" + ")" * 1200, "(x", "x)", "()", "", "   ", "x^", "x^-2",
    "x^2^3", "-x^2", "--x", "2*-x", "x/0", "x/(1-1)", "x^0", "x^1",
    # constants that no float holds, and exact ones at the digit bound
    "1" * 400 + "*x", "1e400*x", "2^2000*x", "10^200*10^200+x", "x-1e308*10", "1e308+1e308", "x^" + "9" * 400,
    "1e-400*x", "1e-200*1e-200*x", "(1/3)^1000*x", "0.5^1075*x", "2^1000*x", "0.5^1074*x", "3^10000000*x",
    "0+x", "0.0+x", "0e5+x", "1e-200-1e-200+x", "0*1e-200+x", "0^7+x", "(1000001/1000000)^1000000*x",
    "(3/2)^1000*x", "(1000001/1000000)^51*1000001*x", "(3/2)^350*(3/2)^350*x", "1" * 5000 + "*x",
    "0" * 400 + "1*x", "x^" + "1" * 5000, "(1000001/1000000)^51*x", "(3/2)^640*x", "1/2^1000*x",
    "9" * 308 + "/10^307*x",
    # round trips and negated products
    "-(-1*a)", "-(2*a)", "0-2*a", "-(2^2*a/b)", "0.5*x-2e-3", "-x*a/(1+b^2)",
]


def _random_corpus_string(rng) -> str:
    """A grammatical expression with random spacing, or (in about half the draws) random pieces."""
    if rng.random() < 0.5:
        return "".join(rng.choice(CORPUS_PIECES) for _ in range(rng.randint(1, 12)))

    def expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(("x", "y", "x1", "a", "2", "0.5", "1e-3", "7", "0", "-x", "1e308", "3.25e2"))
        pick = rng.randrange(4)
        if pick == 0:
            return expr(depth - 1) + rng.choice("+-*/") + expr(depth - 1)
        if pick == 1:
            return "(" * (k := rng.randint(1, 3)) + expr(depth - 1) + ")" * k
        if pick == 2:
            return expr(depth - 1) + "^" + str(rng.randint(0, 5))
        return "-" * rng.randint(1, 3) + expr(depth - 1)

    return "".join(c + rng.choice(("", "", "", " ", "\t", "\n")) for c in expr(rng.randint(1, 6)))


def _structure_item(key: tuple) -> list:
    """One entry of `Expression._structure()` as JSON: a constant's value as its type and text."""
    if key[0] == "Const":
        return ["Const", type(key[1]).__name__, repr(key[1]) if isinstance(key[1], float) else str(key[1])]
    return list(key)


def _parsed(source: str, coords: tuple[str, ...]) -> dict:
    """What `parse` makes of source: the tree's text and structure, or the ParseError's message and position."""
    out = {"source": source, "coords": list(coords)}
    try:
        e = parse(source, coords)
    except ParseError as exc:
        return {**out, "error": str(exc), "pos": exc.pos}
    return {**out, "text": e.to_source(), "structure": [_structure_item(key) for key in e._structure()[1]]}


def parse_corpus() -> list[dict]:
    """`_parsed` of the benchmark disguise's components (seed 1), Kovalevskaya's
    integrals and three more fields on its coordinates, the fixed sources above
    and CORPUS_RANDOM seeded random strings."""
    model = randomized_disguise(build_canonical(CanonicalSpec(0, 1, 1, 1)), seed=CORPUS_SEED).model
    out = [_parsed(c.to_source(), model.coords) for c in model.components]
    out += [_parsed(src, COORDS) for src in (H_SRC, K_SRC, "R1^2+R2^2+R3^2", "-S1*R2/(1+R3^2)", "0.5*S1-2e-3")]
    out += [_parsed(src, CORPUS_SYMBOLS) for src in CORPUS_FIXED]
    rng = random.Random(CORPUS_SEED)
    out += [_parsed(_random_corpus_string(rng), CORPUS_SYMBOLS) for _ in range(CORPUS_RANDOM)]
    return out


SOURCES = {
    "classify_disguised": classify_disguised,
    "kovalevskaya_report_g0.5": lambda: _cli_json(["kovalevskaya", "report", "--g", "0.5"]),
    "kovalevskaya_report_g1.6": lambda: _cli_json(["kovalevskaya", "report", "--g", "1.6"]),
    "trace_canonical_1010": lambda: _trace(["--model", "canonical:1,0,1,0"]),
    "trace_degenerate_m1": lambda: trace_degenerate("m1"),
    "trace_degenerate_m2": lambda: trace_degenerate("m2"),
    "atoms_list": lambda: _cli_json(["atoms", "list"]),
    "atoms_check_catalog": atoms_check_catalog,
    "named_products": named_products_and_homomorphisms,
    "kovalevskaya_diagram_coarse": lambda: diagram_to_dict(coarse_kovalevskaya_diagram()),
    "kovalevskaya_diagram_res6_g0": lambda: diagram_to_dict(criterion_3_kovalevskaya_diagram(0.0)),
    "kovalevskaya_diagram_res6_g0.5": lambda: diagram_to_dict(criterion_3_kovalevskaya_diagram(0.5)),
    "expression_walkers": expression_walkers,
    "file_model": file_model,
    "parse_corpus": parse_corpus,
}


def _path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def _plain(obj):
    """The report as JSON would carry it: tuples become lists, and so on."""
    return json.loads(json.dumps(obj))


def _floats_agree(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    diff = abs(a - b)
    return diff <= FLOAT_TOL or diff <= FLOAT_TOL * max(abs(a), abs(b))


def mismatches(got, want, path: str = "$") -> list[str]:
    """Every difference between two JSON values that the tolerance rules reject."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if _floats_agree(got, want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__} ({got!r} vs {want!r})"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in sorted(want) for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _distances(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """The distance from each point to the nearest segment of the polyline."""
    a, b = polyline[:-1], polyline[1:]
    ab = b - a
    lengths = np.maximum(np.einsum("sk,sk->s", ab, ab), np.finfo(float).tiny)
    t = np.clip(np.einsum("psk,sk->ps", points[:, None, :] - a, ab) / lengths, 0.0, 1.0)
    return np.linalg.norm(points[:, None, :] - (a + t[..., None] * ab), axis=2).min(axis=1)


def _uncovered(arcs: list[dict], cover: list[dict], step: float, value_box) -> list[str]:
    """Each stretch of arc points farther than 2 step from every arc of cover with
    their label, points within 2 step of the value box's edge exempt."""
    lo, hi = value_box
    out = []
    for arc in arcs:
        pts = np.array(arc["points"], dtype=float)
        near = np.full(len(pts), False)
        for other in cover:
            if other["label"] == arc["label"]:
                poly = np.array(other["points"], dtype=float)
                near |= _distances(pts, np.vstack([poly, poly[-1:]])) <= 2.0 * step  # a 1-point arc: one 0-length segment
        near |= np.any(np.minimum(pts - lo, hi - pts) <= 2.0 * step, axis=1)
        runs = np.flatnonzero(np.diff(np.concatenate([[1], near.astype(int), [1]])))
        for first, end in zip(runs[::2], runs[1::2]):
            out.append(
                f"arc {arc['id']} {arc['label']}: {end - first} points from "
                f"{np.round(pts[first], 3).tolist()} to {np.round(pts[end - 1], 3).tolist()}"
            )
    return out


def geometric_mismatches(got: dict, want: dict, step: float, value_box) -> tuple[list[str], list[str]]:
    """Two diagrams (`diagram_to_dict` reports) as geometry: (the problems, the
    stretches of got that want lacks).  A problem is a difference between the
    vertex lists under the tolerance rules of `mismatches`, or a stretch of want
    arc points farther than 2 step from every got arc segment with their label
    (points within 2 step of the value box's edge are exempt)."""
    problems = mismatches(got["vertices"], want["vertices"], "$.vertices")
    problems += ["uncovered " + s for s in _uncovered(want["arcs"], got["arcs"], step, value_box)]
    return problems, _uncovered(got["arcs"], want["arcs"], step, value_box)


def assert_matches(got, name: str) -> None:
    with open(_path(name)) as fh:
        want = json.load(fh)
    problems = mismatches(_plain(got), want)
    assert not problems, f"{name}: {len(problems)} differences from the golden\n" + "\n".join(problems[:20])


def capture(names=None) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or SOURCES:
        with open(_path(name), "w") as fh:
            json.dump(_plain(SOURCES[name]()), fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    capture(sys.argv[1:] or None)
