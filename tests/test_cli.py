import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intsing
from intsing import bifurcation, cli, kovalevskaya
from intsing.classify import DEFAULT_TOL
from intsing.cli import main, resolve_model
from intsing.kovalevskaya import build_kovalevskaya
from intsing.phasespace import check_commutation, model_to_dict


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_kovalevskaya(capsys):
    code, out = run_cli(
        ["verify", "--model", "kovalevskaya", "--g", "0.5", "--samples", "200"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["commutation"]["max_residual"] <= 1e-9
    assert report["jacobi"]["max_residual"] <= 1e-10


def test_verify_canonical(capsys):
    code, out = run_cli(["verify", "--model", "canonical:0,1,1,0", "--samples", "50"], capsys)
    assert code == 0
    assert json.loads(out)["commutation"]["max_residual"] == 0.0


def test_verify_adversarial_model_fails(tmp_path, capsys):
    bad = {
        "coordinates": ["x", "y"],
        "parameters": {},
        "structure": "canonical",
        "casimirs": [],
        "components": ["x", "y"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(["verify", "--model", str(path), "--samples", "20"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["commutation"]["pass"] is False
    assert report["commutation"]["worst_pair"] == [0, 1]


def test_verify_evaluates_the_structure_at_the_model_parameters(tmp_path, capsys):
    """pi_zx = y + (g-1) x^2 satisfies the Jacobi identity only at g = 1, where
    x^2 + y^2 + g z^2 is a Casimir: both fail when g is read as 0."""
    bivector = [{"i": "x", "j": "y", "expr": "z"}, {"i": "y", "j": "z", "expr": "x"},
                {"i": "z", "j": "x", "expr": "y+(g-1)*x^2"}]
    model = {"coordinates": ["x", "y", "z"], "parameters": {"g": 1.0}, "structure": {"bivector": bivector},
             "casimirs": [{"expr": "x^2+y^2+g*z^2", "value": 1.0}], "components": ["z"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out = run_cli(["verify", "--model", str(path), "--samples", "50"], capsys)
    report = json.loads(out)
    assert code == 0 and report["jacobi"]["max_residual"] == 0.0 and report["casimirs"]["max_residual"] == 0.0


def test_verify_counts_overflowing_samples_without_warnings(tmp_path, capsys):
    """{(10x)^400 y, x} = d_x((10x)^400 y) * 0 - (10x)^400 is not finite where
    (10x)^400 or 4000 (10x)^399, a factor of d_x, overflows: no numpy warning
    reaches stderr, and the report counts those samples."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"coordinates": ["x", "y"], "components": ["(10*x)^400*y", "x"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--model", str(path), "--seed", "3"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    x = np.log10(np.abs(10.0 * np.random.default_rng(3).uniform(-1.0, 1.0, size=(1000, 2))[:, 0]))  # log10 |10x|
    top = np.log10(np.finfo(float).max)
    overflows = int(np.count_nonzero((400 * x > top) | (np.log10(4000) + 399 * x > top)))
    assert captured.err == "" and code == 1 and 0 < overflows < 1000
    assert report["commutation"]["nonfinite_samples"] == overflows and not report["commutation"]["pass"]
    assert report["jacobi"]["nonfinite_samples"] == report["casimirs"]["nonfinite_samples"] == 0


def test_verify_fails_a_check_whose_non_finite_samples_are_all_nan(tmp_path, capsys):
    """{y + (10x)^400 - (10x)^400, y} is 0 where (10x)^400 is finite and
    inf - inf = NaN where it overflows: the NaN-skipping maximum is 0, and the
    check fails on its non-finite samples."""
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"coordinates": ["x", "y"], "components": ["y+(10*x)^400-(10*x)^400", "y"]}))
    code = main(["verify", "--model", str(path), "--seed", "3"])
    report = json.loads(capsys.readouterr().out)
    assert report["commutation"]["max_residual"] == 0.0 and report["commutation"]["nonfinite_samples"] > 0
    assert code == 1 and not report["commutation"]["pass"] and not report["pass"]
    assert not check_commutation(resolve_model(str(path)), samples=1000, seed=3).passed


VERIFY_POLES = {  # a pole at every sample point, in each place of a model that verify evaluates
    "component": {"coordinates": ["x", "y"], "components": ["x*y+1/(x-x)"]},
    "bivector-entry": {"coordinates": ["x", "y", "z"], "components": ["x", "y"],
                       "structure": {"bivector": [{"i": "x", "j": "y", "expr": "1/(z-z)"}]}},
    "casimir": {"coordinates": ["x", "y"], "components": ["x"], "casimirs": [{"expr": "1/(y-y)", "value": 0}]},
}


@pytest.mark.parametrize("place", sorted(VERIFY_POLES))
def test_verify_reports_a_pole_at_the_samples(place, tmp_path, capsys):
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(VERIFY_POLES[place]))
    code, out = run_cli(["verify", "--model", str(path)], capsys)
    assert code == 1
    assert json.loads(out) == {"error": "division by zero at a sample point", "model": str(path), "seed": 0}


def test_classify_kovalevskaya_vertex(capsys):
    code, out = run_cli(
        ["classify", "--model", "kovalevskaya", "--g", "0.5", "--point", "R1=1,S1=0.5"], capsys
    )
    assert code == 0
    result = json.loads(out)
    assert result["rank"] == 0
    w = result["williamson"]
    assert (w["k_e"], w["k_h"], w["k_f"]) == (0, 2, 0)


def test_classify_off_leaf_point_is_a_json_error(capsys):
    code, out = run_cli(["classify", "--model", "kovalevskaya", "--point", "R1=2"], capsys)
    assert code == 1
    assert "off the leaf" in json.loads(out)["error"]



def test_classify_a_point_with_non_finite_jets_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"coordinates": ["x1", "y1", "x2", "y2"], "components": ["x1^5+y1", "x2*y2"]}))
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        code, out = run_cli(["classify", "--model", str(path), "--point", "x1=1e100"], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "component or Casimir jets are not finite at this point"

def test_classify_canonical_focus(capsys):
    code, out = run_cli(["classify", "--model", "canonical:0,0,0,1", "--point", ""], capsys)
    assert code == 0
    w = json.loads(out)["williamson"]
    assert (w["k_e"], w["k_h"], w["k_f"]) == (0, 0, 1)


def test_classify_regular_point(capsys):
    code, out = run_cli(
        ["classify", "--model", "canonical:0,0,0,1", "--point", "x1=0.3,y1=0.4,x2=0.1"], capsys
    )
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "regular"
    assert result["rank"] == 2


def test_atoms_check_builtin(capsys):
    code, out = run_cli(["atoms", "check", "--name", "(B*C2)/Z2"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["complexity"] == 1
    assert result["iv"] is True and result["vi"] is True
    assert result["verdict"] == "stable-analytic-strong-sense"


def test_atoms_check_c2_trivial(capsys):
    code, out = run_cli(["atoms", "check", "--name", "C2"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["complexity"] == 2
    assert result["iv"] is False and result["vi"] is False
    assert result["verdict"] == "criterion-not-satisfied"


def test_atoms_check_non_free_action_errors(tmp_path, capsys):
    spec = {
        "components": ["B"],
        "group": "Z2",
        "action": [{"perms": {"e": [0], "g": [0]}, "fiber_free": {"e": False, "g": False}}],
    }
    path = tmp_path / "bad_product.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["atoms", "check", "--product", str(path)], capsys)
    assert code == 1
    assert "not free" in json.loads(out)["error"]


def test_atoms_check_file_spec(tmp_path, capsys):
    spec = {
        "name": "(C2*C2)/Z2-file",
        "components": ["C2", "C2"],
        "group": "Z2",
        "action": [
            {"perms": {"e": [0, 1], "g": [1, 0]}},
            {"perms": {"e": [0, 1], "g": [1, 0]}},
        ],
    }
    path = tmp_path / "product.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(["atoms", "check", "--product", str(path)], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["complexity"] == 2
    assert result["verdict"] == "stable-analytic-strong-sense"


def test_atoms_list_reports_exceptions(capsys):
    code, out = run_cli(["atoms", "list"], capsys)
    assert code == 0
    data = json.loads(out)
    names = {e["name"] for e in data["exceptions"]}
    assert names == {"(K3*K3)/(Z4+Z2)", "(C1*K3)/Z4"}


def test_trace_canonical_svg(tmp_path, capsys):
    svg = tmp_path / "d.svg"
    code, out = run_cli(
        [
            "trace",
            "--model",
            "canonical:1,0,1,0",
            "--resolution",
            "5",
            "--step",
            "0.1",
            "--value-bound",
            "1.2",
            "--out",
            str(svg),
        ],
        capsys,
    )
    assert code == 0
    text = svg.read_text()
    assert text.count("<polyline") == 1
    assert "hyperbolic-family" in text


def test_trace_one_component_svg(tmp_path, capsys):
    """A one-component model has 1-D values: the vertex plots on the horizontal axis."""
    svg = tmp_path / "d.svg"
    code, out = run_cli(["trace", "--model", "canonical:0,1,0,0", "--out", str(svg)], capsys)
    assert code == 0
    assert json.loads(out)["vertices"] == 1
    assert '<circle class="vertex" cx="320.00" cy="240.00" r="4"/>' in svg.read_text()


def test_trace_error_goes_to_stdout_not_the_svg(tmp_path, capsys):
    svg = tmp_path / "d.svg"
    code, out = run_cli(["trace", "--model", str(tmp_path / "absent.json"), "--out", str(svg)], capsys)
    assert code == 1
    assert "absent.json" in json.loads(out)["error"]
    assert not svg.exists()


def test_trace_with_a_pole_on_the_scan_grid(tmp_path, capsys):
    """The default resolution-7 grid over [-1, 1]^2 holds x1 = -1, where
    x1*y1/(x1+1) divides by zero: only the samples there fail."""
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"coordinates": ["x1", "y1"], "components": ["x1*y1/(x1+1)"], "structure": "canonical"}))
    code, out = run_cli(["trace", "--model", str(path)], capsys)
    assert code == 0
    vertices = json.loads(out)["vertices"]
    assert [(v["point"], v["rank"], v["williamson"]) for v in vertices] == [([0.0, 0.0], 0, [0, 1, 0])]


def test_trace_kovalevskaya_scans_the_scan_box(tmp_path, monkeypatch, capsys):
    scans = []

    def scan(model, box, resolution, tol):
        scans.append((box, resolution, tol))
        return []

    monkeypatch.setattr(kovalevskaya, "scan_singular_points", scan)
    monkeypatch.setattr(kovalevskaya, "seed_arcs_near_vertex", lambda *a, **k: [])
    path = tmp_path / "d.json"
    code, out = run_cli(["trace", "--model", "kovalevskaya", "--g", "0.5", "--resolution", "5", "--json", str(path)], capsys)
    assert code == 0
    assert scans == [(kovalevskaya.SCAN_BOX, 5, DEFAULT_TOL)]
    summary = json.loads(out)
    assert summary["files"] == [str(path)] and summary["arcs"] == 0
    assert json.loads(path.read_text())["arcs"] == []


def test_trace_default_box_follows_the_spec_not_the_model_name(tmp_path, monkeypatch, capsys):
    """A 4-coordinate model file named like Kovalevskaya scans [-1, 1]^4, not
    the built-in model's 6-coordinate SCAN_BOX."""
    path = tmp_path / "like.json"
    model = {"coordinates": ["x1", "x2", "y1", "y2"], "components": ["x1^2+y1^2", "x2*y2"], "structure": "canonical"}
    path.write_text(json.dumps({**model, "name": "kovalevskaya-like"}))
    boxes = []

    def scan(model, box, **kw):
        boxes.append(box)
        return bifurcation.scan_singular_points(model, box, **kw)

    monkeypatch.setattr(cli, "scan_singular_points", scan)
    code, out = run_cli(["trace", "--model", str(path), "--resolution", "3"], capsys)
    assert code == 0, out
    assert boxes == [[(-1.0, 1.0)] * 4]


def test_g_is_refused_for_a_model_file(tmp_path, capsys):
    """A file model's parameters come from its file: --g is an error, not echoed."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps({**PLANE, "parameters": {"a": 1.0}, "components": ["a*x*y"]}))
    code, out = run_cli(["verify", "--model", str(path), "--g", "0.7", "--samples", "5"], capsys)
    assert code == 1
    report = json.loads(out)
    assert "--g" in report["error"] and "g" not in report


@pytest.mark.parametrize(
    "options", [["--step", "0.3"], ["--value-bound", "1"], ["--seed", "5"], ["--step", "0.3", "--value-bound", "1"]]
)
def test_trace_kovalevskaya_refuses_recipe_options(options, capsys):
    code, out = run_cli(["trace", "--model", "kovalevskaya", "--g", "0.5"] + options, capsys)
    assert code == 1
    error = json.loads(out)["error"]
    assert "step 0.08" in error and "value box (-6.0, 8.0)" in error and "seed 0" in error


def test_kovalevskaya_report_g0(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["kovalevskaya", "report", "--g", "0", "--out", str(out_path)], capsys)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["regime"] == "a"
    values = sorted(tuple(round(x, 9) for x in v["value"]) for v in report["vertices"])
    assert values == [(-1.0, 1.0), (1.0, 1.0)]


def test_kovalevskaya_report_regime_e(capsys):
    code, out = run_cli(["kovalevskaya", "report", "--g", "1.6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "e"
    types = sorted(tuple(v["type"]) for v in report["vertices"])
    assert types == [(1, 1, 0), (2, 0, 0)]
    assert report["matches_expected"] is True


def test_classify_and_report_name_a_vertex_alike(capsys):
    """One name per Williamson type: the (1, 1, 0) vertex at g = 1.6."""
    _, out = run_cli(["kovalevskaya", "report", "--g", "1.6"], capsys)
    (vertex,) = [v for v in json.loads(out)["vertices"] if v["point"][0] == 1.0]
    _, out = run_cli(["classify", "--model", "kovalevskaya", "--g", "1.6", "--point", "R1=1,S1=1.6"], capsys)
    classified = json.loads(out)["williamson"]
    assert vertex["type"] == [classified[k] for k in ("k_e", "k_h", "k_f")] == [1, 1, 0]
    assert vertex["label"] == classified["label"] == "elliptic-hyperbolic"


def test_reports_are_byte_identical(capsys):
    _, out1 = run_cli(["kovalevskaya", "report", "--g", "0.5", "--seed", "0"], capsys)
    _, out2 = run_cli(["kovalevskaya", "report", "--g", "0.5", "--seed", "0"], capsys)
    assert out1 == out2

    _, v1 = run_cli(["verify", "--model", "kovalevskaya", "--g", "0.5", "--samples", "100"], capsys)
    _, v2 = run_cli(["verify", "--model", "kovalevskaya", "--g", "0.5", "--samples", "100"], capsys)
    assert v1 == v2


def test_kovalevskaya_report_svg_traces_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(kovalevskaya, "scan_singular_points", lambda *a, **k: [])
    monkeypatch.setattr(kovalevskaya, "seed_arcs_near_vertex", lambda *a, **k: [])
    traced = []

    def counting(*args, **kwargs):
        traced.append(1)
        return bifurcation.trace_diagram(*args, **kwargs)

    monkeypatch.setattr(kovalevskaya, "trace_diagram", counting)
    svg = tmp_path / "d.svg"
    code, out = run_cli(["kovalevskaya", "report", "--g", "0.5", "--svg", str(svg)], capsys)
    assert code == 0
    assert len(traced) == 1
    report = json.loads(out)
    assert report["svg"] == str(svg) and report["diagram_summary"]["arcs"] == 0
    assert svg.read_text().startswith("<svg")


PLANE = {"coordinates": ["x", "y"], "parameters": {}, "structure": "canonical", "casimirs": []}
# so(3)*: {x, y} = z, {y, z} = x, {z, x} = y, with leaves on spheres about the origin
SO3 = {
    "coordinates": ["x", "y", "z"],
    "structure": {"bivector": [{"i": a, "j": b, "expr": c} for a, b, c in ("xyz", "yzx", "zxy")]},
    "components": ["z"],
}
MODEL_FAULTS = {
    "missing": None,
    "not-json": "{coordinates: [x, y]",
    "no-components": json.dumps(PLANE),
    "list": "[1, 2]",
    "components-not-a-list": json.dumps({**PLANE, "components": 5}),
    "unparsable-component": json.dumps({**PLANE, "components": ["x*"]}),
    "odd-canonical-chart": json.dumps({**PLANE, "coordinates": ["x", "y", "z"], "components": ["x"]}),
    "name-not-a-string": json.dumps({**PLANE, "components": ["x*y"], "name": 5}),
    "parameter-not-a-number": json.dumps(
        {**model_to_dict(build_kovalevskaya(0.5)), "parameters": {"g": "a"}}
    ),
    "parameter-not-finite": json.dumps({**PLANE, "parameters": {"g": float("nan")}, "components": ["g*x", "y"]}),
    "deep-parentheses": json.dumps({**PLANE, "components": ["(" * 1200 + "x" + ")" * 1200]}),
    "folded-constant-overflow": json.dumps({**PLANE, "components": ["2^2000*x"]}),
    "literal-overflow": json.dumps({**PLANE, "components": ["1" * 400 + "*x"]}),
    "literal-underflow": json.dumps({**PLANE, "components": ["1e-400*x"]}),
    "folded-constant-underflow": json.dumps({**PLANE, "components": ["1e-200*1e-200*x"]}),
    "constant-too-long": json.dumps({**PLANE, "components": ["(1000001/1000000)^10000*x"]}),
    "bivector-pair-twice": json.dumps(
        {
            **PLANE,
            "structure": {"bivector": [{"i": "x", "j": "y", "expr": "1"}, {"i": "y", "j": "x", "expr": "1"}]},
            "components": ["x"],
        }
    ),
    "bivector-diagonal": json.dumps(
        {**PLANE, "structure": {"bivector": [{"i": "x", "j": "x", "expr": "1"}]}, "components": ["x"]}
    ),
    "casimir-value-nan": json.dumps({**SO3, "casimirs": [{"expr": "x^2+y^2+z^2", "value": float("nan")}]}),
    "casimir-value-string": json.dumps({**SO3, "casimirs": [{"expr": "x^2+y^2+z^2", "value": "1"}]}),
    "top-level-bivector": json.dumps(
        {"coordinates": ["x", "y"], "components": ["x"], "bivector": [{"i": "x", "j": "y", "expr": "x*y"}]}
    ),
    "misspelled-structure": json.dumps(
        {"coordinates": ["x", "y"], "components": ["x"], "structur": {"bivector": [{"i": "x", "j": "y", "expr": "1"}]}}
    ),
}
MODEL_COMMANDS = {
    "verify": ["verify", "--samples", "5"],
    "classify": ["classify", "--point", ""],
    "trace": ["trace", "--resolution", "3"],
}


@pytest.mark.parametrize("fault", sorted(MODEL_FAULTS))
@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
def test_bad_model_file_is_a_json_error(command, fault, tmp_path, capsys):
    path = tmp_path / "model.json"
    if MODEL_FAULTS[fault] is not None:
        path.write_text(MODEL_FAULTS[fault])
    code, out = run_cli(MODEL_COMMANDS[command] + ["--model", str(path)], capsys)
    assert code == 1
    report = json.loads(out)
    assert set(report) == {"error", "seed"} and str(path) in report["error"]


FUZZ_COORDS = ("x1", "y1", "x2", "y2")
FUZZ_ATOMS = ("x1", "y1", "x2", "y2", "0", "1", "2", "3", "0.5", "1/2", "1e-3", "(-1)")
FUZZ_MALFORMED = (
    "x1*+y1", "(x1", "x1)", "x1_y1", "é*x1", "\x0b1", "x1 y1", "x1^-1", "x1^1.5", "x1^", "x1^2^3", "1e400*x1",
    "1e-400*x1", "2^2000*x1", "9" * 309 + "*x1", "(" * 101 + "x1" + ")" * 101, "x1/0", "x1/(y1-y1)", "x3", "",
)
FUZZ_VALUES = (-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0)


@st.composite
def fuzz_models(draw):
    """A model file on FUZZ_COORDS with the canonical bivector: two components of
    random polynomial or rational text, or of malformed text, and a point."""
    text = st.recursive(
        st.sampled_from(FUZZ_ATOMS),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("({0[0]}){0[1]}({0[2]})".format),
            st.tuples(inner, st.integers(0, 4)).map("({0[0]})^{0[1]}".format),
        ),
        max_leaves=10,
    )
    components = draw(st.lists(st.one_of(text, text, text, st.sampled_from(FUZZ_MALFORMED)), min_size=2, max_size=2))
    point = ",".join(f"{x}={draw(st.sampled_from(FUZZ_VALUES))}" for x in FUZZ_COORDS)
    return {"coordinates": list(FUZZ_COORDS), "structure": "canonical", "components": components}, point


@given(fuzz_models())
def test_a_model_file_gives_a_json_report_or_a_json_error(case):
    """`verify --samples 20` and `classify` at a drawn point on a fuzzed model file
    print one JSON object and exit 0 or 1, an error object only with exit 1: no
    input raises out of the CLI.  Jets that overflow at the point warn (see
    test_classify_a_point_with_non_finite_jets_is_a_json_error), so
    RuntimeWarnings are not errors here."""
    model, point = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.json")
        Path(path).write_text(json.dumps(model))
        for argv in (["verify", "--model", path, "--samples", "20"], ["classify", "--model", path, "--point", point]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main(argv)
            report = json.loads(buf.getvalue())
            assert code in (0, 1) and isinstance(report, dict), (argv, code, report)
            assert code == 1 or "error" not in report, (argv, report)


def test_deep_model_classifies_and_traces(tmp_path, capsys):
    """One component of 1,499 terms: its tree is deeper than the interpreter's
    recursion limit, and the tape compiles and runs it without recursion."""
    terms = ["x^2", "y^2"] + [f"{k % 5 + 1}/1000000*x^{k % 4}*y^{k // 4 % 4}" for k in range(1497)]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"coordinates": ["x", "y"], "components": ["+".join(terms)]}))
    t0 = time.perf_counter()
    code, out = run_cli(["classify", "--model", str(path), "--point", "x=0.1,y=0.2"], capsys)
    assert code == 0 and json.loads(out)["status"] == "regular"
    code, out = run_cli(["trace", "--model", str(path)], capsys)
    assert code == 0
    assert [v["williamson"] for v in json.loads(out)["vertices"]] == [[1, 0, 0]]  # the minimum near the origin
    assert time.perf_counter() - t0 < 10.0


def test_deep_model_verifies(tmp_path, capsys):
    """A 1,499-term component and a second one: the bracket differentiates a
    tree deeper than the interpreter's recursion limit."""
    terms = ["x1^2", "y1^2"] + [f"{k % 5 + 1}/1000000*x1^{k % 4}*y1^{k // 4 % 4}" for k in range(1497)]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"coordinates": ["x1", "y1", "x2", "y2"], "components": ["+".join(terms), "x2^2+y2^2"]}))
    code, out = run_cli(["verify", "--model", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_high_power_bivector_entry_verifies_quickly(tmp_path, capsys):
    """Constancy of an entry is read off its folded tree: x^3000000 is never expanded."""
    path = tmp_path / "power.json"
    bivector = [{"i": "x", "j": "y", "expr": "x^3000000"}, {"i": "z", "j": "w", "expr": "1"}]
    model = {"coordinates": ["x", "y", "z", "w"], "components": ["x", "z*w"], "structure": {"bivector": bivector}}
    path.write_text(json.dumps(model))
    t0 = time.perf_counter()
    code, out = run_cli(["verify", "--model", str(path), "--samples", "5"], capsys)
    assert time.perf_counter() - t0 < 5.0
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_refuses_a_sample_count_below_one(samples, capsys):
    code, out = run_cli(["verify", "--model", "canonical:0,1,0,0", "--samples", samples], capsys)
    assert code == 1
    assert json.loads(out) == {"error": f"--samples must be at least 1, got {samples}", "seed": 0}


def test_missing_product_file_is_a_json_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code, out = run_cli(["atoms", "check", "--product", str(path)], capsys)
    assert code == 1
    assert str(path) in json.loads(out)["error"]


PRODUCT_FAULTS = {
    "list": "[1]",
    "unknown-group": json.dumps({"components": ["B"], "group": "Z9", "action": [{"perms": {"e": [0]}}]}),
    "fiber-free-not-a-boolean": json.dumps(
        {
            "components": ["C2"],
            "group": "Z2",
            "action": [{"perms": {"e": [0, 1], "g": [1, 0]}, "fiber_free": {"g": "false"}}],
        }
    ),
    "components-not-a-list": json.dumps(
        {"components": "BB", "group": "1", "action": [{"perms": {"e": [0]}}, {"perms": {"e": [0]}}]}
    ),
    "extra-action-entry": json.dumps(
        {
            "components": ["C2"],
            "group": "Z2",
            "action": [{"perms": {"e": [0, 1], "g": [1, 0]}}, {"perms": {"e": [0, 1, 2]}}],
        }
    ),
}


@pytest.mark.parametrize("fault", sorted(PRODUCT_FAULTS))
def test_bad_product_file_is_a_json_error(fault, tmp_path, capsys):
    path = tmp_path / "product.json"
    path.write_text(PRODUCT_FAULTS[fault])
    code, out = run_cli(["atoms", "check", "--product", str(path)], capsys)
    assert code == 1
    assert str(path) in json.loads(out)["error"]


ARGUMENT_FAULTS = {
    "canonical-count": ["classify", "--model", "canonical:a,1,0,0", "--point", ""],
    "canonical-arity": ["classify", "--model", "canonical:1,0,0", "--point", ""],
    "point-value": ["classify", "--model", "canonical:0,1,0,0", "--point", "x1=abc"],
    "point-coordinate": ["classify", "--model", "canonical:0,1,0,0", "--point", "q=1"],
    "point-repeated": ["classify", "--model", "canonical:0,1,0,0", "--point", "x1=-1,x1=1,y1=0.5"],
    "box-value": ["trace", "--model", "canonical:1,0,1,0", "--box", "1:x"],
    "box-pairs": ["trace", "--model", "canonical:1,0,1,0", "--box", "0:1,0:1"],
    "box-nan": ["trace", "--model", "canonical:1,0,1,0", "--box", "nan:1"],
    "box-reversed": ["trace", "--model", "canonical:0,2,0,0", "--box", "1:-1"],
    "box-empty": ["trace", "--model", "canonical:1,0,1,0", "--box", "0:0"],
    "box-reversed-pair": ["trace", "--model", "canonical:1,0,1,0", "--box", "0:1,0:1,1:0,0:1"],
    "resolution-negative": ["trace", "--model", "canonical:1,0,1,0", "--resolution", "-1"],
    "resolution-zero": ["trace", "--model", "canonical:1,0,1,0", "--resolution", "0"],
    "resolution-kovalevskaya": ["trace", "--model", "kovalevskaya", "--g", "0.5", "--resolution", "-2"],
    "resolution-huge": ["trace", "--model", "kovalevskaya", "--resolution", "100000"],
    "samples-huge": ["verify", "--model", "canonical:0,1,0,0", "--samples", "1000000000000"],
    "attempts-classify": ["classify", "--model", "canonical:0,1,0,0", "--point", "x1=1", "--attempts", "-3"],
    "attempts-kovalevskaya": ["kovalevskaya", "report", "--g", "0.5", "--attempts", "0"],
    "g-nan": ["kovalevskaya", "report", "--g", "nan"],
    "g-huge-report": ["kovalevskaya", "report", "--g", "1e4"],  # the bivector rank degenerates at a fixed point
    "g-huger-report": ["kovalevskaya", "report", "--g", "1e5"],  # the Casimir differentials are dependent there
    "g-huge-trace": ["trace", "--model", "kovalevskaya", "--g", "1e9"],
    "g-infinite": ["verify", "--model", "kovalevskaya", "--g", "inf", "--samples", "5"],
    "g-verify-canonical": ["verify", "--model", "canonical:0,1,1,0", "--g", "0.7", "--samples", "5"],
    "g-classify-canonical": ["classify", "--model", "canonical:0,1,1,0", "--point", "", "--g", "5"],
    "g-trace-canonical": ["trace", "--model", "canonical:1,0,1,0", "--g", "0.5"],
    "step-nan": ["trace", "--model", "canonical:1,0,1,0", "--step", "nan"],
    "step-negative": ["trace", "--model", "canonical:1,0,1,0", "--step", "-0.05"],
    "step-zero": ["trace", "--model", "canonical:1,0,1,0", "--step", "0"],
    "value-bound-zero": ["trace", "--model", "canonical:1,0,1,0", "--value-bound", "0"],
    "value-bound-infinite": ["trace", "--model", "canonical:1,0,1,0", "--value-bound", "inf"],
    "tol-nan": ["trace", "--model", "canonical:1,0,1,0", "--tol", "nan"],
    "tol-negative": ["classify", "--model", "canonical:0,1,0,0", "--point", "x1=1", "--tol", "-0.001"],
}


@pytest.mark.parametrize("fault", sorted(ARGUMENT_FAULTS))
def test_bad_argument_is_a_json_error(fault, capsys):
    code, out = run_cli(ARGUMENT_FAULTS[fault], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] and report["seed"] == 0


def test_negative_seed_is_a_json_error(capsys):
    code, out = run_cli(["verify", "--model", "canonical:0,1,0,0", "--samples", "5", "--seed", "-1"], capsys)
    assert code == 1
    assert json.loads(out) == {"error": "--seed must be at least 0, got -1", "seed": -1}


@pytest.mark.parametrize("name", ["", "nosuch"])
def test_unknown_product_name_is_a_json_error(name, capsys):
    code, out = run_cli(["atoms", "check", "--name", name], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"].startswith(f"unknown product {name!r}; known: ") and report["seed"] == 0


STARTUP_SCRIPT = """
import contextlib, io, json, sys
import numpy as np
from intsing import cli
from intsing.expr import parse
from intsing.phasespace import PhasePoint, flow_integrate
calls = [
    ["verify", "--model", "kovalevskaya", "--g", "0.5", "--samples", "20"],
    ["classify", "--model", "canonical:0,1,1,0", "--point", ""],
    ["atoms", "check", "--name", "(B*C2)/Z2"],
    ["trace", "--model", "canonical:1,0,1,0", "--resolution", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(args) for args in calls]
loaded = "scipy.integrate" in sys.modules
rotation = [parse("-y", ("x", "y")), parse("x", ("x", "y"))]
end = flow_integrate(rotation, PhasePoint([1.0, 0.0]), 2 * np.pi).end.coordinates
print(json.dumps([codes, loaded, "scipy.integrate" in sys.modules, bool(np.allclose(end, [1.0, 0.0], atol=1e-9))]))
"""


def test_cli_commands_run_without_the_ode_solver():
    """verify, classify, atoms check and trace leave scipy.integrate unimported in
    a fresh interpreter; the first flow integration imports it and integrates."""
    env = {**os.environ, "PYTHONPATH": str(Path(intsing.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [[0, 0, 0, 0], False, True, True]


@pytest.mark.parametrize("command", [["verify", "--model", "canonical:0,1,0,0"], ["atoms", "check", "--name", "C2"],
                                     ["atoms", "list"]])
def test_tol_is_refused_where_nothing_reads_it(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading: str, language: str) -> str:
    """The first fenced block of the language after a README heading."""
    text = README.read_text()
    return text[text.index(heading) :].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every intsing line of README's CLI block exits 0, so a removed or renamed option fails here."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_product.json").write_text(_readme_block("## Atom product files", "json"))
    monkeypatch.setattr(kovalevskaya, "scan_singular_points", lambda *a, **k: [])
    monkeypatch.setattr(kovalevskaya, "seed_arcs_near_vertex", lambda *a, **k: [])
    commands = [shlex.split(line)[1:] for line in _readme_block("## CLI", "sh").splitlines() if line.startswith("intsing ")]
    assert {argv[0] for argv in commands} == {"verify", "classify", "trace", "atoms", "kovalevskaya"}
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()
