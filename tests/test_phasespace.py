import copy
import json
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from intsing import cli, phasespace
from intsing.canonical import CanonicalSpec, build_canonical, randomized_disguise
from intsing.expr import Tape, constant, parse
from intsing.kovalevskaya import build_kovalevskaya
from intsing.phasespace import (
    IntegrableModel,
    ModelError,
    PhasePoint,
    PoissonStructure,
    check_commutation,
    flow_integrate,
    model_from_dict,
    model_to_dict,
)

E3 = ("R1", "R2", "R3", "S1", "S2", "S3")


@pytest.fixture(scope="module")
def e3():
    return PoissonStructure.lie_poisson_e3()


@pytest.fixture(scope="module")
def kov_exprs():
    h = parse("(1/2)*(S1^2+S2^2+2*S3^2)+R1", E3)
    k = parse("((1/2)*S1^2-(1/2)*S2^2-R1)^2+(S1*S2-R2)^2", E3)
    return h, k


def test_e3_bracket_relations(e3):
    s1, s2 = parse("S1", E3), parse("S2", E3)
    r1, r2 = parse("R1", E3), parse("R2", E3)
    assert e3.bracket(s1, s2).normalized_equal(parse("S3", E3))
    assert e3.bracket(r1, r2).is_zero()
    assert e3.bracket(s1, r2).normalized_equal(parse("R3", E3))


def test_hk_bracket_vanishes_symbolically(e3, kov_exprs):
    h, k = kov_exprs
    assert e3.bracket(h, k).is_zero()


def test_hk_bracket_vanishes_numerically(e3, kov_exprs):
    h, k = kov_exprs
    br = e3.bracket(h, k)
    rng = np.random.default_rng(0)
    worst = max(abs(br.evaluate(p)) for p in rng.uniform(-2, 2, size=(100, 6)))
    assert worst <= 1e-9


def test_canonical_field_convention():
    st = PoissonStructure.canonical_chart([("x", "y")])
    f = parse("(1/2)*(x^2+y^2)", ("x", "y"))
    fx, fy = st.ham_field(f)
    assert fx.normalized_equal(parse("-y", ("x", "y")))
    assert fy.normalized_equal(parse("x", ("x", "y")))

    g = parse("x*y", ("x", "y"))
    gx, gy = st.ham_field(g)
    assert gx.normalized_equal(parse("-x", ("x", "y")))
    assert gy.normalized_equal(parse("y", ("x", "y")))


def test_casimir_generates_no_motion(e3):
    f1 = parse("R1^2+R2^2+R3^2", E3)
    assert all(c.is_zero() for c in e3.ham_field(f1))


def test_field_linearity():
    st = PoissonStructure.canonical_chart([("x", "y")])
    coords = ("x", "y")
    f = parse("x^2*y", coords)
    g = parse("x*y^2+x", coords)
    combo = 2 * f + 3 * g
    for xc, xf, xg in zip(st.ham_field(combo), st.ham_field(f), st.ham_field(g)):
        assert xc.normalized_equal(2 * xf + 3 * xg)


def test_commutation_canonical_exact_zero():
    from intsing.canonical import CanonicalSpec, build_canonical

    for spec in [CanonicalSpec(0, 1, 1, 0), CanonicalSpec(0, 0, 0, 1), CanonicalSpec(1, 1, 0, 1)]:
        model = build_canonical(spec)
        report = check_commutation(model, samples=50, tol=0.0)
        assert report.passed
        assert report.max_residual == 0.0


def test_commutation_kovalevskaya(e3, kov_exprs):
    h, k = kov_exprs
    model = IntegrableModel(e3, [h, k], leaf_values=[1.0, 0.5])
    report = check_commutation(model, samples=100, tol=1e-9, box=2.0)
    assert report.passed


def test_commutation_adversarial():
    st = PoissonStructure.canonical_chart([("x", "y")])
    model = IntegrableModel(st, [parse("x", ("x", "y")), parse("y", ("x", "y"))])
    report = check_commutation(model, samples=10, tol=1e-9)
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0)
    assert report.worst_pair == (0, 1)


def _count_tape_runs(monkeypatch) -> list:
    """The number of roots and the kind ("first-order" or other) of each tape run from now on."""
    runs, run = [], Tape._run

    def counted(self, leaves, fixed=(), fns=None):
        runs.append((len(self._roots), "first-order" if fns is not None and fns is self._first_fns else "other"))
        return run(self, leaves, fixed, fns)

    monkeypatch.setattr(Tape, "_run", counted)
    return runs


def test_sampled_checks_evaluate_each_expression_once(e3, kov_exprs, monkeypatch):
    h, k = kov_exprs
    model = IntegrableModel(e3, [h, k], leaf_values=[1.0, 0.5])
    runs = _count_tape_runs(monkeypatch)
    report = check_commutation(model, samples=100, box=2.0)
    assert runs == [(2, "first-order"), (9, "other")]  # the components' gradients, the entries' values
    runs.clear()
    e3.casimir_residual(samples=20)
    assert runs == [(2, "first-order"), (9, "other")]  # the Casimirs' gradients, the entries' values
    runs.clear()
    monkeypatch.setattr(phasespace, "SAMPLE_BLOCK", 40)
    assert check_commutation(model, samples=100, box=2.0).max_residual == report.max_residual
    assert runs == [(2, "first-order"), (9, "other")] * 3  # one run of each per block of 40, 40 and 20 points
    monkeypatch.undo()
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(100, 6))
    assert report.max_residual == max(abs(e3.bracket(h, k).evaluate(p)) for p in pts)


def test_jacobi_identity_e3(e3):
    assert e3.jacobi_residual(samples=1000, box=2.0).max_residual <= 1e-10


def test_jacobi_identity_canonical():
    st = PoissonStructure.canonical_chart([("x1", "y1"), ("x2", "y2")])
    assert st.jacobi_residual(samples=20) == (0.0, None, 0)


def test_jacobi_residual_matches_pointwise_jacobiator(monkeypatch):
    # pi_xy = x, pi_yz = y, pi_zx = z: v = (y, z, x) has v . curl v = -(x+y+z),
    # so the Jacobi identity fails away from that plane
    xyz = ("x", "y", "z")
    st = PoissonStructure(xyz, {(0, 1): parse("x", xyz), (1, 2): parse("y", xyz), (0, 2): parse("-z", xyz)})
    runs = _count_tape_runs(monkeypatch)
    residual, _, nonfinite = st.jacobi_residual(samples=50, box=2.0, seed=3)
    assert runs == [(3, "first-order")]  # one first-order run over the three entries, on all samples
    monkeypatch.undo()
    worst = 0.0
    for p in np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 3)):
        term = np.einsum("il,jkl->ijk", st.bivector_at(p), st.bivector_gradients_at(p))
        worst = max(worst, float(np.abs(term + term.transpose(1, 2, 0) + term.transpose(2, 0, 1)).max()))
    assert worst > 1.0
    assert abs(residual - worst) <= 1e-12 * worst and nonfinite == 0


def _per_field_max(fields, samples, box, seed, dim, params=None):
    """The reference for _sampled_max: each field evaluated on its own at all points."""
    pts = np.random.default_rng(seed).uniform(-box, box, size=(samples, dim))
    worst, at = 0.0, None
    for index, f in enumerate(fields):
        top = np.fmax.reduce(np.abs(f.evaluate(pts, params)), initial=worst)
        if top > worst:
            worst, at = top, index
    return worst, at


def _same_max(got, want) -> bool:
    return (np.float64(got[0]).tobytes(), got[1]) == (np.float64(want[0]).tobytes(), want[1])


def _symbolic_checks(model, samples, box, seed):
    """The reference for `verify`: (worst, index) of the symbolic brackets, Jacobiators
    and Casimir fields, each field evaluated on its own, as the CLI samples them."""
    st, params = model.structure, model.params
    pairs = list(combinations(range(model.n), 2))
    brackets = [st.bracket(model.components[i], model.components[j]) for i, j in pairs]
    jacobiators = []
    for i, j, k in combinations(range(model.dim), 3):
        cyclic = ((i, st.pi(j, k)), (j, st.pi(k, i)), (k, st.pi(i, j)))
        terms = [st.ham_field(e)[a] for a, e in cyclic if e is not None]
        jacobiators += [sum(terms[1:], terms[0])] if terms else []
    casimir_fields = [fx for cas in st.casimirs for fx in st.ham_field(cas)]
    worst, at = _per_field_max(brackets, samples, box, seed, model.dim, params)
    jacobi = _per_field_max(jacobiators, min(samples, 1000), box, seed, model.dim, params)[0]
    casimir = _per_field_max(casimir_fields, min(samples, 200), box, seed, model.dim, params)[0]
    if st._const_matrix is not None:
        jacobi = 0.0  # a constant bivector skips the Jacobi check
    return (worst, None if at is None else list(pairs[at])), jacobi, casimir


@pytest.mark.parametrize(
    "model",
    ["kovalevskaya:0", "kovalevskaya:0.5", "kovalevskaya:1.6"]
    + [f"disguise:{spec}" for spec in ("1,0,0,0", "0,2,0,0", "1,0,1,1", "0,1,1,1", "0,0,2,1", "0,0,0,2")],
)
def test_sampled_max_is_the_per_field_maximum(model, tmp_path, capsys):
    """Every sampled check that `verify` makes from gradient runs, on Kovalevskaya and
    on disguise files of n <= 4 types, gives the verdicts and worst pair of the symbolic
    fields evaluated one by one, and their worst values to 1e-12."""
    kind, _, arg = model.partition(":")
    argv = ["verify", "--model", "kovalevskaya", "--g", arg]
    if kind == "disguise":
        path = str(tmp_path / "model.json")
        spec = CanonicalSpec(*map(int, arg.split(",")))
        phasespace.save_model(randomized_disguise(build_canonical(spec), seed=2).model, path)
        argv = ["verify", "--model", path]
    samples, seed = 300, 4
    code = cli.main(argv + ["--samples", str(samples), "--seed", str(seed)])
    report = json.loads(capsys.readouterr().out)
    loaded = cli.resolve_model(argv[2], float(arg) if kind == "kovalevskaya" else None)
    box = 2.0 if loaded.structure.casimirs else 1.0
    (comm, pair), jacobi, casimir = _symbolic_checks(loaded, samples, box, seed)
    for check, want, tol in (("commutation", comm, cli.COMMUTATION_TOL), ("jacobi", jacobi, cli.JACOBI_TOL),
                             ("casimirs", casimir, cli.COMMUTATION_TOL)):
        assert abs(report[check]["max_residual"] - float(want)) <= 1e-12
        assert report[check]["pass"] == bool(want <= tol)
    assert report["commutation"]["worst_pair"] == pair
    passed = comm <= cli.COMMUTATION_TOL and jacobi <= cli.JACOBI_TOL and casimir <= cli.COMMUTATION_TOL
    assert report["pass"] == passed and code == (0 if passed else 1)


def _columns(fields, params):
    """The fields_at of _sampled_max for fields evaluated one by one."""
    return lambda pts: np.array([f.evaluate(pts, params) for f in fields]).reshape(len(fields), len(pts))


def test_sampled_max_with_constant_roots_and_nan_samples(monkeypatch):
    xy = ("x", "y")
    fields = [parse(src, xy, ("g",)) for src in ("x*y", "3/4", "g*x-g*y", "x+y", "(x+y)^2/4", "g*y")]
    fields.insert(1, constant(0.75, xy, ("g",)))
    for block in (4096, 7, 1):  # the 40 points in one block, or in six or forty
        monkeypatch.setattr(phasespace, "SAMPLE_BLOCK", block)
        for g in (0.5, np.nan, np.inf, -np.inf):  # NaN in no, every or some samples (inf - inf)
            for picked in (fields, fields[:4], fields[3:4], fields[::-1], []):
                params = {"g": g}
                with np.errstate(invalid="ignore"):
                    got = phasespace._sampled_max(_columns(picked, params), 40, 1.0, 7, 2)
                    want = _per_field_max(picked, 40, 1.0, 7, 2, params)
                assert _same_max(got, want)
        with np.errstate(invalid="ignore"):
            assert phasespace._sampled_max(_columns(fields[3:4], {"g": np.nan}), 40, 1.0, 7, 2) == (0.0, None, 40)
        ties = phasespace._sampled_max(_columns(fields[1:3], {"g": 0.0}), 40, 1.0, 7, 2)
        assert ties == (0.75, 0, 0)  # the first of two ties
    monkeypatch.setattr(phasespace, "SAMPLE_BLOCK", 2)
    blocks = iter([[[0.0, 1.0], [3.0, -2.0]], [[np.nan, -3.0], [0.0, 1.0]]])  # field 1 reaches 3 first, field 0 later
    assert phasespace._sampled_max(lambda pts: np.array(next(blocks)), 4, 1.0, 0, 2) == (3.0, 0, 1)


def test_casimirs_commute_with_coordinates(e3):
    assert e3.casimir_residual(samples=200, box=2.0).max_residual <= 1e-12


def test_flow_elliptic_period():
    coords = ("x", "y")
    field = [parse("-y", coords), parse("x", coords)]
    res = flow_integrate(field, PhasePoint([1.0, 0.0]), 2 * np.pi)
    assert np.linalg.norm(res.end.coordinates - [1.0, 0.0]) <= 1e-9


def test_flow_hyperbolic():
    coords = ("x", "y")
    field = [parse("-x", coords), parse("y", coords)]
    t = 1.0
    res = flow_integrate(field, PhasePoint([1.0, 1.0]), t)
    expected = np.array([np.exp(-t), np.exp(t)])
    assert np.linalg.norm(res.end.coordinates - expected) <= 1e-8


def test_flow_blowup_raises():
    from intsing.phasespace import FlowError

    field = [parse("x^2", ("x",))]  # solution blows up at t = 1
    with pytest.raises(FlowError):
        flow_integrate(field, PhasePoint([1.0]), 2.0)


def test_flow_kovalevskaya_conservation(e3, kov_exprs):
    h, k = kov_exprs
    model = IntegrableModel(e3, [h, k], leaf_values=[1.0, 0.5])
    rng = np.random.default_rng(3)
    # random leaf point: R on the unit sphere, S = g*R + tangential part
    r = rng.normal(size=3)
    r /= np.linalg.norm(r)
    w = rng.normal(size=3)
    w -= w.dot(r) * r
    p0 = np.concatenate([r, 0.5 * r + w])
    field = model.structure.ham_field(model.components[0])
    monitors = {
        "H": h,
        "K": k,
        "f1": e3.casimirs[0],
        "f2": e3.casimirs[1],
    }
    res = flow_integrate(field, PhasePoint(p0), 10.0, monitors=monitors)
    assert max(res.drift.values()) <= 1e-7


def test_flow_of_each_component_preserves_all(e3, kov_exprs):
    h, k = kov_exprs
    model = IntegrableModel(e3, [h, k], leaf_values=[1.0, 0.5])
    p0 = np.array([0.6, 0.0, 0.8, 0.3, 0.4, 0.0])
    for idx in range(2):
        res = flow_integrate(
            model.structure.ham_field(model.components[idx]), PhasePoint(p0), 5.0, monitors={"H": h, "K": k}
        )
        assert max(res.drift.values()) <= 1e-7


def test_flow_runs_one_tape_with_the_per_field_bits(e3, kov_exprs):
    """The end point, nfev and drifts equal those of a flow that evaluates each field on its own."""
    h, k = kov_exprs
    model = IntegrableModel(e3, [h, k], leaf_values=[1.0, 0.5])
    field, p0 = model.structure.ham_field(model.components[1]), np.array([0.6, 0.1, 0.8, 0.3, 0.4, -0.2])
    monitors = {"H": h, "K": k, "f1": e3.casimirs[0]}
    res = flow_integrate(field, PhasePoint(p0), 3.0, monitors=monitors)
    sol = solve_ivp(
        lambda _t, y: [f.evaluate(y) for f in field], (0.0, 3.0), p0, method="DOP853", rtol=1e-11, atol=1e-12
    )
    end = sol.y[:, -1]
    assert res.end.coordinates.tobytes() == end.tobytes() and res.nfev == sol.nfev
    drift = {label: abs(m.evaluate(end) - m.evaluate(p0)) for label, m in monitors.items()}
    assert [np.float64(v).tobytes() for v in res.drift.values()] == [np.float64(v).tobytes() for v in drift.values()]
    assert list(res.drift) == list(monitors)


def test_model_roundtrip_bit_exact(e3, kov_exprs):
    h, k = kov_exprs
    model = IntegrableModel(e3, [h, k], leaf_values=[1.0, 0.5], params={"g": 0.5}, name="kov")
    d1 = model_to_dict(model)
    text1 = json.dumps(d1, sort_keys=True)
    d2 = model_to_dict(model_from_dict(json.loads(text1)))
    assert json.dumps(d2, sort_keys=True) == text1


def test_model_roundtrip_canonical_flag():
    from intsing.canonical import CanonicalSpec, build_canonical

    model = build_canonical(CanonicalSpec(1, 0, 1, 0))
    d1 = model_to_dict(model)
    assert d1["structure"] == "canonical"
    text1 = json.dumps(d1, sort_keys=True)
    d2 = model_to_dict(model_from_dict(json.loads(text1)))
    assert json.dumps(d2, sort_keys=True) == text1


def test_bivector_is_its_entries_above_the_diagonal():
    coords = ("x", "y")
    one = parse("1", coords)
    for pair in [(1, 0), (0, 0), (0, 2)]:
        with pytest.raises(ModelError, match="above the diagonal"):
            PoissonStructure(coords, {pair: one})
    plane = {"coordinates": ["x", "y"], "components": ["x"]}
    flipped = model_from_dict({**plane, "structure": {"bivector": [{"i": "y", "j": "x", "expr": "x"}]}})
    assert flipped.structure.pi(0, 1) == parse("-x", coords) and flipped.structure.pi(1, 0) == parse("x", coords)
    twice = [{"i": "x", "j": "y", "expr": "1"}, {"i": "y", "j": "x", "expr": "1"}]
    for items in (twice, twice[:1] * 2, [{"i": "x", "j": "x", "expr": "1"}]):
        with pytest.raises(ModelError, match="second time|diagonal"):
            model_from_dict({**plane, "structure": {"bivector": items}})


UNKNOWN_KEYS = {
    "the model document": lambda d: d.update(bivector=[]),
    "a Casimir item": lambda d: d["casimirs"][0].update(val=1.0),
    "structure": lambda d: d["structure"].update(entries=[]),
    "a bivector item": lambda d: d["structure"]["bivector"][0].update(k="R1"),
    "canonical": lambda d: d.update(canonical={"r": 0, "ke": 1, "kh": 0, "kf": 0, "k_e": 1}),
}


@pytest.mark.parametrize("level", sorted(UNKNOWN_KEYS))
def test_a_key_no_level_takes_is_refused(level):
    d = model_to_dict(build_kovalevskaya(0.5))
    model_from_dict(copy.deepcopy(d))
    UNKNOWN_KEYS[level](d)
    with pytest.raises(ModelError, match=f"{level} has unknown keys"):
        model_from_dict(d)


def test_a_parameter_with_no_value_is_an_error():
    """A parameter that a tape reads must be given; one it never reads need not be."""
    e = parse("a*x+1", ("x",), ("a",))
    with pytest.raises(ValueError, match="no value for parameter 'a'"):
        e.evaluate([2.0])
    assert e.evaluate([2.0], {"a": 3.0, "b": 5.0}) == 7.0
    assert parse("x+1", ("x",), ("a",)).evaluate([2.0]) == 3.0
    m = model_from_dict({
        "coordinates": ["x", "y", "z"],
        "components": ["z"],
        "parameters": {"g": 2.0},
        "structure": {"bivector": [{"i": "x", "j": "y", "expr": "g*z"}]},
    })
    with pytest.raises(ValueError, match="no value for parameter 'g'"):
        m.structure.bivector_at([1.0, 1.0, 1.0])
    assert m.structure.bivector_at([1.0, 1.0, 1.0], m.params)[0, 1] == 2.0


def test_bivector_gradients_at_are_the_bivector_s_central_differences(e3):
    """d pi[i][j] / d c_m at seeded points: antisymmetric in (i, j), and the
    central differences of bivector_at in c_m; a constant bivector has none."""
    h = 1e-5
    for p in np.random.default_rng(0).normal(size=(3, 6)):
        grads = e3.bivector_gradients_at(p)
        assert grads.shape == (6, 6, 6)
        assert np.array_equal(grads, -grads.swapaxes(0, 1))
        for m, step in enumerate(h * np.eye(6)):
            central = (e3.bivector_at(p + step) - e3.bivector_at(p - step)) / (2 * h)
            assert np.allclose(grads[:, :, m], central, rtol=0.0, atol=1e-6)
    constant = PoissonStructure.canonical_chart([("x", "y")])
    assert np.array_equal(constant.bivector_gradients_at(np.zeros(2)), np.zeros((2, 2, 2)))


def test_an_entry_without_free_symbols_is_constant():
    coords = ("x", "y", "z", "w")
    entries = {(0, 1): "-1", (2, 3): "2/3*4", (0, 2): "-0.0"}
    st = PoissonStructure(coords, {ij: parse(src, coords) for ij, src in entries.items()})
    assert st._const_matrix is not None and np.array_equal(st.bivector_gradients_at(np.zeros(4)), np.zeros((4, 4, 4)))
    assert st.bivector_at(np.ones(4))[0, 1] == -1.0 and st.bivector_at(np.ones(4))[3, 2] == -8 / 3
    assert st.bivector_at(np.ones(4))[[0, 2], [2, 0]].tobytes() == np.zeros(2).tobytes()  # a zero is +0.0 on both sides
    with_parameter = PoissonStructure(coords, {(0, 1): parse("g", coords, ("g",))})
    assert with_parameter._const_matrix is None


def test_high_power_entry_saves_and_loads_quickly():
    """Neither the constant test nor the zero test of a saved entry expands x^3000000."""
    coords = ("x", "y")
    st = PoissonStructure(coords, {(0, 1): parse("x^3000000", coords)})
    t0 = time.perf_counter()
    d = model_to_dict(IntegrableModel(st, [parse("x", coords)]))
    assert model_to_dict(model_from_dict(json.loads(json.dumps(d)))) == d
    assert d["structure"]["bivector"] == [{"i": "x", "j": "y", "expr": "x^3000000"}]
    assert time.perf_counter() - t0 < 2.0
