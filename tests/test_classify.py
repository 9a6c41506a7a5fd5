import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intsing import bifurcation
from intsing.canonical import CanonicalSpec, build_canonical, randomized_disguise
from intsing.classify import (
    DEFAULT_ATTEMPTS,
    ClassifyError,
    DegenerateReport,
    Linearization,
    OffLeafError,
    PointAnalysis,
    WilliamsonType,
    analyze_point,
    classify_point,
    is_nondegenerate,
    linearize,
    rank_at,
    reduce_at,
    williamson_type,
)
from intsing.expr import parse
from intsing.phasespace import IntegrableModel, PoissonStructure, model_from_dict


def all_specs(max_n: int = 4):
    out = []
    for n in range(1, max_n + 1):
        for kf in range(n // 2 + 1):
            rest = n - 2 * kf
            for r in range(rest + 1):
                for ke in range(rest - r + 1):
                    out.append(CanonicalSpec(r, ke, rest - r - ke, kf))
    return out


def test_rank_at_origin_and_generic():
    m = build_canonical(CanonicalSpec(0, 2, 0, 0))
    assert rank_at(m, np.zeros(4)) == 0
    assert rank_at(m, np.array([0.3, 0.1, -0.2, 0.5])) == 2


def test_rank_kovalevskaya_vertex():
    from intsing.kovalevskaya import build_kovalevskaya

    m = build_kovalevskaya(0.5)
    assert rank_at(m, np.array([1.0, 0, 0, 0.5, 0, 0])) == 0


def test_linearize_hyperbolic_block():
    st = PoissonStructure.canonical_chart([("x", "y")])
    m = IntegrableModel(st, [parse("x*y", ("x", "y"))])
    L = linearize(m, np.zeros(2))
    assert np.allclose(L.matrices[0], [[-1.0, 0.0], [0.0, 1.0]])


def test_linearize_elliptic_block():
    st = PoissonStructure.canonical_chart([("x", "y")])
    m = IntegrableModel(st, [parse("(1/2)*(x^2+y^2)", ("x", "y"))])
    L = linearize(m, np.zeros(2))
    assert np.allclose(L.matrices[0], [[0.0, -1.0], [1.0, 0.0]])


def test_linearize_focus_pair():
    m = build_canonical(CanonicalSpec(0, 0, 0, 1))
    L = linearize(m, np.zeros(4))
    A1, A2 = L.matrices
    assert np.allclose(A1 @ A2, A2 @ A1)
    eig = np.sort_complex(np.linalg.eigvals(A2))
    assert np.allclose(eig, [-1j, -1j, 1j, 1j])


def test_linearization_invariants():
    for spec in [CanonicalSpec(0, 1, 1, 0), CanonicalSpec(0, 0, 0, 1), CanonicalSpec(0, 2, 1, 0)]:
        L = linearize(build_canonical(spec), np.zeros(spec.dim))
        assert L.commutator_norm <= 1e-12
        assert L.symplectic_residual <= 1e-12


def test_williamson_canonical_types():
    cases = [
        (CanonicalSpec(0, 1, 1, 0), (1, 1, 0)),
        (CanonicalSpec(0, 0, 0, 1), (0, 0, 1)),
        (CanonicalSpec(0, 2, 0, 0), (2, 0, 0)),
        (CanonicalSpec(0, 0, 2, 0), (0, 2, 0)),
    ]
    for spec, want in cases:
        L = linearize(build_canonical(spec), np.zeros(spec.dim))
        w = williamson_type(L)
        assert w.triple == want
        assert w.rank + w.k_e + w.k_h + 2 * w.k_f == spec.n


def test_williamson_focus_coefficients_give_quadruple():
    m = build_canonical(CanonicalSpec(0, 0, 0, 1))
    L = linearize(m, np.zeros(4))
    A = L.matrices[0] + L.matrices[1]
    eig = np.linalg.eigvals(A)
    expected = {1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}
    assert all(min(abs(e - t) for t in expected) < 1e-9 for e in eig)


def test_spectral_symmetry_of_certificate():
    L = linearize(build_canonical(CanonicalSpec(0, 1, 0, 1)), np.zeros(6))
    w = williamson_type(L)
    eig = np.array(w.eigenvalues)
    for lam in eig:
        assert min(abs(eig + lam)) < 1e-8 * (1 + abs(lam))
        assert min(abs(eig - lam.conjugate())) < 1e-8 * (1 + abs(lam))


def _random_symplectic_conjugation(L, rng):
    dim = L.matrices[0].shape[0]
    n = dim // 2
    from intsing.canonical import _random_symplectic

    S = _random_symplectic(rng, n, shears=4, scale=0.6)
    Si = np.linalg.inv(S)
    mats = [S @ A @ Si for A in L.matrices]
    omega = Si.T @ L.omega @ Si
    from intsing.classify import Linearization

    return Linearization(
        matrices=mats,
        omega=omega,
        basis=L.basis,
        rank=L.rank,
        n=L.n,
        reduced=L.reduced,
        commutator_norm=L.commutator_norm,
        symplectic_residual=L.symplectic_residual,
    )


def test_williamson_conjugation_invariance():
    rng = np.random.default_rng(5)
    for spec in [CanonicalSpec(0, 1, 1, 0), CanonicalSpec(0, 0, 0, 1), CanonicalSpec(0, 2, 0, 0)]:
        L = linearize(build_canonical(spec), np.zeros(spec.dim))
        want = williamson_type(L).triple
        for _ in range(10):
            Lc = _random_symplectic_conjugation(L, rng)
            assert williamson_type(Lc).triple == want


def test_reduce_at_rank1_elliptic():
    m = build_canonical(CanonicalSpec(1, 1, 0, 0))
    p = np.array([0.4, 1.3, 0.0, 0.0])
    assert rank_at(m, p) == 1
    L = reduce_at(m, p)
    assert L.matrices[0].shape == (2, 2)
    assert williamson_type(L).triple == (1, 0, 0)


def test_reduce_at_regular_point_errors():
    m = build_canonical(CanonicalSpec(1, 1, 0, 0))
    with pytest.raises(ClassifyError, match="regular"):
        reduce_at(m, np.array([0.4, 1.3, 0.5, 0.5]))


def test_nondegenerate_canonical():
    for spec in [CanonicalSpec(0, 1, 1, 0), CanonicalSpec(0, 0, 0, 1)]:
        v = is_nondegenerate(build_canonical(spec), np.zeros(spec.dim))
        assert v.verdict == "nondegenerate"
        assert v.williamson.triple == (spec.k_e, spec.k_h, spec.k_f)


def test_regular_point_is_inconclusive():
    v = is_nondegenerate(build_canonical(CanonicalSpec(0, 1, 0, 0)), np.array([0.5, 0.25]))
    assert (v.verdict, v.williamson, v.diagnostics) == ("inconclusive", None, {"rank": 1, "note": "point is regular"})


def test_refused_point_is_inconclusive():
    from intsing.kovalevskaya import build_kovalevskaya

    v = is_nondegenerate(build_kovalevskaya(0.5), np.zeros(6))  # off the leaf
    assert (v.verdict, v.williamson) == ("inconclusive", None)
    assert v.diagnostics == {"error": "point is off the leaf: max Casimir residual 1.000e+00"}


def test_fields_that_do_not_commute_are_inconclusive():
    st = PoissonStructure.canonical_chart([("x1", "y1"), ("x2", "y2")])
    coords = st.coords
    v = is_nondegenerate(IntegrableModel(st, [parse("x1^2+y1^2", coords), parse("x1*x2", coords)]), np.zeros(4))
    assert (v.verdict, v.williamson, v.diagnostics["note"]) == ("inconclusive", None, "fields do not commute")
    assert v.diagnostics["rank"] == 0 and v.diagnostics["commutator_norm"] > 1e-6


def test_degenerate_parabolic_like():
    st = PoissonStructure.canonical_chart([("x", "y")])
    m = IntegrableModel(st, [parse("x^2*y", ("x", "y"))])
    v = is_nondegenerate(m, np.zeros(2))
    assert v.verdict == "degenerate"


def test_degenerate_report_on_nilpotent():
    st = PoissonStructure.canonical_chart([("x", "y"), ("u", "v")])
    coords = ("x", "y", "u", "v")
    # h2 has a nilpotent linearization: spectrum never simple
    m = IntegrableModel(st, [parse("x*y", coords), parse("(1/2)*u^2", coords)])
    L = linearize(m, np.zeros(4))
    w = williamson_type(L)
    assert isinstance(w, DegenerateReport)


def test_verdict_invariant_under_momentum_remix():
    rng = np.random.default_rng(9)
    spec = CanonicalSpec(0, 1, 1, 0)
    base = build_canonical(spec)
    coords = base.coords
    for _ in range(5):
        J = rng.uniform(-1, 1, size=(2, 2))
        while abs(np.linalg.det(J)) < 0.2:
            J = rng.uniform(-1, 1, size=(2, 2))
        comps = [
            J[i, 0] * base.components[0] + J[i, 1] * base.components[1] for i in range(2)
        ]
        m = IntegrableModel(base.structure, comps, canonical_spec=spec)
        v = is_nondegenerate(m, np.zeros(4))
        assert v.verdict == "nondegenerate"
        assert v.williamson.triple == (1, 1, 0)


@pytest.mark.parametrize("spec", all_specs(4), ids=lambda s: f"{s.r},{s.k_e},{s.k_h},{s.k_f}")
def test_round_trip_small(spec):
    # 3 disguises per type here; the acceptance suite runs the full 100
    model = build_canonical(spec)
    for seed in range(3):
        d = randomized_disguise(model, seed=seed)
        r = rank_at(d.model, d.point)
        assert r == spec.r
        if r == spec.n:
            continue  # all-regular model: the marked point is not singular
        L = linearize(d.model, d.point) if r == 0 else reduce_at(d.model, d.point)
        w = williamson_type(L)
        assert hasattr(w, "triple"), f"degenerate report for {spec}"
        assert w.triple == (spec.k_e, spec.k_h, spec.k_f)


@pytest.mark.parametrize("spec", [CanonicalSpec(0, 1, 0, 1), CanonicalSpec(1, 1, 1, 0)])
def test_classify_point_evaluates_jets_once(spec, monkeypatch):
    d = randomized_disguise(build_canonical(spec), seed=5)
    calls = []
    original = IntegrableModel.component_jets

    def counting(self, point):
        calls.append(point)
        return original(self, point)

    monkeypatch.setattr(IntegrableModel, "component_jets", counting)
    out = classify_point(d.model, d.point)
    assert out["rank"] == spec.r
    assert len(calls) == 1


def test_off_leaf_point_is_refused():
    from intsing.kovalevskaya import build_kovalevskaya

    m = build_kovalevskaya(0.5)
    with pytest.raises(OffLeafError, match="off the leaf"):
        analyze_point(m, np.array([2.0, 0, 0, 0, 0, 0]))
    with pytest.raises(OffLeafError):
        classify_point(m, np.array([1.0, 0, 0, 0.7, 0, 0]))  # f2 = 0.7, not g


@pytest.mark.parametrize(
    "components, x1",
    [(["x1^5+y1", "x2*y2"], 1e100), (["1/x1 + y1^2", "x2*y2"], 1e-200)],
    ids=["power-overflows", "pole-overflows"],
)
def test_a_point_with_non_finite_jets_is_refused(components, x1):
    """Jets that overflow (x1^5 at 1e100; the derivatives of 1/x1 at 1e-200) are
    refused before any SVD reads them: is_nondegenerate is inconclusive."""
    m = model_from_dict({"coordinates": ["x1", "y1", "x2", "y2"], "components": components})
    p = np.array([x1, 0.0, 0.0, 0.0])
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        with pytest.raises(ClassifyError, match="jets are not finite"):
            analyze_point(m, p)
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        verdict = is_nondegenerate(m, p)
    assert verdict.verdict == "inconclusive"
    assert verdict.diagnostics == {"error": "component or Casimir jets are not finite at this point"}


def test_a_record_at_a_non_finite_point_is_refused():
    """A record, which analyze_point takes as it is, at a non-finite point: its
    NaN Casimir residual refuses it as off its leaf, and a record whose jets
    overflow on a model without Casimirs is refused for its jets, each with a
    ClassifyError and not LAPACK's LinAlgError; is_nondegenerate is then
    inconclusive."""
    from intsing.kovalevskaya import build_kovalevskaya

    m = build_kovalevskaya(0.5)
    nan_point = [np.nan, 0.0, 0.0, 0.5, 0.0, 0.0]
    with pytest.raises(OffLeafError, match="off the leaf: max Casimir residual nan"):
        reduce_at(m, PointAnalysis(m, nan_point))
    verdict = is_nondegenerate(m, PointAnalysis(m, nan_point))
    assert verdict.verdict == "inconclusive"
    assert verdict.diagnostics == {"error": "point is off the leaf: max Casimir residual nan"}
    m = model_from_dict({"coordinates": ["x1", "y1", "x2", "y2"], "components": ["x1^5+y1", "x2*y2"]})
    with pytest.warns(RuntimeWarning, match="overflow|invalid value"):
        a = PointAnalysis(m, [1e100, 0.0, 0.0, 0.0])
        with pytest.raises(ClassifyError, match="jets are not finite"):
            reduce_at(m, a)
    assert is_nondegenerate(m, a).diagnostics == {"error": "component or Casimir jets are not finite at this point"}


@given(st.sampled_from([s for s in all_specs(5) if s.n == 5]), st.integers(0, 2**31 - 1))
def test_type_survives_random_disguise_n5(spec, seed):
    d = randomized_disguise(build_canonical(spec), seed=seed)
    out = classify_point(d.model, d.point)
    assert out["rank"] == spec.r
    if spec.r < spec.n:
        w = out["williamson"]
        assert (w["k_e"], w["k_h"], w["k_f"]) == (spec.k_e, spec.k_h, spec.k_f)


# Each record kind gets its documented outcome from reduce_at, linearize and
# williamson_type.


@functools.cache
def _kovalevskaya_points():
    """Kovalevskaya at g = 0.5, rank-1 points refined from random leaf samples, and its two rank-0 points."""
    from intsing.kovalevskaya import build_kovalevskaya, involution_fixed_points

    m = build_kovalevskaya(0.5)
    starts = np.random.default_rng(3).uniform(-1.5, 1.5, size=(24, m.dim))
    runs = [bifurcation._attempt(bifurcation._refine(m, p, 1)) for p in starts]
    rank1 = [a.point for a in bifurcation._lockstep(m, runs, 1e-8) if a is not None]
    return m, rank1, involution_fixed_points(0.5, certify=False)


@functools.cache
def _disguise():
    """A disguise of canonical (0, 2, 1, 0): a point has the rank of its nonzero canonical pairs."""
    return randomized_disguise(build_canonical(CanonicalSpec(0, 2, 1, 0)), seed=11)


def _kovalevskaya_record(rng, kind: str):
    m, rank1, rank0 = _kovalevskaya_points()
    if kind == "rank 0":
        return PointAnalysis(m, rank0[rng.integers(len(rank0))])
    p = rank1[rng.integers(len(rank1))]
    if kind == "rank 1":
        return PointAnalysis(m, p)
    p = p + rng.normal(scale=0.1, size=m.dim)
    if kind == "off-leaf":
        return PointAnalysis(m, p)
    return bifurcation._run_one(m, bifurcation._leaf_project(m, p), 1e-8)  # regular


def _disguise_record(rng, kind: str):
    d = _disguise()
    q = rng.normal(size=d.model.dim)
    pairs = {"rank 0": 0, "rank 1": 1, "rank 2": 2, "regular": 3}[kind]
    q[2 * pairs :] = 0.0
    return PointAnalysis(d.model, d.symplectic @ rng.permutation(q.reshape(-1, 2)).ravel())


def _off_type_linearizations(rng) -> list:
    """2x2 linearizations of a rank-1 point of two degrees of freedom that give no
    type: nilpotent (no simple spectrum), generic (no Hamiltonian spectrum, so
    every draw is made), and one that is neither reduced nor of rank 0 (refused)."""
    def lin(M, reduced=True):
        return Linearization([M], np.eye(2), np.eye(2), 1, 2, reduced, 0.0, 0.0)

    return [lin(np.array([[0.0, 1.0], [0.0, 0.0]])), lin(rng.normal(size=(2, 2))), lin(rng.normal(size=(2, 2)), False)]


def _assert_typed(L: Linearization, r: int, n: int):
    """L is the rank-r linearization of n - r pairs, and williamson_type types it with n - r pairs."""
    assert (L.rank, L.n, L.reduced, len(L.matrices)) == (r, n, r > 0, n - r)
    assert all(M.shape == (2 * (n - r),) * 2 for M in L.matrices) and L.omega.shape == L.matrices[0].shape
    assert type(L.commutator_norm) is float and type(L.symplectic_residual) is float
    w = williamson_type(L)
    assert isinstance(w, WilliamsonType) and w.rank == r and w.k_e + w.k_h + 2 * w.k_f == n - r
    assert type(w.gap) is float


@given(
    st.sampled_from(["kovalevskaya", "disguise"]),
    st.sampled_from(["rank 0", "rank 1", "rank 2", "regular", "off-leaf"]),
    st.integers(0, 2**32 - 1),
)
def test_each_record_kind_gets_its_documented_outcome(which, kind, seed):
    """Kovalevskaya records: rank-1 points, the rank-0 points, and perturbed
    points off the leaf or projected back onto it (regular); disguise records:
    ranks 0 to 3 (there is no leaf to be off).  Off-type 2x2 linearizations get
    their DegenerateReport reasons, or are refused."""
    rng = np.random.default_rng(seed)
    if which == "kovalevskaya":
        a = _kovalevskaya_record(rng, kind.replace("rank 2", "rank 1"))
    else:
        kind = kind.replace("off-leaf", "regular")
        a = _disguise_record(rng, kind)
    model, n = a.model, a.model.n
    if kind == "off-leaf":
        with pytest.raises(OffLeafError, match="off the leaf"):
            reduce_at(model, a)
    elif kind == "regular":
        assert a.rank == n
        with pytest.raises(ClassifyError, match="^point is regular: nothing to reduce$"):
            reduce_at(model, a)
    elif kind == "rank 0":
        assert a.rank == 0
        with pytest.raises(ClassifyError, match="^rank-0 point: use linearize directly$"):
            reduce_at(model, a)
        _assert_typed(linearize(model, a), 0, n)
    else:
        r = a.rank
        assert 0 < r < n and r == (1 if which == "kovalevskaya" else int(kind[-1]))
        _assert_typed(reduce_at(model, a), r, n)
        with pytest.raises(ClassifyError, match="needs a rank-0 or reduced linearization"):
            williamson_type(linearize(model, a))  # unreduced at rank r > 0

    nilpotent, generic, unreduced = _off_type_linearizations(rng)
    for L in (nilpotent, generic):
        w = williamson_type(L)
        assert isinstance(w, DegenerateReport) and w.reason == "no simple-spectrum combination found"
        assert w.attempts == DEFAULT_ATTEMPTS and type(w.best_gap) is float
    with pytest.raises(ClassifyError, match="needs a rank-0 or reduced linearization"):
        williamson_type(unreduced)
