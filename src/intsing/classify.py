"""Rank, linearization and Williamson type of singular points.

Pipeline for a point p of an integrable model.  Every step reads one record
per point, `PointAnalysis`, which evaluates each part once, on first use: the
component and Casimir jets, the leaf frame built from those Casimir jets, the
SVD of dF on the leaf and the rank.  `analyze_point` makes the record of a
bare point and refuses a point or record whose jets are not finite or that is
off its leaf (the refusal is one more part of the record, found once).  The
public functions take the record wherever they take a point, and scan,
refinement and continuation in `bifurcation` hand each iterate's record on to
the next step.

Steps 1 and 2 are stacked because a lockstep round of Newton runs calls them:
`leaf_frames` and `dF_svds` build the frames and SVDs of many records in one
computation, each record's with the bits of its own, and `leaf_frame` and a
record's `svd` are their calls on one record.  So is step 5's spectrum test,
`spectrum_types`, which the family labels of a lockstep round call on many
2x2 quotients at once.  Steps 3 to 5 otherwise take one record:
`linearize`, `reduce_at` and `williamson_type`.

1. the leaf tangent space at p is the kernel of the Casimir differentials
   (the bivector annihilates exactly the Casimir gradients there, so this
   matches the image of the bivector without building leaf charts);
2. the rank of dF restricted to the leaf tangent decides singularity;
3. the linearizations A_j of the Hamiltonian fields, restricted to the
   leaf tangent, are A_j = Pi Hess(f_j) + (dPi) grad(f_j);
4. for rank r > 0 the A_j are pushed to the symplectic quotient of
   ker dF by the span of the field values;
5. a random combination A = sum c_j A_j with simple spectrum sorts the
   eigenvalues into elliptic pairs, hyperbolic pairs and focus quadruples.

Failure to find a simple-spectrum combination after many draws is strong
evidence of degeneracy and is reported as such, never as a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expr import JetStack
from .phasespace import DEFAULT_SEED, IntegrableModel, PhasePoint

DEFAULT_TOL = 1e-8
DEFAULT_ATTEMPTS = 32


class ClassifyError(RuntimeError):
    pass


class OffLeafError(ClassifyError):
    pass


# ---------------------------------------------------------------------------
# Leaf tangent geometry
# ---------------------------------------------------------------------------


@dataclass
class LeafFrame:
    basis: np.ndarray          # N x 2n_leaf, orthonormal columns
    omega: np.ndarray          # symplectic form matrix on the basis
    bivector: np.ndarray       # ambient N x N bivector at the point


def leaf_frames(model: IntegrableModel, records: list, tol=DEFAULT_TOL) -> list:
    """The leaf tangent frame at each record's point, built from its Casimir jets
    by one stacked computation, or the ClassifyError that refuses that point
    (tol: one tolerance, or one per record)."""
    N, tol = model.dim, np.asarray(tol, dtype=float)
    out: list = [None] * len(records)
    if model.structure.casimirs:
        _, sv, Vt = np.linalg.svd(np.array([a.cjets.gradient for a in records]))
        dependent = sv[:, -1] <= tol * np.maximum(sv[:, 0], 1.0)
        Bt = Vt[:, sv.shape[1] :]
        for i in np.flatnonzero(dependent):
            out[i] = ClassifyError("Casimir differentials are dependent at this point")
        ok = np.flatnonzero(~dependent)
        if len(ok) < len(records):
            Bt, tol = Bt[ok], tol[ok] if tol.ndim else tol
    else:
        ok, Bt = range(len(records)), np.array([np.eye(N)] * len(records))
    if not len(ok):
        return out
    B = Bt.swapaxes(1, 2)
    Pi = model.structure.bivector_at(np.array([records[i].point for i in ok]), model.params)  # one matrix if constant
    PiB = Bt @ Pi @ B
    sv = np.linalg.svd(PiB, compute_uv=False)
    degenerate = sv[:, -1] <= tol * np.maximum(sv[:, 0], 1.0)
    omega = iter(np.linalg.inv(PiB[~degenerate]))  # omega(v, X_f) = df forces Omega = Pi^-1 on the leaf
    for k, i in enumerate(ok):
        if degenerate[k]:
            out[i] = ClassifyError(f"bivector rank degenerates at this point (leaf dimension {B.shape[2]})")
        else:
            out[i] = LeafFrame(B[k], next(omega), Pi if Pi.ndim == 2 else Pi[k])
    return out


def leaf_frame(model: IntegrableModel, a: PointAnalysis, tol: float = DEFAULT_TOL) -> LeafFrame:
    """Leaf tangent frame at the point of record a, built from its Casimir jets."""
    (frame,) = leaf_frames(model, [a], tol)
    if isinstance(frame, ClassifyError):
        raise frame
    return frame


def dF_svds(records: list) -> list:
    """The full SVD (U, sv, Vt) of dF on the leaf basis at each record, one stacked call."""
    G = np.array([a.jets.gradient for a in records])
    B = np.array([a.frame.basis.T for a in records]).swapaxes(1, 2)
    return list(zip(*np.linalg.svd(G @ B)))


def _numerical_rank(sv: np.ndarray, tol: float) -> int:
    """The number of singular values in sv above tol times the largest (or 1)."""
    return int(np.sum(sv > tol * max(float(sv[0]), 1.0)))


class PointAnalysis:
    """Everything the pipeline reads at one phase point, each part evaluated
    once, on first use: a Newton iterate that reads only jets builds no frame.
    A lockstep round of Newton runs sets its records' jets from one batch."""

    def __init__(self, model: IntegrableModel, p, tol: float = DEFAULT_TOL):
        self.model, self.tol = model, tol  # tol: rank tolerance of the frame and of `rank`
        self.point = p.coordinates if isinstance(p, PhasePoint) else np.asarray(p, dtype=float)

    jets = cached_property(lambda self: self.model.component_jets(self.point))  # a JetStack
    cjets = cached_property(lambda self: self.model.casimir_jets(self.point))  # the Casimirs' JetStack
    frame = cached_property(lambda self: leaf_frame(self.model, self, self.tol))
    # full SVD of dF on the leaf basis: U diag(sv) Vt
    svd = cached_property(lambda self: dF_svds([self])[0])
    U = property(lambda self: self.svd[0])
    sv = property(lambda self: self.svd[1])
    Vt = property(lambda self: self.svd[2])
    rank = cached_property(lambda self: _numerical_rank(self.sv, self.tol))  # of dF on the leaf tangent
    refusal = cached_property(lambda self: _refusal(self))  # why analyze_point refuses the record, or None
    value = property(lambda self: self.jets.value.copy())  # momentum_value's bits on polynomials

    def detached(self) -> PointAnalysis:
        """A record of the same point holding copies of each part evaluated so
        far, so that keeping it keeps no batch's arrays alive."""
        b, parts = PointAnalysis(self.model, self.point.copy(), self.tol), vars(self)
        for name in ("jets", "cjets"):
            if name in parts:
                setattr(b, name, JetStack(*(x.copy(order="K") for x in parts[name])))
        if "frame" in parts:
            b.frame = LeafFrame(*(x.copy(order="K") for x in vars(self.frame).values()))
        if "svd" in parts:
            b.svd = tuple(x.copy(order="K") for x in self.svd)
        return b


def _refusal(a: PointAnalysis) -> ClassifyError | None:
    """The ClassifyError that refuses record a: an OffLeafError where its point
    is off its leaf or its Casimir residual is not finite, else one where its
    jets are not finite (LAPACK fails on them further on); None where neither."""
    residual = np.max(np.abs(a.cjets.value - np.asarray(a.model.leaf_values)), initial=0.0)
    if not residual <= 1e-6:
        return OffLeafError(f"point is off the leaf: max Casimir residual {residual:.3e}")
    if not all(np.isfinite(x).all() for x in (*a.cjets, *a.jets)):
        return ClassifyError("component or Casimir jets are not finite at this point")
    return None


def analyze_point(model: IntegrableModel, p, tol: float = DEFAULT_TOL) -> PointAnalysis:
    """The record of p, its frame built here; a record is returned as is.  A p
    or record off its leaf or with non-finite jets raises (see _refusal), and
    so does a degenerate p."""
    a = p if isinstance(p, PointAnalysis) else PointAnalysis(model, p, tol)
    if a.refusal is not None:
        raise a.refusal.with_traceback(None)
    if a is not p:
        a.frame = leaf_frame(model, a, tol)
    return a


def rank_at(model: IntegrableModel, p, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of dF restricted to the leaf tangent space at p."""
    return analyze_point(model, p, tol).rank


# ---------------------------------------------------------------------------
# Linearization
# ---------------------------------------------------------------------------


@dataclass
class Linearization:
    matrices: list[np.ndarray]   # operators on the (possibly reduced) tangent
    omega: np.ndarray            # symplectic form on the same basis
    basis: np.ndarray            # ambient N x dim columns spanning the space
    rank: int                    # rank of dF at the point
    n: int                       # number of momentum components
    reduced: bool
    commutator_norm: float
    symplectic_residual: float


def _leaf_linearizations(model: IntegrableModel, a: PointAnalysis) -> list[np.ndarray]:
    """Jacobians of the Hamiltonian fields X_{f_j} at the point, on the leaf basis B.

    d(X_f)_k/dc_m = sum_l [ pi_kl d2f/dl dm + (d pi_kl/dc_m) df/dl ].
    """
    B, Pi = a.frame.basis, a.frame.bivector
    dPi = model.structure.bivector_gradients_at(a.point, model.params)
    out = []
    for g, hessian in zip(a.jets.gradient, a.jets.hessian):
        M = Pi @ hessian
        if dPi.any():  # else M + 0 would turn a -0.0 of M to +0.0
            M = M + np.einsum("klm,l->km", dPi, g)
        out.append(B.T @ M @ B)
    return out


def _norm(X: np.ndarray) -> float:
    return float(np.linalg.norm(X))


def _linearization(mats, omega, basis, rank: int, n: int, reduced: bool = False) -> Linearization:
    """The Linearization of mats with its commutator and symplectic residuals."""
    comm = symp = 0.0
    scale = max(max(map(_norm, mats), default=0.0), 1.0)
    for i, A in enumerate(mats):
        symp = max(symp, _norm(A.T @ omega + omega @ A))
        for Bm in mats[i + 1 :]:
            comm = max(comm, _norm(A @ Bm - Bm @ A))
    symp /= scale * max(_norm(omega), 1.0)
    return Linearization(mats, omega, basis, rank, n, reduced, comm / scale, symp)


def linearize(model: IntegrableModel, p, tol: float = DEFAULT_TOL) -> Linearization:
    """Linearizations A_j of the fields X_{f_j} on the leaf tangent basis."""
    a = analyze_point(model, p, tol)
    return _linearization(_leaf_linearizations(model, a), a.frame.omega, a.frame.basis, a.rank, model.n)


def reduce_at(model: IntegrableModel, p, tol: float = DEFAULT_TOL) -> Linearization:
    """Linearization on the symplectic quotient at a rank-r point, 0 < r < n.

    Momentum components are remixed so that n-r of them have vanishing
    leaf differential at p; their linearizations descend to ker dF / span
    of the Hamiltonian field values.
    """
    a = analyze_point(model, p, tol)
    B, n, r = a.frame.basis, model.n, a.rank
    if r == n:
        raise ClassifyError("point is regular: nothing to reduce")
    if r == 0:
        raise ClassifyError("rank-0 point: use linearize directly")

    # combinations with vanishing leaf differential at p
    U2 = a.U[:, r:]  # n x (n - r)
    K = a.Vt[r:].T   # kernel of dF on the leaf tangent, dim - r columns

    # span of the Hamiltonian field values (projected to the leaf basis)
    fields = np.array([a.frame.bivector @ g for g in a.jets.gradient]).T  # N x n
    Ut, svt, _ = np.linalg.svd(B.T @ fields, full_matrices=False)
    rt = _numerical_rank(svt, tol)
    if rt != r:
        raise ClassifyError(f"inconsistent rank: dF has rank {r} but fields span {rt} directions")
    Tb = Ut[:, :rt]

    # T must sit inside K
    resid = np.linalg.norm(Tb - K @ (K.T @ Tb))
    if resid > 1e-6:
        raise ClassifyError(f"field span escapes ker dF (residual {resid:.3e}): inconclusive")

    # complement W = K intersect T-perp
    Uw, svw, _ = np.linalg.svd(K @ K.T - Tb @ Tb.T)
    dim_w = 2 * (n - r)
    W = Uw[:, :dim_w]
    if svw[dim_w - 1] < 0.5:
        raise ClassifyError("quotient construction failed: complement is degenerate")

    mats = _leaf_linearizations(model, a)
    on_quotient = [W.T @ sum(U2[i, k] * mats[i] for i in range(n)) @ W for k in range(n - r)]
    return _linearization(on_quotient, W.T @ a.frame.omega @ W, B @ W, r, n, reduced=True)


# ---------------------------------------------------------------------------
# Williamson type from eigenvalue symmetry classes
# ---------------------------------------------------------------------------


@dataclass
class WilliamsonType:
    rank: int
    k_e: int
    k_h: int
    k_f: int
    eigenvalues: list[complex]
    coefficients: np.ndarray
    gap: float

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.k_e, self.k_h, self.k_f)

    def label(self) -> str:
        names = ["elliptic"] * self.k_e + ["hyperbolic"] * self.k_h + ["focus"] * self.k_f
        return "-".join(names) if names else "regular"


@dataclass
class DegenerateReport:
    attempts: int
    best_gap: float
    reason: str


def _classify_spectrum(eig: list, tol: float):
    """Group a simple Hamiltonian spectrum into (k_e, k_h, k_f) or None."""
    k_e = k_h = k_f = 0
    for lam in eig:
        s = tol * (1.0 + abs(lam))
        re_small = abs(lam.real) <= s
        im_small = abs(lam.imag) <= s
        if re_small and im_small:
            return None  # eigenvalue too close to zero
        if re_small:
            if lam.imag > 0:
                k_e += 1
        elif im_small:
            if lam.real > 0:
                k_h += 1
        else:
            if lam.real > 0 and lam.imag > 0:
                k_f += 1
    if 2 * k_e + 2 * k_h + 4 * k_f != len(eig):
        return None
    return k_e, k_h, k_f


def _spectrum_symmetric(eig: list, distances: list, tol: float) -> bool:
    """Spec A is closed under lambda -> -lambda and lambda -> conj(lambda);
    distances[i][k] = |eig[k] - image i| for the images -eig, then conj(eig)."""
    return not any(min(row) > tol * (1.0 + abs(eig[i % len(eig)])) for i, row in enumerate(distances))


def spectrum_types(E: np.ndarray, tols: list) -> list:
    """(gap, counts) for each row of a stack of spectra E: gap its smallest
    distance between two eigenvalues, counts its (k_e, k_h, k_f) where gap is
    above its row's tol times 1 + its largest modulus and the spectrum is a
    Hamiltonian one, else None.  The spectra are tested as Python numbers (abs
    of a complex number is hypot)."""
    scales = (1.0 + np.abs(E).max(axis=1)).tolist()
    distances = np.abs(E[:, None, :] - np.concatenate([-E, E.conj()], axis=1)[:, :, None]).tolist()
    out = []
    for eig, scale, dist, t in zip(E.tolist(), scales, distances, tols):
        gaps = [abs(a - b) for i, a in enumerate(eig) for b in eig[i + 1 :]]
        gap = min(gaps) if gaps else math.inf
        counts = None
        if not gap <= t * scale and _spectrum_symmetric(eig, dist, max(t, 1e-7)):
            counts = _classify_spectrum(eig, t)
        out.append((gap, counts))
    return out


def williamson_type(
    L: Linearization,
    attempts: int = DEFAULT_ATTEMPTS,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> WilliamsonType | DegenerateReport:
    """Type (k_e, k_h, k_f) from a random simple-spectrum combination.

    Coefficients are drawn uniformly from the unit sphere with a fixed
    seed; simple-spectrum combinations are generic for non-degenerate
    points, so exhausting all draws signals a degenerate or borderline
    point and yields a DegenerateReport instead of a type.  Each draw's
    spectrum is tested by spectrum_types.
    """
    if not L.reduced and L.rank != 0:
        raise ClassifyError("williamson_type needs a rank-0 or reduced linearization")
    mats = L.matrices
    m2 = mats[0].shape[0]
    rng = np.random.default_rng(seed)
    best_gap = 0.0
    for _ in range(max(1, attempts)):
        c = rng.normal(size=len(mats))
        c /= np.linalg.norm(c)
        eig = np.linalg.eigvals(sum(ci * Ai for ci, Ai in zip(c, mats)))
        ((gap, counts),) = spectrum_types(eig[None], [tol])
        best_gap = max(best_gap, gap if math.isfinite(gap) else 0.0)
        if counts is None:
            continue
        k_e, k_h, k_f = counts
        expected = L.n - L.rank
        if k_e + k_h + 2 * k_f != expected or 2 * expected != m2:
            return DegenerateReport(attempts, best_gap, "eigenvalue counts inconsistent with rank")
        order = np.lexsort((eig.imag, eig.real))
        return WilliamsonType(L.rank, k_e, k_h, k_f, [complex(z) for z in eig[order]], c, gap)
    return DegenerateReport(attempts, best_gap, "no simple-spectrum combination found")


# ---------------------------------------------------------------------------
# Non-degeneracy verdict
# ---------------------------------------------------------------------------


@dataclass
class NonDegeneracyVerdict:
    verdict: str  # "nondegenerate" | "degenerate" | "inconclusive"
    williamson: WilliamsonType | None
    diagnostics: dict = field(default_factory=dict)


def _span_dimension(mats: list[np.ndarray], tol: float) -> int:
    stack = np.array([M.ravel() for M in mats])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def is_nondegenerate(
    model: IntegrableModel,
    p,
    tol: float = DEFAULT_TOL,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
) -> NonDegeneracyVerdict:
    """Decide non-degeneracy of a singular point.

    Nondegenerate iff the (reduced) linearizations commute, span a space
    of dimension n - r, and some combination has simple spectrum.
    """
    diag: dict = {}
    try:
        a = analyze_point(model, p, tol)
        r = a.rank
        diag["rank"] = r
        if r == model.n:
            return NonDegeneracyVerdict("inconclusive", None, {**diag, "note": "point is regular"})
        L = linearize(model, a, tol) if r == 0 else reduce_at(model, a, tol)
    except ClassifyError as exc:
        diag["error"] = str(exc)
        return NonDegeneracyVerdict("inconclusive", None, diag)

    diag["commutator_norm"] = L.commutator_norm
    diag["symplectic_residual"] = L.symplectic_residual
    if L.commutator_norm > 1e-6:
        return NonDegeneracyVerdict("inconclusive", None, {**diag, "note": "fields do not commute"})

    span = _span_dimension(L.matrices, tol)
    diag["span_dim"] = span
    if span < model.n - L.rank:
        return NonDegeneracyVerdict(
            "degenerate", None, {**diag, "note": "linearizations span too few directions"}
        )

    result = williamson_type(L, attempts=attempts, tol=tol, seed=seed)
    if isinstance(result, DegenerateReport):
        diag["attempts"] = result.attempts
        diag["best_gap"] = result.best_gap
        return NonDegeneracyVerdict("degenerate", None, {**diag, "note": result.reason})
    diag["spectral_gap"] = result.gap
    diag["attempts"] = attempts
    return NonDegeneracyVerdict("nondegenerate", result, diag)


def classify_point(
    model: IntegrableModel,
    p,
    tol: float = DEFAULT_TOL,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """One-stop classification used by the CLI: rank plus type or verdict."""
    a = analyze_point(model, p, tol)
    out: dict = {"point": [float(v) for v in a.point], "tol": tol, "seed": seed, "rank": a.rank}
    if a.rank == model.n:
        out["status"] = "regular"
        return out
    verdict = is_nondegenerate(model, a, tol, attempts, seed)
    out["status"] = verdict.verdict
    out["diagnostics"] = {
        k: (float(v) if isinstance(v, (int, float, np.floating)) and k != "rank" else v)
        for k, v in verdict.diagnostics.items()
    }
    if verdict.williamson is not None:
        w = verdict.williamson
        out["williamson"] = {
            "rank": w.rank,
            "k_e": w.k_e,
            "k_h": w.k_h,
            "k_f": w.k_f,
            "label": w.label(),
            "eigenvalues": [[z.real, z.imag] for z in w.eigenvalues],
            "coefficients": [float(c) for c in w.coefficients],
            "spectral_gap": w.gap,
        }
    return out
