"""Bifurcation diagrams of 2-degree-of-freedom models.

The singular-value set of the momentum map is traced in three stages:
grid scanning for low-rank candidates, Newton refinement onto the
rank-1 locus (or rank-0 points), and pseudo-arclength continuation of
the rank-1 condition with the momentum image recorded along the way.
Refinement returns its last iterate's `PointAnalysis` record, and every seed
is such a record.  Each rank-1 seed is continued both ways, and a branch is one
list of (value, phase point, mark) entries, mark "cusp", "vertex" or None.

A Newton run (leaf projection, scan scoring, corrector, branch) is a generator:
it yields the phase point it needs next and is sent that point's record.
`_run_one` builds each record on its own; `_lockstep` advances runs that do not
depend on each other together and builds each round's records from one batched
jet call per field set, with the bits of one-point calls (a batch with a zero
divisor leaves its field set to each record).  The scan projects and scores its
samples in lockstep groups of SCORE_GROUP, and `trace_diagram` traces both
branches of every seed in lockstep, so every output is the one the runs give
one at a time.  A vertex's value is `momentum_value` at its point (on a model
with a division the jet values can differ from it in the last bit).  The glued
branches are cut into arcs at the marks and where the reduced type changes; an
arc end is its branch's stop reason at the glued list's ends, else "cusp".  An
arc with 90 % of its values near one kept arc is a duplicate.

The rank-1 locus is parametrized by the kernel-vector augmentation

    sum_i v_i grad f_i + sum_j mu_j grad C_j = 0,   C = c,   |v|^2 = 1,

whose solution manifold contains an orbit direction on top of the family
direction; Newton corrections therefore use least squares and the
predictor picks the null direction best aligned with the previous step.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .classify import (
    DEFAULT_TOL,
    ClassifyError,
    PointAnalysis,
    linearize,
    rank_at,
    reduce_at,
    williamson_type,
)
from .expr import EvalError
from .phasespace import DEFAULT_SEED, IntegrableModel
CANDIDATE_FRACTION = 0.05  # share of the scored scan samples refined onto the rank-(n-1) locus
MAX_CANDIDATES = 120  # at most this many of them
RANK0_CANDIDATES = 40  # scan samples with the smallest sigma_max, refined onto rank 0
SEED_DEDUP_RADIUS = 0.05  # seeds of one rank closer than this are one
MIN_STEP = 1e-6  # continuation step bounds
MAX_STEP = 0.2
CORRECTOR_TOL = 1e-10
CORRECTOR_ITERS = 12
VERTEX_SIGMA = 5e-3  # sigma_max of dF under which a branch has landed on a rank-0 point
CUSP_SPEED = 1e-4  # momentum-image speed under which a step is a cusp candidate
ARC_DEDUP_FACTOR = 2.0  # arcs within this many steps of a kept arc are duplicates
REFINE_TOL = 1e-11  # residual norm at which refinement stops
SCORE_GROUP = 256  # scan samples projected and scored in one lockstep: each live run holds a record
DIRECTIONS_PER_PLANE = 2  # probe directions per invariant 2-plane at a vertex


class TraceError(RuntimeError):
    pass


class RefineDivergence(TraceError):
    pass


class RankCertificationError(TraceError):
    pass


@dataclass
class Arc:
    arc_id: int
    values: list[np.ndarray]
    phase_samples: list[np.ndarray]
    label: str = "mixed/unknown"
    cusp_candidates: list[np.ndarray] = field(default_factory=list)
    endpoints: list[str] = field(default_factory=list)


@dataclass
class Vertex:
    point: np.ndarray
    value: np.ndarray
    rank: int
    williamson: tuple[int, int, int] | None = None


@dataclass
class BifurcationDiagram:
    arcs: list[Arc]
    vertices: list[Vertex]
    cusp_candidates: list[np.ndarray]

    @property
    def value_width(self) -> int:
        """The number of momentum components; 2 for a diagram without values."""
        first = next(chain((v.value for v in self.vertices), (p for arc in self.arcs for p in arc.values)), None)
        return 2 if first is None else len(first)

    def all_arc_values(self) -> np.ndarray:
        pts = [v for arc in self.arcs for v in arc.values]
        return np.array(pts) if pts else np.zeros((0, self.value_width))


# ---------------------------------------------------------------------------
# Newton runs and their drivers
# ---------------------------------------------------------------------------


def _run_one(model: IntegrableModel, run, tol: float):
    """The result of one Newton run, each point's record built on its own."""
    a = None
    try:
        while True:
            a = PointAnalysis(model, run.send(a), tol)
    except StopIteration as done:
        return done.value


def _lockstep(model: IntegrableModel, runs: list, tol: float) -> list:
    """The results of Newton runs that do not depend on each other, in order.
    Each round collects the points of the live runs and builds their records
    from one batched `component_jets` and one `casimir_jets` call.  A batch
    with a zero divisor leaves that field set to each record, so only a run
    that reads it at that point raises, as when run on its own."""
    results = [None] * len(runs)
    live, records = list(enumerate(runs)), [None] * len(runs)  # sending None starts a run
    while live:
        points, running = [], []
        for (i, run), a in zip(live, records):
            try:
                points.append(run.send(a))
                running.append((i, run))
            except StopIteration as done:
                results[i] = done.value
        live = running
        records = [PointAnalysis(model, p, tol) for p in points]
        if points:
            batch = np.array(points)
            for name, evaluate in (("jets", model.component_jets), ("cjets", model.casimir_jets)):
                try:
                    field_sets = evaluate(batch)
                except EvalError:
                    continue
                for a, jets in zip(records, field_sets):
                    setattr(a, name, jets)
    return results


def _leaf_project(model: IntegrableModel, p0):
    """Gauss-Newton projection onto the Casimir levels from a point or record,
    a Newton run: the last iterate's record."""
    a = p0 if isinstance(p0, PointAnalysis) else (yield p0)
    if not model.structure.casimirs:
        return a
    for _ in range(30):
        res = np.array([j.value for j in a.cjets]) - np.asarray(model.leaf_values)
        if np.max(np.abs(res)) < 1e-12:
            return a
        J = np.array([j.gradient for j in a.cjets])
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        p = a.point + step
        if not np.all(np.isfinite(p)):
            raise RefineDivergence("leaf projection blew up")
        a = yield p
    raise RefineDivergence("leaf projection did not converge")


# ---------------------------------------------------------------------------
# Residuals for the augmented systems
# ---------------------------------------------------------------------------


def _rank1_residual(a: PointAnalysis, z: np.ndarray):
    """Residual and Jacobian of the kernel-augmented rank-1 system at z = (a.point, v, mu)."""
    model, jets, cjets = a.model, a.jets, a.cjets
    N, n, nc = model.dim, model.n, len(cjets)
    v, mu = z[N : N + n], z[N + n :]

    grad_rows = np.zeros(N)
    hess_sum = np.zeros((N, N))
    for vi, j in zip(v, jets):
        grad_rows += vi * j.gradient
        hess_sum += vi * j.hessian
    for mj, j in zip(mu, cjets):
        grad_rows += mj * j.gradient
        hess_sum += mj * j.hessian

    res = np.concatenate(
        [
            grad_rows,
            [j.value - c for j, c in zip(cjets, model.leaf_values)],
            [v @ v - 1.0],
        ]
    )
    J = np.zeros((N + nc + 1, N + n + nc))
    J[:N, :N] = hess_sum
    for i, j in enumerate(jets):
        J[:N, N + i] = j.gradient
    for i, j in enumerate(cjets):
        J[:N, N + n + i] = j.gradient
        J[N + i, :N] = j.gradient
    J[N + nc, N : N + n] = 2.0 * v
    return res, J


def _rank0_residual(a: PointAnalysis, z: np.ndarray):
    """Residual/Jacobian for all momentum differentials vanishing on the leaf.

    Unknowns z: the point a.point plus one multiplier row per (component, Casimir).
    """
    model, jets, cjets = a.model, a.jets, a.cjets
    N, n, nc = model.dim, model.n, len(cjets)
    mus = z[N:].reshape(n, nc)

    rows = []
    for i, j in enumerate(jets):
        g = j.gradient.copy()
        for k, cj in enumerate(cjets):
            g += mus[i, k] * cj.gradient
        rows.append(g)
    res = np.concatenate(rows + [[cj.value - c for cj, c in zip(cjets, model.leaf_values)]])

    J = np.zeros((n * N + nc, N + n * nc))
    for i, j in enumerate(jets):
        H = j.hessian.copy()
        for k, cj in enumerate(cjets):
            H += mus[i, k] * cj.hessian
        J[i * N : (i + 1) * N, :N] = H
        for k, cj in enumerate(cjets):
            J[i * N : (i + 1) * N, N + i * nc + k] = cj.gradient
    for k, cj in enumerate(cjets):
        J[n * N + k, :N] = cj.gradient
    return res, J


def _multipliers(a: PointAnalysis, grad: np.ndarray) -> np.ndarray:
    """Least-squares mu with grad + sum_j mu_j grad C_j = 0 on the Casimirs of a."""
    if not a.cjets:
        return np.zeros(0)
    mu, *_ = np.linalg.lstsq(np.array([j.gradient for j in a.cjets]).T, -grad, rcond=None)
    return mu


def _kernel_vector(a: PointAnalysis):
    """Left null vector of dF on the leaf plus least-squares multipliers."""
    v = a.U[:, -1]
    return v, _multipliers(a, sum(vi * j.gradient for vi, j in zip(v, a.jets)))


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def refine_singular_point(
    model: IntegrableModel,
    seed,
    target_rank: int,
    rank_tol: float = DEFAULT_TOL,
    max_iter: int = 60,
) -> PointAnalysis:
    """Newton-polish a seed (a point or PointAnalysis) onto the
    rank-`target_rank` locus, certify the rank and return the last iterate's
    record (the residual holds the Casimir rows, so that point is on its leaf)."""
    a = seed if isinstance(seed, PointAnalysis) else PointAnalysis(model, seed, rank_tol)
    N, n = model.dim, model.n

    if target_rank == 0:
        z = np.concatenate([a.point] + [_multipliers(a, j.gradient) for j in a.jets])
        residual_fn = _rank0_residual
    elif target_rank == n - 1:
        a = _run_one(model, _leaf_project(model, a), rank_tol)
        v, mu = _kernel_vector(a)
        z = np.concatenate([a.point, v, mu])
        residual_fn = _rank1_residual
    else:
        raise ValueError("refinement supports target rank 0 or n-1 only")

    best = np.inf
    for _ in range(max_iter):
        res, J = residual_fn(a, z)
        norm = float(np.linalg.norm(res))
        if norm <= REFINE_TOL:
            break
        if not math.isfinite(norm):
            raise RefineDivergence("residual became non-finite")
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        if norm > 1e3 * max(best, 1.0):
            raise RefineDivergence(f"Newton diverged (residual {norm:.3e})")
        best = min(best, norm)
        z, z_prev = z + step, z
        if z.tobytes() == z_prev.tobytes():  # every later iterate would repeat this one
            raise RefineDivergence(f"Newton stalled (residual {norm:.3e})")
        if z[:N].tobytes() != a.point.tobytes():  # a step that moves only v, mu keeps the record
            a = PointAnalysis(model, z[:N], rank_tol)
    else:
        raise RefineDivergence(f"no convergence after {max_iter} iterations (residual {best:.3e})")

    r = rank_at(model, a, rank_tol)
    if r != target_rank:
        raise RankCertificationError(f"refined point has rank {r}, wanted {target_rank}")
    return a


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


@dataclass
class ScanParams:
    seed: int = DEFAULT_SEED


def _sample_box(box, resolution: int, rng) -> np.ndarray:
    lows = np.array([b[0] for b in box])
    highs = np.array([b[1] for b in box])
    dim = len(box)
    if dim <= 4:
        axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)
    count = resolution ** 4
    return lows + rng.uniform(size=(count, dim)) * (highs - lows)


def _score(model: IntegrableModel, raw):
    """A scan sample projected onto its leaf, a Newton run: (sigma_min /
    max(sigma_max, 1), sigma_max, point) of dF there, None when that fails."""
    try:
        a = yield from _leaf_project(model, raw)
        sv = a.sv
    except (RefineDivergence, ClassifyError):
        return None
    scale = max(float(sv[0]), 1.0)
    return float(sv[-1]) / scale, float(sv[0]), a.point  # not the record: one holds ~5 kB


def scan_singular_points(
    model: IntegrableModel,
    box,
    resolution: int = 7,
    tol: float = DEFAULT_TOL,
    params: ScanParams | None = None,
) -> list[PointAnalysis]:
    """Locate singular points in a box: sample, filter by the smallest
    singular value of dF on the leaf, refine, certify, deduplicate.  Each
    seed is the record `refine_singular_point` returned, its rank certified."""
    rng = np.random.default_rng((params or ScanParams()).seed)
    samples = _sample_box(box, resolution, rng)

    scored = []
    for lo in range(0, len(samples), SCORE_GROUP):
        runs = [_score(model, raw) for raw in samples[lo : lo + SCORE_GROUP]]
        scored += [s for s in _lockstep(model, runs, tol) if s is not None]
    seeds: list[PointAnalysis] = []
    # rank 0 from the points where the whole differential is smallest, then
    # rank n-1 from those where its smallest singular value is
    by_sigma_max = sorted(scored, key=lambda t: t[1])[:RANK0_CANDIDATES]
    scored.sort(key=lambda t: t[0])
    keep = max(1, min(MAX_CANDIDATES, int(len(scored) * CANDIDATE_FRACTION)))
    for r, candidates, max_iter in ((0, by_sigma_max, 30), (model.n - 1, scored[:keep], 60)):
        for _, _, p in candidates:
            try:
                a = refine_singular_point(model, p, r, rank_tol=tol, max_iter=max_iter)
            except TraceError:
                continue
            if all(s.rank != r or np.linalg.norm(s.point - a.point) >= SEED_DEDUP_RADIUS for s in seeds):
                seeds.append(a)
    return seeds


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------


@dataclass
class TraceParams:
    step: float = 0.05
    max_steps: int = 400
    value_box: tuple[float, float] | None = None  # (lo, hi) applied per value axis
    phase_bound: float = 25.0
    seed: int = DEFAULT_SEED


def _null_space(J: np.ndarray, rel: float = 1e-7) -> np.ndarray:
    _, sv, Vt = np.linalg.svd(J)
    cutoff = rel * max(float(sv[0]), 1.0)
    ncols = J.shape[1]
    small = [i for i in range(ncols) if i >= len(sv) or sv[i] <= cutoff]
    if not small:
        small = [ncols - 1]
    return Vt[small].T


def _corrector(model, z, tangent, z_pred):
    """Newton onto the rank-1 system and the arclength condition, a Newton run:
    (z, z's record, iterations)."""
    for it in range(CORRECTOR_ITERS):
        a = yield z[: model.dim]
        res, J = _rank1_residual(a, z)
        aug = np.concatenate([res, [tangent @ (z - z_pred)]])
        if np.linalg.norm(aug) <= CORRECTOR_TOL:
            return z, a, it
        Jaug = np.vstack([J, tangent[None, :]])
        step, *_ = np.linalg.lstsq(Jaug, -aug, rcond=None)
        z = z + step
        if not np.all(np.isfinite(z)):
            return None, None, it
    a = yield z[: model.dim]
    res, _ = _rank1_residual(a, z)
    if np.linalg.norm(res) <= 10 * CORRECTOR_TOL:
        return z, a, CORRECTOR_ITERS
    return None, None, CORRECTOR_ITERS


def _value_speed(a: PointAnalysis, direction) -> float:
    return float(np.linalg.norm(np.array([j.gradient for j in a.jets]) @ direction[: len(a.point)]))


def _trace_branch(model, z0, a0: PointAnalysis, direction, params: TraceParams, tol) -> tuple[list, str]:
    """One continuation run from z0 (its point analysed in a0) along direction, a
    Newton run: its (value, phase point, mark) entries in tracing order and why
    it stopped."""
    N = model.dim
    branch = [(a0.value, z0[:N].copy(), None)]
    z, a = z0.copy(), a0
    t_prev = direction
    h = params.step
    steps = 0

    sig_prev = float(a0.sv[0])
    sig_falling = False
    attempt_sigma = max(10.0 * params.step, 0.5)

    def try_vertex(near: PointAnalysis) -> bool:
        """Polish a sigma-minimum onto the rank-0 locus and append it to the branch."""
        if any(mark == "vertex" and np.linalg.norm(near.point - p) < 3.0 * params.step for _, p, mark in branch):
            return False  # near a known vertex
        try:
            pv = refine_singular_point(model, near, 0, rank_tol=tol, max_iter=30).point
        except TraceError:
            return False
        if np.linalg.norm(pv - near.point) > max(4.0 * params.step, 0.4):
            return False  # converged to a faraway vertex, not a local pass
        branch.append((model.momentum_value(pv), pv.copy(), "vertex"))
        return True

    while steps < params.max_steps:
        _, J = _rank1_residual(a, z)
        T = _null_space(J)
        coeff = T.T @ t_prev
        if np.linalg.norm(coeff) < 1e-10:
            t = T[:, 0]
        else:
            t = T @ coeff
            t /= np.linalg.norm(t)
        z_pred = z + h * t
        z_new, a_new, iters = yield from _corrector(model, z_pred.copy(), t, z_pred)
        if z_new is not None and np.linalg.norm(z_new - z_pred) > 2.0 * h:
            z_new = None  # corrector hopped onto a different branch
        if z_new is None:
            h *= 0.5
            if h < MIN_STEP:
                return branch, "step-failure"
            continue
        if iters <= 2 and h < MAX_STEP:
            h = min(MAX_STEP, 1.5 * h)

        p = z_new[:N]
        if np.linalg.norm(p) > params.phase_bound:
            return branch, "phase-bound"
        val = a_new.value
        if params.value_box is not None:
            lo, hi = params.value_box
            if np.any(val < lo) or np.any(val > hi):
                return branch, "value-box"

        cusp = _value_speed(a_new, t) < CUSP_SPEED and len(branch) > 2
        sig = float(a_new.sv[0])
        if sig < VERTEX_SIGMA:
            # landed (numerically) on a rank-0 point
            return branch, "vertex" if try_vertex(a_new) else "rank-collapse"
        if sig_falling and sig > sig_prev and sig_prev < attempt_sigma:
            # passed a local minimum of |dF| one step ago (at a's point): likely a vertex
            try_vertex(a)
        sig_falling = sig < sig_prev
        sig_prev = sig

        branch.append((val, p.copy(), "cusp" if cusp else None))
        if steps > 10 and np.linalg.norm(p - z0[:N]) < 0.5 * params.step:
            return branch, "closed-loop"
        t_prev = t
        z, a = z_new, a_new
        steps += 1
    return branch, "max-steps"


def _triple(linearization, model, p, tol, seed) -> tuple[int, int, int] | None:
    """Williamson triple of linearization(model, p, tol) (linearize or
    reduce_at), None when unclassifiable."""
    try:
        w = williamson_type(linearization(model, p, tol), tol=tol, seed=seed)
    except ClassifyError:
        return None
    return getattr(w, "triple", None)


_FAMILY_LABELS = {(1, 0, 0): "elliptic-family", (0, 1, 0): "hyperbolic-family"}


def _point_label(model, p, tol, seed) -> str | None:
    """Reduced 1-d.f. type at a rank-1 point, None when unclassifiable."""
    return _FAMILY_LABELS.get(_triple(reduce_at, model, p, tol, seed))


def _transition_cuts(model, phases, tol, params: TraceParams):
    """Indices where the reduced type changes along a branch, found by
    coarse sampling plus bisection; these are tangency/cusp witnesses."""
    n = len(phases)
    if n < 5:
        return [], {}
    stride = max(2, n // 24)
    idxs = list(range(1, n - 1, stride))
    if idxs[-1] != n - 2:
        idxs.append(n - 2)
    labels = {i: _point_label(model, phases[i], tol, params.seed) for i in idxs}
    cuts = []
    known = [i for i in idxs if labels[i] is not None]
    for a, b in zip(known, known[1:]):
        if labels[a] == labels[b]:
            continue
        lo, hi = a, b
        while hi - lo > 2:
            mid = (lo + hi) // 2
            lab = _point_label(model, phases[mid], tol, params.seed)
            labels[mid] = lab
            if lab is None or lab == labels[lo]:
                lo = mid
            else:
                hi = mid
        cuts.append((lo + hi) // 2)
    return cuts, labels


def _segment_label(model, phases, labels: dict, lo: int, hi: int, tol, seed) -> str:
    seen = {lab for i, lab in labels.items() if lo < i < hi - 1 and lab is not None}
    if not seen:
        lab = _point_label(model, phases[(lo + hi) // 2], tol, seed)
        if lab is not None:
            seen.add(lab)
    if len(seen) == 1:
        return seen.pop()
    return "mixed/unknown"


def _arc_duplicates(arc_vals: list[np.ndarray], existing: list[Arc], radius: float) -> bool:
    """Whether 90 % of arc_vals lie within radius of one kept arc's values."""
    vals = np.array(arc_vals)
    for other in existing:
        dist = np.linalg.norm(vals[:, None, :] - np.array(other.values)[None, :, :], axis=2)
        if np.count_nonzero(dist.min(axis=1) <= radius) >= 0.9 * len(arc_vals):
            return True
    return False


def trace_diagram(
    model: IntegrableModel,
    seeds: list[PointAnalysis],
    params: TraceParams | None = None,
    tol: float = DEFAULT_TOL,
) -> BifurcationDiagram:
    """Continue every rank-1 seed into a labeled momentum-space arc: each seed is
    refined, the branches of all seeds are traced in lockstep, and arcs,
    vertices and labels are then built in seed order."""
    params = params or TraceParams()
    rank1 = [s for s in seeds if s.rank == model.n - 1]
    rank0 = [s for s in seeds if s.rank == 0]

    vertices: list[Vertex] = []

    def add_vertex(point: np.ndarray):
        if all(np.linalg.norm(v.point - point) >= 1e-6 for v in vertices):
            wt = _triple(linearize, model, point, tol, params.seed)
            vertices.append(Vertex(point, model.momentum_value(point), 0, wt))

    for s in rank0:
        add_vertex(s.point)

    runs = []
    for s in rank1:
        try:
            a = refine_singular_point(model, s, model.n - 1, rank_tol=tol)
        except TraceError:
            continue
        v, mu = _kernel_vector(a)
        z0 = np.concatenate([a.point, v, mu])
        _, J = _rank1_residual(a, z0)
        T = _null_space(J)  # at least one column
        speeds = [_value_speed(a, T[:, i]) for i in range(T.shape[1])]
        t0 = T[:, int(np.argmax(speeds))]
        runs += [_trace_branch(model, z0, a, t0, params, tol), _trace_branch(model, z0, a, -t0, params, tol)]
    traced = _lockstep(model, runs, tol)

    arcs: list[Arc] = []
    dedup_radius = ARC_DEDUP_FACTOR * params.step
    for (fwd, reason_f), (bwd, reason_b) in zip(traced[::2], traced[1::2]):
        entries = bwd[::-1] + fwd[1:]  # both branches start at the seed
        if len(entries) < 3:
            continue
        for _, p, mark in bwd + fwd:
            if mark == "vertex":
                add_vertex(p)
        values = [val for val, _, _ in entries]
        phases = [p for _, p, _ in entries]
        if _arc_duplicates(values, arcs, dedup_radius):
            continue
        type_cuts, labels = _transition_cuts(model, phases, tol, params)
        marked = {i for i, (_, _, mark) in enumerate(entries) if mark}
        cuts = sorted(c for c in marked | set(type_cuts) if 2 <= c <= len(entries) - 3)
        starts = [0]
        for cut in cuts:
            if cut - starts[-1] >= 2:
                starts.append(cut)
        for lo, hi in zip(starts, [c + 1 for c in starts[1:]] + [len(entries)]):
            if hi - lo < 3 or _arc_duplicates(values[lo:hi], arcs, dedup_radius):
                continue
            arcs.append(
                Arc(
                    len(arcs),
                    values[lo:hi],
                    phases[lo:hi],
                    label=_segment_label(model, phases, labels, lo, hi, tol, params.seed),
                    cusp_candidates=[values[c] for c in cuts if lo <= c < hi],
                    endpoints=[reason_b if lo == 0 else "cusp", reason_f if hi == len(entries) else "cusp"],
                )
            )

    all_cusps = [c for arc in arcs for c in arc.cusp_candidates]
    return BifurcationDiagram(arcs, vertices, all_cusps)


def seed_arcs_near_vertex(
    model: IntegrableModel,
    vertex_point: np.ndarray,
    delta: float = 1e-2,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> list[PointAnalysis]:
    """Rank-1 seeds on the singular leaves emanating from a rank-0 point, as
    the records `refine_singular_point` returns.

    The invariant 2-planes of a generic combination of the linearized
    fields are tangent to the local critical submanifolds; perturbing
    along them and polishing back onto the rank-1 locus yields seeds whose
    arcs pass within O(delta^2) of the vertex value.
    """
    L = linearize(model, vertex_point, tol)
    w = williamson_type(L, tol=tol, seed=seed)
    if not hasattr(w, "coefficients"):
        return []
    A = sum(c * M for c, M in zip(w.coefficients, L.matrices))
    eig, vec = np.linalg.eig(A)
    used = np.zeros(len(eig), dtype=bool)
    planes = []
    for i, lam in enumerate(eig):
        if used[i]:
            continue
        if abs(lam.imag) > 1e-10:
            planes.append(np.stack([vec[:, i].real, vec[:, i].imag]))
            for j in range(len(eig)):
                if not used[j] and abs(eig[j] - lam.conjugate()) < 1e-8 * (1 + abs(lam)):
                    used[j] = True
                    break
        else:
            for j in range(i + 1, len(eig)):
                if not used[j] and abs(eig[j] + lam) < 1e-8 * (1 + abs(lam)):
                    planes.append(np.stack([vec[:, i].real, vec[:, j].real]))
                    used[j] = True
                    break
        used[i] = True

    seeds = []
    for plane in planes:
        for kdir in range(DIRECTIONS_PER_PLANE):
            theta = math.pi * kdir / DIRECTIONS_PER_PLANE
            u = math.cos(theta) * plane[0] + math.sin(theta) * plane[1]
            nu = np.linalg.norm(u)
            if nu < 1e-12:
                continue
            for sign in (1.0, -1.0):
                probe = vertex_point + sign * delta * (L.basis @ (u / nu))
                try:
                    seeds.append(refine_singular_point(model, probe, model.n - 1, rank_tol=tol))
                except TraceError:
                    continue
    return seeds


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

_SVG_CLASSES = {
    "elliptic-family": "stroke:#1f77b4;stroke-width:2;fill:none",
    "hyperbolic-family": "stroke:#d62728;stroke-width:2;fill:none;stroke-dasharray:none",
    "mixed/unknown": "stroke:#7f7f7f;stroke-width:1.5;fill:none;stroke-dasharray:4 3",
}


def diagram_to_dict(d: BifurcationDiagram) -> dict:
    return {
        "arcs": [
            {
                "id": a.arc_id,
                "label": a.label,
                "points": [[float(x) for x in v] for v in a.values],
                "endpoints": a.endpoints,
                "cusp_candidates": [[float(x) for x in c] for c in a.cusp_candidates],
            }
            for a in d.arcs
        ],
        "vertices": [
            {
                "point": [float(x) for x in v.point],
                "value": [float(x) for x in v.value],
                "rank": v.rank,
                "williamson": list(v.williamson) if v.williamson else None,
            }
            for v in d.vertices
        ],
        "cusp_candidates": [[float(x) for x in c] for c in d.cusp_candidates],
    }


def _plane(values: list[np.ndarray], width: int) -> np.ndarray:
    """Values as (m, 2) points of the drawing plane: one component plots on the horizontal axis."""
    pts = np.array(values, dtype=float).reshape(len(values), width)
    return np.hstack([pts, np.zeros_like(pts)]) if width == 1 else pts


def _svg_text(d: BifurcationDiagram, width: int = 640, height: int = 480) -> str:
    w = d.value_width
    arcs = [_plane(arc.values, w) for arc in d.arcs]
    vertices = _plane([v.value for v in d.vertices], w)
    allpts = np.vstack([*arcs, vertices])
    if allpts.size:
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        lo = lo - 0.05 * span
        hi = hi + 0.05 * span
        span = hi - lo
    else:
        lo = np.array([0.0, 0.0])
        span = np.array([1.0, 1.0])

    def xy(v):
        x = (v[0] - lo[0]) / span[0] * (width - 20) + 10
        y = height - ((v[1] - lo[1]) / span[1] * (height - 20) + 10)
        return f"{x:.2f},{y:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>",
    ]
    for cls, style in _SVG_CLASSES.items():
        safe = cls.replace("/", "-")
        lines.append(f".{safe} {{{style}}}")
    lines.append(".vertex {fill:#000}")
    lines.append(".cusp {fill:none;stroke:#ff7f0e;stroke-width:1}")
    lines.append("</style>")
    for arc, pts in zip(d.arcs, arcs):
        cls = arc.label.replace("/", "-")
        path = " ".join(xy(v) for v in pts)
        lines.append(f'<polyline class="{cls}" data-arc="{arc.arc_id}" points="{path}"/>')
    for v in vertices:
        x, y = xy(v).split(",")
        lines.append(f'<circle class="vertex" cx="{x}" cy="{y}" r="4"/>')
    for c in _plane(d.cusp_candidates, w):
        x, y = xy(c).split(",")
        lines.append(f'<circle class="cusp" cx="{x}" cy="{y}" r="3"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def export_diagram(d: BifurcationDiagram, fmt: str, path: str) -> None:
    """Write the diagram as svg, csv (arc_id,h,k for two components, else
    arc_id,f1,...,fn) or json."""
    if fmt == "svg":
        with open(path, "w") as fh:
            fh.write(_svg_text(d))
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            w = d.value_width
            writer.writerow(["arc_id", "h", "k"] if w == 2 else ["arc_id"] + [f"f{i + 1}" for i in range(w)])
            for arc in d.arcs:
                for v in arc.values:
                    writer.writerow([arc.arc_id] + [repr(float(x)) for x in v])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(diagram_to_dict(d), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r} (svg, csv, json)")
