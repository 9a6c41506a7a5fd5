"""Bifurcation diagrams of 2-degree-of-freedom models.

The singular-value set of the momentum map is traced in three stages:
grid scanning for low-rank candidates, Newton refinement onto the
rank-1 locus (or rank-0 points), and pseudo-arclength continuation of
the rank-1 condition with the momentum image recorded along the way.
Refinement returns its last iterate's `PointAnalysis` record, and every seed
is such a record.  The diagram's vertices are its rank-0 seeds.  Each rank-1
seed whose point and value lie within the trace's bounds is continued both
ways, and a branch is one list of (value, phase point, mark) entries, mark
"cusp", "vertex" (a listed vertex it meets, see _trace_branch) or None.

A Newton run (leaf projection, scan scoring, refinement, corrector, branch) is
a generator: it yields a request for a stacked kernel at a phase point or record
and is sent the kernel's answer for its row.  `_run_one` answers each request on
a stack of one; `_lockstep` advances runs that do not depend on each other
together: each round builds its records from one batched jet call per field set
that its kernels read (the leaf projection reads only the Casimirs') and
answers each kernel's requests with one stacked computation (assembly, least
squares or solve, SVD), with the bits of one-row calls (a batch or stack that raises is
redone a row at a time).  A kernel may iterate: the leaf projection is one
request, whose kernel runs the whole Gauss-Newton loop over its stack and
evaluates the Casimirs' jets at the iterates it makes, one batch per
iteration.  The scan scores its samples in lockstep groups of
SCORE_GROUP and refines all its candidates in one lockstep, and `trace_diagram`
refines its seeds in one lockstep and then traces both branches of every seed
in lockstep, one accepted entry per branch at a time, so every output is the
one the runs give one at a time.  A branch is one run that pauses (yields
None) after each accepted entry and is resumed where it paused.  A run that
raises a TraceError, ClassifyError or EvalError (see `_attempt`) fails alone: a scan sample, a
refinement or a branch start gives nothing, a branch (also on
a LinAlgError, an SVD that did not converge) ends as "failed" with the entries
it has, and the other runs of its lockstep go on.  Each entry's family label
(the reduced 1-d.f. Williamson type of its point, see _null_spaces) comes from
the round that accepts its point, with the null space the next predictor
reads, and the branch stores it with the entry ("vertex" entries get None);
the join test and the arc cuts read it.  After every branch has accepted its
next entry a join barrier walks the branches in (seed, direction) order and
tests each new entry: a branch whose entries retrace a traced value curve for
JOIN_RUN entries in a row (near its entries, parallel to its value tangent, the
matched entry moving one way) with the same family label at the last one stops
at that entry, its last: as "joined" on an earlier branch other than its
sibling, and as "closed-loop" where it comes round onto its own entries in
their sense, runs back along them (it retraces its values) or meets its sibling
head-on (see _joins); the candidates are the entries filed at earlier barriers
and earlier in this one, found by one distance call over an array of their
values.  No barrier removes an entry.  Where a branch passes a crossing with
another rank-1 family, sign det A flips between two accepted points, A the
corrector's square matrix there (see _null_spaces and _flips; Allgower & Georg
2003, ch. 8), and a start on that family is made one step off the one of the
two with the smaller gap (see _switch), one per crossing value, in the next
lockstep; its two branches come after every branch made before them.  A vertex's
value is `momentum_value` at its point (on a model with a division the jet
values can differ from it in the last bit).  The glued branches are cut into
arcs at the marks and at every change of the stored family labels: where the
labelled entry b among entries 1 ... n-2 follows a labelled entry with another
label, the cut is at b, clamped into 2 ... n-3, and cuts closer than 2 entries
to the last one kept are dropped.  An arc's label is the one label among its
inner entries (all but its first and last), else "mixed/unknown" (none, or
both).  An arc end is its branch's stop reason at the glued list's ends, else
"cusp".  An arc with 90 % of its values within ARC_DEDUP_FACTOR steps of the
polyline of one kept arc with its label (its segments, not only its points) is
a duplicate, so a value curve that carries an elliptic and a hyperbolic family
keeps both.

The rank-1 locus is parametrized by the kernel-vector augmentation

    sum_i v_i grad f_i + sum_j mu_j grad C_j = 0,   C = c,   |v|^2 = 1,

whose solutions are the family times its critical tori: the identity
{v.F, f_k} = 0 makes the components of the gradient rows along the orbit
fields X = Pi grad(u.F), u the combinations of the components other than v,
redundant.  The corrector replaces them by the phase rows <X, x - x_prev> = 0
at the last accepted point x_prev and borders the system with the predictor's
null columns, so each Newton step is one square solve per row, stacked.  The
predictor's null space is that of the rank-1 Jacobian with the phase rows
appended: the family's tangent space.  The predicted point is the quadratic
through the branch's last two accepted points with that tangent at the last
one (see _predict), so most corrector runs take two Newton steps; a branch's
first step, which has one point, predicts along the tangent.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from numpy.linalg import _umath_linalg

from .classify import (
    DEFAULT_TOL,
    ClassifyError,
    PointAnalysis,
    dF_svds,
    leaf_frames,
    linearize,
    spectrum_types,
    williamson_type,
)
from .expr import EvalError, JetStack
from .phasespace import DEFAULT_SEED, IntegrableModel
CANDIDATE_FRACTION = 0.05  # share of the scored scan samples refined onto the rank-(n-1) locus
MAX_CANDIDATES = 120  # at most this many of them
RANK0_CANDIDATES = 40  # scan samples with the smallest sigma_max, refined onto rank 0
SEED_DEDUP_RADIUS = 0.05  # seeds of one rank closer than this are one
MIN_STEP = 1e-6  # continuation step bounds
MAX_STEP = 0.2
CORRECTOR_TOL = 1e-10
CORRECTOR_ITERS = 7  # Newton steps a corrector run takes at most; slower runs, as next to a branch point, fail
VERTEX_SIGMA = 5e-3  # sigma_max of dF under which a branch has landed on a rank-0 point
CUSP_SPEED = 1e-4  # momentum-image speed under which a step is a cusp candidate
ARC_DEDUP_FACTOR = 2.0  # arcs within this many steps of a kept arc are duplicates
REFINE_TOL = 1e-11  # residual norm at which refinement stops
SCORE_GROUP = 256  # scan samples projected and scored in one lockstep: each live run holds a record
DIRECTIONS_PER_PLANE = 2  # probe directions per invariant 2-plane at a vertex
JOIN_RUN = 3  # entries in a row that retrace one traced branch make a join or close a loop
JOIN_COS = 0.95  # |cos| of the value tangents at which two retraced curves run parallel


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
# Newton runs, their kernels, and running them alone or in lockstep
# ---------------------------------------------------------------------------

# A Newton run is a generator.  It yields a request (kernel, x, arg), x a phase
# point or a record, and is sent kernel(model, records, args)'s answer for its
# row, the record of x among the records.  A request None is a pause: the run
# leaves the driver's call with result None and the next call resumes it.
# Every kernel works on the stack of its rows with numpy calls that give each
# row the bits of the one-row call.  A kernel may iterate; it evaluates the
# field sets it reads (see _READS) at the points it makes itself, in one batch
# per iteration.


def _records(model: IntegrableModel, asks: list, tol: float) -> list[PointAnalysis]:
    """The record of each request's x: a record as is, and one record per
    distinct point.  Each field set that a request's kernel reads (see _READS)
    and its record lacks, a record passed back in too, is evaluated for all such
    records in one batched call: `component_jets` for "jets", `casimir_jets`
    for "cjets".  A batch that raises leaves that field set to each record, so
    only a run that reads it at the failing point raises, as when run on its own."""
    made: dict[bytes, PointAnalysis] = {}
    out, lacking = [], {"jets": {}, "cjets": {}}
    for kernel, x, _ in asks:
        if not isinstance(x, PointAnalysis):
            a = PointAnalysis(model, x, tol)
            x = made.setdefault(a.point.tobytes(), a)
        out.append(x)
        parts = vars(x)
        for name in _READS.get(kernel, ("jets", "cjets")):
            if name not in parts:
                lacking[name][id(x)] = x
    for name, evaluate in (("jets", model.component_jets), ("cjets", model.casimir_jets)):
        need = list(lacking[name].values())
        if not need:
            continue
        try:
            stack = evaluate(np.array([a.point for a in need]))
        except Exception:
            continue
        for a, row in zip(need, zip(*stack)):
            setattr(a, name, JetStack(*row))
    return out


def _apply(model: IntegrableModel, kernel, records: list, args: list) -> list:
    """kernel's answers at records, one argument each, from one stacked call.  A
    stack that raises is answered a row at a time, so the exception goes to the
    runs of the rows that raise it and to no other."""
    try:
        return kernel(model, records, args)
    except Exception as exc:
        if len(records) == 1:
            return [exc]
        return [_apply(model, kernel, [a], [x])[0] for a, x in zip(records, args)]


def _send(run, answer):
    """The run's next request after answer (an exception is raised inside the run)."""
    return run.throw(answer) if isinstance(answer, Exception) else run.send(answer)


def _run_one(model: IntegrableModel, run, tol: float):
    """The result of one Newton run (None at a pause), each request answered on a
    stack of one whose record evaluates its jets at one point, on first use."""
    answer = None
    try:
        while (ask := _send(run, answer)) is not None:
            kernel, x, arg = ask
            a = x if isinstance(x, PointAnalysis) else PointAnalysis(model, x, tol)
            (answer,) = _apply(model, kernel, [a], [arg])
    except StopIteration as done:
        return done.value
    return None


def _lockstep(model: IntegrableModel, runs: list, tol: float) -> list:
    """The results of Newton runs that do not depend on each other, in order
    (None for a run that paused).  Each round takes one request from every live
    run, builds the records of their points from one batch and answers each
    kernel's requests with one stacked call, so each run gets the answers it
    gets on its own."""
    results = [None] * len(runs)
    live, answers = list(enumerate(runs)), [None] * len(runs)  # sending None starts or resumes a run
    while live:
        asks, running = [], []
        for (i, run), answer in zip(live, answers):
            try:
                if (ask := _send(run, answer)) is not None:  # else the run paused
                    asks.append(ask)
                    running.append((i, run))
            except StopIteration as done:
                results[i] = done.value
        live = running
        if not live:  # every run paused or ended
            break
        records = _records(model, asks, tol)
        rows_of: dict = {}
        for k, (kernel, _, _) in enumerate(asks):
            rows_of.setdefault(kernel, []).append(k)
        answers = [None] * len(asks)
        for kernel, rows in rows_of.items():
            for k, answer in zip(rows, _apply(model, kernel, [records[k] for k in rows], [asks[k][2] for k in rows])):
                answers[k] = answer
    return results


_RUN_ERRORS = (TraceError, ClassifyError, EvalError)  # a Newton run's failures: no step, a point refused, a pole


def _attempt(run, failed=None, errors=_RUN_ERRORS):
    """run as a Newton run whose result is failed where it raises one of errors,
    by default a TraceError, a ClassifyError (a point refused) or an EvalError
    (a pole on its path)."""
    try:
        return (yield from run)
    except errors:
        return failed


def _stack(records: list, name: str) -> JetStack:
    """The jets `name` ("jets" or "cjets") of the records as one JetStack."""
    return JetStack(*map(np.array, zip(*(getattr(a, name) for a in records))))


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution of each A[k] x = b[k]: np.linalg.lstsq(A[k], b[k],
    rcond=None), whose gufunc runs here once over the stack."""
    rows, cols = A.shape[-2:]
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x, _, _, _ = _umath_linalg.lstsq(A, b[..., None], np.finfo(float).eps * max(rows, cols), signature="ddd->ddid")
    return x[..., 0]


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of each square A[k] x = b[k]: np.linalg.solve(A[k], b[k]),
    whose gufunc runs here once over the stack; NaN where A[k] is singular."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(A, b, signature="dd->d")


def _solve_where(todo: np.ndarray, A: np.ndarray, b: np.ndarray, solve) -> list:
    """Per row, the step solve gives for A x = b where todo holds, else None."""
    steps = [None] * len(todo)
    rows = np.flatnonzero(todo)
    if rows.size:
        for k, x in zip(rows, solve(A[rows], b[rows])):
            steps[k] = x
    return steps


def _norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row: np.linalg.norm's bits on a 1-d array."""
    return np.sqrt(np.vecdot(x, x))


def _leaf_points(model, records, args) -> list:
    """Gauss-Newton projection onto the Casimir levels from each record, up to 30
    iterations over the stack: per row the record of its last iterate (its own
    record where it starts on its leaf), whose Casimir jets are its row of the
    last batch, or the RefineDivergence that ends it.  Each iteration evaluates
    the Casimirs' jets at the rows still moving in one batch and solves their
    steps in one stacked least squares.  Without Casimirs, the records as they are."""
    out = list(records)
    if not model.structure.casimirs:
        return out
    leaf, rows, C = np.asarray(model.leaf_values), np.arange(len(records)), _stack(records, "cjets")
    x = np.array([a.point for a in records])
    for it in range(30):
        if it:
            C = model.casimir_jets(x)
        res = C.value - leaf
        moving = ~(np.max(np.abs(res), axis=1) < 1e-12)
        if it:  # a row that starts on its leaf keeps its own record
            for k in np.flatnonzero(~moving):
                a = out[rows[k]] = PointAnalysis(model, x[k], records[rows[k]].tol)
                a.cjets = JetStack(C.value[k], C.gradient[k], C.hessian[k])
        rows, x = rows[moving], x[moving]
        if not rows.size:
            break
        x = x + _lstsq(C.gradient[moving], -res[moving])
        finite = np.all(np.isfinite(x), axis=1)
        for r in rows[~finite]:
            out[r] = RefineDivergence("leaf projection blew up")
        rows, x = rows[finite], x[finite]
        if not rows.size:
            break
    for r in rows:
        out[r] = RefineDivergence("leaf projection did not converge")
    return out


# The field sets a kernel reads, where not both: a lockstep round evaluates no
# other at its records, and a kernel evaluates those it reads at the points it makes.
_READS = {_leaf_points: ("cjets",)}


def _analyses(model, records, args) -> list:
    """Each record with its leaf frame and the SVD of dF there, or the
    ClassifyError that refuses its point; each a stacked computation."""
    refused = {}
    new = [a for a in records if "frame" not in vars(a)]
    if new:
        for a, frame in zip(new, leaf_frames(model, new, np.array([a.tol for a in new]))):
            if isinstance(frame, ClassifyError):
                refused[id(a)] = frame
            else:
                a.frame = frame
    framed = [a for a in records if "svd" not in vars(a) and id(a) not in refused]
    if framed:
        for a, svd in zip(framed, dF_svds(framed)):
            a.svd = svd
    return [refused.get(id(a), a) for a in records]


def _multipliers(model, records: list, grads: np.ndarray) -> np.ndarray:
    """Least-squares mu with grad + sum_j mu_j grad C_j = 0 at each record and row of grads."""
    if not model.structure.casimirs:
        return np.zeros((len(records), 0))
    return _lstsq(np.array([a.cjets.gradient.T for a in records]), -grads)


def _kernel_vectors(model, records, args) -> list:
    """(v, mu) at each analysed record: the left null vector of dF on the leaf
    and least-squares multipliers of sum_i v_i grad f_i."""
    v = np.array([a.U[:, -1] for a in records])
    G = _stack(records, "jets").gradient
    grad = np.zeros((len(records), model.dim))
    for i in range(G.shape[1]):
        grad = grad + v[:, i, None] * G[:, i]
    return list(zip(v, _multipliers(model, records, grad)))


def _rank0_starts(model, records, args) -> list:
    """(record, z) at each record: z its point and least-squares multipliers for each component."""
    n = model.n
    mus = _multipliers(model, [a for a in records for _ in range(n)], np.concatenate([a.jets.gradient for a in records]))
    return [(a, np.concatenate([a.point, *mus[k * n : (k + 1) * n]])) for k, a in enumerate(records)]


# ---------------------------------------------------------------------------
# Residuals for the augmented systems
# ---------------------------------------------------------------------------


def _rank1_systems(model, records, Z: np.ndarray):
    """Residuals and Jacobians of the kernel-augmented rank-1 system at each record
    and row z = (point, v, mu) of Z, as stacks, each term added in one fixed order."""
    F, C = _stack(records, "jets"), _stack(records, "cjets")
    m, n, N = F.gradient.shape
    nc = C.gradient.shape[1]
    v, mu = Z[:, N : N + n], Z[:, N + n :]

    grad_rows = np.zeros((m, N))
    hess_sum = np.zeros((m, N, N))
    for c, S in ((v, F), (mu, C)):
        for i in range(c.shape[1]):
            grad_rows += c[:, i, None] * S.gradient[:, i]
            hess_sum += c[:, i, None, None] * S.hessian[:, i]

    res = np.concatenate([grad_rows, C.value - np.asarray(model.leaf_values), np.vecdot(v, v)[:, None] - 1.0], axis=1)
    J = np.zeros((m, N + nc + 1, N + n + nc))
    J[:, :N, :N] = hess_sum
    J[:, :N, N : N + n] = F.gradient.swapaxes(1, 2)
    J[:, :N, N + n :] = C.gradient.swapaxes(1, 2)
    J[:, N : N + nc, :N] = C.gradient
    J[:, N + nc, N : N + n] = 2.0 * v
    return res, J


def _rank0_systems(model, records, Z: np.ndarray):
    """Residuals/Jacobians for all momentum differentials vanishing on the leaf, as stacks.

    Unknowns z: the point plus one multiplier row per (component, Casimir).
    """
    F, C = _stack(records, "jets"), _stack(records, "cjets")
    m, n, N = F.gradient.shape
    nc = C.gradient.shape[1]
    mus = Z[:, N:].reshape(m, n, nc)

    J = np.zeros((m, n * N + nc, N + n * nc))
    rows = []
    for i in range(n):
        g, H = F.gradient[:, i].copy(), F.hessian[:, i].copy()
        for k in range(nc):
            g += mus[:, i, k, None] * C.gradient[:, k]
            H += mus[:, i, k, None, None] * C.hessian[:, k]
            J[:, i * N : (i + 1) * N, N + i * nc + k] = C.gradient[:, k]
        rows.append(g)
        J[:, i * N : (i + 1) * N, :N] = H
    J[:, n * N :, :N] = C.gradient
    res = np.concatenate(rows + [C.value - np.asarray(model.leaf_values)], axis=1)
    return res, J


def _newton_steps(system):
    """The kernel of a refinement step on system: (record, residual norm, least-squares
    step), the step None where the norm is within REFINE_TOL or not finite."""

    def steps(model, records, Z) -> list:
        res, J = system(model, records, np.array(Z))
        norms = _norms(res)
        todo = (norms > REFINE_TOL) & np.isfinite(norms)
        return list(zip(records, norms.tolist(), _solve_where(todo, J, -res, _lstsq)))

    return steps


_RANK0_STEPS, _RANK1_STEPS = _newton_steps(_rank0_systems), _newton_steps(_rank1_systems)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def _leaf_project(model: IntegrableModel, p0):
    """Gauss-Newton projection onto the Casimir levels from a point or record, a
    Newton run of one request (see _leaf_points): the last iterate's record."""
    return (yield _leaf_points, p0, None)


def _refine(model: IntegrableModel, seed, target_rank: int, max_iter: int = 60):
    """Newton-polish a seed (a point or PointAnalysis) onto the
    rank-`target_rank` locus and certify the rank, a Newton run: the last
    iterate's record (the residual holds the Casimir rows, so that point is on
    its leaf)."""
    N, n = model.dim, model.n
    if target_rank == 0:
        a, z = yield _rank0_starts, seed, None
        steps = _RANK0_STEPS
    elif target_rank == n - 1:
        a = yield from _leaf_project(model, seed)
        a = yield _analyses, a, None
        v, mu = yield _kernel_vectors, a, None
        z = np.concatenate([a.point, v, mu])
        steps = _RANK1_STEPS
    else:
        raise ValueError("refinement supports target rank 0 or n-1 only")

    best, x = np.inf, a
    for _ in range(max_iter):
        a, norm, step = yield steps, x, z
        if norm <= REFINE_TOL:
            break
        if not math.isfinite(norm):
            raise RefineDivergence("residual became non-finite")
        if norm > 1e3 * max(best, 1.0):
            raise RefineDivergence(f"Newton diverged (residual {norm:.3e})")
        best = min(best, norm)
        z, z_prev = z + step, z
        if z.tobytes() == z_prev.tobytes():  # every later iterate would repeat this one
            raise RefineDivergence(f"Newton stalled (residual {norm:.3e})")
        # a step that moves only v, mu keeps the record
        x = z[:N] if z[:N].tobytes() != a.point.tobytes() else a
    else:
        raise RefineDivergence(f"no convergence after {max_iter} iterations (residual {best:.3e})")

    a = yield _analyses, a, None
    if a.rank != target_rank:
        raise RankCertificationError(f"refined point has rank {a.rank}, wanted {target_rank}")
    return a.detached()


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
    return _run_one(model, _refine(model, seed, target_rank, max_iter), rank_tol)


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
    max(sigma_max, 1), sigma_max, record) of dF there, the record holding its
    round's arrays (see scan_singular_points, which detaches those it keeps)."""
    a = yield from _leaf_project(model, raw)
    a = yield _analyses, a, None
    return float(a.sv[-1]) / max(float(a.sv[0]), 1.0), float(a.sv[0]), a


def scan_singular_points(
    model: IntegrableModel,
    box,
    resolution: int = 7,
    tol: float = DEFAULT_TOL,
    params: ScanParams | None = None,
) -> list[PointAnalysis]:
    """Locate singular points in a box: sample, filter by the smallest
    singular value of dF on the leaf, refine, certify, deduplicate.  Each
    seed is the record `refine_singular_point` returns, its rank certified;
    the candidates are refined in one lockstep and deduplicated in order.  A
    rank-0 seed outside the box is dropped: its refinement can follow dF -> 0
    far away (a rank-1 seed is kept wherever it lies, to start a branch)."""
    rng = np.random.default_rng((params or ScanParams()).seed)
    samples = _sample_box(box, resolution, rng)

    # rank 0 from the points where the whole differential is smallest, then
    # rank n-1 from those where its smallest singular value is; each group's
    # scores join the best so far, in sample order, so these are the first of
    # the whole stably sorted list.  A record of the group that stays in a list
    # is detached from the group's arrays, once for both lists, so that no
    # group's arrays outlive it and a refinement from it evaluates nothing again.
    by_sigma_max, by_ratio, count = [], [], 0
    for lo in range(0, len(samples), SCORE_GROUP):
        runs = [_attempt(_score(model, raw)) for raw in samples[lo : lo + SCORE_GROUP]]
        scored = [s for s in _lockstep(model, runs, tol) if s is not None]
        count += len(scored)
        by_sigma_max = sorted(by_sigma_max + scored, key=lambda t: t[1])[:RANK0_CANDIDATES]
        by_ratio = sorted(by_ratio + scored, key=lambda t: t[0])[:MAX_CANDIDATES]
        kept = {id(a) for _, _, a in by_sigma_max + by_ratio}
        copies = {id(a): a.detached() for _, _, a in scored if id(a) in kept}
        by_sigma_max, by_ratio = ([(r, s, copies.get(id(a), a)) for r, s, a in ts] for ts in (by_sigma_max, by_ratio))
        del scored  # free this group's records before the next group makes its own
    keep = max(1, min(MAX_CANDIDATES, int(count * CANDIDATE_FRACTION)))
    runs = [
        _attempt(_refine(model, a, r, max_iter))
        for r, candidates, max_iter in ((0, by_sigma_max, 30), (model.n - 1, by_ratio[:keep], 60))
        for _, _, a in candidates
    ]
    lows, highs = np.array(box, dtype=float).T
    seeds: list[PointAnalysis] = []
    kept: dict[int, list] = {}  # the points of the seeds of each rank
    for a in _lockstep(model, runs, tol):
        if a is None or a.rank == 0 and not np.all((lows <= a.point) & (a.point <= highs)):
            continue
        near = kept.setdefault(a.rank, [])
        if not near or np.all(_norms(np.array(near) - a.point) >= SEED_DEDUP_RADIUS):
            near.append(a.point)
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


def _phase_rows(records: list) -> np.ndarray:
    """At each analysed record, orthonormal rows spanning the orbit of its
    critical torus: the Hamiltonian fields Pi grad(u.F) of the combinations u of
    the components other than the kernel vector (the columns of U but its last),
    orthonormalised in that order; an (m, n-1, N) stack.  Pi is the frame's
    ambient bivector."""
    G = _stack(records, "jets").gradient
    U = np.array([a.U for a in records])
    Pi = np.array([a.frame.bivector for a in records])
    rows = []
    for c in range(U.shape[2] - 1):
        grad = np.zeros((len(records), G.shape[2]))
        for i in range(G.shape[1]):
            grad = grad + U[:, i, c, None] * G[:, i]
        x = np.vecdot(Pi, grad[:, None, :])
        for q in rows:
            x = x - np.vecdot(q, x)[:, None] * q
        with np.errstate(divide="ignore", invalid="ignore"):
            rows.append(x / _norms(x)[:, None])  # NaN where the field vanishes
    return np.stack(rows, axis=1) if rows else np.zeros((len(records), 0, G.shape[2]))


def _quotients(model, records, J: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The 2x2 matrix W^T Pi L W at each analysed record, as an (m, 2, 2) stack:
    L = J[k][:N, :N] the Hessian of v.F + mu.C, Pi the frame's bivector and W
    an orthonormal basis of ker dF on the leaf (frame.basis @ Vt[n-1:].T) with
    the phase rows Q[k] projected out.  At a rank-(n-1) point this is, up to
    rounding and an orthogonal change of basis, reduce_at's linearization."""
    N, n = model.dim, model.n
    B = np.array([a.frame.basis for a in records])
    K = B @ np.array([a.Vt for a in records])[:, n - 1 :].swapaxes(1, 2)
    W = K @ np.linalg.svd(Q @ K)[2][:, n - 1 :].swapaxes(1, 2)
    return W.swapaxes(1, 2) @ np.array([a.frame.bivector for a in records]) @ J[:, :N, :N] @ W


_FAMILY_LABELS = {(1, 0, 0): "elliptic-family", (0, 1, 0): "hyperbolic-family"}  # by reduced 1-d.f. type


def _null_spaces(model, records, J, rel: float = 1e-7) -> list:
    """(T, gap, soft, Q, label, sign) at each analysed record and rank-1 Jacobian
    J[k] there: Q its phase rows (see _phase_rows) and T the columns spanning the
    numerical null space of J with Q's rows appended (zero in the v and mu
    columns), a square matrix; T holds the right singular vectors of singular
    values within rel of the largest (or 1), the last one if none; gap is the
    smallest singular value outside it and soft its right singular vector (inf
    and None if there is none).  The identity {v.F, f_k} = 0 makes n-1 rows of J
    redundant, so T is the family's (n-1)-dimensional tangent space.  label is
    the family label: the type of the quotient (see _quotients), elliptic where
    its eigenvalues are imaginary (det > 0) and hyperbolic where real (det < 0),
    None where the record's rank is not n-1 or they fail williamson_type's test
    at its tol (see spectrum_types).  sign is the sign of det A, A the
    corrector's square matrix there (see _corrector_matrices) with Q's phase
    rows and T's columns as border rows, 0 where T has not n-1 columns.  A
    record without phase rows (a field that vanishes) raises a TraceError."""
    Q = _phase_rows(records)
    if not np.all(np.isfinite(Q)):
        raise TraceError("an orbit field vanishes")
    J = np.array(J)
    _, sv, Vt = np.linalg.svd(np.concatenate([J, np.pad(Q, ((0, 0), (0, 0), (0, J.shape[2] - Q.shape[2])))], axis=1))
    small = sv <= rel * np.maximum(sv[:, :1], 1.0)
    small[~small.any(axis=1), -1] = True
    last = np.count_nonzero(~small, axis=1) - 1  # of the singular values outside, in falling order
    gaps = [(float(w[r]), V[r]) if r >= 0 else (math.inf, None) for V, w, r in zip(Vt, sv, last)]
    types = spectrum_types(np.linalg.eigvals(_quotients(model, records, J, Q)), [a.tol for a in records])
    labels = [_FAMILY_LABELS.get(counts) if a.rank == model.n - 1 else None for a, (_, counts) in zip(records, types)]
    signs = np.zeros(len(records))
    square = np.flatnonzero(np.count_nonzero(small, axis=1) == model.n - 1)
    if square.size:
        B = np.array([Vt[k][small[k]] for k in square])
        signs[square] = np.linalg.slogdet(_corrector_matrices(J[square], Q[square], B))[0]
    return [(V[s].T, *gap, q, label, float(d)) for V, s, gap, q, label, d in zip(Vt, small, gaps, Q, labels, signs)]


def _tangent_spaces(model, records, Z) -> list:
    """The null space of the phase-conditioned rank-1 Jacobian (see _null_spaces)
    at each analysed record and z."""
    return _null_spaces(model, records, _rank1_systems(model, records, np.array(Z))[1])


def _corrector_matrices(J, Q, B) -> np.ndarray:
    """The corrector's square matrices (see _corrector_systems) from the rank-1
    Jacobians J, the phase rows Q and the border rows B.  Each phase row q
    enters twice, as (I - q q^T) J + q [q^T 0], so the matrix depends on Q only
    through its span."""
    N = Q.shape[2]
    Jgrad = J[:, :N].copy()
    for k in range(Q.shape[1]):
        q = Q[:, k]
        row = -np.vecdot(Jgrad, q[:, :, None], axis=1)
        row[:, :N] += q
        Jgrad += q[:, :, None] * row[:, None, :]
    return np.concatenate([Jgrad, J[:, N:], B], axis=1)


def _corrector_systems(res, J, Z, B, P, Q, X):
    """The corrector's square systems from the rank-1 residuals and Jacobians
    (see _rank1_systems) at the rows z of Z: the component of the N gradient rows
    along each phase row q of Q, which the identity {v.F, f_k} = 0 makes
    redundant, replaced by the phase row q.(x - x_prev), x the point of z and
    x_prev the row of X, and the border rows b.(z - z_pred) appended, b the rows
    of B and z_pred the row of P."""
    N = Q.shape[2]
    grad = res[:, :N].copy()
    for k in range(Q.shape[1]):
        q = Q[:, k]
        grad += q * (np.vecdot(q, Z[:, :N] - X) - np.vecdot(q, grad))[:, None]
    res = np.concatenate([grad, res[:, N:], np.vecdot(B, (Z - P)[:, None, :])], axis=1)
    return res, _corrector_matrices(J, Q, B)


def _corrector_steps(model, records, args) -> list:
    """(record, Newton step, None) of the corrector's square system (see
    _corrector_systems) at each record and (z, B, z_pred, Q, x_prev), from one
    stacked solve: NaN where the matrix is singular; (record, None, null space)
    where the residual is within CORRECTOR_TOL (see _accepted)."""
    Z, B, P, Q, X = map(np.array, zip(*args))
    res, J = _rank1_systems(model, records, Z)
    res, A = _corrector_systems(res, J, Z, B, P, Q, X)
    done = _norms(res) <= CORRECTOR_TOL
    return _accepted(model, records, J, done, _solve_where(~done, A, -res, _solve))


def _corrector_ends(model, records, Z) -> list:
    """(record, None, null space) at each record and z where the rank-1 residual
    is within 10 CORRECTOR_TOL (see _accepted), else (record, None, None)."""
    res, J = _rank1_systems(model, records, np.array(Z))
    return _accepted(model, records, J, _norms(res) <= 10 * CORRECTOR_TOL, [None] * len(records))


def _accepted(model, records: list, J: np.ndarray, done: np.ndarray, steps: list) -> list:
    """(record, step, null space) per row: where done, the record of an accepted
    continuation point is analysed (leaf frame and SVD of dF) and the null space
    of the rank-1 Jacobian J there with the phase rows there appended (see
    _null_spaces), which the next predictor and corrector read, is found, in this
    round's stacks.  Where the analysis or the null space fails, the null space
    is the exception, raised where its run reads it."""
    rows = np.flatnonzero(done)
    spaces: list = [None] * len(records)
    if rows.size:
        for k, a in zip(rows, _apply(model, _analyses, [records[k] for k in rows], [None] * len(rows))):
            spaces[k] = a  # the record, or the ClassifyError that refuses its point
        ok = [k for k in rows if spaces[k] is records[k]]
        for k, space in zip(ok, _apply(model, _null_spaces, [records[k] for k in ok], [J[k] for k in ok])):
            spaces[k] = space
    return list(zip(records, steps, spaces))


def _corrector(model, z, B, z_pred, phase, radius: float):
    """Newton onto the rank-1 system, the phase rows and the border rows B (see
    _corrector_systems) from z_pred, phase the phase rows and point of the last
    accepted point, a Newton run: (z, z's record, the null space there as
    _null_spaces gives it, iterations), Nones in the first three when it fails:
    where an iterate is not finite (a singular matrix's step) or lies farther
    than radius from z_pred (it hops onto another branch), or where its residual
    after CORRECTOR_ITERS steps is above 10 CORRECTOR_TOL (a slow run, as next
    to a branch point of the rank-1 locus, whose iterates can end on the
    crossing family)."""
    Q, x_prev = phase
    for it in range(CORRECTOR_ITERS):
        a, step, space = yield _corrector_steps, z[: model.dim], (z, B, z_pred, Q, x_prev)
        if step is None:
            return z, a, space, it
        z = z + step
        if not (np.all(np.isfinite(z)) and np.linalg.norm(z - z_pred) <= radius):
            return None, None, None, it
    a, _, space = yield _corrector_ends, z[: model.dim], z
    if space is not None:
        return z, a, space, CORRECTOR_ITERS
    return None, None, None, CORRECTOR_ITERS


def _border(T, t, rows: int) -> np.ndarray:
    """The corrector's border rows along a predictor direction t in the span of
    the null columns T: t, then the rows - 1 directions of that span orthogonal
    to t that T's columns, t's component removed, span best."""
    if rows <= 1:
        return t[None, :][:rows]
    W = T - np.outer(t, t @ T)
    return np.vstack([t, np.linalg.svd(W, full_matrices=False)[0][:, : rows - 1].T])


def _predict(z, t, h: float, z_back):
    """The predicted point a step h from z along the unit tangent t: z + h t
    where no accepted point z_back precedes z, else z + h t + h^2 a on the
    quadratic through z_back and z with tangent t at z, a = (z_back - z + s t) / s^2
    for s = |z - z_back| (Allgower & Georg 2003, ch. 6)."""
    if z_back is None:
        return z + h * t
    s = float(np.linalg.norm(z - z_back))
    return z + h * t + h**2 * ((z_back - z + s * t) / s**2)


def _value_speed(a: PointAnalysis, direction) -> float:
    return float(np.linalg.norm(a.jets.gradient @ direction[: len(a.point)]))


@dataclass
class _Branch:
    """A continuation branch: its (value, phase point, mark) entries in tracing
    order, their family labels (see _null_spaces; None at "vertex" entries),
    stored as each entry is appended, why it stopped (None while live), its
    Newton run (see _trace_branch), the (value, z, null space there as
    _null_spaces gives it) of the crossings it passed since the last join
    barrier and, for the barriers, the entries they have tested, its runs
    along traced branches ((branch, sense) -> (entries in a row, last matched
    entry, sense); sense 0 along an earlier branch, whose run takes the sense
    of its first move), the earlier branches whose family it does not share,
    and the earlier branch it joined (see _joins)."""

    entries: list
    labels: list = field(default_factory=list)
    crossings: list = field(default_factory=list)
    reason: str | None = None
    run: object = None
    checked: int = 1  # entry 0 is the seed, which both branches of a seed share
    runs: dict = field(default_factory=dict)
    unlike: set = field(default_factory=set)
    joined: int | None = None


def _outside(params: TraceParams, p, value) -> str | None:
    """"phase-bound" where phase point p lies beyond params' phase bound, else
    "value-box" where its value lies outside the value box, else None."""
    if np.linalg.norm(p) > params.phase_bound:
        return "phase-bound"
    if params.value_box is not None:
        lo, hi = params.value_box
        if np.any(value < lo) or np.any(value > hi):
            return "value-box"
    return None


def _trace_branch(model, b: _Branch, z0, a0: PointAnalysis, space0, direction, params: TraceParams, vertices: list):
    """Continue branch b from z0 (its record a0, the null space space0 there) along
    direction, appending its entries and crossings to b, a Newton run: why it
    stopped.  It pauses after every accepted entry short of
    max_steps, where the join barrier tests that entry.  The predicted point is a step h
    along the null direction t nearest the last one, second order where the
    branch has two accepted points (see _predict; its first step is z + h t).
    Each corrector runs from it in the phase hyperplane of the last accepted
    point and fails where it hops farther than two steps; h then halves, and it
    grows by half after a run of at most two iterations.  A step that leaves the
    phase bound or the value box ends the branch only where it moves the point
    and the value by at most the base step; a longer one is retried at half its
    length, so the last entry lies near the edge.  Where the sign of det A, A
    the corrector's square matrix (see _null_spaces), flips between two accepted
    points (see _flips), the branch has passed a crossing with another rank-1
    family, whose tangent is close to the soft direction (see _switch) at the one
    of the two with the smaller gap; that one is kept as the crossing where it
    lies away from points of lower rank (a rank-0 point, or for n >= 3 the rank
    n-2 locus, where dF's (n-1)-th singular value is small).  Where dF's sigma_max
    falls below VERTEX_SIGMA (a landing) or had a local minimum below
    attempt_sigma one step ago (a pass), the nearest listed vertex within
    max(4 step, 0.4) of that point is appended, with its own value and point, as
    a "vertex" entry unless the branch has one within 3 steps of it; a landing
    ends as "vertex", or "rank-collapse" where none is appended.  Nothing is refined."""
    N = model.dim
    attempt_sigma = max(10.0 * params.step, 0.5)
    crossing_sigma = 0.5 * attempt_sigma  # dF's (n-1)-th singular value at a crossing, away from lower ranks
    reach = max(4.0 * params.step, 0.4)  # a vertex farther from the sigma minimum is not the one passed

    def mark_vertex(near: PointAnalysis) -> bool:
        """Append the listed vertex nearest near's point, within reach, to the branch: whether it did."""
        if any(mark == "vertex" and np.linalg.norm(near.point - p) < 3.0 * params.step for _, p, mark in b.entries):
            return False  # near a vertex this branch has
        v = min(vertices, key=lambda v: np.linalg.norm(v.point - near.point), default=None)
        if v is None or np.linalg.norm(v.point - near.point) > reach:
            return False
        b.entries.append((v.value, v.point, "vertex"))
        b.labels.append(None)
        return True

    z, a, space, t_prev, h, steps, z_back = z0, a0, space0, direction, params.step, 0, None
    sig_prev, sig_falling = float(a0.sv[0]), False
    while steps < params.max_steps:
        if isinstance(space, Exception):  # the null space at z failed where the corrector accepted z
            raise space
        T, Q = space[0], space[3]
        coeff = T.T @ t_prev
        if np.linalg.norm(coeff) < 1e-10:
            t = T[:, 0]
        else:
            t = T @ coeff
            t /= np.linalg.norm(t)
        z_pred = _predict(z, t, h, z_back)
        z_new, a_new, space_new, iters = yield from _corrector(
            model, z_pred.copy(), _border(T, t, len(Q)), z_pred, (Q, z[:N]), 2.0 * h
        )
        if z_new is None:
            h *= 0.5
            if h < MIN_STEP:
                return "step-failure"
            continue
        p, val = z_new[:N], a_new.value
        if bound := _outside(params, p, val):
            if h > MIN_STEP and (h > params.step or np.linalg.norm(val - a.value) > params.step):
                h *= 0.5  # leave the bounds from a step of at most the base size, in the point and the value
                continue
            return bound
        if iters <= 2 and h < MAX_STEP:
            h = min(MAX_STEP, 1.5 * h)

        cusp = _value_speed(a_new, t) < CUSP_SPEED and len(b.entries) > 2
        sig = float(a_new.sv[0])
        if sig < VERTEX_SIGMA:
            # landed (numerically) on a rank-0 point
            return "vertex" if mark_vertex(a_new) else "rank-collapse"
        if sig_falling and sig > sig_prev and sig_prev < attempt_sigma:
            # passed a local minimum of |dF| one step ago (at a's point): likely a vertex
            mark_vertex(a)
        sig_falling, sig_prev = sig < sig_prev, sig

        failed = isinstance(space_new, Exception)
        b.entries.append((val, p.copy(), "cusp" if cusp else None))
        b.labels.append(None if failed else space_new[4])
        if not failed and _flips(space, space_new):
            near, x, near_space = min((a, z, space), (a_new, z_new, space_new), key=lambda c: c[2][1])
            if near.sv[model.n - 2] >= crossing_sigma:  # not next to a point of lower rank, where families meet
                b.crossings.append((near.value, x, near_space))
        t_prev, z_back, z, a, space, steps = t, z, z_new, a_new, space_new, steps + 1
        if steps < params.max_steps:
            yield None  # pause for the join test of the new entry
    return "max-steps"


def _flips(space, new) -> bool:
    """Whether tau = sign det A (see _null_spaces) flips from one accepted point
    to the next, their null spaces space and new: where the product of their
    signs and of the sign of det(T_new^T T), which aligns new's border rows with
    space's, is negative (Allgower & Georg 2003, ch. 8).  A depends on the phase
    rows only through their span (see _corrector_matrices), so they need no
    aligning."""
    signs = space[5] * new[5]
    return bool(signs) and signs * np.linalg.det(new[0].T @ space[0]) < 0


def _triple(linearization, model, p, tol, seed) -> tuple[int, int, int] | None:
    """Williamson triple of linearization(model, p, tol) (linearize or
    reduce_at), None when unclassifiable."""
    try:
        w = williamson_type(linearization(model, p, tol), tol=tol, seed=seed)
    except ClassifyError:
        return None
    return getattr(w, "triple", None)


def _distances(points: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """The distance from each point to the nearest segment of the polyline (of
    one point: to that point)."""
    a, b = (polyline[:-1], polyline[1:]) if len(polyline) > 1 else (polyline, polyline)
    ab = b - a
    lengths = np.maximum(np.einsum("sk,sk->s", ab, ab), np.finfo(float).tiny)
    t = np.clip(np.einsum("psk,sk->ps", points[:, None, :] - a, ab) / lengths, 0.0, 1.0)
    return np.linalg.norm(points[:, None, :] - (a + t[..., None] * ab), axis=2).min(axis=1)


def _arc_duplicates(arc_vals: list[np.ndarray], existing: list[Arc], radius: float) -> bool:
    """Whether 90 % of arc_vals lie within radius of one kept arc's polyline."""
    vals = np.array(arc_vals)
    for other in existing:
        if np.count_nonzero(_distances(vals, np.array(other.values)) <= radius) >= 0.9 * len(arc_vals):
            return True
    return False


def _keep_arc(arcs: list[Arc], arc: Arc, radius: float) -> None:
    """Append arc to the kept arcs unless it duplicates one with its label: one
    value curve can carry an elliptic and a hyperbolic family."""
    if not _arc_duplicates(arc.values, [a for a in arcs if a.label == arc.label], radius):
        arcs.append(arc)


def _branch_start(model: IntegrableModel, seed):
    """A rank-1 seed refined, a Newton run: (z0, its record, the null space
    there as _null_spaces gives it, t0), where its two branches start from z0
    along t0 and -t0, the null direction of fastest momentum-image speed."""
    a = yield from _refine(model, seed, model.n - 1)
    v, mu = yield _kernel_vectors, a, None
    z0 = np.concatenate([a.point, v, mu])
    space = yield _tangent_spaces, a, z0  # at least one column
    return z0, a, space, _fastest(a, space[0])


def _fastest(a: PointAnalysis, T):
    """The column of T of fastest momentum-image speed at a."""
    return T[:, int(np.argmax([_value_speed(a, T[:, i]) for i in range(T.shape[1])]))]


def _same_family(label_p, label_q) -> bool:
    """Whether two entries' family labels name one family: the join's type check."""
    return label_p is not None and label_p == label_q


def _unit(x: np.ndarray):
    """x over its norm, None where that is 0 or not finite."""
    norm = float(np.linalg.norm(x))
    return x / norm if 0.0 < norm < math.inf else None


def _value_tangent(entries: list, m: int):
    """The unit chord of the values around entry m, None where they do not move."""
    lo, hi = max(m - 1, 0), min(m + 1, len(entries) - 1)
    return _unit(entries[hi][0] - entries[lo][0])


def _joins(branches: list, filed: list, values: np.ndarray, j: int, k: int, params: TraceParams) -> str | None:
    """Extend branch j's runs along traced branches by its entry k: the stop
    reason where the entry completes one, else None.  The candidates are the
    filed (branch, entry) pairs, whose values are the rows of values.

    A run along an earlier branch i other than j's sibling follows i's nearest
    entry within ARC_DEDUP_FACTOR steps while its value chord runs parallel to
    j's (|cos| >= JOIN_COS, either sense) and the matched entry moves one way.
    At JOIN_RUN entries j joins i if the two points share a family label, else
    j never tests i again.

    A run along j's own entries or its sibling's in sense s follows the nearest
    of their entries within that radius whose chord runs parallel to j's, cos
    >= JOIN_COS for s = 1 (along their tracing order) and cos <= -JOIN_COS for
    s = -1.  It grows where the matched entry moves by s, holds where it stays
    (on the sibling, whose steps can be longer than j's; the last filed entry of
    j's own stays nearest while j moves on from it) and starts again otherwise.
    At JOIN_RUN entries with one family label j stops as "closed-loop": along
    its own entries forward (j came round a closed value curve) or backward (j
    retraces its values, as past a rank-0 point), or along its sibling's
    backward (j met it head-on) unless j runs back along its own entries then
    with another label (a cusp fold: the sibling's are then a fold image of
    j's)."""
    b = branches[j]
    value = b.entries[k][0]
    tangent = _unit(value - b.entries[k - 1][0])
    radius = ARC_DEDUP_FACTOR * params.step
    closing = {j: (1, -1), j ^ 1: (-1,)}  # j's own backward runs also veto the sibling
    left = k - 1  # j's own entries after the last one outside the radius are no loop
    while left >= 0 and np.linalg.norm(b.entries[left][0] - value) <= radius:
        left -= 1
    nearest: dict = {}
    dist = _norms(values - value) if tangent is not None else np.empty(0)
    for row in np.flatnonzero(dist <= radius):
        (i, m), d = filed[row], float(dist[row])
        if i in closing:
            other = _value_tangent(branches[i].entries, m)
            cos = 0.0 if other is None else float(tangent @ other)
            key = (i, (cos >= JOIN_COS) - (cos <= -JOIN_COS))
            if key[1] not in closing[i] or key == (j, 1) and m > left:
                continue
        elif i < j and i not in b.unlike:
            key = (i, 0)
        else:
            continue
        if key not in nearest or d < nearest[key][0]:
            nearest[key] = (d, m)
    runs = {}
    for (i, s), (_, m) in sorted(nearest.items()):
        count, last, sense = b.runs.get((i, s), (0, m, 0))
        move = (m > last) - (m < last)
        if s:
            runs[i, s] = (count + 1 if count and move == s else count if count and not move and i != j else 1, m, s)
            continue
        other = _value_tangent(branches[i].entries, m)
        if other is not None and abs(float(tangent @ other)) >= JOIN_COS:
            runs[i, s] = (count + 1, m, move) if count and move and sense in (0, move) else (1, m, 0)
    b.runs = runs
    for (i, s), (count, m, _) in sorted(runs.items()):  # the earliest branch first
        if count < JOIN_RUN or i == j ^ 1 and (j, -1) in runs:
            continue
        if _same_family(b.labels[k], branches[i].labels[m]):
            if i in closing:
                return "closed-loop"
            b.joined = i
            return "joined"
        if (i, s) == (j, -1):
            continue  # a cusp fold, kept to veto the sibling
        if i in closing:
            del runs[i, s]
        else:
            b.unlike.add(i)
    return None


def _join_barrier(branches: list, filed: list, values: np.ndarray, params: TraceParams) -> np.ndarray:
    """Test the entries each branch added since the last barrier, in branch
    order: a branch whose entry completes a join stops there, as "joined" or
    "closed-loop" (see _joins).  A branch pauses after each accepted entry, and
    a "vertex" entry put before it has no family label and completes no join, so
    the entry that completes one is the branch's last: no entry is removed.
    Then file its new entries:
    their (branch, entry) pairs onto filed, and values with their values as rows
    appended, which it returns."""
    for j, b in enumerate(branches):
        new = range(b.checked, len(b.entries))
        if not new:
            continue
        for k in new:
            if reason := _joins(branches, filed, values, j, k, params):
                b.reason = reason
                break
        filed.extend((j, k) for k in new)
        values = np.vstack([values] + [b.entries[k][0] for k in new])
        b.checked = len(b.entries)
    return values


def _switch(model, z, space, params: TraceParams):
    """A start (as _branch_start gives it) on the rank-1 family that crosses the
    branch through z, a Newton run: the corrector point one step off z along the
    soft direction of the null space there, in the hyperplane normal to it (and
    to the first n-2 null columns) and in the phase hyperplane of z.  Near the
    crossing the branch's own points lie within the hyperplane through z, and
    the crossing family's tangent is close to soft."""
    T, _, soft, Q = space[:4]
    z_pred = z + params.step * soft
    B = np.vstack([soft, T.T[: len(Q) - 1]])
    z_new, a, space, _ = yield from _corrector(model, z_pred.copy(), B, z_pred, (Q, z[: model.dim]), 2.0 * params.step)
    if z_new is None:
        raise TraceError("no crossing family")
    if isinstance(space, Exception):
        raise space
    return z_new, a, space, _fastest(a, space[0])


def _trace_branches(model: IntegrableModel, rank1: list, vertices: list, params: TraceParams, tol) -> list:
    """Both branches of every rank-1 seed, in (seed, direction) order, then
    those of the crossings' starts, each marking the listed vertices it meets
    (see _trace_branch): the seeds are refined in one lockstep, then
    every live branch's run advances by one accepted entry to its next pause in
    one lockstep, and a join barrier tests the new entries (see _join_barrier).
    A crossing a branch passed in that step (see _flips), one per value within
    ARC_DEDUP_FACTOR steps of no crossing switched before, is switched (see
    _switch) in the next lockstep, and the branches of its start join the live
    ones after it."""
    branches, live, switches, switched, filed = [], [], [], [], []
    values, radius = np.empty((0, model.n)), ARC_DEDUP_FACTOR * params.step
    starts = _lockstep(model, [_attempt(_branch_start(model, s)) for s in rank1], tol)
    while True:
        for start in starts:
            if start is not None:
                z0, a, space, t0 = start
                for direction in (t0, -t0):
                    b = _Branch([(a.value, z0[: model.dim].copy(), None)], [space[4]])
                    run = _trace_branch(model, b, z0, a, space, direction, params, vertices)
                    b.run = _attempt(run, "failed", _RUN_ERRORS + (np.linalg.LinAlgError,))  # or an SVD that fails
                    branches.append(b)
                    live.append(b)
        if not live and not switches:
            return branches
        ends = _lockstep(model, [b.run for b in live] + switches, tol)
        for b, reason in zip(live, ends):
            b.reason = reason
        values = _join_barrier(branches, filed, values, params)
        starts, switches = ends[len(live) :], []
        for value, z, space in (c for b in live for c in b.crossings):
            if all(np.linalg.norm(value - v) > radius for v in switched):
                switched.append(value)
                switches.append(_attempt(_switch(model, z, space, params)))
        for b in live:
            b.crossings.clear()
            if b.reason is not None:
                b.run = None  # a joined branch's paused run refers back to b: free it now, not at a GC pass
        live = [b for b in live if b.reason is None]


def trace_diagram(
    model: IntegrableModel,
    seeds: list[PointAnalysis],
    params: TraceParams | None = None,
    tol: float = DEFAULT_TOL,
) -> BifurcationDiagram:
    """Continue every rank-1 seed into labeled momentum-space arcs (see
    _trace_branches), built in seed order.  The vertices are the rank-0 seeds in
    seed order, one per point within 1e-6, listed before any branch starts.
    A rank-1 seed whose point or value lies outside params' bounds (see
    _outside) starts no branch, and glued branches with fewer than 3 entries
    besides their "vertex" entries give no arc."""
    params = params or TraceParams()
    rank1 = [s for s in seeds if s.rank == model.n - 1 and not _outside(params, s.point, s.value)]
    vertices: list[Vertex] = []
    for s in seeds:
        if s.rank == 0 and all(np.linalg.norm(v.point - s.point) >= 1e-6 for v in vertices):
            wt = _triple(linearize, model, s, tol, params.seed)
            vertices.append(Vertex(s.point.copy(), model.momentum_value(s.point), 0, wt))

    branches = _trace_branches(model, rank1, vertices, params, tol)
    arcs: list[Arc] = []
    dedup_radius = ARC_DEDUP_FACTOR * params.step
    for fwd, bwd in zip(branches[::2], branches[1::2]):
        entries = bwd.entries[::-1] + fwd.entries[1:]  # both branches start at the seed
        if sum(mark != "vertex" for _, _, mark in entries) < 3:
            continue  # too short, as a seed whose branches both ended on a rank-0 point at once: no arc
        values = [val for val, _, _ in entries]
        phases = [p for _, p, _ in entries]
        labels = bwd.labels[::-1] + fwd.labels[1:]
        n = len(entries)
        known = [i for i in range(1, n - 1) if labels[i] is not None]
        changes = {min(max(i, 2), n - 3) for h, i in zip(known, known[1:]) if labels[h] != labels[i]}
        marked = {i for i, (_, _, mark) in enumerate(entries) if mark}
        cuts = sorted(c for c in marked | changes if 2 <= c <= n - 3)
        starts = [0]
        for cut in cuts:
            if cut - starts[-1] >= 2:
                starts.append(cut)
        for lo, hi in zip(starts, [c + 1 for c in starts[1:]] + [n]):
            if hi - lo >= 3:
                inner = set(labels[lo + 1 : hi - 1]) - {None}
                arc = Arc(
                    len(arcs),
                    values[lo:hi],
                    phases[lo:hi],
                    label=inner.pop() if len(inner) == 1 else "mixed/unknown",
                    cusp_candidates=[values[c] for c in cuts if lo <= c < hi],
                    endpoints=[bwd.reason if lo == 0 else "cusp", fwd.reason if hi == n else "cusp"],
                )
                _keep_arc(arcs, arc, dedup_radius)

    all_cusps = [c for arc in arcs for c in arc.cusp_candidates]
    return BifurcationDiagram(arcs, vertices, all_cusps)


def seed_arcs_near_vertex(
    model: IntegrableModel,
    vertex_point: np.ndarray,
    delta: float = 1e-2,
    tol: float = DEFAULT_TOL,
) -> list[PointAnalysis]:
    """Rank-1 seeds on the singular leaves emanating from a rank-0 point, as
    the records `refine_singular_point` returns.

    The invariant 2-planes of a generic combination of the linearized
    fields are tangent to the local critical submanifolds; perturbing
    along them and polishing back onto the rank-1 locus yields seeds whose
    arcs pass within O(delta^2) of the vertex value.
    """
    L = linearize(model, vertex_point, tol)
    w = williamson_type(L, tol=tol)
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

    probes = []
    for plane in planes:
        for kdir in range(DIRECTIONS_PER_PLANE):
            theta = math.pi * kdir / DIRECTIONS_PER_PLANE
            u = math.cos(theta) * plane[0] + math.sin(theta) * plane[1]
            nu = np.linalg.norm(u)
            if nu < 1e-12:
                continue
            probes += [vertex_point + sign * delta * (L.basis @ (u / nu)) for sign in (1.0, -1.0)]
    refined = _lockstep(model, [_attempt(_refine(model, p, model.n - 1)) for p in probes], tol)
    return [a for a in refined if a is not None]


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
