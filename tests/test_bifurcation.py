import copy
import csv
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intsing import bifurcation, classify
from intsing.bifurcation import (
    Arc,
    BifurcationDiagram,
    RankCertificationError,
    RefineDivergence,
    ScanParams,
    TraceError,
    TraceParams,
    Vertex,
    export_diagram,
    refine_singular_point,
    scan_singular_points,
    seed_arcs_near_vertex,
    trace_diagram,
)
from intsing.canonical import CanonicalSpec, build_canonical, randomized_disguise
from intsing.classify import DEFAULT_TOL, ClassifyError, PointAnalysis, analyze_point, rank_at, reduce_at
from intsing.expr import JetStack
from intsing.kovalevskaya import (
    DIAGRAM_PARAMS,
    SCAN_BOX,
    build_kovalevskaya,
    involution_fixed_points,
    kovalevskaya_diagram,
)
from intsing.phasespace import IntegrableModel, model_from_dict

import goldens


def test_scan_two_elliptic_has_single_rank0_seed():
    m = build_canonical(CanonicalSpec(0, 2, 0, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4, resolution=7)
    rank0 = [s for s in seeds if s.rank == 0]
    assert len(rank0) == 1
    assert np.linalg.norm(rank0[0].point) <= 1e-9


def test_scan_leaves_params_unchanged():
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    params = ScanParams(seed=3)
    scan_singular_points(m, [(-1, 1)] * 4, resolution=3, params=params)
    assert params == ScanParams(seed=3)


def test_scan_finds_rank1_family_on_axis():
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4, resolution=7)
    rank1 = [s for s in seeds if s.rank == 1]
    assert rank1
    for s in rank1:
        # family is {x = y = 0}
        assert abs(s.point[2]) <= 1e-9 and abs(s.point[3]) <= 1e-9


def test_scan_kovalevskaya_includes_fixed_points():
    m = build_kovalevskaya(0.5)
    seeds = scan_singular_points(m, SCAN_BOX, resolution=7)
    for target in involution_fixed_points(0.5, certify=False):
        dist = min(np.linalg.norm(s.point - target) for s in seeds)
        assert dist <= 1e-8


def test_scan_finds_tilted_equilibria_at_large_g():
    # for g^2 > 2 the leaf carries an involution-related pair of rank-0
    # points beyond the two fixed points: tilted uniform rotations, with
    # K = 0 exactly (both squares in K vanish along R parallel to dH/dS)
    g = 1.6
    m = build_kovalevskaya(g)
    seeds = scan_singular_points(m, SCAN_BOX, resolution=5)
    rank0 = [s for s in seeds if s.rank == 0]
    fixed = involution_fixed_points(g, certify=False)
    tilted = [
        s for s in rank0 if all(np.linalg.norm(s.point - f) > 1e-3 for f in fixed)
    ]
    assert len(tilted) == 2
    a, b = tilted
    flip = np.array([1, -1, -1, 1, -1, -1], dtype=float)
    assert np.linalg.norm(a.point * flip - b.point) <= 1e-6  # involution pair
    for s in tilted:
        assert abs(s.value[1]) <= 1e-9  # on the K = 0 axis
        w = np.array([s.point[3], s.point[4], 2 * s.point[5]])
        r = s.point[:3]
        assert np.linalg.norm(np.cross(r, w)) <= 1e-8  # R parallel to dH/dS


def test_scan_drops_rank0_seeds_outside_its_box():
    # dF of y/x tends to 0 only as x -> infinity: rank-0 refinement runs out to |x| ~ 1e11
    m = model_from_dict({"coordinates": ["x1", "y1"], "components": ["y1/x1"]})
    assert scan_singular_points(m, [(-1, 1)] * 2, resolution=7) == []


def test_scan_seeds_satisfy_rank_condition():
    m = build_kovalevskaya(0.5)
    seeds = scan_singular_points(m, SCAN_BOX, resolution=6)
    assert seeds
    for s in seeds[:12]:
        assert rank_at(m, s.point) == s.rank
        assert s.rank < m.n


def test_refine_perturbed_origin():
    m = build_canonical(CanonicalSpec(0, 1, 1, 0))
    p = refine_singular_point(m, np.full(4, 1e-3), 0).point
    assert np.abs(p).max() <= 1e-11


def test_refine_kovalevskaya_fixed_point():
    g = 0.5
    m = build_kovalevskaya(g)
    seed = np.array([0.9, 0.05, -0.02, 0.45, 0.03, 0.01])
    p = refine_singular_point(m, seed, 0).point
    assert np.linalg.norm(p - [1, 0, 0, g, 0, 0]) <= 1e-9


JET_EVALUATORS = ("component_jets", "casimir_jets")


# Each call starts a new pass over points: a refinement from its seed.
NEW_PASSES = ("refine_singular_point",)


def _record_jet_calls(monkeypatch) -> list:
    """Log (evaluator, row bytes of its points) for every jet call, one row at
    one point and a row per point of a batch, None where a new pass starts and
    False where it ends."""
    calls = []
    for name in JET_EVALUATORS:
        original = getattr(IntegrableModel, name)

        def logged(self, point, _original=original, _name=name):
            calls.append((_name, [row.tobytes() for row in np.atleast_2d(np.asarray(point, dtype=float))]))
            return _original(self, point)

        monkeypatch.setattr(IntegrableModel, name, logged)
    for name in NEW_PASSES:
        original = getattr(bifurcation, name)

        def marking(*args, _original=original, **kwargs):
            calls.append(None)
            try:
                return _original(*args, **kwargs)
            finally:
                calls.append(False)

        monkeypatch.setattr(bifurcation, name, marking)
    return calls


def _repeats(calls: list, evaluator: str) -> int:
    """Points of evaluator's calls that one of its previous four calls in the
    same pass evaluated.  A lockstep round is one call, so a Newton run that
    asks for its last point again within four rounds counts.  A pass's calls
    leave the window of the pass around it as it was.  Two refinements from
    different seeds that converge onto one point evaluate it once each.
    """
    windows: list[list[list[bytes]]] = [[]]
    count = 0
    for call in calls:
        if call is None:
            windows.append([])
        elif call is False:
            windows.pop()
        elif call[0] == evaluator:
            seen = {row for rows in windows[-1][-4:] for row in rows}
            count += sum(row in seen for row in call[1])
            windows[-1].append(call[1])
    return count


def _one_run_each(model, runs, tol):
    """The lockstep driver's contract from the one-run driver: each record built on its own."""
    return [bifurcation._run_one(model, run, tol) for run in runs]


def test_scan_and_trace_repeat_no_jet_set(monkeypatch):
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    calls = _record_jet_calls(monkeypatch)
    seeds = scan_singular_points(m, [(-1, 1)] * 4)
    trace_diagram(m, seeds, TraceParams(value_box=(-4.0, 4.0)))
    assert sum(s.rank == m.n - 1 for s in seeds) > 0
    # the scan's and the trace's lockstep rounds are batched calls
    assert any(call and len(call[1]) > 1 for call in calls)
    # continuation starts from each seed's own record
    for name in JET_EVALUATORS:
        assert _repeats(calls, name) == 0


def test_scan_seeds_are_refined_records(monkeypatch):
    """The `intsing trace` default scan on canonical:1,0,1,0: every seed is the
    record refinement returned, its rank certified, and neither the scan nor
    the trace takes a momentum value of its own."""
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    values = []
    original = IntegrableModel.momentum_value
    monkeypatch.setattr(IntegrableModel, "momentum_value", lambda self, p: values.append(1) or original(self, p))
    seeds = scan_singular_points(m, [(-1, 1)] * 4)
    trace_diagram(m, seeds, TraceParams(value_box=(-4.0, 4.0)))
    assert values == []
    assert seeds
    for s in seeds:
        assert isinstance(s, PointAnalysis) and s.rank == rank_at(m, s.point)
        assert np.array_equal(s.value, m.momentum_value(s.point))


LOCKSTEP_SCANS = {
    "canonical:1,0,1,0": (lambda: build_canonical(CanonicalSpec(1, 0, 1, 0)), [(-1, 1)] * 4, 7),
    "kovalevskaya": (lambda: build_kovalevskaya(0.5), SCAN_BOX, 5),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_SCANS))
def test_scan_in_lockstep_gives_the_one_run_seeds(name, monkeypatch):
    build, box, resolution = LOCKSTEP_SCANS[name]
    m = build()

    def seed_bytes():
        return [(s.rank, s.point.tobytes(), s.value.tobytes()) for s in scan_singular_points(m, box, resolution)]

    lockstep = seed_bytes()
    monkeypatch.setattr(bifurcation, "_lockstep", _one_run_each)
    assert seed_bytes() == lockstep and lockstep


def test_trace_in_lockstep_gives_the_one_run_diagram(monkeypatch):
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4)
    params = TraceParams(value_box=(-4.0, 4.0))

    def diagram_text():
        return json.dumps(bifurcation.diagram_to_dict(trace_diagram(m, seeds, params)))

    lockstep = diagram_text()
    monkeypatch.setattr(bifurcation, "_lockstep", _one_run_each)
    assert diagram_text() == lockstep


JOIN_PARAMS = TraceParams(step=0.1, max_steps=40, value_box=(-6, 8), phase_bound=12.0)


def _vertex_seeds():
    """Kovalevskaya at g = 0.5 and the rank-1 seeds `seed_arcs_near_vertex` gives at its two fixed points."""
    m = build_kovalevskaya(0.5)
    return m, [s for p in involution_fixed_points(0.5, certify=False) for s in seed_arcs_near_vertex(m, p, delta=1e-2)]


def test_joins_in_lockstep_give_the_one_run_diagram(monkeypatch):
    """The join barrier tests each branch's new entry after every branch has
    accepted one: the vertex-seed diagram, where branches retrace earlier ones,
    is the same whether the branches step in lockstep or one run at a time."""
    m, seeds = _vertex_seeds()
    assert len(seeds) == 16
    traced = []
    trace = bifurcation._trace_branches
    monkeypatch.setattr(bifurcation, "_trace_branches", lambda *args: traced.append(trace(*args)) or traced[-1])

    def diagram_text():
        return json.dumps(bifurcation.diagram_to_dict(trace_diagram(m, seeds, JOIN_PARAMS)))

    lockstep = diagram_text()
    monkeypatch.setattr(bifurcation, "_lockstep", _one_run_each)
    assert diagram_text() == lockstep
    ends = [[(b.reason, b.joined, len(b.entries)) for b in branches] for branches in traced]
    assert ends[0] == ends[1]
    assert any(reason == "joined" for reason, _, _ in ends[0])
    closed = [[(j, n) for j, (reason, _, n) in enumerate(e) if reason == "closed-loop"] for e in ends]
    assert closed[0] == closed[1] and closed[0]


def _fixed_vertices(m, g: float) -> list:
    """The two fixed points of the involution at g as listed vertices."""
    return [Vertex(p, m.momentum_value(p), 0) for p in involution_fixed_points(g, certify=False)]


def test_a_joined_branch_ends_on_the_branch_it_joined():
    m, seeds = _vertex_seeds()
    branches = bifurcation._trace_branches(m, seeds, _fixed_vertices(m, 0.5), JOIN_PARAMS, DEFAULT_TOL)
    joined = [(j, b) for j, b in enumerate(branches) if b.reason == "joined"]
    assert joined
    for j, b in joined:
        assert b.joined < j and b.joined != j ^ 1  # an earlier branch, not its sibling
        other = np.array([value for value, _, _ in branches[b.joined].entries])
        for value, _, _ in b.entries[-bifurcation.JOIN_RUN :]:
            assert np.min(np.linalg.norm(other - value, axis=1)) <= 2 * JOIN_PARAMS.step


CLOSURE_PARAMS = TraceParams(step=0.1, max_steps=120, value_box=(-6, 8), phase_bound=12.0)


def _runs_back(entries: list, step: float) -> list:
    """The entries whose value chord runs back along an earlier entry's within two steps."""
    values = np.array([value for value, _, _ in entries])
    out = []
    for k in range(2, len(values)):
        t = values[k] - values[k - 1]
        for m in range(1, k - 2):
            other = values[m + 1] - values[m - 1]
            norms = np.linalg.norm(t) * np.linalg.norm(other)
            if norms > 0 and np.linalg.norm(values[m] - values[k]) <= 2 * step and t @ other <= -bifurcation.JOIN_COS * norms:
                out.append(k)
                break
    return out


def _vertex_seed_branches(g: float):
    """Kovalevskaya at g and the branches of the seeds `seed_arcs_near_vertex` gives at its fixed points."""
    m = build_kovalevskaya(g)
    seeds = [s for p in involution_fixed_points(g, certify=False) for s in seed_arcs_near_vertex(m, p, delta=1e-2)]
    return m, bifurcation._trace_branches(m, seeds, _fixed_vertices(m, g), CLOSURE_PARAMS, DEFAULT_TOL)


CLOSURE_LAG = 16  # a closed loop's last entries lie near its own entries at least this many entries back


def _assert_closures_retrace(branches: list) -> None:
    """Each closed-loop branch's last JOIN_RUN entries lie within two steps of
    its sibling's entries or of its own entries at least CLOSURE_LAG entries
    back.  A branch that retraces its values (its last JOIN_RUN entries run back
    along its own, see _runs_back) may close soon after its turn: its last
    entries then lie within two steps of its own entries from before the turn
    that carry their family label."""
    step = CLOSURE_PARAMS.step
    for j, b in enumerate(branches):
        if b.reason != "closed-loop":
            continue
        last = range(len(b.entries) - bifurcation.JOIN_RUN, len(b.entries))
        back = set(_runs_back(b.entries, step))
        if back >= set(last):
            turn = last[0]
            while turn - 1 in back:
                turn -= 1
            for k in last:
                assert b.labels[k] is not None
                assert any(
                    np.linalg.norm(value - b.entries[k][0]) <= 2 * step and label == b.labels[k]
                    for (value, _, _), label in zip(b.entries[:turn], b.labels)
                )
            continue
        own = b.entries[:-CLOSURE_LAG]
        met = np.array([value for value, _, _ in own + branches[j ^ 1].entries])
        for value, _, _ in b.entries[-bifurcation.JOIN_RUN :]:
            assert np.min(np.linalg.norm(met - value, axis=1)) <= 2 * step


@pytest.mark.parametrize("g", [0.0, 0.5])
def test_a_closed_value_curve_is_traced_once(g):
    """The vertex-seed branches stop where they close a value curve, not at
    max_steps: a closed-loop branch ends within two steps of its sibling's
    entries or of its own entries at least CLOSURE_LAG entries back.  A branch that runs back
    along its own entries with their family label retraces its value curve
    and stops there: at g = 0 the first seed's branch 0 runs down to the
    rank-0 point at (-1, 1), back along its elliptic entries, and closes,
    while its sibling leaves the value box."""
    m, branches = _vertex_seed_branches(g)
    reasons = [b.reason for b in branches]
    assert "max-steps" not in reasons and "closed-loop" in reasons
    _assert_closures_retrace(branches)
    if g == 0.0:
        b = branches[0]
        back = _runs_back(b.entries, CLOSURE_PARAMS.step)
        assert len(back) >= bifurcation.JOIN_RUN and b.reason == "closed-loop"
        assert {b.labels[k] for k in back} == {"elliptic-family"}
        assert min(np.linalg.norm(value - [-1.0, 1.0]) for value, _, _ in b.entries) <= CLOSURE_PARAMS.step
        assert branches[1].reason == "value-box"


def _entries(values: list) -> list:
    return [(np.array(value), np.zeros(4), None) for value in values]


@pytest.mark.parametrize("label", ["elliptic-family", "hyperbolic-family"])
def test_only_a_retrace_with_its_family_label_closes_a_fold(label):
    """Branch 0 runs out along the h axis over 12 steps of 0.1, and after one
    join barrier back along its own entries with the family label label, one
    barrier per entry (its sibling leaves across it).  Where the way back carries the way out's label
    the branch retraces its values and closes at the third entry back; with
    another label (a cusp fold, where the family changes type) the backward
    run only vetoes a head-on closure with the sibling, and the branch goes on."""
    params = TraceParams(step=0.1)
    out = [(0.1 * k, 0.0) for k in range(13)]
    b = bifurcation._Branch(_entries(out), ["elliptic-family"] * len(out))
    sibling = bifurcation._Branch(_entries([(0.0, -0.1 * k) for k in range(5)]), ["elliptic-family"] * 5)
    branches = [b, sibling]
    store, count = bifurcation._join_barrier(branches, np.empty((6, 0)), 0, params)
    assert [x.reason for x in branches] == [None, None]
    back = [(1.2 - 0.1 * k, 0.0) for k in range(1, 9)]
    for entry in _entries(back):  # one join test per entry, as the branch pauses after each
        if b.reason is None:
            b.entries.append(entry)
            b.labels.append(label)
            store, count = bifurcation._join_barrier(branches, store, count, params)
    if label == "elliptic-family":
        assert b.reason == "closed-loop" and len(b.entries) == len(out) + bifurcation.JOIN_RUN
    else:
        assert b.reason is None and len(b.entries) == len(out) + len(back)
        assert b.runs[0, -1][0] == len(back)


def _reference_joins(branches: list, store: np.ndarray, j: int, k: int, params: TraceParams):
    """`_joins` as a loop over the candidates one at a time, each candidate's
    chord read from its column of the store."""
    b = branches[j]
    value = b.entries[k][0]
    x = value - b.entries[k - 1][0]
    tangent = x / np.linalg.norm(x) if np.linalg.norm(x) > 0 else None
    radius = bifurcation.ARC_DEDUP_FACTOR * params.step
    closing = {j: (1, -1), j ^ 1: (-1,)}
    left = k - 1
    while left >= 0 and np.linalg.norm(b.entries[left][0] - value) <= radius:
        left -= 1
    nearest = {}
    dist = bifurcation._norms(store[:2].T - value) if tangent is not None else np.empty(0)
    for col in np.flatnonzero(dist <= radius):
        i, m, d, other = int(store[4, col]), int(store[5, col]), float(dist[col]), store[2:4, col]
        if i in closing:
            cos = float(tangent @ other) if np.isfinite(other).all() else 0.0
            key = (i, (cos >= bifurcation.JOIN_COS) - (cos <= -bifurcation.JOIN_COS))
            if key[1] not in closing[i] or key == (j, 1) and m > left:
                continue
        elif i < j and i not in b.unlike:
            key = (i, 0)
        else:
            continue
        if key not in nearest or d < nearest[key][0]:
            nearest[key] = (d, m, other)
    runs = {}
    for (i, s), (_, m, other) in sorted(nearest.items()):
        count, last, sense = b.runs.get((i, s), (0, m, 0))
        move = (m > last) - (m < last)
        if s:
            runs[i, s] = (count + 1 if count and move == s else count if count and not move and i != j else 1, m, s)
        elif np.isfinite(other).all() and abs(float(tangent @ other)) >= bifurcation.JOIN_COS:
            runs[i, s] = (count + 1, m, move) if count and move and sense in (0, move) else (1, m, 0)
    b.runs = runs
    for (i, s), (count, m, _) in sorted(runs.items()):
        if count < bifurcation.JOIN_RUN or i == j ^ 1 and (j, -1) in runs:
            continue
        if b.labels[k] is not None and b.labels[k] == branches[i].labels[m]:
            if i in closing:
                return "closed-loop"
            b.joined = i
            return "joined"
        if (i, s) == (j, -1):
            continue
        if i in closing:
            del runs[i, s]
        else:
            b.unlike.add(i)
    return None


def _store(branches: list, order) -> np.ndarray:
    """The store of each branch's entries 1 ... checked - 1, its columns in order."""
    filed = [
        np.concatenate([b.entries[m][0], bifurcation._chord(b.entries, m), [i, m]])
        for i, b in enumerate(branches)
        for m in range(1, b.checked)
    ]
    return np.array([filed[c] for c in order]).reshape(-1, 6).T


@st.composite
def join_stores(draw):
    """Branches that walk the integer grid from near the origin, some round a
    closed loop twice (ties in distance, parallel chords, and NaN chords where
    the walk stands), the store of their filed entries in a drawn order (branch
    j's filed up to a drawn entry at most k, the rest of its entries before k
    unfiled, entry 0 never), and j's runs and the earlier branches it is
    unlike.  The join radius is 2 (step 1)."""
    size = draw(st.integers(2, 5))
    label = st.sampled_from([None, "elliptic-family", "elliptic-family", "hyperbolic-family"])
    step = st.sampled_from([(1, 0), (1, 0), (-1, 0), (0, 1), (0, 1), (0, -1), (1, 1), (0, 0)])
    moves = st.lists(step, min_size=2, max_size=8)
    branches = []
    for _ in range(size):
        start, walk = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1))), draw(moves)
        if draw(st.integers(0, 2)):  # round a closed loop twice: ties, and forward runs along j's own entries
            x, y = np.sum(walk, axis=0)
            walk = 2 * (walk + [(-np.sign(x), 0)] * abs(x) + [(0, -np.sign(y))] * abs(y))
        values = np.cumsum([start] + walk, axis=0).astype(float)
        labels = draw(st.lists(label, min_size=len(values), max_size=len(values)))
        branches.append(bifurcation._Branch(_entries(values), labels))
    j = draw(st.integers(0, size - 1))
    k = draw(st.integers(1, len(branches[j].entries) - 1))
    for i, b in enumerate(branches):
        b.checked = draw(st.integers(1, k if i == j else len(b.entries)))
    store = _store(branches, draw(st.permutations(range(sum(b.checked - 1 for b in branches)))))
    run = st.tuples(st.integers(0, bifurcation.JOIN_RUN), st.integers(0, 8), st.sampled_from([-1, 0, 1]))
    key = st.tuples(st.integers(0, size - 1), st.sampled_from([-1, 0, 1]))
    branches[j].runs = draw(st.dictionaries(key, run, max_size=4))
    branches[j].unlike = {i for i in range(j) if draw(st.booleans())}
    return branches, store, j, k


@given(join_stores())
def test_the_join_masks_are_the_per_candidate_loop(case):
    """On random stores (own, sibling, earlier and unlike branches, distance
    ties, NaN chords, unfiled entries before k) `_joins` leaves the runs, stop
    reason, unlike set and joined branch of the per-candidate loop that reads
    each candidate's filed chord."""
    branches, store, j, k = case
    params = TraceParams(step=1.0)
    mine, theirs = copy.deepcopy(branches), copy.deepcopy(branches)
    got = bifurcation._joins(mine, store, j, k, params)
    want = _reference_joins(theirs, store, j, k, params)
    assert got == want
    assert (mine[j].runs, mine[j].unlike, mine[j].joined) == (theirs[j].runs, theirs[j].unlike, theirs[j].joined)


def test_the_join_masks_find_the_last_entry_outside_the_radius():
    """Branch 0 rounds a 4 by 1 rectangle twice in steps of 1 (join radius 2).
    At every entry k, with its entries from every split point up to k unfiled,
    `_joins` leaves the runs of the per-candidate loop: the last entry outside
    the radius before k, which ends the entries a forward run may follow, is
    filed at some splits and unfiled at others."""
    walk = 2 * ([(1, 0)] * 4 + [(0, 1)] + [(-1, 0)] * 4 + [(0, -1)])
    values = np.cumsum([(0, 0)] + walk, axis=0).astype(float)
    params = TraceParams(step=1.0)
    for k in range(1, len(values)):
        for checked in range(1, k + 1):
            b = bifurcation._Branch(_entries(values), ["elliptic-family"] * len(values), checked=checked)
            branches = [b, bifurcation._Branch(_entries(values[:1]))]
            store = _store(branches, range(checked - 1))
            mine, theirs = copy.deepcopy(branches), copy.deepcopy(branches)
            assert bifurcation._joins(mine, store, 0, k, params) == _reference_joins(theirs, store, 0, k, params)
            assert mine[0].runs == theirs[0].runs, (k, checked)


@pytest.mark.parametrize("g", [1.3, 1.6])
def test_a_crossing_seeds_the_family_it_meets(g, monkeypatch):
    """K is a sum of two squares, so K = 0 is a rank-1 family, over h >= g^2;
    no vertex seed lies on it.  A vertex-seed branch touches it at (g^2, 0)
    and passes a crossing there, and the branches switched onto it trace K = 0
    out towards the value box; without switching no branch reaches K = 0.
    The creeping branches of these diagrams (value steps far below a step)
    do not close on the entries they just left."""
    def k0_values(branches):
        return [value[0] for b in branches for value, _, _ in b.entries if abs(value[1]) < 1e-9]

    m, branches = _vertex_seed_branches(g)
    k0 = k0_values(branches)
    assert min(k0) == pytest.approx(g * g, abs=CLOSURE_PARAMS.step) and max(k0) > 6.5
    _assert_closures_retrace(branches)
    monkeypatch.setattr(bifurcation, "_flips", lambda space, new: False)
    assert not k0_values(_vertex_seed_branches(g)[1])


@pytest.mark.parametrize("g", [None, 0.0, 1.3, 1.6])
def test_no_join_barrier_shortens_a_branch(g, monkeypatch):
    """A branch pauses after each accepted entry and the join barrier tests that
    entry before the branch steps again: on the benchmark diagram (g None) and at
    g = 0, 1.3 and 1.6 and resolution 5, no barrier takes an entry off a branch,
    and each "joined" or "closed-loop" branch ends at the entry whose join test
    completed its run."""
    stops, barrier, joins = {}, bifurcation._join_barrier, bifurcation._joins

    def tested(branches, store, j, k, params):
        reason = joins(branches, store, j, k, params)
        if reason:
            stops[j] = k
        return reason

    def checked(branches, store, count, params):
        lengths = [len(b.entries) for b in branches]
        out = barrier(branches, store, count, params)
        assert [len(b.entries) for b in branches] == lengths and [len(b.labels) for b in branches] == lengths
        return out

    traced = []
    trace = bifurcation._trace_branches
    monkeypatch.setattr(bifurcation, "_trace_branches", lambda *args: traced.append(trace(*args)) or traced[-1])
    monkeypatch.setattr(bifurcation, "_joins", tested)
    monkeypatch.setattr(bifurcation, "_join_barrier", checked)
    kovalevskaya_diagram(0.5) if g is None else kovalevskaya_diagram(g, resolution=5)
    (branches,) = traced
    ended = {j: len(b.entries) - 1 for j, b in enumerate(branches) if b.reason in ("joined", "closed-loop")}
    assert ended and stops == ended


def test_the_k0_family_and_the_involution_points_are_traced_from_any_entry():
    """Crossings are found by a sign change of det A, which does not depend on
    where the steps land, and no entry is cut after it is traced: on the full
    resolution-5 diagrams at g = 0 and 0.5 the K = 0 elliptic family is traced
    beyond h = 6.5, and at g = 1.6 and resolution 7, where the scan misses the
    involution point (0.28, 5.198), both involution points are vertices."""
    for g in (0.0, 0.5):
        d = kovalevskaya_diagram(g, resolution=5)
        k0 = [v[0] for a in d.arcs if a.label == "elliptic-family" for v in a.values if abs(v[1]) < 1e-9]
        assert k0 and max(k0) > 6.5
    d = kovalevskaya_diagram(1.6, resolution=7)
    for p in involution_fixed_points(1.6, certify=False):
        assert min(np.linalg.norm(v.point - p) for v in d.vertices) < 1e-9


def test_the_vertices_are_the_rank0_seeds(monkeypatch):
    """The vertices are listed from the rank-0 seeds before any branch starts,
    and no branch refines one: at g = 1.6 each arc end marked "vertex" carries a
    listed vertex's value, bit for bit, and the same trace without the rank-0
    seeds lists no vertex, so a branch that lands on one ends as
    "rank-collapse"."""
    bare = []

    def trace(model, seeds, *args, **kwargs):
        bare.append(trace_diagram(model, [s for s in seeds if s.rank != 0], *args, **kwargs))
        return trace_diagram(model, seeds, *args, **kwargs)

    monkeypatch.setattr("intsing.kovalevskaya.trace_diagram", trace)
    d = kovalevskaya_diagram(1.6, resolution=5)
    listed = {v.value.tobytes() for v in d.vertices}
    ends = [value for a in d.arcs for value, end in zip((a.values[0], a.values[-1]), a.endpoints) if end == "vertex"]
    assert len(listed) == 4 and ends and {v.tobytes() for v in ends} <= listed
    (without,) = bare
    assert without.vertices == [] and any("rank-collapse" in a.endpoints for a in without.arcs)


def test_a_seed_starts_where_it_lies(monkeypatch):
    """A branch starts at its seed's own record, which the corrector's end test
    accepts: once `_trace_branches` has started on the g = 0.5 diagram at
    resolution 5 nothing is refined, and entry 0 of both branches of each
    rank-1 seed is the seed's point, bit for bit.  A seed record moved 1e-4 off
    the rank-1 locus within its leaf's tangent space fails that test and starts
    no branch: it is not refined again."""
    traced, refined = [], []
    trace, refine = bifurcation._trace_branches, bifurcation._refine

    def tracing(model, rank1, *args):
        traced.append(rank1)
        traced.append(trace(model, rank1, *args))
        return traced[-1]

    def refining(*args):
        if traced:  # _trace_branches has started
            refined.append(args)
        return refine(*args)

    monkeypatch.setattr(bifurcation, "_trace_branches", tracing)
    monkeypatch.setattr(bifurcation, "_refine", refining)
    kovalevskaya_diagram(0.5, resolution=5)
    rank1, branches = traced
    assert refined == [] and rank1 and len(branches) >= 2 * len(rank1)
    for k, s in enumerate(rank1):
        assert [b.entries[0][1].tobytes() for b in branches[2 * k : 2 * k + 2]] == [s.point.tobytes()] * 2

    m, s = build_kovalevskaya(0.5), rank1[-1]
    moved = PointAnalysis(m, s.point + 1e-4 * s.frame.basis.sum(axis=1) / 2)
    assert trace(m, [moved], [], DIAGRAM_PARAMS, DEFAULT_TOL) == []


@pytest.mark.parametrize("g", [0.5, 1.3])
def test_entry_labels_are_the_one_point_labels(g, monkeypatch):
    """The family label each branch stores for each of its entries, from the
    round that accepts the entry's point (the quotient of the Lagrangian
    Hessian there, see _null_spaces), is the one that reduce_at and
    williamson_type give the entry's phase point on its own."""
    traced = []
    trace = bifurcation._trace_branches
    monkeypatch.setattr(bifurcation, "_trace_branches", lambda *args: traced.append(trace(*args)) or traced[-1])
    kovalevskaya_diagram(g, resolution=5)
    (branches,) = traced
    m, seed = build_kovalevskaya(g), DIAGRAM_PARAMS.seed

    def one_point_label(p):
        return bifurcation._FAMILY_LABELS.get(bifurcation._triple(reduce_at, m, p, DEFAULT_TOL, seed))

    assert [b.labels for b in branches] == [[one_point_label(p) for _, p, _ in b.entries] for b in branches]
    assert {"elliptic-family", "hyperbolic-family"} <= {label for b in branches for label in b.labels}


def test_arc_dedup_keeps_a_second_family_on_one_value_curve():
    """An arc whose values copy a kept arc's is a duplicate only under the same label."""
    values = [np.array([0.1 * k, 1.0]) for k in range(10)]
    arcs = [Arc(0, values, [np.zeros(4)] * 10, label="elliptic-family")]
    bifurcation._keep_arc(arcs, Arc(1, list(values), [np.ones(4)] * 10, label="hyperbolic-family"), 0.2)
    assert [a.label for a in arcs] == ["elliptic-family", "hyperbolic-family"]
    bifurcation._keep_arc(arcs, Arc(2, values[2:], [np.ones(4)] * 8, label="elliptic-family"), 0.2)
    bifurcation._keep_arc(arcs, Arc(2, values[:5], [np.ones(4)] * 5, label="hyperbolic-family"), 0.2)
    assert len(arcs) == 2


LABEL_COUNT = 200  # glued entries: the old probe-and-bisect search sampled every 8th label


def _cut_arcs(labels: list, monkeypatch) -> list:
    """(label, first entry, last entry) of each arc trace_diagram cuts from one
    glued branch pair whose entries i carry labels[i], with values (i, 0)."""
    entries = [(np.array([float(i), 0.0]), np.zeros(2), None) for i in range(len(labels))]
    fwd = bifurcation._Branch(entries, list(labels), reason="value-box")
    bwd = bifurcation._Branch(entries[:1], labels[:1], reason="value-box")
    monkeypatch.setattr(bifurcation, "_trace_branches", lambda *args: [fwd, bwd])
    d = trace_diagram(build_canonical(CanonicalSpec(0, 1, 0, 0)), [])
    return [(a.label, int(a.values[0][0]), int(a.values[-1][0])) for a in d.arcs]


def test_branches_that_end_on_a_vertex_at_once_give_no_arc(monkeypatch):
    """A seed next to a rank-0 point whose two branches both land on it at their
    first step glues to [vertex, seed, vertex]: no arc, one vertex, the rank-0
    seed's, which each branch's "vertex" entry carries."""
    m = build_canonical(CanonicalSpec(0, 2, 0, 0))
    origin = np.zeros(m.dim)
    seed = (np.array([0.01, 0.0]), np.array([0.1, 0.0, 0.0, 0.0]), None)

    def branches(model, rank1, vertices, params, tol):
        (v,) = vertices
        vertex = (v.value, v.point, "vertex")
        return [bifurcation._Branch([seed, vertex], [None, None], reason="vertex") for _ in range(2)]

    monkeypatch.setattr(bifurcation, "_trace_branches", branches)
    d = trace_diagram(m, [PointAnalysis(m, origin)])
    assert d.arcs == [] and [v.point.tolist() for v in d.vertices] == [origin.tolist()]


def _with_run(first: int, stop: int, run="hyperbolic-family", rest="elliptic-family") -> list:
    return [run if first <= i < stop else rest for i in range(LABEL_COUNT)]


@pytest.mark.parametrize("length", range(3, 8))
def test_a_short_label_run_is_cut_out(length, monkeypatch):
    """The arcs are cut at every change of the stored labels, so a run of 3-7
    entries (here between entries 9 and 17, where the old search sampled) gets
    an arc with its label: from its first entry to the first entry after it."""
    arcs = _cut_arcs(_with_run(10, 10 + length), monkeypatch)
    assert [a for a in arcs if a[0] != "elliptic-family"] == [("hyperbolic-family", 10, 10 + length)]


@pytest.mark.parametrize(
    "labels",
    [
        [None if i in (10, 11, 16, 17) else label for i, label in enumerate(_with_run(12, 16))],
        [None] * 3 + _with_run(0, 40)[3:],
        _with_run(0, 3),
        _with_run(1, 2),
        _with_run(0, 2),
        _with_run(LABEL_COUNT - 3, LABEL_COUNT),
        _with_run(LABEL_COUNT - 2, LABEL_COUNT),
        _with_run(LABEL_COUNT - 4, LABEL_COUNT - 1),
        _with_run(LABEL_COUNT - 2, LABEL_COUNT - 1),
    ],
)
def test_label_runs_by_none_or_an_end_are_no_mixed_arc(labels, monkeypatch):
    """A run beside unlabelled entries, or within 2 entries of either end of the
    glued list, leaves every arc one label: a cut is clamped into the entries
    2 ... n-3 that arcs are cut at, and an arc's label is read from its inner
    entries."""
    arcs = _cut_arcs(labels, monkeypatch)
    assert {label for label, _, _ in arcs} <= {"elliptic-family", "hyperbolic-family"}
    assert arcs[0][1] == 0 and arcs[-1][2] == LABEL_COUNT - 1


@pytest.mark.parametrize("g, parent_entries", [(1.3, 1142), (1.6, 959)])
def test_no_branch_creeps_at_large_g(g, parent_entries, monkeypatch):
    """With the phase row no branch slides along its critical circle: at g = 1.3
    and 1.6 no branch of the resolution-5 diagram ends at max_steps or by step
    failure, and the branches hold at most the entries the least-squares
    corrector traced (1,142 and 959)."""
    traced = []
    trace = bifurcation._trace_branches
    monkeypatch.setattr(bifurcation, "_trace_branches", lambda *args: traced.append(trace(*args)) or traced[-1])
    kovalevskaya_diagram(g, resolution=5)
    (branches,) = traced
    assert not {"max-steps", "step-failure"} & {b.reason for b in branches}
    assert sum(len(b.entries) for b in branches) <= parent_entries


def _observed_order(error, h: float) -> float:
    """log2 of error(h) / error(h / 2): p where error shrinks as O(h^p)."""
    return math.log2(error(h) / error(h / 2))


@given(
    st.integers(2, 10),
    st.integers(0, 2**32 - 1),
    st.floats(0.2, 5.0),
    st.floats(0.05, 1.0),
    st.floats(-math.pi, math.pi),
)
def test_the_predictor_is_second_order(dim, seed, r, back, angle):
    """With no earlier point the predictor is z + h t.  On a straight family it
    is z + h t too.  On a circle of radius r in a random plane of R^dim, with the
    earlier point an arc length back * r behind z, its distance to the curve
    shrinks as O(h^3) as h halves (from back * r / 4), where the tangent
    predictor's shrinks as O(h^2)."""
    rng = np.random.default_rng(seed)
    e1, e2 = np.linalg.qr(rng.normal(size=(dim, 2)))[0].T
    center = rng.normal(size=dim)
    z, t = center + r * (math.cos(angle) * e1 + math.sin(angle) * e2), -math.sin(angle) * e1 + math.cos(angle) * e2
    assert np.array_equal(bifurcation._predict(z, t, 0.1, None), z + 0.1 * t)
    assert np.allclose(bifurcation._predict(z, t, 0.1, z - 0.3 * t), z + 0.1 * t, rtol=0.0, atol=1e-13 * r)
    z_back = center + r * (math.cos(angle - back) * e1 + math.sin(angle - back) * e2)

    def distance(earlier):
        return lambda h: abs(np.linalg.norm(bifurcation._predict(z, t, h, earlier) - center) - r)

    h = back * r / 4
    assert _observed_order(distance(z_back), h) > 2.7
    assert 1.9 < _observed_order(distance(None), h) < 2.1


def test_most_corrector_steps_take_two_iterations(monkeypatch):
    """The predictor extrapolates along the quadratic through a branch's last two
    points, so on the benchmark diagram at most 40 % of the corrector runs that
    accept a point take 3 or more Newton iterations (76 % from the tangent
    predictor), and the scan and trace take at most 350 lockstep rounds (413)."""
    rounds, iterations = [], []
    records, corrector = bifurcation._records, bifurcation._corrector

    def counted_records(*args):
        rounds.append(1)
        return records(*args)

    def counted_corrector(*args):
        out = yield from corrector(*args)
        if out[0] is not None:
            iterations.append(out[3])
        return out

    monkeypatch.setattr(bifurcation, "_records", counted_records)
    monkeypatch.setattr(bifurcation, "_corrector", counted_corrector)
    kovalevskaya_diagram(0.5)
    assert len(iterations) > 500
    assert sum(it >= 3 for it in iterations) <= 0.4 * len(iterations)
    assert len(rounds) <= 350


CROSSING_GAP = 0.1  # the gap of the phase-conditioned Jacobian under which a point lies near a crossing
CORRECTOR_CONDITION = 1e3  # bounds the condition number where the gap is >= CROSSING_GAP (at most about 100 measured)


def _corrector_matrix(model, p):
    """The analysed record at arc point p, the gap there and the corrector's
    matrix of a step from p (see _corrector_systems)."""
    a = analyze_point(model, p)
    ((v, mu),) = bifurcation._kernel_vectors(model, [a], [None])
    z = np.concatenate([a.point, v, mu])
    res, J = bifurcation._rank1_systems(model, [a], z[None])
    ((T, gap, _, Q, _, _),) = bifurcation._null_spaces(model, [a], J)
    B = bifurcation._border(T, T[:, 0], len(Q))
    return a, gap, bifurcation._corrector_systems(res, J, z[None], B[None], z[None], Q[None], a.point[None])[1][0]


@pytest.mark.parametrize("name", ["kovalevskaya", "canonical:1,0,1,0"])
def test_the_corrector_matrix_is_square_and_well_conditioned(name):
    """At the arc points of the benchmark's g = 0.5 diagram and of the default
    trace of canonical:1,0,1,0, the corrector's matrix (the rank-1 Jacobian with
    the orbit component of its gradient rows replaced by the phase row, and the
    border row appended) is (N+n+nc) x (N+n+nc): 10 x 10 and 6 x 6.  Away from
    vertices and crossings, where the gap of the phase-conditioned Jacobian
    stays at least CROSSING_GAP, its condition number is under
    CORRECTOR_CONDITION: the orbit freedom that made the least-squares system
    singular is gone."""
    if name == "kovalevskaya":
        m, d = build_kovalevskaya(0.5), kovalevskaya_diagram(0.5)
    else:
        m = build_canonical(CanonicalSpec(1, 0, 1, 0))
        d = trace_diagram(m, scan_singular_points(m, [(-1, 1)] * 4), TraceParams(value_box=(-4.0, 4.0)))
    size = m.dim + m.n + len(m.structure.casimirs)
    checked = 0
    for p in (p for arc in d.arcs for p in arc.phase_samples):
        a, gap, A = _corrector_matrix(m, p)
        assert a.rank == m.n - 1 and A.shape == (size, size)
        if gap >= CROSSING_GAP:
            assert np.linalg.cond(A) < CORRECTOR_CONDITION
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("spec", [(1, 1, 1, 0), (0, 1, 1, 1)])
def test_models_with_n_at_least_3_trace_their_families(spec, monkeypatch):
    """The default trace of canonical:1,1,1,0 (n = 3) and canonical:0,1,1,1
    (n = 4), as `intsing trace` makes it: no arc is mixed/unknown, each arc lies
    where the component its label names (elliptic or hyperbolic) is 0, and at
    every arc point the corrector's matrix, bordered by the predictor direction
    and n - 2 further null directions, is square (9 x 9 and 12 x 12) and, where
    the gap is at least CROSSING_GAP, well conditioned.  Gap minima on the
    rank n-2 locus, where two families meet, are no crossing to switch at.  The
    family label stored at every 4th non-vertex entry, from the quotient of
    ker dF by n - 1 phase rows, is the one-point label of its phase point."""
    cs = CanonicalSpec(*spec)
    m = build_canonical(cs)
    traced = []
    trace = bifurcation._trace_branches
    monkeypatch.setattr(bifurcation, "_trace_branches", lambda *args: traced.append(trace(*args)) or traced[-1])
    params = TraceParams(step=0.05, value_box=(-4.0, 4.0))
    d = trace_diagram(m, scan_singular_points(m, [(-1, 1)] * m.dim), params)
    (branches,) = traced
    stored = [(p, label) for b in branches for (_, p, mark), label in zip(b.entries, b.labels) if mark != "vertex"]
    assert len(stored) > 1000
    for p, label in stored[::4]:
        assert label == bifurcation._FAMILY_LABELS.get(bifurcation._triple(reduce_at, m, p, DEFAULT_TOL, params.seed))
    roles = cs.component_roles()
    assert d.arcs and {arc.label for arc in d.arcs} == {"elliptic-family", "hyperbolic-family"}
    size = m.dim + m.n + len(m.structure.casimirs)
    for arc in d.arcs:
        assert np.max(np.abs(np.array(arc.values)[:, roles.index(arc.label.split("-")[0])])) < 1e-12
        for p in arc.phase_samples[::4]:
            a, gap, A = _corrector_matrix(m, p)
            assert a.rank == m.n - 1 and A.shape == (size, size)
            assert gap < CROSSING_GAP or np.linalg.cond(A) < CORRECTOR_CONDITION


def test_a_refused_point_fails_only_its_branch(monkeypatch):
    """The default trace of canonical:1,0,1,0 with the last point of branch 0
    refused by leaf_frames: that branch ends alone as "failed" with the
    entries before the point, every other branch keeps the entries it has
    without the refusal, and the diagram carries the new end."""
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4)
    params = TraceParams(value_box=(-4.0, 4.0))
    rank1 = [s for s in seeds if s.rank == m.n - 1]

    def entries(branches):
        return [[(v.tobytes(), p.tobytes(), mark) for v, p, mark in b.entries] for b in branches]

    base = bifurcation._trace_branches(m, rank1, [], params, DEFAULT_TOL)
    refused = base[0].entries[-1][1].tobytes()
    frames = classify.leaf_frames

    def refusing(model, records, tol=DEFAULT_TOL):
        out = frames(model, records, tol)
        return [ClassifyError("refused") if a.point.tobytes() == refused else f for a, f in zip(records, out)]

    monkeypatch.setattr(classify, "leaf_frames", refusing)
    monkeypatch.setattr(bifurcation, "leaf_frames", refusing)
    got = bifurcation._trace_branches(m, rank1, [], params, DEFAULT_TOL)
    assert [b.reason for b in got] == ["failed"] + [b.reason for b in base[1:]]
    assert entries(got) == [entries(base)[0][:-1]] + entries(base[1:])
    assert any("failed" in arc.endpoints for arc in trace_diagram(m, seeds, params).arcs)


def test_a_short_hyperbolic_run_at_g1_6_is_its_own_arc():
    """At g = 1.6 a 6-entry hyperbolic run lies inside a long elliptic branch
    near (g^2, 0), where the K = 0 family starts: it is cut out as its own arc."""
    d = kovalevskaya_diagram(1.6, resolution=5)
    target = np.array([2.56, 0.0])
    assert any(
        a.label == "hyperbolic-family" and np.min(np.linalg.norm(np.array(a.values) - target, axis=1)) <= 0.02
        for a in d.arcs
    )


GOLDEN_SCANS = {  # the golden diagrams' models and scans not in LOCKSTEP_SCANS, with their vertex seeds
    "kovalevskaya-g0-res6": 0.0,
    "kovalevskaya-g0.5-res6": 0.5,
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_refinement_in_lockstep_gives_the_one_run_seeds(name, monkeypatch):
    """The scan refines all its candidates in one lockstep and seed_arcs_near_vertex
    all its probes: each seed's bytes are those of refining one run at a time."""
    g = GOLDEN_SCANS[name]
    m = build_kovalevskaya(g)
    fp, _ = involution_fixed_points(g, certify=False)

    def seed_bytes():
        seeds = seed_arcs_near_vertex(m, fp, delta=1e-2) + scan_singular_points(m, SCAN_BOX, 6)
        return [(s.rank, s.point.tobytes(), s.value.tobytes(), s.sv.tobytes()) for s in seeds]

    lockstep = seed_bytes()
    monkeypatch.setattr(bifurcation, "_lockstep", _one_run_each)
    assert seed_bytes() == lockstep and lockstep


def _outcome(run):
    """run's refined record as bytes, or the name of the TraceError it raised: a Newton run."""
    try:
        a = yield from run
    except TraceError as exc:
        return type(exc).__name__
    return a.rank, a.point.tobytes(), a.U.tobytes()


def test_a_failing_refinement_fails_only_its_own_run():
    """One lockstep of refinements where one run ends in RankCertificationError (a
    rank-1 target seeded at a rank-0 point) and one in RefineDivergence (one
    iteration allowed): every run's outcome is the one it has alone."""
    m = build_kovalevskaya(0.5)
    points = np.random.default_rng(3).uniform(-1, 1, size=(3, 6))
    vertex = np.array([1.0, 0.0, 0.0, 0.5, 0.0, 0.0])
    specs = [(points[0], 0, 60), (vertex, 1, 60), (points[1], 1, 60), (points[2], 1, 1), (points[2], 0, 30), (points[1], 0, 60)]

    def runs():
        return [_outcome(bifurcation._refine(m, p, r, max_iter)) for p, r, max_iter in specs]

    lockstep = bifurcation._lockstep(m, runs(), 1e-8)
    assert lockstep == [bifurcation._run_one(m, run, 1e-8) for run in runs()]
    assert lockstep[1] == "RankCertificationError" and lockstep[3] == "RefineDivergence"
    assert all(isinstance(out, tuple) for k, out in enumerate(lockstep) if k not in (1, 3))


def test_a_stack_that_raises_fails_only_the_rows_that_raise():
    m = build_canonical(CanonicalSpec(0, 1, 0, 0))

    def inverses(model, records, args):  # one row's zero fails the whole stack
        return [1.0 / x for x in args]

    def run(x):
        try:
            return (yield inverses, np.zeros(m.dim), x)
        except ZeroDivisionError:
            return "raised"

    assert bifurcation._lockstep(m, [run(2.0), run(0.0), run(4.0)], 1e-8) == [0.5, "raised", 0.25]


def test_a_casimir_pole_fails_only_the_row_that_reaches_it():
    """A model file whose Casimir 1/x1 has a pole at x1 = 0: from x1 = 2 the
    first Gauss-Newton iterate lands on it, and only that run fails (its
    projection's stack is redone a row at a time); from x1 = 0.5 and from a
    point on the leaf x1 = 1 each run gets the record it gets on its own."""
    m = model_from_dict(
        {
            "coordinates": ["x1", "y1", "x2", "y2"],
            "components": ["x1^2 + y1^2", "x2^2 + y2^2"],
            "casimirs": [{"expr": "1/x1", "value": 1.0}],
        }
    )
    points = [np.array([2.0, 0.3, 0.1, 0.2]), np.array([0.5, 0.3, 0.1, 0.2]), np.array([1.0, 0.0, 0.4, 0.0])]

    def runs():
        return [bifurcation._attempt(bifurcation._leaf_project(m, p)) for p in points]

    lockstep = bifurcation._lockstep(m, runs(), 1e-8)
    alone = [bifurcation._run_one(m, run, 1e-8) for run in runs()]
    assert lockstep[0] is None and alone[0] is None
    assert [_leaf_answer(a) for a in lockstep[1:]] == [_leaf_answer(a) for a in alone[1:]]
    assert abs(1.0 / lockstep[1].point[0] - 1.0) < 1e-12 and lockstep[2].point.tobytes() == points[2].tobytes()


def test_lockstep_batches_each_round(monkeypatch):
    """One call per field set per round, over the live runs whose kernel reads
    it: the leaf projection reads only Casimir jets, and the component jets
    of each projected point are evaluated once, when its run analyses it."""
    m = build_kovalevskaya(0.5)
    sizes = {"casimir_jets": [], "component_jets": []}
    for name in sizes:
        original = getattr(IntegrableModel, name)
        monkeypatch.setattr(
            IntegrableModel, name, lambda self, p, _o=original, _n=name: sizes[_n].append(np.shape(p)) or _o(self, p)
        )
    samples = np.random.default_rng(0).uniform(-1, 1, size=(5, 6))
    scores = bifurcation._lockstep(m, [bifurcation._score(m, p) for p in samples], 1e-8)
    casimir, component = sizes["casimir_jets"], sizes["component_jets"]
    assert casimir[0] == (5, 6) and all(len(s) == 2 for s in casimir + component)
    assert [s[0] for s in casimir] == sorted((s[0] for s in casimir), reverse=True)
    assert None not in scores and sum(s[0] for s in component) == len(samples)


def test_lockstep_divides_only_where_a_run_reads():
    """A component with 1/x: the scan sample (0, 0.5, 0.3) projects off x = 0
    in one step and reads its component jets only there, as on its own."""
    m = model_from_dict(
        {
            "coordinates": ["x", "y", "z"],
            "components": ["1/x + z^2"],
            "casimirs": [{"expr": "x + y", "value": 1.0}],
            "structure": {"bivector": [{"i": "x", "j": "z", "expr": "1"}, {"i": "y", "j": "z", "expr": "-1"}]},
        }
    )
    samples = np.array([[0.0, 0.5, 0.3], [0.4, 0.2, -0.1]])

    def scores(driver):
        return [(r, s, a.point.tobytes()) for r, s, a in driver(m, [bifurcation._score(m, p) for p in samples], 1e-8)]

    lockstep = scores(bifurcation._lockstep)
    assert lockstep == scores(_one_run_each)
    assert np.allclose(np.frombuffer(lockstep[0][2]), [0.25, 0.75, 0.3])
    assert scan_singular_points(m, [(-1, 1), (-1, 0.25), (-1, 1)], 5) == []  # grid samples on x = 0 score


def test_refine_evaluates_each_iterate_once(monkeypatch):
    m = build_kovalevskaya(0.5)
    calls = _record_jet_calls(monkeypatch)
    refine_singular_point(m, np.array([0.9, 0.05, -0.02, 0.45, 0.03, 0.01]), 0)
    assert calls
    for name in JET_EVALUATORS:
        assert _repeats(calls, name) == 0


def test_refine_divergence_when_no_solution():
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))  # d(lam) never vanishes
    with pytest.raises(TraceError):
        refine_singular_point(m, np.array([0.3, 0.2, 0.4, 0.1]), 0)


def test_stalled_newton_run_stops_at_once(monkeypatch):
    # The scan's first rank-0 candidate on canonical:1,0,1,0: the Newton step
    # leaves z unchanged, so every later iterate would repeat it.
    # Refinement solves through bifurcation._lstsq, one stacked call per round.
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    solves = []
    lstsq = bifurcation._lstsq
    monkeypatch.setattr(bifurcation, "_lstsq", lambda A, b: solves.append(len(A)) or lstsq(A, b))
    with pytest.raises(RefineDivergence, match="stalled"):
        refine_singular_point(m, np.array([-1.0, -1.0, -1.0, -1.0]), 0, max_iter=30)
    assert 1 <= len(solves) <= 2


def test_refine_divergence_for_regular_model():
    from intsing.expr import parse
    from intsing.phasespace import IntegrableModel, PoissonStructure

    st = PoissonStructure.canonical_chart([("x", "y")])
    m = IntegrableModel(st, [parse("x", ("x", "y")), parse("y", ("x", "y"))])
    with pytest.raises(TraceError):
        refine_singular_point(m, np.array([0.2, 0.4]), 1)


def test_trace_hyperbolic_line():
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4, resolution=5)
    d = trace_diagram(m, seeds, TraceParams(step=0.1, max_steps=60, value_box=(-1.5, 1.5)))
    assert len(d.arcs) == 1
    arc = d.arcs[0]
    assert arc.label == "hyperbolic-family"
    vals = np.array(arc.values)
    assert np.abs(vals[:, 1]).max() <= 1e-9
    assert vals[:, 0].min() < -1.0 and vals[:, 0].max() > 1.0


def test_trace_elliptic_ray_on_image_boundary():
    m = build_canonical(CanonicalSpec(1, 1, 0, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4, resolution=5)
    d = trace_diagram(m, seeds, TraceParams(step=0.1, max_steps=60, value_box=(-1.5, 1.5)))
    assert len(d.arcs) == 1
    assert d.arcs[0].label == "elliptic-family"
    vals = np.array(d.arcs[0].values)
    assert np.abs(vals[:, 1]).max() <= 1e-9  # h2 = 0 on the ray
    # h2 >= 0 on the momentum image: sampled regular points stay above
    rng = np.random.default_rng(0)
    samples = rng.uniform(-1, 1, size=(200, 4))
    h2 = np.array([m.components[1].evaluate(p) for p in samples])
    assert h2.min() >= 0.0


def test_arc_labels_cross_check_reduced_type():
    # independent oracle: a 2x2 Hamiltonian block is elliptic iff the
    # determinant of the reduced operator is positive (eigenvalues +-i*b),
    # hyperbolic iff negative (+-a)
    from intsing.classify import reduce_at

    m = build_kovalevskaya(0.5)
    seeds = scan_singular_points(m, SCAN_BOX, resolution=6)
    d = trace_diagram(
        m, seeds, TraceParams(step=0.12, max_steps=80, value_box=(-6, 8), phase_bound=12.0)
    )
    checked = 0
    for arc in d.arcs:
        if arc.label == "mixed/unknown":
            continue
        mid = arc.phase_samples[len(arc.phase_samples) // 2]
        L = reduce_at(m, mid)
        w = williamson_type_for(L)
        det = float(np.linalg.det(sum(c * M for c, M in zip(w.coefficients, L.matrices))))
        if arc.label == "elliptic-family":
            assert w.triple == (1, 0, 0) and det > 0
        else:
            assert w.triple == (0, 1, 0) and det < 0
        checked += 1
    assert checked >= 2


def williamson_type_for(L):
    from intsing.classify import williamson_type

    w = williamson_type(L)
    assert hasattr(w, "triple")
    return w


def test_arc_points_have_corank_one():
    m = build_kovalevskaya(0.5)
    fp, _ = involution_fixed_points(0.5, certify=False)
    seeds = seed_arcs_near_vertex(m, fp, delta=1e-2)
    d = trace_diagram(m, seeds[:2], TraceParams(step=0.1, max_steps=40, value_box=(-6, 8), phase_bound=12.0))
    assert d.arcs
    for arc in d.arcs:
        picks = np.linspace(1, len(arc.phase_samples) - 2, 4, dtype=int)
        for i in picks:
            assert rank_at(m, arc.phase_samples[i]) == 1


def test_diagram_vertices_are_rank0():
    m = build_kovalevskaya(0.5)
    seeds = scan_singular_points(m, SCAN_BOX, resolution=6)
    d = trace_diagram(m, seeds, TraceParams(step=0.12, max_steps=60, value_box=(-6, 8), phase_bound=12.0))
    for v in d.vertices:
        assert rank_at(m, v.point) == 0


def test_diagram_invariant_under_symplectic_disguise():
    spec = CanonicalSpec(1, 0, 1, 0)
    m = build_canonical(spec)
    params = TraceParams(step=0.1, max_steps=60, value_box=(-1.2, 1.2))
    seeds = scan_singular_points(m, [(-1, 1)] * 4, resolution=5)
    base = trace_diagram(m, seeds, params)

    dres = randomized_disguise(m, seed=4, mix_components=False, translate_regular=False, shears=3)
    box = [(-1.5, 1.5)] * 4
    seeds2 = scan_singular_points(dres.model, box, resolution=5)
    other = trace_diagram(dres.model, seeds2, params)

    a = base.all_arc_values()
    b = other.all_arc_values()
    assert len(a) and len(b)
    # same value set within a continuation step
    for v in b[:: max(1, len(b) // 25)]:
        assert np.min(np.linalg.norm(a - v, axis=1)) <= 0.15


def test_export_empty_diagram_svg(tmp_path):
    d = BifurcationDiagram([], [], [])
    path = tmp_path / "empty.svg"
    export_diagram(d, "svg", str(path))
    text = path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "<polyline" not in text


def test_export_single_arc_svg_and_csv(tmp_path):
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    seeds = scan_singular_points(m, [(-1, 1)] * 4, resolution=5)
    d = trace_diagram(m, seeds, TraceParams(step=0.1, max_steps=40, value_box=(-1.2, 1.2)))

    svg = tmp_path / "one.svg"
    d.cusp_candidates = [d.arcs[0].values[1]]
    export_diagram(d, "svg", str(svg))
    assert svg.read_text().count("<polyline") == 1
    assert svg.read_text().count('<circle class="cusp"') == 1

    csv_path = tmp_path / "one.csv"
    export_diagram(d, "csv", str(csv_path))
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arc_id", "h", "k"]
    assert len(rows) == 1 + sum(len(a.values) for a in d.arcs)

    json_path = tmp_path / "one.json"
    export_diagram(d, "json", str(json_path))
    data = json.loads(json_path.read_text())
    assert set(data) == {"arcs", "vertices", "cusp_candidates"}
    assert data["arcs"][0]["label"] == "hyperbolic-family"


def test_csv_has_one_column_per_component(tmp_path):
    values = [np.array([0.5, -1.0, 2.0, 1e-33]), np.array([0.25, 3.0, -2.0, 4.0])]
    d = BifurcationDiagram([Arc(0, values, [np.zeros(8)] * 2), Arc(1, values[:1], [np.zeros(8)])], [], [])
    path = tmp_path / "four.csv"
    export_diagram(d, "csv", str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arc_id", "f1", "f2", "f3", "f4"]
    points = [(0, values[0]), (0, values[1]), (1, values[0])]
    assert rows[1:] == [[str(i)] + [repr(float(x)) for x in v] for i, v in points]


def _arc_duplicates_reference(arc_vals, existing, radius) -> bool:
    """The per-point loop: an arc is a duplicate when 90 % of its values lie
    within radius of one existing arc's polyline, as the goldens' coverage
    check measures it (a one-point arc is one segment of length 0)."""
    for other in existing:
        poly = np.array(other.values)
        poly = np.vstack([poly, poly[-1:]]) if len(poly) == 1 else poly
        close = sum(goldens._distances(np.array([v]), poly)[0] <= radius for v in arc_vals)
        if close >= 0.9 * len(arc_vals):
            return True
    return False


@st.composite
def dedup_cases(draw):
    """Kept arcs on a quarter grid, and an arc whose values are copies of one
    kept arc's values moved by exactly 0 or radius along an axis (close) or
    by 100 (far), with the close count at or next to the 90 % threshold."""
    width = draw(st.integers(1, 3))
    radius = draw(st.sampled_from([0.25, 0.5, 1.0]))
    point = st.lists(st.integers(-8, 8), min_size=width, max_size=width).map(lambda c: np.array(c) / 4)
    existing = [Arc(i, draw(st.lists(point, min_size=1, max_size=6)), []) for i in range(draw(st.integers(0, 3)))]
    n = draw(st.sampled_from([1, 2, 9, 10, 11, 20, 21]))  # 0.9 n is whole at 10 and 20
    if not existing:
        return [draw(point) for _ in range(n)], existing, radius
    target = draw(st.sampled_from(existing)).values
    threshold = math.ceil(0.9 * n)
    close = draw(st.sampled_from([threshold - 1, threshold, threshold, n]) | st.integers(0, n))
    arc = []
    for k in range(n):
        shift = np.zeros(width)
        axis = draw(st.integers(0, width - 1))
        shift[axis] = draw(st.sampled_from([0.0, radius, -radius])) if k < close else 100.0
        arc.append(draw(st.sampled_from(target)) + shift)
    return draw(st.permutations(arc)), existing, radius


@given(dedup_cases())
def test_arc_duplicates_matches_per_point_loop(case):
    arc_vals, existing, radius = case
    assert bifurcation._arc_duplicates(arc_vals, existing, radius) == _arc_duplicates_reference(
        arc_vals, existing, radius
    )


def test_export_kovalevskaya_g0_vertices(tmp_path):
    from intsing.kovalevskaya import kovalevskaya_diagram

    d = kovalevskaya_diagram(
        0.0,
        resolution=5,
        trace_params=TraceParams(step=0.12, max_steps=80, value_box=(-6, 8), phase_bound=12.0),
    )
    path = tmp_path / "kov0.json"
    export_diagram(d, "json", str(path))
    data = json.loads(path.read_text())
    vertex_vals = [tuple(np.round(v["value"], 6)) for v in data["vertices"]]
    assert (1.0, 1.0) in vertex_vals
    assert (-1.0, 1.0) in vertex_vals


def test_unknown_export_format():
    with pytest.raises(ValueError, match="unknown format"):
        export_diagram(BifurcationDiagram([], [], []), "pdf", "/tmp/x.pdf")


# Stacked kernels against the one-point code they replaced: every row of a
# stack must have the bits of the public per-matrix numpy calls made one record
# at a time, whatever the stack's size (m = 1 included) and wherever a row is
# rank-deficient or refused.


def _one_point_rank1_residual(a, z):
    model, F, C = a.model, a.jets, a.cjets
    N, n, nc = model.dim, model.n, len(C.value)
    v, mu = z[N : N + n], z[N + n :]
    grad_rows, hess_sum = np.zeros(N), np.zeros((N, N))
    for c, S in ((v, F), (mu, C)):
        for ci, g, h in zip(c, S.gradient, S.hessian):
            grad_rows += ci * g
            hess_sum += ci * h
    res = np.concatenate([grad_rows, [c - l for c, l in zip(C.value, model.leaf_values)], [v @ v - 1.0]])
    J = np.zeros((N + nc + 1, N + n + nc))
    J[:N, :N] = hess_sum
    for i, g in enumerate(F.gradient):
        J[:N, N + i] = g
    for i, g in enumerate(C.gradient):
        J[:N, N + n + i] = g
        J[N + i, :N] = g
    J[N + nc, N : N + n] = 2.0 * v
    return res, J


def _one_point_rank0_residual(a, z):
    model, F, C = a.model, a.jets, a.cjets
    N, n, nc = model.dim, model.n, len(C.value)
    mus = z[N:].reshape(n, nc)
    rows, J = [], np.zeros((n * N + nc, N + n * nc))
    for i, (g, h) in enumerate(zip(F.gradient, F.hessian)):
        g, H = g.copy(), h.copy()
        for k, (cg, ch) in enumerate(zip(C.gradient, C.hessian)):
            g += mus[i, k] * cg
            H += mus[i, k] * ch
            J[i * N : (i + 1) * N, N + i * nc + k] = cg
        rows.append(g)
        J[i * N : (i + 1) * N, :N] = H
    for k, cg in enumerate(C.gradient):
        J[n * N + k, :N] = cg
    return np.concatenate(rows + [[c - l for c, l in zip(C.value, model.leaf_values)]]), J


def _one_point_null_space(J, rel=1e-7):
    _, sv, Vt = np.linalg.svd(J)
    cutoff = rel * max(float(sv[0]), 1.0)
    small = [i for i in range(J.shape[1]) if i >= len(sv) or sv[i] <= cutoff] or [J.shape[1] - 1]
    return Vt[small].T


def _one_point_phase_rows(a):
    """The Hamiltonian fields of the combinations U[:, c] but the last, Gram-Schmidt orthonormalised."""
    rows = []
    for c in range(a.U.shape[1] - 1):
        x = np.vecdot(a.frame.bivector, sum(u * g for u, g in zip(a.U[:, c], a.jets.gradient)))
        for q in rows:
            x = x - np.vecdot(q, x) * q
        rows.append(x / np.linalg.norm(x))
    return np.array(rows)


def _one_point_corrector_system(r, J1, z, B, zp, Q, x):
    """The rank-1 residual and Jacobian with the gradient rows' component along
    each phase row q replaced by q.(point - x), and the border rows B appended."""
    N = len(x)
    grad, Jgrad = r[:N].copy(), J1[:N].copy()
    for q in Q:
        grad += q * (np.vecdot(q, z[:N] - x) - np.vecdot(q, grad))
        row = -np.vecdot(Jgrad, q[:, None], axis=0)
        row[:N] += q
        Jgrad += q[:, None] * row[None, :]
    return np.concatenate([grad, r[N:], np.vecdot(B, z - zp)]), np.vstack([Jgrad, J1[N:], B])


def _one_point_leaf_frame(model, a, tol):
    Q = a.cjets.gradient
    _, sv, Vt = np.linalg.svd(Q)
    if sv[-1] <= tol * max(sv[0], 1.0):
        return "dependent"
    B = Vt[len(Q) :].T
    Pi = model.structure.bivector_at(a.point, model.params)
    PiB = B.T @ Pi @ B
    sv = np.linalg.svd(PiB, compute_uv=False)
    if sv[-1] <= tol * max(sv[0], 1.0):
        return "degenerate"
    return B, np.linalg.inv(PiB), Pi, np.linalg.svd(a.jets.gradient @ B)


def _one_point_leaf_projection(model, a):
    """Gauss-Newton onto the Casimir levels from record a, one point and one
    np.linalg.lstsq call at a time: (point, Casimir jets) of the last iterate, or
    the RefineDivergence that ends it."""
    x, C = a.point, a.cjets
    for it in range(30):
        if it:
            C = model.casimir_jets(x)
        res = C.value - np.asarray(model.leaf_values)
        if np.max(np.abs(res)) < 1e-12:
            return a if it == 0 else (x, C)
        x = x + np.linalg.lstsq(C.gradient, -res, rcond=None)[0]
        if not np.all(np.isfinite(x)):
            return RefineDivergence("leaf projection blew up")
    return RefineDivergence("leaf projection did not converge")


def _leaf_answer(answer):
    """A leaf projection's answer as bytes: its point and Casimir jets, or its exception's type and message."""
    if isinstance(answer, Exception):
        return type(answer).__name__, str(answer)
    x, C = (answer.point, answer.cjets) if isinstance(answer, PointAnalysis) else answer
    return _bits([x, list(C)])


def _bits(x):
    """Bytes of every array in x (arrays, floats, None, tuples and lists of them)."""
    if isinstance(x, (tuple, list)):
        return [_bits(y) for y in x]
    return None if x is None else np.asarray(x, dtype=float).tobytes()


KERNEL_MODEL = build_kovalevskaya(0.5)
LEAF_POINT = np.array([0.0, 0.0, 1.0, 0.3, -0.2, 0.5])  # R.R = 1, S.R = 0.5: on KERNEL_MODEL's leaf
FAMILY_SEEDS = {  # near a rank-1 point of KERNEL_MODEL on a family of each type
    "hyperbolic-family": [0.936, 0.353, 0.001, 0.717, -0.484, 0.0],
    "elliptic-family": [0.126, 0.725, 0.677, 1.434, 0.0, 0.472],
}


@functools.cache
def _family_zs() -> list:
    """(label, z) per family seed: z = (point, v, mu) at the rank-1 point refined from it."""
    out = []
    for label, seed in FAMILY_SEEDS.items():
        a = refine_singular_point(KERNEL_MODEL, np.array(seed), 1)
        ((v, mu),) = bifurcation._kernel_vectors(KERNEL_MODEL, [a], [None])
        out.append((label, np.concatenate([a.point, v, mu])))
    return out


@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.sampled_from(["none", "tangent", "casimirs", "zero", "family"]))
def test_stacked_kernels_are_the_per_matrix_calls(m, seed, special):
    """special: "tangent" makes row 0's 10x10 corrector matrix singular (its
    border row is its first Casimir row); "casimirs" makes row 0's Casimir
    differentials dependent (its point is refused); "zero" zeroes row 0's jets
    (its orbit field vanishes); "family" puts the rows at rank-1 points of a
    hyperbolic and an elliptic family in turn, with their own jets, where
    the family label is not None."""
    model, rng = KERNEL_MODEL, np.random.default_rng(seed)
    N, n, nc = model.dim, model.n, 2
    records = [PointAnalysis(model, p) for p in rng.uniform(-1.5, 1.5, size=(m, N))]
    for name, k in (("jets", n), ("cjets", nc)):
        H = rng.normal(size=(m, k, N, N))
        stack = JetStack(rng.normal(size=(m, k)), rng.normal(size=(m, k, N)), H + H.swapaxes(-1, -2))
        if special == "zero":
            for part in stack:
                part[0] = 0.0
        if special == "casimirs" and name == "cjets":
            stack.gradient[0, 1] = 2.0 * stack.gradient[0, 0]
        for a, row in zip(records, zip(*stack)):
            setattr(a, name, JetStack(*row))
    Z = rng.normal(size=(m, N + n + nc))
    Z[:, N : N + n] /= np.linalg.norm(Z[:, N : N + n], axis=1, keepdims=True) if special != "zero" else 1.0
    Z[:, :N] = [a.point for a in records]
    if special == "family":
        labels, zs = zip(*(_family_zs()[k % 2] for k in range(m)))
        records, Z = [PointAnalysis(model, z[:N]) for z in zs], np.array(zs)
    one = [_one_point_rank1_residual(a, z) for a, z in zip(records, Z)]
    tangents = rng.normal(size=(m, N + n + nc))
    if special == "tangent":
        tangents[0] = one[0][1][N]
    preds = Z + 0.01 * tangents
    Q = rng.normal(size=(m, n - 1, N))
    Q /= np.linalg.norm(Q, axis=2, keepdims=True)
    X = rng.uniform(-1.5, 1.5, size=(m, N))

    # the rank-1 and rank-0 systems, the predictor's null space with the phase rows appended
    res, J = bifurcation._rank1_systems(model, records, Z)
    assert _bits(list(res)) == _bits([r for r, _ in one]) and _bits(list(J)) == _bits([J1 for _, J1 in one])
    Z0 = rng.normal(size=(m, N + n * nc))
    res0, J0 = bifurcation._rank0_systems(model, records, Z0)
    assert _bits([list(res0), list(J0)]) == _bits(list(map(list, zip(*map(_one_point_rank0_residual, records, Z0)))))
    spaces = bifurcation._apply(model, bifurcation._null_spaces, records, list(J))
    for a, (_, J1), space in zip(records, one, spaces):
        try:
            q = _one_point_phase_rows(a)
        except bifurcation.ClassifyError as refused:  # "casimirs" and "zero" refuse row 0's point
            assert isinstance(space, bifurcation.ClassifyError) and str(space) == str(refused)
            continue
        if not np.all(np.isfinite(q)):
            assert isinstance(space, TraceError)
            continue
        T = _one_point_null_space(np.vstack([J1, np.pad(q, ((0, 0), (0, n + nc)))]))
        assert _bits([space[0], space[3]]) == _bits([T, q])
        # the sign of det A, A the corrector's matrix with T's columns as border rows
        A = _one_point_corrector_system(np.zeros(len(J1)), J1, np.zeros(N + n + nc), T.T, np.zeros(N + n + nc), q, np.zeros(N))[1]
        assert space[5] == (np.linalg.slogdet(A)[0] if T.shape[1] == n - 1 else 0.0)
    # the family label: each row's quotient W^T Pi L W and label are those of its one-row call
    ok = [k for k, space in enumerate(spaces) if not isinstance(space, Exception)]
    if ok:
        quotients = bifurcation._quotients(model, [records[k] for k in ok], J[ok], np.array([spaces[k][3] for k in ok]))
        for k, A in zip(ok, quotients):
            assert _bits(A) == _bits(bifurcation._quotients(model, [records[k]], J[k : k + 1], spaces[k][3][None])[0])
    for a, z, space in zip(records, Z, spaces):
        J1 = bifurcation._rank1_systems(model, [a], z[None])[1]
        (alone,) = bifurcation._apply(model, bifurcation._null_spaces, [a], list(J1))
        if isinstance(space, Exception):
            assert type(alone) is type(space) and str(alone) == str(space)
        else:
            assert alone[4] == space[4] and alone[5] == space[5]
    assert special != "family" or [space[4] for space in spaces] == list(labels)

    # the corrector's square 10x10 solve, one np.linalg.solve per matrix, and refinement's 9x10 least squares
    systems = [_one_point_corrector_system(r, J1, *row) for (r, J1), row in zip(one, zip(Z, tangents[:, None], preds, Q, X))]
    got = bifurcation._corrector_systems(res, J, Z, tangents[:, None], preds, Q, X)
    assert _bits(list(map(list, got))) == _bits(list(map(list, zip(*systems))))
    want = []
    for r, A in systems:
        if np.linalg.norm(r) <= bifurcation.CORRECTOR_TOL:
            want.append(None)
        else:
            try:
                want.append(np.linalg.solve(A, -r))
            except np.linalg.LinAlgError:
                want.append("singular")
    got = bifurcation._corrector_steps(model, records, list(zip(Z, tangents[:, None], preds, Q, X)))
    assert [g[0] for g in got] == records
    for g, w in zip(got, want):
        if isinstance(w, str):
            assert not np.all(np.isfinite(g[1]))  # the row's corrector attempt fails; the other rows are solved
        else:
            assert _bits(g[1]) == _bits(w)
    # row 0's singular matrix: LU finds an exact zero pivot (NaN) or a step that leaves any corrector radius
    assert special != "tangent" or not np.linalg.norm(got[0][1]) < 1e8
    want = []
    for r, J1 in one:
        norm = float(np.linalg.norm(r))  # a "family" row has converged: no step
        want.append((norm, np.linalg.lstsq(J1, -r, rcond=None)[0] if norm > bifurcation.REFINE_TOL else None))
    got = bifurcation._RANK1_STEPS(model, records, list(Z))
    assert _bits([g[1:] for g in got]) == _bits(want)

    # the leaf projection's Gauss-Newton loop, from the records and from the
    # origin (zero Casimir gradients: it never moves) and a point on its leaf;
    # then the leaf frame and the SVD of dF
    starts = records + [PointAnalysis(model, np.zeros(N)), PointAnalysis(model, LEAF_POINT)]
    got = bifurcation._leaf_points(model, starts, [None] * len(starts))
    assert [_leaf_answer(g) for g in got] == [_leaf_answer(_one_point_leaf_projection(model, a)) for a in starts]
    assert got[-2].args == ("leaf projection did not converge",) and got[-1] is starts[-1]
    analysed = bifurcation._analyses(model, records, [None] * m)
    for a, got in zip(records, analysed):
        want = _one_point_leaf_frame(model, a, a.tol)
        if isinstance(want, str):
            assert isinstance(got, bifurcation.ClassifyError) and want in str(got)
        else:
            f = got.frame
            assert _bits([f.basis, f.omega, f.bivector, list(got.svd)]) == _bits([*want[:3], list(want[3])])
    ok = [a for a in analysed if isinstance(a, PointAnalysis)]
    want = []
    for a in ok:
        v = a.U[:, -1]
        grad = sum(vi * g for vi, g in zip(v, a.jets.gradient))
        want.append((v, np.linalg.lstsq(a.cjets.gradient.T, -grad, rcond=None)[0]))
    assert _bits(bifurcation._kernel_vectors(model, ok, [None] * len(ok)) if ok else []) == _bits(want)
    want = [
        np.concatenate([a.point] + [np.linalg.lstsq(a.cjets.gradient.T, -g, rcond=None)[0] for g in a.jets.gradient])
        for a in records
    ]
    assert _bits([z for _, z in bifurcation._rank0_starts(model, records, [None] * m)]) == _bits(want)


@given(
    st.lists(
        st.one_of(
            st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6).map(np.array),
            # the origin never moves; R = 0 makes the Casimir differentials dependent
            st.sampled_from([np.zeros(6), LEAF_POINT, np.array([0.0, 0.0, 0.0, 0.3, 0.2, 0.1])]),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_leaf_points_rows_are_the_one_row_calls(points):
    """A stack of points gives each row the answer of its one-row _leaf_points
    call: the same point and Casimir jets bits, its own record on its leaf, or
    the same exception (a RefineDivergence, or the overflow warning that -W error
    raises where an iterate's jets overflow, which makes _apply redo the stack a
    row at a time)."""
    model = KERNEL_MODEL
    starts = [PointAnalysis(model, p) for p in points]
    got = bifurcation._apply(model, bifurcation._leaf_points, starts, [None] * len(starts))
    for a, g in zip(starts, got):
        b = PointAnalysis(model, a.point)
        (one,) = bifurcation._apply(model, bifurcation._leaf_points, [b], [None])
        assert _leaf_answer(g) == _leaf_answer(one) and (g is a) == (one is b)
