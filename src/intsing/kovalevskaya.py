"""The Kovalevskaya top on e(3)*: integrals, fixed points, vertex types.

The system lives on R^6 with the Lie-Poisson bracket of e(3)* and

    H  = (S1^2 + S2^2 + 2 S3^2)/2 + R1
    K  = (S1^2/2 - S2^2/2 - R1)^2 + (S1 S2 - R2)^2
    f1 = R1^2 + R2^2 + R3^2          (Casimir, leaf value 1)
    f2 = S1 R1 + S2 R2 + S3 R3       (Casimir, leaf value g)

restricted to the symplectic leaf {f1 = 1, f2 = g}.  The canonical
involution (R1, -R2, -R3, S1, -S2, -S3) fixes exactly two leaf points.
Both are rank-0 vertices of the bifurcation diagram, and their types
switch regime at g^2 = 1, 8/(3 sqrt 3) and 2.  They need not be the only
rank-0 points: at g = 1.6 a resolution-9 scan also finds a pair that the
involution swaps, both of type (2, 0, 0), at (H, K) = (2.6619, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bifurcation import BifurcationDiagram, TraceParams, diagram_to_dict
from .bifurcation import scan_singular_points, seed_arcs_near_vertex, trace_diagram
from .classify import (
    DEFAULT_ATTEMPTS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    ClassifyError,
    PointAnalysis,
    analyze_point,
    is_nondegenerate,
    linearize,
    rank_at,
    williamson_type,
)
from .expr import parse
from .phasespace import IntegrableModel, PoissonStructure

COORDS = ("R1", "R2", "R3", "S1", "S2", "S3")

H_SRC = "(1/2)*(S1^2+S2^2+2*S3^2)+R1"
K_SRC = "((1/2)*S1^2-(1/2)*S2^2-R1)^2+(S1*S2-R2)^2"

REGIME_SPLIT = 8.0 / (3.0 * np.sqrt(3.0))  # ~ 1.539600717839002
# the diagram's scan box, (lo, hi) for R1..R3 then S1..S3; the CLI's default box for this model too
SCAN_BOX = ((-1.2, 1.2),) * 3 + ((-4.0, 4.0),) * 3
# the diagram's continuation recipe; its scan and its vertices' Williamson draws
# use seed 0 (an arc label is one 2x2 quotient's type, which no draw changes)
DIAGRAM_PARAMS = TraceParams(step=0.08, max_steps=250, value_box=(-6.0, 8.0), phase_bound=12.0)


class RegimeBoundaryError(ValueError):
    pass


def build_kovalevskaya(g: float) -> IntegrableModel:
    """Kovalevskaya model restricted to the leaf {f1 = 1, f2 = g}."""
    st = PoissonStructure.lie_poisson_e3()
    h = parse(H_SRC, COORDS)
    k = parse(K_SRC, COORDS)
    return IntegrableModel(
        st, [h, k], leaf_values=[1.0, float(g)], params={"g": float(g)}, name="kovalevskaya"
    )


def involution(point: np.ndarray) -> np.ndarray:
    """The canonical involution (R1,-R2,-R3,S1,-S2,-S3)."""
    flip = np.array([1.0, -1.0, -1.0, 1.0, -1.0, -1.0])
    return np.asarray(point, dtype=float) * flip


def involution_fixed_points(g: float, certify: bool = True, tol: float = DEFAULT_TOL):
    """The two leaf points fixed by the involution, certified rank 0.

    Fixed points satisfy R2 = R3 = S2 = S3 = 0 with R1^2 = 1 and
    S1 R1 = g, i.e. (1,0,0,g,0,0) and (-1,0,0,-g,0,0).
    """
    p_plus = np.array([1.0, 0.0, 0.0, float(g), 0.0, 0.0])
    p_minus = np.array([-1.0, 0.0, 0.0, -float(g), 0.0, 0.0])
    if certify:
        model = build_kovalevskaya(g)
        for p in (p_plus, p_minus):
            r = rank_at(model, p, tol)
            if r != 0:
                raise ClassifyError(f"fixed point {p} failed rank-0 certification (rank {r})")
    return p_plus, p_minus


def vertex_values(g: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(h, k) at the two fixed points: (+-1 + g^2/2, (1 -+ g^2/2)^2)."""
    gg = float(g) * float(g)
    return (1.0 + gg / 2.0, (1.0 - gg / 2.0) ** 2), (-1.0 + gg / 2.0, (1.0 + gg / 2.0) ** 2)


def regime(g: float) -> str:
    """Regime label from thresholds {0, 1, 8/(3 sqrt 3), 2} applied to g^2."""
    gg = float(g) * float(g)
    if gg == 0.0:
        return "a"
    for threshold in (1.0, REGIME_SPLIT, 2.0):
        if gg == threshold:
            raise RegimeBoundaryError(f"g^2 = {threshold} is a regime boundary")
    if gg < 1.0:
        return "b"
    if gg < REGIME_SPLIT:
        return "c"
    if gg < 2.0:
        return "d"
    return "e"


@dataclass
class VertexReport:
    g: float
    regime: str | None
    vertices: list[dict]  # as `report` prints them
    expected: list[tuple[int, int, int]] | None
    matches_expected: bool


def expected_vertex_types(g: float) -> list[tuple[int, int, int]] | None:
    """Multiset of vertex types away from thresholds; None at g^2 in {1, 2}."""
    gg = float(g) * float(g)
    if gg in (1.0, 2.0):
        return None
    if gg < 2.0:
        return sorted([(0, 2, 0), (2, 0, 0)])
    return sorted([(1, 1, 0), (2, 0, 0)])


def classify_vertices(
    g: float,
    tol: float = DEFAULT_TOL,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
) -> VertexReport:
    """Classify both involution fixed points; `matches_expected` says whether
    their types are the regime's.  Each vertex is the dict `report` prints; an
    unclassified one has type None and its best spectral gap."""
    model = build_kovalevskaya(g)
    try:
        reg = regime(g)
    except RegimeBoundaryError:
        reg = None
    entries = []
    for p in involution_fixed_points(g, certify=False):
        a = analyze_point(model, p, tol)
        verdict = is_nondegenerate(model, a, tol=tol, attempts=attempts, seed=seed)
        w = verdict.williamson
        entries.append(
            {
                "point": [float(x) for x in p],
                "value": [float(x) for x in a.value],
                "rank": a.rank,
                "type": list(w.triple) if w is not None else None,
                "label": w.label() if w is not None else "unclassified",
                "spectral_gap": float(w.gap if w is not None else verdict.diagnostics.get("best_gap", 0.0)),
                "verdict": verdict.verdict,
            }
        )

    expected = expected_vertex_types(g)
    got = sorted(tuple(e["type"]) for e in entries if e["type"] is not None)
    matches = expected is not None and len(got) == 2 and got == expected
    return VertexReport(float(g), reg, entries, expected, matches)


def vertex_spectral_gap(g: float, seed: int = DEFAULT_SEED) -> float:
    """Spectral gap of the seeded type combination at the non-ee vertex.

    Collapses as g^2 approaches the degenerate threshold 1.
    """
    model = build_kovalevskaya(g)
    p_plus, _ = involution_fixed_points(g, certify=False)
    L = linearize(model, p_plus)
    w = williamson_type(L, seed=seed)
    if hasattr(w, "gap"):
        return float(w.gap)
    return float(w.best_gap)


def kovalevskaya_diagram(
    g: float,
    box=SCAN_BOX,
    resolution: int = 7,
    trace_params=None,
    tol: float = DEFAULT_TOL,
):
    """Bifurcation diagram of (H, K) on the leaf, seeded by the involution
    fixed points plus a leaf scan.  The vertex seeds come first: a branch can
    only join a branch earlier in seed order, so vertex-adjacent branches have
    priority and scan branches that retrace them stop as "joined".  The
    diagram's vertices are its rank-0 seeds, the scan's and then the fixed
    points, so each fixed point is a vertex whether or not the scan finds it
    (where it does, the two are one vertex); a branch only marks listed
    vertices, so a rank-0 point that neither gives is not one."""
    model = build_kovalevskaya(g)
    trace_params = trace_params or DIAGRAM_PARAMS
    fixed = involution_fixed_points(g, certify=True, tol=tol)
    vertex_seeds = [s for p in fixed for s in seed_arcs_near_vertex(model, p, delta=1e-2, tol=tol)]
    scan_seeds = scan_singular_points(model, box, resolution=resolution, tol=tol)
    rank0_seeds = [PointAnalysis(model, p, tol) for p in fixed]
    return trace_diagram(model, vertex_seeds + scan_seeds + rank0_seeds, trace_params, tol=tol)


def report(
    g: float,
    tol: float = DEFAULT_TOL,
    attempts: int = DEFAULT_ATTEMPTS,
    seed: int = DEFAULT_SEED,
    diagram: BifurcationDiagram | None = None,
) -> dict:
    """Machine-readable summary: fixed points, types, regime, and the given
    traced diagram when there is one."""
    vr = classify_vertices(g, tol=tol, attempts=attempts, seed=seed)
    out = {
        "g": float(g),
        "seed": seed,
        "tol": tol,
        "regime": vr.regime,
        "vertices": vr.vertices,
        "expected_types": [list(t) for t in vr.expected] if vr.expected else None,
        "matches_expected": vr.matches_expected,
    }
    if diagram is not None:
        out["diagram"] = diagram_to_dict(diagram)
        out["diagram_summary"] = {
            "arcs": len(diagram.arcs),
            "labels": sorted({a.label for a in diagram.arcs}),
            "vertices": len(diagram.vertices),
        }
    return out


def check_involution_invariance() -> bool:
    """H, K, f1, f2 are structurally invariant under the involution."""
    flip = {
        "R1": parse("R1", COORDS),
        "R2": parse("-R2", COORDS),
        "R3": parse("-R3", COORDS),
        "S1": parse("S1", COORDS),
        "S2": parse("-S2", COORDS),
        "S3": parse("-S3", COORDS),
    }
    st = PoissonStructure.lie_poisson_e3()
    fields = [parse(H_SRC, COORDS), parse(K_SRC, COORDS)] + list(st.casimirs)
    return all(f.substitute(flip).normalized_equal(f) for f in fields)
