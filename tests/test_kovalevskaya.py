import numpy as np
import pytest

from intsing.classify import is_nondegenerate, rank_at
from intsing.expr import parse
from intsing.kovalevskaya import (
    COORDS,
    RegimeBoundaryError,
    build_kovalevskaya,
    check_involution_invariance,
    classify_vertices,
    involution,
    involution_fixed_points,
    regime,
    vertex_spectral_gap,
    vertex_values,
)
from intsing.phasespace import check_commutation

import goldens


def test_bracket_convention():
    m = build_kovalevskaya(0.5)
    s1 = parse("S1", COORDS)
    r2 = parse("R2", COORDS)
    assert m.structure.bracket(s1, r2).normalized_equal(parse("R3", COORDS))


def test_commutation_and_jacobi():
    m = build_kovalevskaya(0.7)
    assert check_commutation(m, samples=200, tol=1e-9, box=2.0).passed
    assert m.structure.jacobi_residual(samples=1000, box=2.0).max_residual <= 1e-10


def test_fixed_points_g0():
    p, q = involution_fixed_points(0.0)
    assert np.allclose(p, [1, 0, 0, 0, 0, 0])
    assert np.allclose(q, [-1, 0, 0, 0, 0, 0])


def test_fixed_points_certified_rank0():
    for g in [0.0, 0.3, 0.5, 1.2, 1.3, 1.6, 2.5]:
        m = build_kovalevskaya(g)
        for p in involution_fixed_points(g):
            assert rank_at(m, p) == 0


def test_vertex_values_closed_form():
    (h1, k1), (h2, k2) = vertex_values(0.5)
    assert abs(h1 - 1.125) <= 1e-12
    assert abs(k1 - 0.765625) <= 1e-12
    assert abs(h2 - (-0.875)) <= 1e-12
    assert abs(k2 - 1.265625) <= 1e-12


def test_vertex_values_match_model_evaluation():
    for g in [0.0, 0.5, 1.3, 2.5]:
        m = build_kovalevskaya(g)
        for p, (h, k) in zip(involution_fixed_points(g, certify=False), vertex_values(g)):
            assert abs(m.components[0].evaluate(p) - h) <= 1e-12
            assert abs(m.components[1].evaluate(p) - k) <= 1e-12


def test_involution_invariance_structural():
    assert check_involution_invariance()


def test_involution_preserves_leaf():
    m = build_kovalevskaya(0.8)
    rng = np.random.default_rng(2)
    for _ in range(10):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        w = rng.normal(size=3)
        w -= w.dot(r) * r
        p = np.concatenate([r, 0.8 * r + w])
        assert np.max(np.abs(m.casimir_jets(p).value - m.leaf_values)) <= 1e-9
        assert np.max(np.abs(m.casimir_jets(involution(p)).value - m.leaf_values)) <= 1e-9


@pytest.mark.parametrize(
    "g,expected",
    [
        (0.5, [(0, 2, 0), (2, 0, 0)]),
        (1.2, [(0, 2, 0), (2, 0, 0)]),
        (1.6, [(1, 1, 0), (2, 0, 0)]),
    ],
)
def test_classify_vertices(g, expected):
    rep = classify_vertices(g)
    assert rep.matches_expected
    assert sorted(tuple(e["type"]) for e in rep.vertices) == sorted(expected)


def test_classify_vertices_labels():
    rep = classify_vertices(0.5)
    labels = {e["label"] for e in rep.vertices}
    assert labels == {"hyperbolic-hyperbolic", "elliptic-elliptic"}


def test_no_type_assertion_at_thresholds():
    from intsing.kovalevskaya import expected_vertex_types

    assert expected_vertex_types(1.0) is None
    assert expected_vertex_types(-1.0) is None
    rep = classify_vertices(1.0)  # must not raise at the boundary
    assert rep.expected is None


def test_regime_labels():
    assert regime(0.0) == "a"
    assert regime(0.5) == "b"
    assert regime(1.2) == "c"  # g^2 = 1.44 < 8/(3 sqrt 3)
    assert regime(1.3) == "d"  # g^2 = 1.69
    assert regime(1.6) == "e"
    assert regime(-1.6) == "e"


def test_regime_boundary_errors():
    for g in [1.0, np.sqrt(2.0)]:
        if g * g in (1.0, 2.0):
            with pytest.raises(RegimeBoundaryError):
                regime(g)
    with pytest.raises(RegimeBoundaryError):
        regime(-1.0)


def test_spectral_gap_collapses_towards_threshold():
    gaps = [vertex_spectral_gap(g) for g in (0.9, 0.99, 0.999, 0.9999)]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[3] < 0.01 * gaps[0]


def test_degenerate_at_threshold_with_coarse_tol():
    # at g^2 = 1 the simple-spectrum gap sits at the numerical noise floor;
    # with a tolerance above that floor the verdict is degenerate
    m = build_kovalevskaya(1.0)
    p_plus, _ = involution_fixed_points(1.0, certify=False)
    v = is_nondegenerate(m, p_plus, tol=1e-6)
    assert v.verdict in ("degenerate", "inconclusive")


def test_diagram_contains_vertices():
    from intsing.bifurcation import diagram_to_dict

    d = goldens.coarse_kovalevskaya_diagram()
    goldens.assert_matches(diagram_to_dict(d), "kovalevskaya_diagram_coarse")
    pts = d.all_arc_values()
    for target in vertex_values(0.5):
        assert np.min(np.linalg.norm(pts - np.array(target), axis=1)) <= 0.1
    labels = {a.label for a in d.arcs}
    assert "elliptic-family" in labels
    assert "hyperbolic-family" in labels
    triples = {v.williamson for v in d.vertices}
    assert triples == {(0, 2, 0), (2, 0, 0)}
