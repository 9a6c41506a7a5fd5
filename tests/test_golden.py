"""Fresh reports against the goldens captured at the reference commit."""

import pytest

import goldens

# The diagrams are compared inside the tests that trace them anyway: the
# coarse one in test_diagram_contains_vertices, the resolution-6 ones in
# test_criterion_3_vertex_values_on_diagram.
TRACED_ELSEWHERE = {"kovalevskaya_diagram_coarse", "kovalevskaya_diagram_res6_g0", "kovalevskaya_diagram_res6_g0.5"}
# The parse corpus is compared byte for byte in test_expr.
REPORTS = sorted(set(goldens.SOURCES) - TRACED_ELSEWHERE - {"parse_corpus"})


@pytest.mark.parametrize("name", REPORTS)
def test_report_matches_golden(name):
    goldens.assert_matches(goldens.SOURCES[name](), name)


def test_comparator_rules():
    want = {"rank": 1, "ok": True, "label": "x", "xs": [1.0, 0.0], "none": None}
    assert goldens.mismatches({**want, "xs": [1.0 + 1e-12, 1e-11]}, want) == []
    assert goldens.mismatches({**want, "xs": [1.0 + 1e-6, 0.0]}, want)
    assert goldens.mismatches({**want, "rank": 2}, want)
    assert goldens.mismatches({**want, "rank": 1.0}, want)
    assert goldens.mismatches({**want, "ok": 1}, want)
    assert goldens.mismatches({**want, "label": "y"}, want)
    assert goldens.mismatches({**want, "xs": [1.0]}, want)
    assert goldens.mismatches({k: v for k, v in want.items() if k != "none"}, want)


def _diagram(points, label="elliptic-family", vertex=(0.0, 0.0)):
    arc = {"id": 0, "label": label, "points": points, "endpoints": ["cusp", "cusp"], "cusp_candidates": []}
    v = {"point": [1.0, 0.0, 0.0, 0.0], "value": list(vertex), "rank": 0, "williamson": [2, 0, 0]}
    return {"arcs": [arc], "vertices": [v], "cusp_candidates": []}


def test_geometric_comparator_rules():
    step, box = 0.1, (-6.0, 8.0)
    line = [[0.1 * k, 1.0] for k in range(11)]
    want = _diagram(line)
    assert goldens.geometric_mismatches(want, want, step, box) == ([], [])
    # every point within 2 step of a segment, though no point is shared
    problems, added = goldens.geometric_mismatches(_diagram([[0.05 + 0.1 * k, 1.15] for k in range(10)]), want, step, box)
    assert problems == [] and added == []
    assert goldens.geometric_mismatches(_diagram(line, vertex=(0.0, 1e-6)), want, step, box)[0]
    problems, added = goldens.geometric_mismatches(_diagram([[x, y + 3 * step] for x, y in line]), want, step, box)
    assert problems and added
    assert goldens.geometric_mismatches(_diagram(line, label="hyperbolic-family"), want, step, box)[0]
    # an extra stretch of got is listed, not a problem
    problems, added = goldens.geometric_mismatches(_diagram(line + [[1.0, 1.5], [1.0, 2.0]]), want, step, box)
    assert problems == [] and len(added) == 1 and "2 points" in added[0]
    # a want point within 2 step of the value box's edge needs no cover
    edge = _diagram(line + [[1.0, 7.85]])
    assert goldens.geometric_mismatches(_diagram(line), edge, step, box)[0] == []
    assert goldens.geometric_mismatches(_diagram(line), _diagram(line + [[1.0, 7.5]]), step, box)[0]
