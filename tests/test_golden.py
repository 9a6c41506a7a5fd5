"""Fresh reports against the goldens captured at the reference commit."""

import pytest

import goldens

# The diagrams are compared inside the tests that trace them anyway: the
# coarse one in test_diagram_contains_vertices, the resolution-6 ones in
# test_criterion_3_vertex_values_on_diagram.
TRACED_ELSEWHERE = {"kovalevskaya_diagram_coarse", "kovalevskaya_diagram_res6_g0", "kovalevskaya_diagram_res6_g0.5"}
REPORTS = sorted(set(goldens.SOURCES) - TRACED_ELSEWHERE)


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
