"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Criteria:

1. classifier round-trip over all types with n <= 4, 100 disguises each;
2. Kovalevskaya vertex-type table across the g regimes;
3. closed-form vertex values to 1e-12, lying on the traced diagram;
4. {H,K} and Jacobi residuals over 1000 seeded points;
5. 2*pi periodicity of elliptic and focus-angular canonical flows;
6. atom-catalog complexity/connectedness/stability suite;
7. regime thresholds on g^2;
8. byte-identical reports under a fixed seed.
"""

import json
import time

import numpy as np

from intsing.atoms import (
    PAPER_COMPLEXITY_1,
    PAPER_COMPLEXITY_2_FOCUS,
    PAPER_COMPLEXITY_2_SADDLE,
    consistency_suite,
    cross_check_criteria,
    named_product,
    random_product,
    stability_verdict,
)
from intsing.bifurcation import diagram_to_dict
from intsing.canonical import CanonicalSpec, build_canonical, randomized_disguise, verify_periodicity
from intsing.classify import linearize, rank_at, reduce_at, williamson_type
from intsing.cli import main as cli_main
from intsing.kovalevskaya import (
    build_kovalevskaya,
    classify_vertices,
    regime,
    vertex_values,
)
from intsing.phasespace import check_commutation

import goldens


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _all_specs(max_n=4):
    out = []
    for n in range(1, max_n + 1):
        for kf in range(n // 2 + 1):
            rest = n - 2 * kf
            for r in range(rest + 1):
                for ke in range(rest - r + 1):
                    out.append(CanonicalSpec(r, ke, rest - r - ke, kf))
    return out


def test_criterion_1_classifier_round_trip():
    start = time.time()
    failures = []
    total = 0
    for spec in _all_specs(4):
        model = build_canonical(spec)
        for seed in range(100):
            total += 1
            d = randomized_disguise(model, seed=seed)
            r = rank_at(d.model, d.point)
            if r != spec.r:
                failures.append((spec, seed, "rank", r))
                continue
            if r == spec.n:
                continue  # purely regular model: marked point is regular
            L = linearize(d.model, d.point) if r == 0 else reduce_at(d.model, d.point)
            w = williamson_type(L)
            got = w.triple if hasattr(w, "triple") else None
            if got != (spec.k_e, spec.k_h, spec.k_f):
                failures.append((spec, seed, "type", got))
    elapsed = time.time() - start
    _report(
        1,
        "classifier round-trip",
        not failures and elapsed < 60.0,
        f"{total} disguises, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_2_vertex_type_table():
    start = time.time()
    expected_by_regime = {
        0.0: [(0, 2, 0), (2, 0, 0)],
        0.5: [(0, 2, 0), (2, 0, 0)],
        1.2: [(0, 2, 0), (2, 0, 0)],
        1.3: [(0, 2, 0), (2, 0, 0)],
        1.6: [(1, 1, 0), (2, 0, 0)],
        2.5: [(1, 1, 0), (2, 0, 0)],
    }
    bad = []
    for g, want in expected_by_regime.items():
        rep = classify_vertices(g)
        got = sorted(tuple(e["type"]) for e in rep.vertices if e["type"] is not None)
        if got != sorted(want):
            bad.append((g, got))
    elapsed = time.time() - start
    _report(2, "Kovalevskaya vertex types", not bad and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_3_vertex_values_on_diagram():
    closed_form_ok = True
    for g in (0.0, 0.5, 1.2, 1.3, 1.6, 2.5):
        m = build_kovalevskaya(g)
        for p, (h, k) in zip(
            ((1.0, 0, 0, g, 0, 0), (-1.0, 0, 0, -g, 0, 0)), vertex_values(g)
        ):
            pt = np.array(p)
            gg = g * g
            want_h = (1.0 if pt[0] > 0 else -1.0) + gg / 2.0
            want_k = (1.0 - gg / 2.0) ** 2 if pt[0] > 0 else (1.0 + gg / 2.0) ** 2
            if abs(m.components[0].evaluate(pt) - want_h) > 1e-12:
                closed_form_ok = False
            if abs(m.components[1].evaluate(pt) - want_k) > 1e-12:
                closed_form_ok = False

    step = goldens.CRITERION_3_STEP
    on_diagram = True
    dists = []
    for g, name in ((0.0, "kovalevskaya_diagram_res6_g0"), (0.5, "kovalevskaya_diagram_res6_g0.5")):
        d = goldens.criterion_3_kovalevskaya_diagram(g)
        goldens.assert_matches(diagram_to_dict(d), name)
        pts = d.all_arc_values()
        for target in vertex_values(g):
            dist = float(np.min(np.linalg.norm(pts - np.array(target), axis=1)))
            dists.append(dist)
            if dist > step:
                on_diagram = False
    _report(
        3,
        "vertex values",
        closed_form_ok and on_diagram,
        f"max diagram distance {max(dists):.2e} vs step {step}",
    )


def test_criterion_4_algebraic_integrity():
    m = build_kovalevskaya(0.5)
    comm = check_commutation(m, samples=1000, tol=1e-9, box=2.0, seed=0)
    jacobi = m.structure.jacobi_residual(samples=1000, box=2.0, seed=0).max_residual
    _report(
        4,
        "algebraic integrity",
        comm.passed and jacobi <= 1e-10,
        f"max {{H,K}} {comm.max_residual:.2e}, Jacobi {jacobi:.2e}",
    )


def test_criterion_5_periodicity():
    worst = 0.0
    m_e = build_canonical(CanonicalSpec(0, 1, 0, 0))
    res = verify_periodicity(m_e, 0, tol=1e-8, n_points=20, seed=0)
    worst = max(worst, res.max_return_error)
    ok = res.passed
    m_f = build_canonical(CanonicalSpec(0, 0, 0, 1))
    res = verify_periodicity(m_f, 1, tol=1e-8, n_points=20, seed=0)
    worst = max(worst, res.max_return_error)
    ok = ok and res.passed
    _report(5, "2*pi periodicity", ok, f"max return error {worst:.2e}")


def test_criterion_6_atom_suite():
    suite = consistency_suite()
    values_ok = not suite["mismatches"]
    for rec in suite["ok"]:
        want = 1 if rec["name"] in PAPER_COMPLEXITY_1 else 2
        values_ok = values_ok and rec["computed"] == want
    covered = {r["name"] for r in suite["ok"]} | {e["name"] for e in suite["exceptions"]}
    values_ok = values_ok and covered == set(
        PAPER_COMPLEXITY_1 + PAPER_COMPLEXITY_2_SADDLE + PAPER_COMPLEXITY_2_FOCUS
    )

    exception_names = {e["name"] for e in suite["exceptions"]}
    k3_documented = exception_names == {"(K3*K3)/(Z4+Z2)", "(C1*K3)/Z4"} and all(
        e["expected_complexity"] == 2 and e["resolves_with_count"] == 4
        for e in suite["exceptions"]
    )

    agree = True
    for name in covered - exception_names:
        agree = agree and cross_check_criteria(named_product(name)).agree
    rng = np.random.default_rng(123)
    for _ in range(1000):
        agree = agree and cross_check_criteria(random_product(rng)).agree

    verdicts_ok = (
        stability_verdict(named_product("(B*C2)/Z2")) == "stable-analytic-strong-sense"
        and stability_verdict(named_product("C2")) == "criterion-not-satisfied"
    )
    _report(
        6,
        "atom suite",
        values_ok and k3_documented and agree and verdicts_ok,
        f"{len(suite['ok'])} products, {len(exception_names)} documented exceptions",
    )


def test_criterion_7_regime_thresholds():
    split = 8.0 / (3.0 * np.sqrt(3.0))
    samples = [
        (0.0, "a"),
        (0.1, "b"), (0.5, "b"), (0.9, "b"), (-0.7, "b"), (0.99, "b"),
        (1.01, "c"), (1.1, "c"), (1.2, "c"), (-1.15, "c"), (np.sqrt(split) - 1e-6, "c"),
        (np.sqrt(split) + 1e-6, "d"), (1.3, "d"), (1.35, "d"), (-1.4, "d"), (np.sqrt(2) - 1e-8, "d"),
        (np.sqrt(2) + 1e-8, "e"), (1.6, "e"), (2.5, "e"), (-10.0, "e"),
    ]
    assert len(samples) == 20
    bad = [(g, regime(g), want) for g, want in samples if regime(g) != want]
    _report(7, "regime thresholds", not bad, f"20 samples{', bad: ' + str(bad) if bad else ''}")


def test_criterion_8_determinism(tmp_path):
    pairs = []
    for name, args in {
        "report": ["kovalevskaya", "report", "--g", "0.5", "--seed", "0"],
        "verify": ["verify", "--model", "kovalevskaya", "--g", "0.5", "--samples", "300", "--seed", "0"],
        "classify": ["classify", "--model", "kovalevskaya", "--g", "0.5", "--point", "R1=1,S1=0.5"],
    }.items():
        a = tmp_path / f"{name}_a.json"
        b = tmp_path / f"{name}_b.json"
        cli_main(args + ["--out", str(a)])
        cli_main(args + ["--out", str(b)])
        pairs.append(a.read_bytes() == b.read_bytes())
        json.loads(a.read_text())  # outputs are valid JSON
    _report(8, "determinism", all(pairs), f"{len(pairs)} command pairs byte-identical")
