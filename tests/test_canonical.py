from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intsing.canonical import (
    CanonicalSpec,
    QuotientModelSpec,
    build_canonical,
    randomized_disguise,
    validate_quotient_spec,
    verify_periodicity,
)
from intsing.classify import is_nondegenerate, rank_at
from intsing.expr import constant, parse, symbol
from intsing.groups import BUILTIN_GROUPS, cyclic, group_by_name, trivial
from intsing.phasespace import check_commutation


def test_build_elliptic_2d():
    m = build_canonical(CanonicalSpec(0, 1, 0, 0))
    assert m.dim == 2
    assert m.components[0].normalized_equal(parse("(1/2)*(x1^2+y1^2)", m.coords))


def test_build_regular_hyperbolic():
    m = build_canonical(CanonicalSpec(1, 0, 1, 0))
    assert m.coords == ("lam1", "phi1", "x1", "y1")
    assert m.components[0].normalized_equal(parse("lam1", m.coords))
    assert m.components[1].normalized_equal(parse("x1*y1", m.coords))


def test_build_focus_pair():
    m = build_canonical(CanonicalSpec(0, 0, 0, 1))
    assert m.components[0].normalized_equal(parse("x1*y1+x2*y2", m.coords))
    assert m.components[1].normalized_equal(parse("x2*y1-y2*x1", m.coords))


def test_focus_bracket_vanishes_symbolically():
    m = build_canonical(CanonicalSpec(0, 0, 0, 1))
    br = m.structure.bracket(m.components[0], m.components[1])
    assert br.is_zero()


def test_commutation_exactly_zero():
    for spec in [CanonicalSpec(0, 2, 1, 0), CanonicalSpec(1, 0, 0, 1), CanonicalSpec(0, 0, 0, 2)]:
        report = check_commutation(build_canonical(spec), samples=25, tol=0.0)
        assert report.max_residual == 0.0


def test_classifier_recovers_spec_at_origin():
    for n in range(1, 5):
        for kf in range(n // 2 + 1):
            rest = n - 2 * kf
            for r in range(rest + 1):
                for ke in range(rest - r + 1):
                    spec = CanonicalSpec(r, ke, rest - r - ke, kf)
                    if spec.r == spec.n:
                        continue
                    m = build_canonical(spec)
                    origin = np.zeros(spec.dim)
                    assert rank_at(m, origin) == spec.r
                    v = is_nondegenerate(m, origin)
                    assert v.verdict == "nondegenerate"
                    assert v.williamson.triple == (spec.k_e, spec.k_h, spec.k_f)


def test_identity_disguise_keeps_model():
    m = build_canonical(CanonicalSpec(0, 1, 1, 0))
    d = randomized_disguise(m, seed=0, mix_components=False, translate_regular=False, shears=0)
    assert np.allclose(d.point.coordinates, 0.0)
    for a, b in zip(d.model.components, m.components):
        assert a.normalized_equal(b)


def test_mix_only_disguise_preserves_singular_set():
    m = build_canonical(CanonicalSpec(0, 1, 1, 0))
    d = randomized_disguise(m, seed=3, mix_components=True, translate_regular=False, shears=0)
    assert rank_at(d.model, np.zeros(4)) == 0
    v = is_nondegenerate(d.model, np.zeros(4))
    assert v.williamson.triple == (1, 1, 0)


def test_full_disguise_round_trip():
    m = build_canonical(CanonicalSpec(0, 1, 1, 0))
    d = randomized_disguise(m, seed=11)
    v = is_nondegenerate(d.model, d.point)
    assert v.williamson.triple == (1, 1, 0)


def test_disguise_symplectic_matrix():
    from intsing.canonical import symplectic_form_matrix

    d = randomized_disguise(build_canonical(CanonicalSpec(0, 0, 2, 0)), seed=2)
    O = symplectic_form_matrix(2)
    assert np.allclose(d.symplectic.T @ O @ d.symplectic, O, atol=1e-10)


SPECS_UP_TO_4 = [
    CanonicalSpec(r, ke, n - r - ke - 2 * kf, kf)
    for n in range(1, 5)
    for kf in range(n // 2 + 1)
    for r in range(n - 2 * kf + 1)
    for ke in range(n - 2 * kf - r + 1)
]


def _reference_symplectic(rng, n, shears):
    """Product of shears, each block written through np.ix_ index lists."""
    qs, ps = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    S = np.eye(2 * n)
    for _ in range(shears):
        B = rng.uniform(-1.0, 1.0, size=(n, n))
        B = 0.5 * (B + B.T)
        G = np.eye(2 * n)
        if rng.integers(2) == 0:
            G[np.ix_(qs, ps)] = B
        else:
            G[np.ix_(ps, qs)] = B
        S = S @ G
    return S


def _reference_disguise(model, seed, mix_components, translate_regular, shears):
    """randomized_disguise written with Expression's operators, term by term."""
    rng = np.random.default_rng(seed)
    n2, coords = model.dim, model.coords
    S = _reference_symplectic(rng, model.n, shears) if shears > 0 else np.eye(n2)
    Sinv = np.linalg.inv(S)
    images = {}
    for i, name in enumerate(coords):
        e = constant(0, coords)
        for j, cname in enumerate(coords):
            if Sinv[i, j] != 0.0:
                e = e + Sinv[i, j] * symbol(cname, coords)
        images[name] = e
    comps = [c.substitute(images) for c in model.components]
    J, shift = np.eye(model.n), np.zeros(model.n)
    if mix_components:
        while True:
            J = rng.uniform(-1.0, 1.0, size=(model.n, model.n))
            if abs(np.linalg.det(J)) > 0.1:
                break
        shift = rng.uniform(-1.0, 1.0, size=model.n)
        mixed = []
        for i in range(model.n):
            e = constant(0, coords) + float(shift[i])
            for j in range(model.n):
                e = e + float(J[i, j]) * comps[j]
            mixed.append(e)
        comps = mixed
    q, r = np.zeros(n2), model.canonical_spec.r
    if translate_regular and r > 0:
        q[: 2 * r] = rng.uniform(-0.5, 0.5, size=2 * r)
    return comps, S, J, shift, S @ q


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _with_every_spec(test):
    """The property run once on each spec as an explicit example, whatever the draws."""
    for i, spec in enumerate(SPECS_UP_TO_4):
        test = example(spec, i, i % 2 == 0, i % 3 == 0, (0, 3, 8)[i % 3])(test)
    return test


@_with_every_spec
@given(
    st.sampled_from(SPECS_UP_TO_4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0, 3, 8]),
)
def test_disguise_trees_are_the_operator_built_trees(spec, seed, mix_components, translate_regular, shears):
    """The node-level build gives the trees that Expression's operators give, and
    the same symplectic matrix, mix, shift and point, bit for bit."""
    model = build_canonical(spec)
    d = randomized_disguise(model, seed, mix_components, translate_regular, shears)
    comps, S, J, shift, point = _reference_disguise(model, seed, mix_components, translate_regular, shears)
    assert len(d.model.components) == len(comps)
    for mine, theirs in zip(d.model.components, comps):
        assert mine._structure() == theirs._structure()
        assert mine.to_source() == theirs.to_source()
    assert _same_array(d.symplectic, S) and _same_array(d.mix, J)
    assert _same_array(d.shift, shift) and _same_array(d.point.coordinates, point)


def test_periodicity_elliptic():
    m = build_canonical(CanonicalSpec(0, 1, 1, 0))
    res = verify_periodicity(m, 0, tol=1e-9, n_points=5)
    assert res.passed and res.role == "elliptic"


def test_periodicity_focus_angular():
    m = build_canonical(CanonicalSpec(0, 0, 0, 1))
    res = verify_periodicity(m, 1, tol=1e-9, n_points=5)
    assert res.passed and res.role == "focus-angular"


def test_periodicity_rejects_hyperbolic():
    m = build_canonical(CanonicalSpec(0, 1, 1, 0))
    with pytest.raises(ValueError, match="not of periodic type"):
        verify_periodicity(m, 1)


def test_periodicity_rejects_focus_radial():
    m = build_canonical(CanonicalSpec(0, 0, 0, 1))
    with pytest.raises(ValueError, match="not of periodic type"):
        verify_periodicity(m, 0)


# -- local quotient models ----------------------------------------------------


def test_quotient_half_turn_with_flip_passes():
    q = QuotientModelSpec(
        r_o=0,
        r_c=1,
        disk_roles=["hyperbolic"],
        group=cyclic(2),
        translations={1: (Fraction(1, 2),)},
        signs={1: (-1,)},
    )
    res = validate_quotient_spec(q)
    assert res.passed, res.violations


def test_quotient_flip_without_translation_fails():
    q = QuotientModelSpec(
        r_o=0,
        r_c=1,
        disk_roles=["hyperbolic"],
        group=cyclic(2),
        translations={1: (Fraction(0),)},
        signs={1: (-1,)},
    )
    res = validate_quotient_spec(q)
    assert not res.passed
    assert any("not free" in v for v in res.violations)


def test_quotient_trivial_group_passes():
    q = QuotientModelSpec(r_o=1, r_c=0, disk_roles=["elliptic"], group=trivial())
    assert validate_quotient_spec(q).passed


def test_quotient_requires_effectiveness():
    q = QuotientModelSpec(
        r_o=0,
        r_c=1,
        disk_roles=["hyperbolic"],
        group=cyclic(2),
        translations={1: (Fraction(1, 2),)},
        signs={1: (1,)},
    )
    res = validate_quotient_spec(q)
    assert not res.passed
    assert any("not effective" in v for v in res.violations)


def test_quotient_homomorphism_enforced():
    q = QuotientModelSpec(
        r_o=0,
        r_c=1,
        disk_roles=["hyperbolic"],
        group=cyclic(4),
        translations={1: (Fraction(1, 2),), 2: (Fraction(1, 2),), 3: (Fraction(1, 2),)},
        signs={1: (-1,), 2: (1,), 3: (-1,)},
    )
    res = validate_quotient_spec(q)
    assert not res.passed
    assert any("homomorphism" in v for v in res.violations)


def _passes_on_all_pairs(q: QuotientModelSpec) -> bool:
    """The axioms of validate_quotient_spec, with the homomorphism law checked
    on every pair of elements."""
    g = q.group
    n_hyp = q.disk_roles.count("hyperbolic")
    trans = {a: tuple(Fraction(t) % 1 for t in q.translations.get(a, (0,) * q.r_c)) for a in g.elements()}
    signs = {a: tuple(q.signs.get(a, (1,) * n_hyp)) for a in g.elements()}
    if any(len(trans[a]) != q.r_c or len(signs[a]) != n_hyp for a in g.elements()):
        return False
    if any(s not in (1, -1) for a in g.elements() for s in signs[a]):
        return False
    for a in g.elements():
        for b in g.elements():
            if tuple((x + y) % 1 for x, y in zip(trans[a], trans[b])) != trans[g.mul(a, b)]:
                return False
            if tuple(x * y for x, y in zip(signs[a], signs[b])) != signs[g.mul(a, b)]:
                return False
    others = [a for a in g.elements() if a != g.identity]
    trivial_at_identity = not any(trans[g.identity]) and set(signs[g.identity]) <= {1}
    free = all(any(trans[a]) for a in others)
    effective = all(-1 in signs[a] for a in others)
    return trivial_at_identity and free and effective


def _rotation_homomorphisms(g, k: int) -> list[list[int]]:
    """The homomorphisms into the rotations of k points in cyclic order, as
    the rotation amount per element; the trivial one last."""
    rotations = {tuple((x + j) % k for x in range(k)) for j in range(k)}
    return [[p[0] for p in h] for h in reversed(g.homomorphisms_to_sym(k)) if set(h) <= rotations]


@settings(max_examples=300)
@given(st.sampled_from(sorted(BUILTIN_GROUPS)), st.integers(0, 2), st.integers(0, 2), st.data())
def test_quotient_checks_on_generators_match_all_pairs(name, r_c, n_hyp, data):
    """Translation columns in quarter turns and sign columns, each a
    homomorphism, then perhaps one entry of each kind changed."""
    g = group_by_name(name)
    quarter_turns, flips = st.sampled_from(_rotation_homomorphisms(g, 4)), st.sampled_from(_rotation_homomorphisms(g, 2))
    t_columns = [[Fraction(j, 4) for j in data.draw(quarter_turns)] for _ in range(r_c)]
    s_columns = [[(-1) ** j for j in data.draw(flips)] for _ in range(n_hyp)]
    for columns, values in ((t_columns, [Fraction(j, 4) for j in range(4)]), (s_columns, [1, -1])):
        if columns and data.draw(st.booleans()):
            column = data.draw(st.sampled_from(columns))
            column[data.draw(st.sampled_from(g.elements()))] = data.draw(st.sampled_from(values))
    q = QuotientModelSpec(
        r_o=0,
        r_c=r_c,
        disk_roles=["elliptic"] + ["hyperbolic"] * n_hyp,
        group=g,
        translations={a: tuple(c[a] for c in t_columns) for a in g.elements()},
        signs={a: tuple(c[a] for c in s_columns) for a in g.elements()},
    )
    assert validate_quotient_spec(q).passed == _passes_on_all_pairs(q)
