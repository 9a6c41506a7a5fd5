from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intsing import groups
from intsing.atoms import (
    PAPER_COMPLEXITY_1,
    PAPER_COMPLEXITY_2_FOCUS,
    PAPER_COMPLEXITY_2_SADDLE,
    AlmostDirectProduct,
    Atom,
    AtomsError,
    GroupAction,
    atom,
    build_Ki_sets,
    catalog,
    check_connectedness_vi,
    complexity,
    consistency_suite,
    cross_check_criteria,
    exceptions_report,
    make_action,
    named_product,
    named_products,
    product_from_dict,
    product_to_dict,
    random_product,
    stability_verdict,
    tuple_action_free,
)
from intsing.groups import cyclic, direct_product, trivial


def test_catalog_entries():
    names = {a.name: a for a in catalog()}
    assert names["B"].kind == "hyperbolic" and names["B"].singular_points == 1
    assert names["C2"].singular_points == 2
    assert names["Wreg"].kind == "regular" and names["Wreg"].singular_points == 0
    assert names["A"].kind == "elliptic" and names["A"].singular_points == 1
    assert names["F2"].kind == "focus" and names["F2"].singular_points == 2
    assert all(a.fiber_connected for a in catalog())


def test_complexity_simple_products():
    assert complexity(named_product("B*B")) == 1
    assert complexity(named_product("(C2*C2)/(Z2+Z2)")) == 1
    assert complexity(named_product("(D1*D1)/Z2")) == 2


def test_paper_complexity_values():
    suite = consistency_suite()
    assert not suite["mismatches"]
    checked = {rec["name"] for rec in suite["ok"]}
    exceptional = {e["name"] for e in suite["exceptions"]}
    wanted = set(PAPER_COMPLEXITY_1 + PAPER_COMPLEXITY_2_SADDLE + PAPER_COMPLEXITY_2_FOCUS)
    assert checked | exceptional == wanted
    for rec in suite["ok"]:
        want = 1 if rec["name"] in PAPER_COMPLEXITY_1 else 2
        assert rec["computed"] == want


def test_k3_products_are_documented_exceptions():
    report = exceptions_report()
    names = {e["name"] for e in report}
    assert names == {"(K3*K3)/(Z4+Z2)", "(C1*K3)/Z4"}
    for e in report:
        assert e["expected_complexity"] == 2
        assert e["resolves_with_count"] == 4
        assert "K3" in e["note"]


def test_complexity_refuses_non_free_action():
    # Z2 flipping only the B fiber (which fixes B's vertex) is not free
    comps = [atom("B")]
    g = cyclic(2)
    action = make_action(g, comps, [[(0,), (0,)]])
    p = AlmostDirectProduct(comps, action, "bad")
    with pytest.raises(AtomsError, match="not free"):
        complexity(p)


def test_connectedness_vi_examples():
    assert check_connectedness_vi(named_product("B*B"))[0] is True
    assert check_connectedness_vi(named_product("C2"))[0] is False
    assert check_connectedness_vi(named_product("(B*C2)/Z2"))[0] is True


def test_ki_sets_and_iv():
    p = named_product("(C2*C2)/Z2")
    kis = build_Ki_sets(p)
    assert [k.connected_components for k in kis] == [1, 1]
    assert cross_check_criteria(p).iv is True

    q = product_from_dict(
        {"components": ["C2", "C2"], "group": "1", "action": [{"perms": {"e": [0, 1]}}, {"perms": {"e": [0, 1]}}]}
    )
    kis = build_Ki_sets(q)
    assert [k.connected_components for k in kis] == [2, 2]
    assert cross_check_criteria(q).iv is False

    assert cross_check_criteria(named_product("B*F1")).iv is True


def test_cross_check_on_named_products():
    for name in PAPER_COMPLEXITY_1 + PAPER_COMPLEXITY_2_SADDLE + PAPER_COMPLEXITY_2_FOCUS:
        entry = named_product(name)
        if isinstance(entry, dict):
            continue
        rep = cross_check_criteria(entry)
        assert rep.agree
        assert rep.iv is True  # every catalog product satisfies connectedness


def test_cross_check_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = random_product(rng)
        rep = cross_check_criteria(p)  # raises on any (iv) != (vi)
        assert rep.agree


def test_stability_verdicts():
    assert stability_verdict(named_product("(B*C2)/Z2")) == "stable-analytic-strong-sense"
    assert stability_verdict(named_product("C2")) == "criterion-not-satisfied"
    assert stability_verdict(named_product("(D1*F2)/Z2")) == "stable-analytic-strong-sense"
    assert stability_verdict(named_product("A*")) == "stable-analytic-strong-sense"


def test_complexity_multiplicative_over_products():
    p1 = named_product("(B*C2)/Z2")
    p2 = named_product("(C2*C2)/Z2")
    g = direct_product(p1.group, p2.group)
    comps = p1.components + p2.components
    perms, ff = [], []
    for c in range(len(comps)):
        row_p, row_f = [], []
        for a1 in p1.group.elements():
            for a2 in p2.group.elements():
                if c < len(p1.components):
                    row_p.append(p1.action.perms[c][a1])
                    row_f.append(p1.action.fiber_free[c][a1])
                else:
                    row_p.append(p2.action.perms[c - len(p1.components)][a2])
                    row_f.append(p2.action.fiber_free[c - len(p1.components)][a2])
        perms.append(row_p)
        ff.append(row_f)
    big = AlmostDirectProduct(comps, GroupAction(g, perms, ff), "product")
    assert complexity(big) == complexity(p1) * complexity(p2)


def test_wreg_component_never_changes_verdicts():
    base = named_product("(B*C2)/Z2")
    comps = base.components + [atom("Wreg")]
    perms = [list(ps) for ps in base.action.perms] + [[() for _ in base.group.elements()]]
    ff = [list(f) for f in base.action.fiber_free] + [[False, True]]
    padded = AlmostDirectProduct(comps, GroupAction(base.group, perms, ff), "padded")
    assert complexity(padded) == complexity(base)
    assert cross_check_criteria(padded).iv == cross_check_criteria(base).iv
    assert stability_verdict(padded) == stability_verdict(base)


def test_product_spec_round_trip():
    p = named_product("(C2*P4)/(Z2+Z2)")
    d = product_to_dict(p)
    q = product_from_dict(d)
    assert complexity(q) == complexity(p)
    assert cross_check_criteria(q).iv == cross_check_criteria(p).iv
    assert product_to_dict(q) == d


def test_action_validation_rejects_non_homomorphism():
    comps = [atom("C2")]
    g = cyclic(4)
    # order-4 generator mapped to a swap works, but g^2 must then be trivial
    perms = [[(0, 1), (1, 0), (1, 0), (0, 1)]]
    with pytest.raises(AtomsError, match="homomorphism"):
        AlmostDirectProduct(comps, make_action(g, comps, perms), "bad")


def test_fiber_free_requires_vertex_free():
    comps = [atom("C2")]
    g = cyclic(2)
    with pytest.raises(AtomsError, match="free on the fiber"):
        GroupAction(g, [[(0, 1), (0, 1)]], [[False, True]]).validate(comps)


def test_homomorphisms_enumerated_once_per_table(monkeypatch):
    calls = []
    original = groups._perm_mul

    def counting(p, q):
        calls.append(1)
        return original(p, q)

    monkeypatch.setattr(groups, "_perm_mul", counting)
    first = groups.group_by_name("D4").homomorphisms_to_sym(4)
    enumerated = len(calls)
    second = groups.group_by_name("D4").homomorphisms_to_sym(4)
    assert second == first
    assert len(calls) == enumerated


def test_group_by_name_shares_one_instance():
    assert all(groups.group_by_name(name) is groups.group_by_name(name) for name in groups.BUILTIN_GROUPS)


def test_generators_and_extend():
    d4 = groups.group_by_name("D4")
    assert [d4.labels[s] for s in d4.generators] == ["r1", "r0s"]
    assert groups.trivial().generators == ()
    z3 = groups.cyclic(3)
    assert z3.extend([(1, 2, 0)], 3) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert z3.extend([(1, 0)], 2) is None  # g^3 = g cannot be the identity


def _compose(p, q):
    return tuple(p[x] for x in q)


@st.composite
def element_wise_actions(draw):
    """A built-in group, k <= 4 and one permutation of range(k) per element,
    the identity fixed.  Either an enumerated homomorphism, possibly with a
    few non-identity images redrawn, or random generator images walked
    breadth-first through the group in a random generator order: that map
    keeps the law along the edges of the walk and may break it elsewhere."""
    g = groups.group_by_name(draw(st.sampled_from(sorted(groups.BUILTIN_GROUPS))))
    k = draw(st.integers(0, 4))
    syms = list(permutations(range(k)))
    if draw(st.booleans()):
        perms = list(draw(st.sampled_from(g.homomorphisms_to_sym(k))))
        others = [a for a in g.elements() if a != g.identity]
        if others:
            for a, p in draw(st.lists(st.tuples(st.sampled_from(others), st.sampled_from(syms)), max_size=3)):
                perms[a] = p
        return g, k, perms
    images = {s: draw(st.sampled_from(syms)) for s in g.generators}
    walked = {g.identity: tuple(range(k))}
    queue = [g.identity]
    order = draw(st.permutations(g.generators))
    for a in queue:
        for s in order:
            b = g.mul(a, s)
            if b not in walked:
                walked[b] = _compose(walked[a], images[s])
                queue.append(b)
    return g, k, [walked[a] for a in g.elements()]


@given(element_wise_actions())
def test_validate_accepts_exactly_the_homomorphisms(drawn):
    g, k, perms = drawn
    is_hom = all(
        _compose(perms[a], perms[b]) == perms[g.mul(a, b)] for a, b in product(g.elements(), repeat=2)
    )
    action = GroupAction(g, [perms], [[False] * g.order])
    try:
        action.validate([Atom("X", "hyperbolic", k)])
        accepted = True
    except AtomsError as exc:
        assert "homomorphism" in str(exc)
        accepted = False
    assert accepted == is_hom
    if accepted:
        assert perms in g.homomorphisms_to_sym(k)


@st.composite
def relabelled_products(draw):
    """Up to three catalog atoms acted on by a built-in group whose table is
    reordered and relabelled, loaded through group_from_dict, each atom by a
    drawn homomorphism."""
    base = groups.group_by_name(draw(st.sampled_from(sorted(groups.BUILTIN_GROUPS))))
    order = draw(st.permutations(range(base.order)))  # element i of the new table is base element order[i]
    new = {a: i for i, a in enumerate(order)}
    table = [[f"u{new[base.mul(a, b)]}" for b in order] for a in order]
    g = groups.group_from_dict({"name": "relabelled", "elements": [f"u{i}" for i in range(base.order)], "table": table})
    comps = [atom(n) for n in draw(st.lists(st.sampled_from([a.name for a in catalog()]), min_size=1, max_size=3))]
    perms = [draw(st.sampled_from(g.homomorphisms_to_sym(c.singular_points))) for c in comps]
    return AlmostDirectProduct(comps, make_action(g, comps, perms), "relabelled")


@given(relabelled_products())
def test_criteria_agree_on_relabelled_tables(p):
    rep = cross_check_criteria(p)  # raises when (iv) and (vi) disagree
    assert rep.iv == rep.vi
    assert stability_verdict(p) == ("stable-analytic-strong-sense" if rep.iv else "criterion-not-satisfied")
    if tuple_action_free(p):
        assert complexity(p) * p.group.order == len(p.vertex_tuples())


# Oracles: the enumerating algorithms that Burnside's count and Light's test
# replaced in `atoms` and `groups`.


def _union_find_orbits(perms, k):
    """Orbits of the group generated by perms on range(k), by union-find."""
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(k):
            a, b = find(i), find(p[i])
            if a != b:
                parent[a] = b
    out = {}
    for i in range(k):
        out.setdefault(find(i), []).append(i)
    return sorted(out.values())


def _tuple_perms(p):
    """The permutation of the vertex tuples by each group element, as positions."""
    idxs = p.nonregular_indices()
    tuples = p.vertex_tuples()
    pos = {t: i for i, t in enumerate(tuples)}
    return [
        tuple(pos[tuple(p.action.perms[c][a][t[j]] for j, c in enumerate(idxs))] for t in tuples)
        for a in p.group.elements()
    ]


def enumerated_orbit_count(p):
    return len(_union_find_orbits(_tuple_perms(p), len(p.vertex_tuples())))


def enumerated_tuple_action_free(p):
    e = p.group.identity
    return all(all(m[i] != i for i in range(len(m))) for a, m in enumerate(_tuple_perms(p)) if a != e and m)


def brute_force_associative(table):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in range(n) for b in range(n) for c in range(n))


@st.composite
def torus_free_products(draw):
    """A relabelled product with a regular annulus (Wreg) appended, on which
    each nonidentity element is drawn free or not: freeness carried by a torus
    translation, as in "A*", so the vertex tuples may have fixed points while
    the product action is free."""
    p = draw(relabelled_products())
    g = p.group
    flags = [a != g.identity and draw(st.booleans()) for a in g.elements()]
    comps = p.components + [atom("Wreg")]
    perms = [list(ps) for ps in p.action.perms] + [[()] * g.order]
    free = [list(f) for f in p.action.fiber_free] + [flags]
    return AlmostDirectProduct(comps, GroupAction(g, perms, free), "torus")


def _burnside_is_the_enumeration(p):
    fixed = p.fixed_tuples()
    assert sum(fixed) % p.group.order == 0
    assert sum(fixed) // p.group.order == enumerated_orbit_count(p)
    assert tuple_action_free(p) == enumerated_tuple_action_free(p)
    if p.free_on_product()[0]:
        assert complexity(p) == enumerated_orbit_count(p)
    else:
        with pytest.raises(AtomsError, match="not free"):
            complexity(p)


@given(relabelled_products())
def test_burnside_count_is_the_orbit_enumeration_on_relabelled_tables(p):
    _burnside_is_the_enumeration(p)


@given(torus_free_products())
def test_burnside_count_is_the_orbit_enumeration_on_non_free_tuple_actions(p):
    _burnside_is_the_enumeration(p)


@given(st.integers(0, 2**32 - 1))
def test_burnside_count_is_the_orbit_enumeration_on_random_products(seed):
    _burnside_is_the_enumeration(random_product(np.random.default_rng(seed)))


def test_burnside_count_on_named_products():
    for entry in named_products().values():
        if not isinstance(entry, dict):
            _burnside_is_the_enumeration(entry)


def _complexity_one_is_connected(p):
    if p.free_on_product()[0] and complexity(p) == 1:
        report = cross_check_criteria(p)
        assert report.iv and report.vi
        assert stability_verdict(p) == "stable-analytic-strong-sense"


@given(torus_free_products())
def test_complexity_one_implies_connectedness(p):
    """One orbit on the vertex tuples makes the group transitive on each
    component's singular points: criterion (vi), and so (iv) and the verdict."""
    _complexity_one_is_connected(p)


def test_complexity_one_implies_connectedness_on_random_products():
    rng = np.random.default_rng(7)
    ones = 0
    for _ in range(3000):
        p = random_product(rng)
        ones += p.free_on_product()[0] and complexity(p) == 1
        _complexity_one_is_connected(p)
    assert ones > 100


def test_criteria_are_found_once_per_product(monkeypatch):
    import intsing.atoms as atoms_module

    calls = []
    original = atoms_module.build_Ki_sets
    monkeypatch.setattr(atoms_module, "build_Ki_sets", lambda p: calls.append(p) or original(p))
    p = product_from_dict(product_to_dict(named_product("(C2*P4)/(Z2+Z2)")))
    report = cross_check_criteria(p)
    assert stability_verdict(p) == "stable-analytic-strong-sense"
    assert cross_check_criteria(p) is report and len(calls) == 1


def test_a_criteria_disagreement_raises_on_every_call(monkeypatch):
    import intsing.atoms as atoms_module

    original = atoms_module.check_connectedness_vi
    monkeypatch.setattr(atoms_module, "check_connectedness_vi", lambda p: (not original(p)[0], original(p)[1]))
    p = product_from_dict(product_to_dict(named_product("(B*C2)/Z2")))
    for call in (cross_check_criteria, stability_verdict, cross_check_criteria):
        with pytest.raises(AtomsError, match="criteria disagree"):
            call(p)
    monkeypatch.setattr(atoms_module, "check_connectedness_vi", original)
    assert cross_check_criteria(p).iv is True


@st.composite
def tables_with_identity_and_inverses(draw):
    """A built-in group's table with its elements reordered, and up to three
    entries off the identity's row and column redrawn; a row left without the
    identity gets it back at a drawn place off the identity's column.  So the
    table keeps an identity and an inverse in each row, and most redrawn
    tables are not associative.  Half the tables are then multiplied by Z2."""
    base = groups.group_by_name(draw(st.sampled_from(sorted(groups.BUILTIN_GROUPS))))
    order = draw(st.permutations(range(base.order)))
    new = {a: i for i, a in enumerate(order)}
    n, e = base.order, new[base.identity]
    table = [[new[base.mul(a, b)] for b in order] for a in order]
    cells = [(x, y) for x in range(n) for y in range(n) if e not in (x, y)]
    if cells:
        for (x, y), v in draw(st.lists(st.tuples(st.sampled_from(cells), st.integers(0, n - 1)), max_size=3)):
            table[x][y] = v
    for row in table:
        if e not in row:
            row[draw(st.sampled_from([y for y in range(n) if y != e]))] = e
    if draw(st.booleans()):
        # times Z2, listing (e, g) first: the first generator is then central
        # and passes the test, and only a later generator can find a fault
        pairs = [(e, 1)] + [(a, i) for a in range(n) for i in range(2) if (a, i) != (e, 1)]
        index = {pair: k for k, pair in enumerate(pairs)}
        table = [[index[table[a][b], (i + j) % 2] for b, j in pairs] for a, i in pairs]
    return table


@given(tables_with_identity_and_inverses())
def test_light_test_is_the_brute_force_check(table):
    g = groups.FiniteGroup([f"u{i}" for i in range(len(table))], table)
    assert g.check_associative() == brute_force_associative(table)


def test_light_test_rejects_a_latin_square_loop():
    """The smallest non-associative loop, of order 5: every row and column a
    permutation, an identity, and (1*2)*2 = 3*2 = 4 but 1*(2*2) = 1*0 = 1."""
    table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert not groups.FiniteGroup(list("abcde"), table).check_associative()
    doc = {"name": "loop", "elements": list("abcde"), "table": [["abcde"[v] for v in row] for row in table]}
    with pytest.raises(ValueError, match="multiplication table is not associative"):
        groups.group_from_dict(doc)
