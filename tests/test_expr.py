import json
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intsing.expr import (
    MAX_CONSTANT_DIGITS,
    MAX_PAREN_DEPTH,
    Add,
    Const,
    Div,
    EvalError,
    Expression,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Sym,
    Tape,
    _BUILD,
    _Jet,
    _ONE,
    _ZERO,
    _add,
    _div,
    _fold,
    _mul,
    _neg,
    _position,
    _pow,
    _scale,
    _sub,
    _tokenize,
    parse,
)
import goldens
import intsing
from intsing.phasespace import IntegrableModel, PoissonStructure, load_model, save_model

KOV = ("R1", "R2", "R3", "S1", "S2", "S3")


def test_parse_kovalevskaya_casimir():
    e = parse("R1^2+R2^2+R3^2", KOV)
    assert e.free_symbols() == {"R1", "R2", "R3"}
    assert e.evaluate([1.0, 2.0, 3.0, 0, 0, 0]) == 14.0


def test_parse_constant_zero():
    e = parse("0", KOV)
    assert e.free_symbols() == set()
    assert e.evaluate(np.zeros(6)) == 0.0
    assert e.is_zero()


def test_parse_hyperbolic_component():
    e = parse("x1*y1", ("x1", "y1"))
    assert e.free_symbols() == {"x1", "y1"}
    assert e.evaluate([3.0, -2.0]) == -6.0


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse("x1*+y1", ("x1", "y1"))
    assert exc.value.pos == 3


def test_parse_unknown_symbol():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse("x1*z9", ("x1", "y1"))


@pytest.mark.parametrize(
    "src, tokens",
    [
        ("1.e5", [("num", "1.e5")]),
        (".5e-3", [("num", ".5e-3")]),
        ("1e", [("num", "1"), ("ident", "e")]),
        ("2E+", [("num", "2"), ("ident", "E"), ("+", "+")]),
        ("1.2.3", [("num", "1.2"), ("num", ".3")]),
        ("1..2", [("num", "1."), ("num", ".2")]),
        ("x1e2", [("ident", "x1e2")]),
        ("1e+5x", [("num", "1e+5"), ("ident", "x")]),
        (" \t\n\r(a^2) ", [("(", "("), ("ident", "a"), ("^", "^"), ("num", "2"), (")", ")")]),
    ],
)
def test_tokenizer_boundaries(src, tokens):
    kinds, texts = _tokenize(src)
    *body, end = [(kind, text, _position(src, k)) for k, (kind, text) in enumerate(zip(kinds, texts))]
    assert [t[:2] for t in body] == tokens
    assert end == ("end", "", len(src))


@pytest.mark.parametrize("src, pos", [("a_b", 1), ("é", 0), ("٣", 0), (".", 0), (".e5", 0), ("\x0b1", 0)])
def test_tokenizer_rejects_unexpected_characters(src, pos):
    with pytest.raises(ParseError, match="unexpected character") as exc:
        _tokenize(src)
    assert exc.value.pos == pos


def test_parse_corpus_is_the_golden_byte_for_byte():
    """Every tree (text and structure) and every ParseError (message and
    position) of `goldens.parse_corpus`, written as the golden file holds it."""
    text = json.dumps(goldens._plain(goldens.parse_corpus()), indent=1, sort_keys=True) + "\n"
    assert text == (goldens.GOLDEN_DIR / "parse_corpus.json").read_text()


def test_minus_chain_parses_without_recursion():
    assert parse("-" * 1200 + "x1", ("x1",)) == parse("x1", ("x1",))
    assert parse("-" * 1201 + "x1", ("x1",)) == parse("-x1", ("x1",))


def test_parenthesis_depth_is_bounded():
    deep = "(" * MAX_PAREN_DEPTH + "x1" + ")" * MAX_PAREN_DEPTH
    assert parse(deep, ("x1",)) == parse("x1", ("x1",))
    with pytest.raises(ParseError, match="nested deeper") as exc:
        parse("(" * 1200 + "x1" + ")" * 1200, ("x1",))
    assert exc.value.pos == MAX_PAREN_DEPTH


@pytest.mark.parametrize(
    "source, pos",
    [("1" * 400 + "*x", 0), ("1e400*x", 0), ("2^2000*x", 1), ("10^200*10^200+x", 6), ("x-1e308*10", 7),
     ("1e308+1e308", 5), ("x^" + "9" * 400, 2), ("1e-400*x", 0), ("1e-200*1e-200*x", 6), ("(1/3)^1000*x", 5),
     ("0.5^1075*x", 3)],
    ids=["long-literal", "float-literal", "folded-power", "folded-product", "folded-float-product", "folded-sum",
         "long-exponent", "literal-underflow", "folded-product-underflow", "folded-fraction-underflow",
         "folded-float-power-underflow"],
)
def test_constant_that_no_float_holds_is_a_parse_error(source, pos):
    with pytest.raises(ParseError, match="does not fit a float") as exc:
        parse(source, ("x",))
    assert exc.value.pos == pos
    assert parse("2^1000*x", ("x",)).evaluate([1.0]) == 2.0**1000


def test_zero_constants_fit_and_huge_powers_are_refused_before_computing():
    for zero in ("0", "0.0", "0e5", "1e-200-1e-200", "0*1e-200", "0^7"):
        assert parse(zero + "+x", ("x",)).evaluate([1.0]) == 1.0
    assert parse("0.5^1074*x", ("x",)).evaluate([1.0]) == 5e-324  # the smallest subnormal
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="does not fit a float") as exc:
        parse("3^10000000*x", ("x",))
    assert time.perf_counter() - t0 < 0.5
    assert exc.value.pos == 1


@pytest.mark.parametrize(
    "source, pos",
    [("(1000001/1000000)^1000000*x", 17), ("(3/2)^1000*x", 5), ("(1000001/1000000)^51*1000001*x", 20),
     ("(3/2)^350*(3/2)^350*x", 9), ("1" * 5000 + "*x", 0), ("0" * 400 + "1*x", 0), ("x^" + "1" * 5000, 2)],
    ids=["power", "power-past-the-bound", "folded-product", "folded-fraction-product", "long-literal",
         "leading-zeros", "long-exponent"],
)
def test_exact_constant_longer_than_the_bound_is_a_parse_error(source, pos):
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match=f"at most {MAX_CONSTANT_DIGITS} digits") as exc:
        parse(source, ("x",))
    assert time.perf_counter() - t0 < 0.1  # refused before the power or the int() is computed
    assert exc.value.pos == pos


def test_exact_constant_within_the_bound_parses_back_from_its_source():
    for source in ("(1000001/1000000)^51*x", "(3/2)^640*x", "1/2^1000*x", "9" * MAX_CONSTANT_DIGITS + "/10^307*x"):
        e = parse(source, ("x",))
        assert parse(e.to_source(), ("x",)) == e


def test_differentiate_power_rule():
    e = parse("R1^2+R2^2+R3^2", KOV)
    assert e.diff("R1").normalized_equal(parse("2*R1", KOV))


def test_differentiate_hamiltonian():
    h = parse("(1/2)*(S1^2+S2^2+2*S3^2)+R1", KOV)
    assert h.diff("S3").normalized_equal(parse("2*S3", KOV))
    assert h.diff("R1").normalized_equal(parse("1", KOV))


def test_differentiate_product():
    e = parse("x1*y1", ("x1", "y1"))
    assert e.diff("x1").normalized_equal(parse("y1", ("x1", "y1")))


def test_differentiate_undeclared_var():
    e = parse("x1*y1", ("x1", "y1"))
    with pytest.raises(ValueError, match="undeclared"):
        e.diff("q")


def test_jet_hamiltonian_value():
    h = parse("(1/2)*(S1^2+S2^2+2*S3^2)+R1", KOV)
    jet = h.jet2([1, 0, 0, 0, 0, 0])
    assert jet.value == 1.0


def test_jet_k_integral_value():
    k = parse("((1/2)*S1^2-(1/2)*S2^2-R1)^2+(S1*S2-R2)^2", KOV)
    assert k.jet2([1, 0, 0, 0, 0, 0]).value == 1.0


def test_jet_area_casimir_with_param():
    f2 = parse("S1*R1+S2*R2+S3*R3", KOV)
    jet = f2.jet2([-1, 0, 0, -0.5, 0, 0])
    assert jet.value == 0.5


def test_rational_jet():
    e = parse("x/(1+y^2)", ("x", "y"))
    jet = e.jet2([2.0, 1.0])
    assert jet.value == pytest.approx(1.0)
    assert jet.gradient[0] == pytest.approx(0.5)
    assert jet.gradient[1] == pytest.approx(-1.0)


def test_division_by_zero_raises():
    e = parse("1/x", ("x",))
    with pytest.raises(EvalError):
        e.evaluate([0.0])
    with pytest.raises(EvalError):
        e.evaluate(np.array([[1.0], [0.0], [2.0]]))
    with pytest.raises(EvalError):
        e.jet2([0.0])


def _random_poly(rng, coords, degree=4, terms=6):
    src_terms = []
    for _ in range(terms):
        factors = [str(rng.integers(-4, 5))]
        for _ in range(int(rng.integers(0, degree + 1))):
            factors.append(rng.choice(coords))
        src_terms.append("*".join(factors))
    return parse("+".join(src_terms), coords)


def test_gradient_matches_central_differences():
    # 50 random expressions x 20 points = 1000 jet/FD comparisons
    rng = np.random.default_rng(7)
    coords = ("a", "b", "c", "d")
    h = 1e-5
    for _ in range(50):
        e = _random_poly(rng, coords)
        for _ in range(20):
            p = rng.uniform(-1, 1, size=4)
            jet = e.jet2(p)
            for i in range(4):
                dp = np.zeros(4)
                dp[i] = h
                fd = (e.evaluate(p + dp) - e.evaluate(p - dp)) / (2 * h)
                scale = max(1.0, abs(fd))
                assert abs(jet.gradient[i] - fd) <= 1e-6 * scale


def test_second_derivatives_commute():
    rng = np.random.default_rng(11)
    coords = ("a", "b", "c")
    for _ in range(25):
        e = _random_poly(rng, coords, degree=3)
        for u in coords:
            for v in coords:
                assert e.diff(u).diff(v).normalized_equal(e.diff(v).diff(u))


def test_jet_agrees_with_symbolic_derivatives():
    rng = np.random.default_rng(13)
    coords = ("a", "b", "c", "d")
    den = parse("1+a^2", coords)
    for k in range(20):
        e = _random_poly(rng, coords)
        if k % 2:  # rational fields: the quotient rule of the jet
            e = e / (den + _random_poly(rng, coords, degree=2, terms=2) ** 2)
        p = rng.uniform(-1, 1, size=4)
        jet = e.jet2(p)
        for i, u in enumerate(coords):
            du = e.diff(u)
            scale = 1.0 + abs(jet.gradient[i])
            assert abs(jet.gradient[i] - du.evaluate(p)) <= 1e-12 * scale
            for j, v in enumerate(coords):
                dd = du.diff(v).evaluate(p)
                assert abs(jet.hessian[i, j] - dd) <= 1e-12 * (1.0 + abs(dd))


def test_batch_and_jet_values_match_pointwise():
    rng = np.random.default_rng(19)
    coords = ("a", "b", "c")
    fields = [_random_poly(rng, coords) for _ in range(10)]
    fields += [parse("7/2", coords), parse("a", coords), parse("(a-b)^5/(2+c^2)+a^3*b^7-c^4", coords)]
    pts = rng.uniform(-1.5, 1.5, size=(200, 3))
    for e in fields:
        batch = e.evaluate(pts)
        assert batch.shape == (200,)
        assert batch.tobytes() == np.array([e.evaluate(p) for p in pts]).tobytes()
    for e in fields[:10]:  # polynomials: the jet's value is the walker's value
        for p in pts[:5]:
            assert e.jet2(p).value == e.evaluate(p)


def test_hessian_symmetric():
    rng = np.random.default_rng(17)
    e = _random_poly(rng, ("a", "b", "c"))
    jet = e.jet2(rng.uniform(-1, 1, size=3))
    assert np.array_equal(jet.hessian, jet.hessian.T)


def test_source_round_trip():
    sources = [
        "R1^2+R2^2+R3^2",
        "(1/2)*(S1^2+S2^2+2*S3^2)+R1",
        "((1/2)*S1^2-(1/2)*S2^2-R1)^2+(S1*S2-R2)^2",
        "-S1*R2/(1+R3^2)",
        "0.5*S1-2e-3",
    ]
    for src in sources:
        e1 = parse(src, KOV)
        text1 = e1.to_source()
        e2 = parse(text1, KOV)
        assert e1 == e2
        assert e2.to_source() == text1


@pytest.mark.parametrize("src", ["-(-1*a)", "-(2*a)", "0-2*a", "-(2^2*a/b)"])
def test_negated_product_led_by_a_constant_round_trips(src):
    """parse reads "-2*a" as (-2)*a, so the text of -(2*a) keeps its parentheses."""
    e = parse(src, ABC)
    assert parse(e.to_source(), ABC) == e


def test_sum_deeper_than_the_recursion_limit(tmp_path):
    """Every walk over a left-deep sum of 3,000 terms."""
    coords = ("x", "y")
    src = "+".join(f"{k % 7 + 1}*x^{k % 3}*y^{k // 3 % 3}" for k in range(3000))
    e, again = parse(src, coords), parse(src, coords)
    assert e == again and hash(e) == hash(again) and e != e + 1
    assert e.diff("x") == again.diff("x") and e.diff("x") != e.diff("y")
    assert (e - again).is_zero() and not e.diff("y").is_zero()
    swap = {"x": parse("y", coords), "y": parse("x", coords)}
    assert e.substitute(swap).substitute(swap) == e
    assert e.free_symbols() == {"x", "y"}
    assert parse(e.to_source(), coords) == e
    path = tmp_path / "deep.json"
    save_model(IntegrableModel(PoissonStructure.canonical_chart([coords]), [e]), str(path))
    assert load_model(str(path)).components == [e]


def test_hash_repeats_across_processes():
    """A hash depends on PYTHONHASHSEED only, as a string's does."""
    code = "from intsing.expr import parse; print(hash(parse('x*y+2*x^3-1/3', ('x', 'y'))))"
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(Path(intsing.__file__).parents[1])}
    runs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout


def test_operator_building_matches_parse():
    from intsing.expr import symbol

    x = symbol("x1", ("x1", "y1"))
    y = symbol("y1", ("x1", "y1"))
    assert (x * y).normalized_equal(parse("x1*y1", ("x1", "y1")))
    assert (0.5 * (x**2 + y**2)).normalized_equal(parse("(1/2)*(x1^2+y1^2)", ("x1", "y1")))


def test_substitute_linear_map():
    coords = ("x", "y")
    e = parse("x*y", coords)
    new = ("u", "v")
    sub = {
        "x": parse("u+2*v", new),
        "y": parse("u-v", new),
    }
    image = e.substitute(sub)
    assert image.normalized_equal(parse("(u+2*v)*(u-v)", new))


# ---------------------------------------------------------------------------
# Properties on random ASTs, built from the node classes directly (so shapes
# the smart constructors would fold, such as x*(-0.0), occur too).  Division
# is by nonzero constants only, so every tree is a polynomial.
# ---------------------------------------------------------------------------

ABC = ("a", "b", "c")
_CONSTANTS = [0, 1, -2, 3, Fraction(1, 3), Fraction(-5, 7), 0.5, 1.25, 0.0, -0.0]
_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _grow_pairs(kids):
    """A node and its magnitude tree: constants and symbols taken absolute,
    Sub and Neg turned into Add and identity.  Its jet at |p| bounds the sum
    of the absolute values of every term in the node's value, gradient and
    Hessian at p, the scale of their rounding error."""
    return st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul]), kids, kids).map(
            lambda t: (t[0](t[1][0], t[2][0]), (Mul if t[0] is Mul else Add)(t[1][1], t[2][1]))
        ),
        kids.map(lambda k: (Neg(k[0]), k[1])),
        st.tuples(kids, st.integers(2, 3)).map(lambda t: (Pow(t[0][0], t[1]), Pow(t[0][1], t[1]))),
        st.tuples(kids, st.sampled_from([2, Fraction(-3, 4), 0.25])).map(
            lambda t: (Div(t[0][0], Const(t[1])), Div(t[0][1], Const(abs(t[1]))))
        ),
    )


_LEAF_PAIRS = st.one_of(
    st.integers(0, 2).map(lambda i: (Sym(i, ABC[i]), Sym(i, ABC[i]))),
    st.sampled_from(_CONSTANTS).map(lambda c: (Const(c), Const(abs(c)))),
)
NODE_PAIRS = st.recursive(_LEAF_PAIRS, _grow_pairs, max_leaves=10)
NODES = NODE_PAIRS.map(lambda pair: pair[0])
POINTS = st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3).map(np.array)


def _poly_value(poly, p):
    return sum((c * np.prod([Fraction(x) ** m for x, m in zip(p, mono)]) for mono, c in poly.items()), Fraction(0))


def _poly_diff(poly, i):
    return {mono[:i] + (mono[i] - 1,) + mono[i + 1 :]: c * mono[i] for mono, c in poly.items() if mono[i]}


@given(NODE_PAIRS, POINTS)
def test_jets_match_exact_polynomial_derivatives(pair, p):
    e, magnitude = Expression(pair[0], ABC), Expression(pair[1], ABC)
    poly = e.as_polynomial()
    jet, bound = e.jet2(p), magnitude.jet2(np.abs(p))
    assert abs(jet.value - _poly_value(poly, p)) <= 1e-9 * bound.value
    for i in range(3):
        di = _poly_diff(poly, i)
        assert abs(jet.gradient[i] - _poly_value(di, p)) <= 1e-9 * bound.gradient[i]
        for j in range(3):
            assert abs(jet.hessian[i, j] - _poly_value(_poly_diff(di, j), p)) <= 1e-9 * bound.hessian[i, j]


def _unshared(n):
    """A structurally equal copy that shares no node object."""
    if isinstance(n, Sym):
        return Sym(n.index, n.name)
    if isinstance(n, Const):
        return Const(n.value)
    if isinstance(n, Neg):
        return Neg(_unshared(n.a))
    if isinstance(n, Pow):
        return Pow(_unshared(n.a), n.k)
    return type(n)(_unshared(n.a), _unshared(n.b))


def _walk(n, x):
    """The recursive reference at one point: every tree node evaluated at each visit."""
    if isinstance(n, Sym):
        return x[n.index]
    if isinstance(n, Const):
        return n.fvalue
    if isinstance(n, Neg):
        return -_walk(n.a, x)
    if isinstance(n, Pow):
        return _walk(n.a, x) ** n.k
    return _BINARY[type(n)](_walk(n.a, x), _walk(n.b, x))


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


@given(
    st.lists(NODES, min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from([Add, Sub, Mul]), st.integers(0, 9), st.integers(0, 9)), max_size=6),
    POINTS,
)
def test_shared_subtrees_evaluate_like_unshared_copies(pool, recipe, p):
    nodes = list(pool)
    for op, i, j in recipe:  # later fields hold earlier ones' objects
        nodes.append(op(nodes[i % len(nodes)], nodes[j % len(nodes)]))
    first = nodes[0]  # and fields whose hash-cons keys differ in one part only
    nodes += [
        v
        for n in list(nodes)
        for v in (Pow(n, 2), Pow(n, 3), Mul(n, Const(0.0)), Mul(n, Const(-0.0)), Sub(n, first), Sub(first, n))
    ]
    shared = [Expression(n, ABC) for n in nodes]
    copies = [Expression(_unshared(n), ABC) for n in nodes]
    batch = np.vstack([p, np.random.default_rng(0).uniform(-2, 2, size=(5, 3))])
    tape = Tape(shared)
    for got, want in zip(zip(*tape.jet_stack(p)), [c.jet2(p) for c in copies]):
        assert _jet_bytes(got) == _jet_bytes(want)
    values = tape.values(p)
    assert [_bytes(v) for v in values] == [_bytes(c.evaluate(p)) for c in copies]
    assert [_bytes(v) for v in values] == [_bytes(_walk(c.node, p)) for c in copies]
    assert [_bytes(v) for v in tape.values(batch)] == [_bytes(c.evaluate(batch)) for c in copies]


def _same(a, b):
    """The recursive reference for structural equality: same node types and
    exponents, symbols by index and name, constants by value."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value
    if isinstance(a, Sym):
        return (a.index, a.name) == (b.index, b.name)
    if isinstance(a, Pow) and a.k != b.k:
        return False
    return all(_same(getattr(a, f), getattr(b, f)) for f in ("a", "b") if hasattr(a, f))


@given(NODES, NODES)
def test_equality_matches_the_recursive_reference(m, n):
    for a, b in ((m, n), (m, _unshared(m)), (Add(m, n), Add(m, _unshared(n)))):
        e, f = Expression(a, ABC), Expression(b, ABC)
        assert (e == f) == _same(a, b)
        if e == f:
            assert hash(e) == hash(f)


@given(NODES)
def test_source_round_trip_after_one_save(node):
    """A parsed expression written and read back keeps its tree, hash and text.
    (A tree built node by node may change on its first trip: parse folds
    constants and signs.)"""
    e = parse(Expression(node, ABC).to_source(), ABC)
    saved = parse(e.to_source(), ABC)
    assert saved == e
    again = parse(saved.to_source(), ABC)
    assert again == saved and hash(again) == hash(saved)
    assert again.to_source() == saved.to_source()


@given(
    st.lists(NODES, min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from([Add, Sub, Mul]), st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=5),
)
def test_shared_and_unshared_copies_agree(pool, recipe):
    nodes = list(pool)
    for op, i, j in recipe:  # later nodes hold earlier ones' objects
        nodes.append(op(nodes[i % len(nodes)], nodes[j % len(nodes)]))
    shared, copy = Expression(nodes[-1], ABC), Expression(_unshared(nodes[-1]), ABC)
    assert shared == copy and hash(shared) == hash(copy)
    assert shared.to_source() == copy.to_source()
    for x in ABC:
        assert shared.diff(x) == copy.diff(x)
        assert shared.diff(x).to_source() == copy.diff(x).to_source()


# Batched jets: Tape.jet_stack on an (m, dim) array runs the tape once on _Jet
# leaves whose slots hold the batch form, and each row of the stack must be that
# row's one-point stack (the same rules on the one-point form) bit for bit.
# Trees here may divide by any subtree and read a parameter; rows hold exact and
# signed zeros.
_BATCH_LEAVES = st.one_of(
    st.integers(0, 3).map(lambda i: Sym(i, (*ABC, "g")[i])),
    st.sampled_from([0, -1, 2, Fraction(1, 3), 0.5, 0.0, -0.0]).map(Const),
)
BATCH_NODES = st.recursive(
    _BATCH_LEAVES,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), kids, kids).map(lambda t: t[0](t[1], t[2])),
        kids.map(Neg),
        st.tuples(kids, st.integers(2, 3)).map(lambda t: Pow(*t)),
    ),
    max_leaves=8,
)
_COORDINATE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2, 2, allow_nan=False))
ROWS = st.lists(st.lists(_COORDINATE, min_size=3, max_size=3), min_size=2, max_size=6).map(np.array)


def _jet_bytes(jet):
    """Value, gradient and Hessian bytes of a jet or of one row of a stack."""
    return tuple(map(_bytes, jet))


@given(st.lists(BATCH_NODES, min_size=1, max_size=3), ROWS, st.sampled_from([0.0, -0.0, -1.0, 0.75]))
# At a = 0 the gradient of a^2 is a structural zero, so -a + a^2 keeps the -0.0 entries of -da there.
@example([Add(Neg(Sym(0, "a")), Pow(Sym(0, "a"), 2))], np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.0)
def test_batched_jets_are_the_one_point_jets(nodes, rows, g):
    tape = Tape([Expression(n, ABC, ("g",)) for n in nodes])
    params = {"g": g}
    with np.errstate(all="raise"):  # a batch warns where, and only where, some row does
        try:
            want = [_jet_bytes(tape.jet_stack(p, params)) for p in rows]
        except (EvalError, FloatingPointError):
            with pytest.raises((EvalError, FloatingPointError)):
                tape.jet_stack(rows, params)
            return
        got = [_jet_bytes(row) for row in zip(*tape.jet_stack(rows, params))]
    assert got == want


def test_jet2_of_a_batch_is_every_row():
    """jet2 on three rows is the three one-point jet2s bit for bit; at x = -0.0
    the value and a gradient entry are signed zeros."""
    e = parse("x*y", ("x", "y"))
    rows = np.array([[1.0, 2.0], [-0.0, 4.0], [3.0, 4.0]])
    assert [_jet_bytes(row) for row in zip(*e.jet2(rows))] == [_jet_bytes(e.jet2(p)) for p in rows]


def test_a_batch_with_one_zero_divisor_raises():
    tape = Tape([parse("x/(y - 1)", ("x", "y"))])
    assert len(tape.jet_stack(np.array([[1.0, 2.0], [3.0, 0.0]])).value) == 2
    with pytest.raises(EvalError):
        tape.jet_stack(np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.5]]))


def test_batched_jets_of_no_fields_and_no_rows():
    assert [a.shape for a in Tape([]).jet_stack(np.zeros((3, 2)))] == [(3, 0), (3, 0, 2), (3, 0, 2, 2)]
    assert [a.shape for a in Tape([parse("x*y", ("x", "y"))]).jet_stack(np.zeros((0, 2)))] == [
        (0, 1), (0, 1, 2), (0, 1, 2, 2)
    ]


def _stack_bytes(tape, point, params, order):
    """The tape's first-order (values, gradients) or second-order stack as bytes, or the EvalError's type."""
    try:
        stack = tape.gradient_stack(point, params) if order == 1 else tape.jet_stack(point, params)
    except EvalError as exc:
        return type(exc)
    return [(_bytes(a), a.shape) for a in stack]


@given(
    st.lists(st.one_of(NODES, BATCH_NODES), min_size=1, max_size=3),
    ROWS,
    st.sampled_from([0.0, -0.0, -1.0, 0.75]),
    st.booleans(),
)
# A quotient by a quadratic slot and by an affine one: in a first-order run neither divisor carries a Hessian.
@example(
    [Div(Sym(0, "a"), Add(Pow(Sym(1, "b"), 2), Const(1))), Div(Mul(Sym(3, "g"), Sym(0, "a")), Sub(Sym(2, "c"), Const(3)))],
    np.array([[0.5, 1.0, -2.0], [0.0, -0.0, 1.0]]),
    0.75,
    False,
)
def test_gradient_stack_is_the_jet_stack(nodes, rows, g, sorted_first):
    """A first-order run gives the values and gradients of the second-order run bit
    for bit, at one point and over a batch, whether or not a jet call sorted the tape first."""
    fields, params = [Expression(n, ABC, ("g",)) for n in nodes], {"g": g}
    for point in (rows[0], rows):
        tape = Tape(fields)
        with np.errstate(all="ignore"):
            first, second = (2, 1) if sorted_first else (1, 2)
            got = {first: _stack_bytes(tape, point, params, first), second: _stack_bytes(tape, point, params, second)}
        want = got[2] if isinstance(got[2], type) else got[2][:2]
        assert got[1] == want


def _dense_partials(nsym, node, *d):
    """The dense rule of differentiation, the reference: a node's partial by
    each of the nsym symbols, from its operands' partials d."""
    kind = type(node)
    if kind is Const:
        return (_ZERO,) * nsym
    if kind is Sym:
        return tuple(_ONE if i == node.index else _ZERO for i in range(nsym))
    if kind is Neg:
        return tuple(map(_neg, d[0]))
    if kind is Pow:
        outer = _mul(Const(node.k), _pow(node.a, node.k - 1))
        return tuple(_mul(outer, da) for da in d[0])
    a, b = node.a, node.b
    if kind is Mul:
        return tuple(_add(_mul(da, b), _mul(a, db)) for da, db in zip(*d))
    if kind is Div:
        return tuple(_div(_sub(_mul(da, b), _mul(a, db)), _pow(b, 2)) for da, db in zip(*d))
    return tuple(map(_BUILD[kind], *d))  # Add, Sub


_A, _B = Sym(0, "a"), Sym(1, "b")


@given(st.one_of(NODES, BATCH_NODES))
@example(Mul(Const(0.5), Neg(Const(-0.0))))  # a constant tree: every partial is a zero
@example(Div(Add(_A, Mul(Const(-2.5), _B)), Sub(Const(3), Const(0.5))))  # a divisor with no symbol
@example(Add(Mul(_A, Mul(Const(1.25), _B)), Neg(Mul(Const(-0.5), _B))))  # a in one operand of a product only
@example(Div(Const(2), Const(0)))  # a quotient by zero has no partial, by a symbol it holds or not
def test_sparse_partials_are_the_dense_trees(node):
    """Each partial is the dense rule's tree, with its text: a float constant
    can make a zero partial 0.0 or -0.0, and a one 1.0, in both rules."""
    symbols = (*ABC, "g")
    e = Expression(node, ABC, ("g",))
    try:
        dense = _fold([node], partial(_dense_partials, len(symbols)))[0]
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            e.diff("a")
        return
    for x, want in zip(symbols, dense):
        assert _same(e.diff(x).node, want)
        assert e.diff(x).to_source() == Expression(want, ABC, ("g",)).to_source()


def test_a_zero_factor_forms_no_outer_product(monkeypatch):
    """x^3 scales the outer product of its gradient by 6x: at x = 0 none is
    formed, at one point or in a batch lane; 1/y forms one fewer at a zero numerator."""
    from intsing import expr

    formed = []
    products = expr._products
    monkeypatch.setattr(expr, "_products", lambda x, y, sym: formed.append(np.shape(x)) or products(x, y, sym))
    cube = Tape([parse("x^3", ("x", "y"))])
    cube.jet_stack(np.array([0.0, 1.0]))
    cube.jet_stack(np.array([[0.0, 1.0], [-0.0, 2.0]]))
    assert formed == []
    cube.jet_stack(np.array([[0.0, 1.0], [2.0, 1.0]]))
    assert formed == [(1, 2)]  # the lane at x = 2 only
    formed.clear()
    Tape([parse("x/y", ("x", "y"))]).jet_stack(np.array([0.0, 2.0]))
    assert formed == [(2,)]  # dx dy^T, not dy dy^T scaled by 2 x / y^3 = 0


_TINY, _BIG = np.finfo(float).tiny, np.finfo(float).max
_EDGE_DOUBLES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, _TINY / 3, -_TINY, _TINY, _BIG, -_BIG]


@given(
    st.integers(0, 12),
    st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_batch_powers_are_libm_pow(k, drawn, seed):
    """A batch's x ** k is libm pow in every entry: per-entry numpy-scalar b ** k, bit
    for bit, on signed zeros, infinities and NaN, subnormals, the extremes, drawn
    doubles and 512 seeded ones, of magnitudes up to about the k-th root of the
    largest double (where np.power differs from libm in the last bit for some)."""
    from intsing.expr import _power

    rng = np.random.default_rng(seed)
    magnitudes = np.exp2(rng.uniform(-1074, 1022, 512) / max(k, 1)) * rng.uniform(1, 2, 512)
    x = np.concatenate([_EDGE_DOUBLES, drawn, rng.choice([-1.0, 1.0], 512) * magnitudes])
    with np.errstate(all="ignore"):  # both overflow and underflow at the extremes
        got, want = _power(k)(x), np.array([b**k for b in x])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [0, 1])
def test_powers_0_and_1_of_a_batch_are_libm_pow(k):
    """pow(x, 0) = 1 and pow(x, 1) = x of a batch are libm's b ** k on zeros,
    infinities, NaN, subnormals and the extremes."""
    from intsing.expr import _power

    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, tiny / 3, -tiny, tiny, big, -big, 1.0, -2.5])
    got, want = _power(k)(x), np.array([b**k for b in x])
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()


# Jets by degree: a jet run computes affine slots as plain values and quadratic
# ones without a Hessian, lifting them where a higher degree or a root reads
# them.  The reference is the full second-order rules on every slot: the code of
# a tape that no jet call has sorted, run on _Jet leaves.  Trees mix affine
# sums, quadratic products and general nodes, with 0.0 and -0.0 coefficients, a
# parameter and division by a constant and by a subtree.
_LINEAR = st.recursive(
    st.one_of(st.integers(0, 3).map(lambda i: Sym(i, (*ABC, "g")[i])), st.sampled_from([2, 0.5, 0.0, -0.0, -1]).map(Const)),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from([Add, Sub]), kids, kids).map(lambda t: t[0](t[1], t[2])),
        kids.map(Neg),
        st.tuples(kids, st.sampled_from([3, -0.5, 0.0, -0.0])).map(lambda t: Mul(Const(t[1]), t[0])),
        kids.map(lambda k: Mul(Sym(3, "g"), k)),  # a parameter's multiple: its gradient is not fixed
        st.tuples(kids, st.sampled_from([10, -7, Fraction(1, 3)])).map(lambda t: Div(t[0], Const(t[1]))),
    ),
    max_leaves=5,
)
DEGREE_NODES = st.recursive(
    st.one_of(_LINEAR, _BATCH_LEAVES),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from([Add, Sub, Mul, Div]), kids, kids).map(lambda t: t[0](t[1], t[2])),
        kids.map(Neg),
        st.tuples(kids, st.integers(2, 3)).map(lambda t: Pow(*t)),
    ),
    max_leaves=6,
)


def _full_rules(fields, point, params):
    """Each field's _Jet (or float) by the full rules: a fresh tape's code on _Jet leaves."""
    tape = Tape(fields)
    vals, n = tape._values(point, params), len(tape.coords)
    if vals.ndim == 1:
        return tape._run([_Jet(v, e, 0.0) for v, e in zip(vals, np.eye(n))] + list(vals[n:]))
    units = np.broadcast_to(np.eye(n)[:, None, :], (n,) + vals.shape[1:] + (n,))
    return tape._run([_Jet(v, (e, True), 0.0) for v, e in zip(vals, units)] + list(vals[n:, 0]))


def _slot_bits(s):
    """A gradient or Hessian slot: a structural zero (of either sign), an array, or a batch's (array, mask)."""
    if isinstance(s, float):
        return "zero"
    if isinstance(s, tuple):
        return _bytes(np.ascontiguousarray(s[0])), s[0].shape, s[1] if s[1] is True else s[1].tobytes()
    return _bytes(np.ascontiguousarray(s)), s.shape


def _jet_bits(j):
    if not isinstance(j, _Jet):
        return _bytes(j)
    return _bytes(j.v), _slot_bits(j.g), _slot_bits(j.h)


@given(
    st.lists(DEGREE_NODES, min_size=1, max_size=3),
    st.lists(st.lists(_COORDINATE, min_size=3, max_size=3), min_size=1, max_size=6).map(np.array),
    st.sampled_from([0.0, -0.0, -1.0, 0.75]),
    st.booleans(),
)
# The two traps: g*a has the gradient g e_a, and a/10 is a * (1.0 / 10) in a jet.
@example([Mul(Sym(3, "g"), Sym(0, "a")), Div(Sym(0, "a"), Const(10))], np.array([[0.1, 0.0, 1.0]]), 0.75, False)
def test_jets_by_degree_are_the_full_rules(nodes, rows, g, batch_first):
    fields = [Expression(n, ABC, ("g",)) for n in nodes]
    params, tape = {"g": g}, Tape(fields)
    for point in (rows, rows[0]) if batch_first else (rows[0], rows):  # the first call sorts the tape
        with np.errstate(all="raise"):
            try:
                want = [_jet_bits(j) for j in _full_rules(fields, point, params)]
            except (EvalError, FloatingPointError) as exc:
                with pytest.raises(type(exc)):
                    tape.jet_stack(point, params)
                continue
            got = [_jet_bits(j) for j in tape._root_jets(tape._values(point, params))]
        assert got == want


def _scale_c_first(c, s):
    """expr._scale with its product in the old operand order, c * s: the reference
    for s * c, which numpy reaches without float.__mul__ declining first."""
    from intsing.expr import _both, _column, _lanes, _mask

    if isinstance(s, np.ndarray):
        return c * s if c else 0.0
    if isinstance(s, float):
        return 0.0
    if s is None:
        return None
    x, p = s
    if not isinstance(c, np.ndarray):
        return _lanes(p if c else False, operator.mul, c, x)
    return _lanes(p if c.all() else _both(p, _mask(c != 0)), operator.mul, _column(c, x), x)


def _stack_or_error(fields, point, params):
    """The jet stack of a fresh tape (its first call sorts it by degree), or the EvalError's type."""
    try:
        return Tape(fields).jet_stack(point, params)
    except EvalError as exc:
        return type(exc)


_NONFINITE_COORDINATE = st.one_of(_COORDINATE, st.sampled_from([np.nan, np.inf, -np.inf]))


@given(
    st.lists(DEGREE_NODES, min_size=1, max_size=3),
    st.lists(st.lists(_NONFINITE_COORDINATE, min_size=3, max_size=3), min_size=1, max_size=6).map(np.array),
    st.sampled_from([0.0, -0.0, -1.0, 0.75]),
)
def test_scale_in_either_operand_order_gives_the_jet_bits(nodes, rows, g):
    """One-point and batched jets with _scale computing s * c are those of c * s:
    the same bits where the old order gives a number, NaN where it gives NaN."""
    from intsing import expr

    fields, params = [Expression(n, ABC, ("g",)) for n in nodes], {"g": g}
    for point in (rows[0], rows):
        with np.errstate(all="ignore"):
            got = _stack_or_error(fields, point, params)
            expr._scale = _scale_c_first
            try:
                want = _stack_or_error(fields, point, params)
            finally:
                expr._scale = _scale
        if isinstance(want, type):
            assert got is want
            continue
        for new, old in zip(got, want):
            nan = np.isnan(old)
            assert new.shape == old.shape and np.array_equal(np.isnan(new), nan)
            assert new[~nan].tobytes() == old[~nan].tobytes()


def _instruction_degrees(tape: Tape, point, params=None) -> list[str]:
    """What each instruction (lifts left out) gives in a jet run: "plain" (a constant
    or affine value), "first" (a quadratic jet without Hessian) or "full" (the full rules)."""
    from intsing import expr

    tape.jet_stack(point, params)  # sorts the tape
    lifts = (expr._first_order, expr._second_order, expr._with_hessian)
    seen, fns = [], tape._fns

    def watched(fn):
        def run(x, y):
            r = fn(x, y)
            seen.append("plain" if not isinstance(r, _Jet) else "first" if r.h is None else "full")
            return r

        return run

    tape._fns = tuple(fn if fn in lifts else watched(fn) for fn in fns)
    try:
        tape.jet_stack(point, params)
    finally:
        tape._fns = fns
    return seen


def test_degrees_of_the_kovalevskaya_and_disguise_tapes(monkeypatch):
    """The full second-order rules run only where a Hessian varies: on K's two
    outer squares and their sum, on no Casimir instruction, and on no
    instruction of a disguised canonical model."""
    from intsing.canonical import CanonicalSpec, build_canonical, randomized_disguise
    from intsing.kovalevskaya import build_kovalevskaya

    m = build_kovalevskaya(0.5)
    p = np.array([0.3, -0.2, 0.1, 0.5, -0.4, 0.7])
    components = _instruction_degrees(Tape(m.components), p, m.params)
    assert components.count("full") == 3 and components.count("first") == 14
    assert _instruction_degrees(Tape(m.structure.casimirs), p, m.params).count("full") == 0
    for n in range(1, 5):
        for kf in range(n // 2 + 1):
            for r in range(n - 2 * kf + 1):
                for ke in range(n - 2 * kf - r + 1):
                    d = randomized_disguise(build_canonical(CanonicalSpec(r, ke, n - 2 * kf - r - ke, kf)), seed=n)
                    tape = Tape(d.model.components)
                    assert "full" not in _instruction_degrees(tape, d.point.coordinates, d.model.params)
    monkeypatch.setattr(Tape, "_sort_by_degree", lambda self: pytest.fail("a values-only tape was sorted"))
    tape = Tape(m.components)
    tape.values(p, m.params)
    tape.values(np.array([p, -p]), m.params)
    assert tape._gradients is None
