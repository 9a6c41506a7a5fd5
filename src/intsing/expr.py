"""Polynomial/rational scalar fields over named phase-space coordinates.

Expressions are immutable ASTs built from rational constants, named symbols
and the operators + - * / ^ (non-negative integer exponent).  Every transform
(exact partial derivatives, normal form, source text, substitution, equality
and the `Tape`) is one rule per node type over one post-order walk without
recursion, so a tree of any depth is handled, and a walk visits a subtree
object once however many nodes share it.  Differentiation forms only the
structurally nonzero partials: a node keeps its partials by the symbols it
holds.  A `Tape` is straight-line code with one instruction per structurally
distinct node: a subtree shared by several fields (or repeated in one) is
computed once.  One loop runs the tape at a point, over a batch of points and
on first- or second-order jets (value, gradient and Hessian) at a point or over
a batch, so rank tests downstream see no finite-difference noise.  Jets come
back as one type, `JetStack`: value, gradient and Hessian arrays with a leading
axis over the points of a batch; `Expression.jet2` is the same for one field
with its field axis dropped.  A parameter that a tape reads must be given a
value.

Grammar::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" INTEGER)?
    atom   := NUMBER | IDENT | "(" expr ")"

IDENT is ``[A-Za-z][A-Za-z0-9]*``; NUMBER is an integer, decimal or float
literal ("2", "0.5", "1e-3").  Parentheses nest at most MAX_PAREN_DEPTH deep.
A literal or a constant folded from literals must fit a float: a finite float,
0.0 only for zero, and an exact one has at most MAX_CONSTANT_DIGITS digits
above and below its fraction bar, so its source text parses back to it.  A
constant power is checked against both bounds before it is computed, and an
integer literal's length before it is read.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from array import array
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

Number = Union[int, Fraction, float]


class ParseError(ValueError):
    """Malformed source text; carries the offending position."""

    def __init__(self, message: str, source: str, pos: int):
        super().__init__(f"{message} at position {pos}: {source!r}")
        self.pos = pos


class EvalError(ArithmeticError):
    pass


class NotPolynomialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST nodes.  Plain classes with slots; construction goes through the smart
# constructors below which fold constants and keep trees in a stable shape
# (each reads its operands' types once: Const and Neg have no subclasses).
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ()


class Const(Node):
    __slots__ = ("value", "fvalue")

    def __init__(self, value: Number):
        if isinstance(value, Fraction) and value.denominator == 1:
            value = int(value)
        self.value = value
        self.fvalue = float(value)


class Sym(Node):
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name


class _Binary(Node):
    __slots__ = ("a", "b")

    def __init__(self, a: Node, b: Node):
        self.a = a
        self.b = b


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a: Node):
        self.a = a


class Pow(Node):
    """a ^ k for an integer k >= 2 (`_pow` folds the others), run as libm pow (see `_power`)."""

    __slots__ = ("a", "k")

    def __init__(self, a: Node, k: int):
        self.a = a
        self.k = k


_ZERO = Const(0)
_ONE = Const(1)


def _add(a: Node, b: Node) -> Node:
    ka, kb = type(a), type(b)
    if ka is Const:
        if kb is Const:
            return Const(a.value + b.value)
        if a.value == 0:
            return b
    elif kb is Const and b.value == 0:
        return a
    if kb is Neg:
        return _sub(a, b.a)
    return Add(a, b)


def _sub(a: Node, b: Node) -> Node:
    ka, kb = type(a), type(b)
    if ka is Const:
        if kb is Const:
            return Const(a.value - b.value)
        if a.value == 0:
            return _neg(b)
    elif kb is Const and b.value == 0:
        return a
    if kb is Neg:
        return _add(a, b.a)
    return Sub(a, b)


def _neg(a: Node) -> Node:
    kind = type(a)
    if kind is Const:
        return Const(-a.value)
    if kind is Neg:
        return a.a
    return Neg(a)


def _mul(a: Node, b: Node) -> Node:
    ka, kb = type(a), type(b)
    if ka is Const:
        if kb is Const:
            return Const(a.value * b.value)
        if a.value == 0:
            return _ZERO
        if a.value == 1:
            return b
    elif kb is Const:
        if b.value == 0:
            return _ZERO
        if b.value == 1:
            return a
    if ka is Neg:
        return _neg(_mul(a.a, b))
    if kb is Neg:
        return _neg(_mul(a, b.a))
    return Mul(a, b)


def _div(a: Node, b: Node) -> Node:
    ka, kb = type(a), type(b)
    if kb is Const:
        if b.value == 0:
            raise ZeroDivisionError("division by constant zero")
        if ka is Const:
            av, bv = a.value, b.value
            if isinstance(av, float) or isinstance(bv, float):
                return Const(av / bv)
            return Const(Fraction(av) / Fraction(bv))
        if b.value == 1:
            return a
    elif ka is Const and a.value == 0:
        return _ZERO
    if ka is Neg:
        return _neg(_div(a.a, b))
    if kb is Neg:
        return _neg(_div(a, b.a))
    return Div(a, b)


_BUILD = {Add: _add, Sub: _sub, Mul: _mul, Div: _div}


def _pow(a: Node, k: int) -> Node:
    if k < 0:
        raise ValueError("exponent must be a non-negative integer")
    if k == 0:
        return _ONE
    if k == 1:
        return a
    if type(a) is Const:
        return Const(a.value ** k)
    return Pow(a, k)


# ---------------------------------------------------------------------------
# Traversal.  Nodes compare by identity; every transform below (tape,
# derivatives, polynomial, source text, substitution, structural equality) is
# one rule per node type, run by _fold over one post-order walk.
# ---------------------------------------------------------------------------


def _postorder(roots: Sequence[Node]) -> tuple[list[tuple[Node, tuple[Node, ...]]], set[Node]]:
    """Each distinct node object under the roots once with its operands, operands
    first, and the nodes reached more than once (shared, or a root that is also
    an operand).  The walk keeps an explicit stack of bare nodes, with a node's
    (node, operands) tuple pushed below its operands as the marker that emits
    it, so a tree of any depth is walked."""
    order, seen, again = [], set(), set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:
            order.append(node)
        elif node in seen:
            again.add(node)
        else:
            seen.add(node)
            if kind in _BUILD:  # Add, Sub, Mul, Div
                stack += (node, (node.a, node.b)), node.b, node.a
            elif kind is Neg or kind is Pow:
                stack += (node, (node.a,)), node.a
            else:
                order.append((node, ()))
    return order, again


def _fold(roots: Sequence[Node], rule) -> list:
    """The roots' values, where a node's value is rule(node, *its operands' values).

    The rule runs once per distinct node object, in the order of `_postorder`.
    The value of a node with one reader is dropped when it is read, so a long
    sum never holds the text or polynomial of every partial sum at once.
    """
    order, again = _postorder(roots)
    values = {}
    pop = values.pop
    for node, operands in order:
        if not operands:
            values[node] = rule(node)
        elif len(operands) == 2:
            a, b = operands
            values[node] = rule(node, values[a] if a in again else pop(a), values[b] if b in again else pop(b))
        else:
            a = operands[0]
            values[node] = rule(node, values[a] if a in again else pop(a))
    return [values[r] for r in roots]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# The parser recurses once per open parenthesis (three frames per level: expr,
# term and factor), so nesting is bounded well inside the interpreter's
# recursion limit.
MAX_PAREN_DEPTH = 100
# An exact constant's numerator and denominator are integer literals that fit a
# float, so its source text parses back to it (and str() prints them).
MAX_CONSTANT_DIGITS = 308
_MAX_EXACT_BITS = int(MAX_CONSTANT_DIGITS * math.log2(10))  # 2^1023 < 10^308
_TOO_LONG = f"constant does not fit a float: an exact one has at most {MAX_CONSTANT_DIGITS} digits in each part"
# A number, an identifier, an operator, or any other character but a space
# (tab, newline, carriage return), which no token starts.
_TOKEN = re.compile(
    r"((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|([^ \t\n\r])"
)


def _position(src: str, k: int) -> int:
    """Where token k of src starts; len(src) for the end token.  Read only for an error."""
    for token in islice(_TOKEN.finditer(src), k, None):
        return token.start()
    return len(src)


def _tokenize(src: str) -> tuple[list[str], list[str]]:
    """The tokens of src as two lists from one findall, kinds and texts: a kind
    is "num", "ident" or the operator character itself, and both lists end with
    an "end" token of text "".  A character that starts no token is a ParseError."""
    tokens = _TOKEN.findall(src)
    kinds = [op or ("num" if num else "ident" if ident else None) for num, ident, op, _ in tokens]
    texts = [num or ident or op or other for num, ident, op, other in tokens]
    if None in kinds:
        k = kinds.index(None)
        raise ParseError(f"unexpected character {texts[k]!r}", src, _position(src, k))
    kinds.append("end")
    texts.append("")
    return kinds, texts


def _number_value(text: str) -> Number:
    # decimals are floats; exact rationals are written as fractions ("1/2")
    if "e" in text or "E" in text or "." in text:
        return float(text)
    return int(text)


def _exact_bits(value: Number) -> int:
    """The bit length of an exact constant's numerator or denominator, whichever is longer; 0 for a float."""
    return 0 if isinstance(value, float) else max(value.numerator.bit_length(), value.denominator.bit_length())


def _too_long(value: Number) -> bool:
    """Whether an exact constant's numerator or denominator has more than MAX_CONSTANT_DIGITS digits."""
    return not isinstance(value, float) and max(abs(value.numerator), value.denominator) >= 10**MAX_CONSTANT_DIGITS


def _fits_float(c: Const, build, operands) -> bool:
    """Whether c, the constant that build(*operands) folded to, fits a float:
    finite, and 0.0 only for zero.  A float sum is 0.0 only when exact, so a float
    product, quotient or power of nonzero constants that is 0.0 has underflowed."""
    if c.fvalue != 0.0:
        return math.isfinite(c.fvalue)
    if not isinstance(c.value, float):
        return c.value == 0
    return build not in (_mul, _div, _pow) or any(type(x) is Const and x.value == 0 for x in operands)


class _Parser:
    """The tree of one source text, built by the smart constructors.  The
    tokens are read by index from the parallel lists of `_tokenize`; a token's
    position in the text is found only for a ParseError."""

    def __init__(self, src: str, symbols: Mapping[str, int]):
        self.src = src
        self.symbols = symbols
        self.kinds, self.texts = _tokenize(src)
        self.i = 0  # the next token
        self.depth = 0  # open parentheses

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, self.src, _position(self.src, k))

    def fold(self, k: int, build, a, b) -> Node:
        """build(a, b), with a constant that no float holds (or an exact one longer
        than MAX_CONSTANT_DIGITS, or a division by zero) as a ParseError at token k."""
        try:
            node = build(a, b)
        except ZeroDivisionError:
            raise self.error("division by zero constant", k) from None
        except OverflowError:
            raise self.error("constant does not fit a float", k) from None
        if type(node) is Const:
            if not _fits_float(node, build, (a, b)):
                raise self.error("constant does not fit a float", k)
            if _too_long(node.value):
                raise self.error(_TOO_LONG, k)
        return node

    def literal(self, k: int) -> Const:
        """The constant that number token k writes; an integer literal's length is
        checked before it is read, so a literal is never too long once read."""
        text = self.texts[k]
        if text.isdigit() and len(text) > MAX_CONSTANT_DIGITS:
            raise self.error(_TOO_LONG, k)
        node = Const(_number_value(text))
        if not math.isfinite(node.fvalue):
            raise self.error("constant does not fit a float", k)
        return node

    def parse(self) -> Node:
        node = self.expr()
        if self.kinds[self.i] != "end":
            raise self.error(f"unexpected token {self.texts[self.i]!r}", self.i)
        return node

    def expr(self) -> Node:
        node = self.term()
        kinds = self.kinds
        while kinds[self.i] in ("+", "-"):
            k = self.i
            self.i += 1
            node = self.fold(k, _add if kinds[k] == "+" else _sub, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        kinds = self.kinds
        while kinds[self.i] in ("*", "/"):
            k = self.i
            self.i += 1
            node = self.fold(k, _mul if kinds[k] == "*" else _div, node, self.factor())
        return node

    def factor(self) -> Node:
        """A chain of minus signs, an atom and its power, in one frame."""
        kinds, texts, k = self.kinds, self.texts, self.i
        while kinds[k] == "-":
            k += 1
        signs, kind, self.i = k - self.i, kinds[k], k + 1
        if kind == "num":
            node = self.literal(k)
            if node.fvalue == 0.0 and re.search("[1-9]", re.split("[eE]", texts[k])[0]):
                raise self.error("constant does not fit a float", k)  # a nonzero literal underflowed
        elif kind == "ident":
            if texts[k] not in self.symbols:
                raise self.error(f"unknown symbol {texts[k]!r}", k)
            node = Sym(self.symbols[texts[k]], texts[k])
        elif kind == "(":
            self.depth += 1
            if self.depth > MAX_PAREN_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", k)
            node = self.expr()
            if kinds[self.i] != ")":
                raise self.error(f"expected ')', got {texts[self.i]!r}", self.i)
            self.i += 1
            self.depth -= 1
        else:
            raise self.error(f"unexpected token {texts[k]!r}", k)
        if kinds[self.i] == "^":
            k = self.i
            self.i += 2
            if kinds[k + 1] != "num" or not texts[k + 1].isdigit():
                raise self.error("exponent must be a non-negative integer literal", k + 1)
            exponent = self.literal(k + 1).value
            if type(node) is Const:
                # a nonzero float holds |base|^exponent only within [2^-1075, 2^1024): refuse what is surely outside
                if node.fvalue != 0.0 and not -1076 < exponent * math.log2(abs(node.fvalue)) < 1025:
                    raise self.error("constant does not fit a float", k)
                # n^k >= 2^(k * (bits(n) - 1)): refuse what is surely longer than 10^MAX_CONSTANT_DIGITS
                if exponent * (_exact_bits(node.value) - 1) > _MAX_EXACT_BITS:
                    raise self.error(_TOO_LONG, k)
            node = self.fold(k, _pow, node, exponent)
        for _ in range(signs):
            node = _neg(node)
        return node


# ---------------------------------------------------------------------------
# Differentiation (exact, symbolic)
# ---------------------------------------------------------------------------


def _partials(node: Node, *d: dict) -> dict:
    """The _fold rule of differentiation: a node's partials from its operands'
    partials d, as {symbol index: partial} over the symbols in the node, and
    under None the partial by any other symbol.  That one is a zero constant,
    0, 0.0 or -0.0 as float constants fold into it, so a partial is the same
    tree whether a symbol occurs in an operand or not."""
    kind = type(node)
    if kind is Const:
        return {None: _ZERO}
    if kind is Sym:
        return {None: _ZERO, node.index: _ONE}
    if kind is Neg:
        return {i: _neg(da) for i, da in d[0].items()}
    if kind is Pow:
        outer = _mul(Const(node.k), _pow(node.a, node.k - 1))
        return {i: _mul(outer, da) for i, da in d[0].items()}
    (a, b), (pa, pb) = (node.a, node.b), d
    pairs = ((i, pa.get(i, pa[None]), pb.get(i, pb[None])) for i in {**pa, **pb})
    if kind is Mul:
        return {i: _add(_mul(da, b), _mul(a, db)) for i, da, db in pairs}
    if kind is Div:
        return {i: _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, 2)) for i, da, db in pairs}
    build = _BUILD[kind]  # Add, Sub
    return {i: build(da, db) for i, da, db in pairs}


# ---------------------------------------------------------------------------
# Evaluation: a tape (Griewank & Walther, *Evaluating Derivatives*, SIAM 2008,
# ch. 2-3) run by one loop over any leaf numbers: a float at one point, an array
# per coordinate over a batch of points, or a _Jet for second-order jets at one
# point or over a batch (vector forward mode, ch. 3).  Constants are plain
# floats, and so are parameters in a jet.  A batch runs each instruction as one
# numpy call over its points, a power as one libm pow call per entry (see
# _power), so each of its rows has the bits of the one-point run.
#
# Jets by degree.  The models are low-degree, and a slot's gradient or Hessian
# is often the same at every point.  On a tape's first jet call each slot gets
# its degree in the coordinates:
#   constant   constants and parameters only;
#   affine     its gradient is one fixed vector (its coefficients are constants:
#              a parameter's value may change between calls);
#   quadratic  its Hessian is fixed: every factor that scales a Hessian in the
#              rules is a constant or 2 pow(v, 0) = 2;
#   general    everything else.
# The fixed gradients and Hessians are formed then, once, by the primitives the
# rules use, and kept in one array per kind.  Each is exactly what the rules
# compute at any point, one-point or (the same in every lane) batched, so a jet
# keeps its bits, signed and structural zeros included.  From then on, the first
# call included, a jet run computes an affine slot as a plain value, a
# quadratic one as a _Jet whose Hessian is None (the rules then form value and
# gradient only), and a general one by the full rules.  A lift instruction,
# added to the tape's code before the first reader that needs it, makes a value
# a jet with its fixed gradient, or gives a quadratic jet its fixed Hessian,
# where a quadratic or general instruction or a root reads it.  A lift reads its
# fixed part from a register that holds None in a run on plain values, where it
# passes the value on.  A quotient's jet is x * (1.0 / c), not x / c, so a
# quotient is never run as a plain affine value.  A first-order run (values and
# gradients only) runs the same sorted code with _first_order in place of
# _second_order and None in the Hessian registers, where _with_hessian passes
# its jet on: no jet then carries a Hessian, and every value and gradient keeps
# the bits of the second-order run.
# ---------------------------------------------------------------------------


def _negate(x, _):  # every instruction takes two operands; a unary one ignores its second
    return -x


def _quotient(x, y):  # a batch divides by zero when one of its points does
    zero = y == 0.0
    if zero.any() if isinstance(zero, np.ndarray) else zero:
        raise EvalError("division by zero")
    return x / y


@cache
def _power(k: int):
    """The instruction x ** k: libm pow at a point and in every entry of a batch,
    so a batch entry has the bits of one-point evaluation.  A batch is one
    np.float_power call, which calls libm pow per entry; np.power does not, and
    differs from it in the last bit for some doubles.  A point keeps x ** k,
    several times faster on a scalar than a numpy call."""

    def power(x, _=None):
        return np.float_power(x, k) if isinstance(x, np.ndarray) else x ** k

    return power


_INSTRUCTION = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: _quotient}


def _first_order(x, g):
    """The affine value x as a jet with gradient g and no Hessian, for a quadratic instruction."""
    return x if g is None else _Jet(x, g, None)


def _second_order(x, g):
    """The affine value x as a jet with gradient g, for a general instruction or a root."""
    return x if g is None else _Jet(x, g, 0.0)


def _with_hessian(x, h):
    """The quadratic jet x with its Hessian h, for a general instruction or a root."""
    return x if h is None else _Jet(x.v, x.g, h)


# Degrees 0 to 3: constant, affine, quadratic and general.  _LIFT gives the lift
# that a reader of degree 2 or 3 (a root reads as 3) puts on an operand of a
# lower nonconstant degree.  Each instruction's rule in _DEGREE gives the degree
# and fixed part of its result from its operands' degrees (not both 0) and fixed
# parts, formed as the _Jet rule forms it.  A fixed part is an affine slot's
# gradient, a quadratic slot's Hessian or a constant's value (None when not
# fixed: a parameter or a computed constant); a lower-degree operand's part at
# the result's degree is a structural zero.
_LIFT = {(2, 1): _first_order, (3, 1): _second_order, (3, 2): _with_hessian}


def _scaled(d: int, c, s):
    """A slot of degree d > 0 and fixed part s times the constant c."""
    if c is not None and d < 3:
        return d, _scale(c, s)
    return (2, 0.0) if d == 1 or d == 2 and isinstance(s, float) else (3, None)


def _product(da: int, db: int, pa, pb):
    if da and db:
        return (2, _outer(pa, pb, sym=True)) if da == db == 1 else (3, None)
    return _scaled(db, pa, pb) if db else _scaled(da, pb, pa)


def _sum(da: int, db: int, pa, pb, minus=None):
    d = da if da > db else db
    if d == 3:
        return 3, None
    y = pb if db == d else 0.0
    return d, _plus(pa if da == d else 0.0, minus(y) if minus else y)


def _difference(da: int, db: int, pa, pb):  # x - y is x + (-y)
    return _sum(da, db, pa, pb, _minus)


def _negation(da: int, db: int, pa, pb):
    return da, _minus(pa)


def _division(da: int, db: int, pa, pb):  # x * (1.0 / c); a zero c raises in the run
    if db:
        return 3, None
    return (2, 0.0) if da == 1 else _scaled(da, 1.0 / pb if pb else None, pa)


def _square(da: int, db: int, pa, pb):
    return (2, _scaled_outer(2.0, pa, pa)) if da == 1 else (3, None)  # 2.0: the rule's 2 * 1 * pow(v, 0)


def _general(da: int, db: int, pa, pb):  # a higher power
    return 3, None


_DEGREE = {
    operator.mul: _product,
    operator.add: _sum,
    operator.sub: _difference,
    _negate: _negation,
    _quotient: _division,
    _power(2): _square,
}


class Tape:
    """Straight-line code for fields over one symbol table.

    Each distinct node is one slot, computed once per run: an operation is
    keyed on its op, its operand slots and its exponent, a constant on its
    float bits (so 0.0 and -0.0 stay apart) and a symbol on its index.  The
    build is one _fold over the fields' nodes: a tree of any depth compiles,
    and a subtree object shared between fields is visited once.  The first jet
    call sorts the slots by degree and adds the lifts (see the comment above
    _negate); a tape that only gives values never does.
    """

    __slots__ = (
        "coords", "params", "_read", "_init", "_fns", "_first_fns", "_a", "_b", "_out", "_roots", "_gradients",
        "_hessians",
    )

    def __init__(self, fields: Sequence[Expression]):
        self.coords, self.params = (fields[0].coords, fields[0].params) if fields else ((), ())
        if any((f.coords, f.params) != (self.coords, self.params) for f in fields):
            raise ValueError("mixing expressions over different symbol tables")
        nsym = len(self.symbols)
        consts, fns, args, keyed = [], [], [], {}  # operation k is slot -(k + 1); key -> slot
        read = set()  # the symbols' slots: each is read by an operation or is a root

        def slot(node: Node, *operands: int) -> int:
            kind = type(node)
            if kind is Sym:
                read.add(node.index)
                return node.index
            if kind is Const:
                key = struct.pack("<d", node.fvalue)
                if key not in keyed:
                    keyed[key] = nsym + len(consts)
                    consts.append(node.fvalue)
                return keyed[key]
            fn = _power(node.k) if kind is Pow else _negate if kind is Neg else _INSTRUCTION[kind]
            key = (fn, operands[0], operands[-1])  # a unary operation reads its operand twice
            if key not in keyed:
                fns.append(fn)
                args.append(key[1:])
                keyed[key] = -len(fns)
            return keyed[key]

        roots = _fold([f.node for f in fields], slot)
        self._read = tuple(p for s, p in enumerate(self.params, len(self.coords)) if s in read)  # the parameters read
        # Registers: a symbol or constant keeps its slot.  An operation's value
        # holds a register until its last reader has run, then the register is
        # reused, so a batch keeps few arrays alive at once; a root's is kept.
        last = {}
        for k, (a, b) in enumerate(args):
            last[a] = last[b] = k
        for s in roots:
            last[s] = len(args)
        out, free, top = [], [], nsym + len(consts)  # out[k]: operation k's register
        for k, (a, b) in enumerate(args):
            if a < 0 and last[a] == k:
                free.append(out[-a - 1])
            if b < 0 and b != a and last[b] == k:
                free.append(out[-b - 1])
            if free:
                out.append(free.pop())
            else:
                out.append(top)
                top += 1

        def reg(s: int) -> int:
            return s if s >= 0 else out[-s - 1]

        self._init = tuple(consts) + (None,) * (top - nsym - len(consts))
        self._fns = tuple(fns)
        self._a = array("i", [reg(a) for a, _ in args])
        self._b = array("i", [reg(b) for _, b in args])
        self._out = array("i", out)
        self._roots = array("i", [reg(s) for s in roots])
        self._gradients = self._hessians = None  # the fixed parts, once sorted by degree
        self._first_fns = None  # the sorted code of a first-order run, once one is asked for

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.coords + self.params

    def _run(self, leaves, fixed=(), fns=None) -> list:
        """The roots' numbers from the symbols' (leaves), by the instructions fns
        (default the tape's own).  fixed fills the last registers, which hold the
        fixed parts that a jet run's lifts read."""
        r = [*leaves, *self._init]
        r[len(r) - len(fixed) :] = fixed
        for fn, a, b, o in zip(fns or self._fns, self._a, self._b, self._out):
            r[o] = fn(r[a], r[b])
        return [r[s] for s in self._roots]

    def _sort_by_degree(self) -> None:
        """Give each slot its degree, form the fixed gradients and Hessians, and
        add a lift before the first reader of a slot that needs it and for each
        root.  The fixed registers come last: a structural zero, then the
        gradients, then the Hessians.  Nothing changes until all is formed."""
        n, nsym = len(self.coords), len(self.symbols)
        top = nsym + len(self._init)
        # Per register, its slot's degree, its fixed part (a coordinate's gradient,
        # a constant's value, None for a parameter, else as its rule in _DEGREE
        # gives it) and its lifts so far ({lift: register, None: where its fixed
        # part is kept, None for a structural zero}).
        degree = [1] * n + [0] * (top - n)
        part = [*np.eye(n), *(None,) * (nsym - n), *self._init]
        lifted = [None] * top
        kept = ([], [])  # the gradients and the Hessians that lifts read
        lifts = []  # (instruction it precedes, lift, register, where kept, lifted register)
        fns, A, B, O = list(self._fns), list(self._a), list(self._b), list(self._out)

        def lift(k: int, r: int, how) -> int:
            """The register of r's slot lifted by how, a lift before instruction k added once per slot."""
            done = lifted[r] = lifted[r] or {}
            if how not in done:
                if None not in done:
                    kind = degree[r] - 1
                    done[None] = None if isinstance(part[r], float) else (kind, len(kept[kind]))
                    if done[None]:
                        kept[kind].append(part[r])
                done[how] = top + len(lifts)
                lifts.append((k, how, r, done[None], done[how]))
            return done[how]

        rule = _DEGREE.get
        for k, (fn, a, b, o) in enumerate(zip(self._fns, self._a, self._b, self._out)):
            da, db = degree[a], degree[b]
            d, p = rule(fn, _general)(da, db, part[a], part[b]) if da or db else (0, None)
            if d > 1 and (0 < da < d or 0 < db < d):  # a reader of a lower nonconstant degree: lift
                A[k] = lift(k, a, _LIFT[d, da]) if 0 < da < d else a
                B[k] = lift(k, b, _LIFT[d, db]) if 0 < db < d else b
            degree[o], part[o], lifted[o] = d, p, None  # o holds a new slot
        end = len(self._fns)
        roots = [lift(end, s, _LIFT[3, degree[s]]) if 0 < degree[s] < 3 else s for s in self._roots]
        zero = top + len(lifts)
        for k, how, r, where, out in reversed(lifts):
            fixed = zero if where is None else zero + 1 + where[1] + where[0] * len(kept[0])
            for code, x in ((fns, how), (A, r), (B, fixed), (O, out)):
                code.insert(k, x)
        gradients = np.array(kept[0], dtype=float).reshape(len(kept[0]), n)
        hessians = np.array(kept[1], dtype=float).reshape(len(kept[1]), n, n)
        for fixed in (gradients, hessians):  # a jet's gradient or Hessian may be a row
            fixed.setflags(write=False)
        self._fns, self._roots = tuple(fns), array("i", roots)
        self._a, self._b, self._out = array("i", A), array("i", B), array("i", O)
        self._init += (None,) * (len(lifts) + 1 + len(gradients) + len(hessians))
        self._gradients, self._hessians = gradients, hessians

    def _values(self, point, params: Mapping[str, float] | None) -> np.ndarray:
        """One row per symbol: shape (nsym,) at a point, (nsym, m) at the rows of an
        (m, dim) array.  A parameter that the code reads and params lacks is a ValueError."""
        pt = np.asarray(point, dtype=float)
        if pt.shape[pt.ndim == 2 :] != (len(self.coords),):
            raise ValueError(f"expected {len(self.coords)} coordinate values")
        params = params or {}
        missing = [name for name in self._read if name not in params]
        if missing:
            raise ValueError(f"no value for parameter {', '.join(map(repr, missing))}")
        vals = np.zeros((len(self.symbols),) + pt.shape[:-1])
        vals[: len(self.coords)] = pt.T
        for name, v in params.items():
            if name in self.params:  # models may carry parameters this field never uses
                vals[self.symbols.index(name)] = v
        return vals

    def values(self, point, params: Mapping[str, float] | None = None) -> list:
        """Each field's value at one point, or its m values at the rows of an (m, dim) array."""
        if not self._roots:
            return []
        vals = self._values(point, params)
        out = self._run(vals)
        return out if vals.ndim == 1 else [np.full(vals.shape[1], v) for v in out]

    def jet_stack(self, point, params: Mapping[str, float] | None = None) -> JetStack:
        """Value, gradient and symmetric Hessian of each field, stacked: shapes (k,),
        (k, n) and (k, n, n) at one point, with a leading m at the rows of an
        (m, dim) array, each row with the bits of its one-point call."""
        V, G, H = self._stacked(point, params, second_order=True)
        return JetStack(V, G, 0.5 * (H + H.swapaxes(-1, -2)))

    def gradient_stack(self, point, params: Mapping[str, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Value and gradient of each field, stacked: shapes (k,) and (k, n) at one
        point, with a leading m at the rows of an (m, dim) array.  One first-order
        run, which forms no Hessian: the bits of `jet_stack`'s value and gradient."""
        return self._stacked(point, params, second_order=False)[:2]

    def _stacked(self, point, params, second_order: bool) -> tuple:
        """The fields' values, gradients and unsymmetrised Hessians (None without second_order) as arrays."""
        lead, k = np.shape(point)[:-1], len(self._roots)
        if not k:  # no fields: no symbol table to check the point against
            n = np.shape(point)[-1]
            return np.zeros(lead + (0,)), np.zeros(lead + (0, n)), np.zeros(lead + (0, n, n))
        vals, n = self._values(point, params), len(self.coords)
        V, G = np.zeros(lead + (k,)), np.zeros(lead + (k, n))
        H = np.zeros(lead + (k, n, n)) if second_order else None
        if lead == (0,):
            return V, G, H
        for i, j in enumerate(self._root_jets(vals, second_order)):
            if not isinstance(j, _Jet):  # a field of constants and parameters
                V[..., i] = j
                continue
            V[..., i] = j.v
            if not isinstance(j.g, float):
                G[..., i, :] = j.g[0] if lead else j.g
            if second_order and not isinstance(j.h, float):
                H[..., i, :, :] = j.h[0] if lead else j.h
        return V, G, H

    def _root_jets(self, vals: np.ndarray, second_order: bool = True) -> list:
        """Each root's _Jet (a float for a constant field) from one jet run on the
        symbols' numbers vals, of one point or of a batch (see _values); the first
        call sorts the tape by degree.  Parameters stay plain floats.  A first-order
        run swaps each _second_order lift for _first_order and leaves the Hessian
        registers None, where _with_hessian passes its jet on: no jet carries a Hessian."""
        if self._gradients is None:
            self._sort_by_degree()
        grads, n = self._gradients, len(self.coords)
        if second_order:
            fns, hessians = self._fns, self._hessians
        else:
            if self._first_fns is None:
                self._first_fns = tuple(_first_order if fn is _second_order else fn for fn in self._fns)
            fns, hessians = self._first_fns, [None] * len(self._hessians)
        if vals.ndim == 1:
            return self._run(vals, [0.0, *grads, *hessians], fns)
        lead = vals.shape[1:]  # a fixed part is the same in every lane: a read-only broadcast
        grads = [(g, True) for g in np.broadcast_to(grads[:, None], (len(grads),) + lead + (n,))]
        if second_order:
            hessians = [(h, True) for h in np.broadcast_to(hessians[:, None], (len(hessians),) + lead + (n, n))]
        return self._run([*vals[:n], *vals[n:, 0]], [0.0, *grads, *hessians], fns)


# In a jet's gradient or Hessian slot a plain float is a structural zero.  It
# is never added into an array, and a zero factor never scales one, so every
# array term that is kept keeps its bits, signed zeros too.  At one point any
# other slot is an array.  Over a batch of m points (vector forward mode, ch. 3)
# the value is one float per point, lane k that of point k, and any other slot
# is (array, mask): the mask is True when every lane is present, else one bool
# per lane, and an absent lane (where point k's jet holds a structural zero)
# holds +0.0.  A batch computes an array term only in the lanes where the
# one-point jet computes it, so a present entry has that jet's bits and an
# absent lane raises no numpy warning.  The rules of _Jet reach their slots
# only through the primitives below (_scale, _plus, _outer, _scaled_outer, _minus), so
# each rule is written once for both forms.  A quadratic slot's jet carries no
# Hessian (None; its Hessian is fixed, see Tape): the primitives pass None on,
# and the rules form no Hessian for it.


def _lanes(keep, fn, *args):
    """The batch slot of fn(*args) in the lanes of the mask keep (False: none,
    a structural zero); fn reads the kept rows of every array argument and nothing else."""
    if keep is False:
        return 0.0
    if keep is True:
        return fn(*args), True
    kept = fn(*(a[keep] if isinstance(a, np.ndarray) else a for a in args))
    out = np.zeros((len(keep),) + kept.shape[1:])
    out[keep] = kept
    return out, keep


def _mask(lanes: np.ndarray):
    return True if lanes.all() else lanes if lanes.any() else False


def _both(p, q):
    """The lanes present under both masks."""
    if p is True or q is False:
        return q
    if q is True or p is False:
        return p
    return _mask(p & q)


def _column(c: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One entry per lane, shaped to scale the rows of like."""
    return c.reshape(c.shape + (1,) * (like.ndim - 1))


def _scale(c, s):
    """s * c, and a structural zero where c is 0: in a batch c is a number or one per lane.
    The array comes first, so numpy multiplies at once rather than after float.__mul__ declines."""
    if isinstance(s, np.ndarray):
        return s * c if c else 0.0
    if isinstance(s, float):
        return 0.0
    if s is None:
        return None
    x, p = s
    if not isinstance(c, np.ndarray):
        return _lanes(p if c else False, operator.mul, x, c)
    return _lanes(p if c.all() else _both(p, _mask(c != 0)), operator.mul, x, _column(c, x))


def _plus(x, y):
    """x + y, or the one that is present: in a batch, lane by lane."""
    if x is None or isinstance(x, float):
        return y
    if isinstance(y, float):
        return x
    if isinstance(x, np.ndarray):
        return x + y
    (x, p), (y, q) = x, y
    s = x + y  # an absent lane holds +0.0: no warning, and its side is picked below
    if p is True and q is True:
        return s, True
    if q is not True:
        s = np.where(_column(q, x), s, x)
    if p is not True:
        s = np.where(_column(p, x), s, y)
    return s, True if p is True or q is True else _mask(p | q)


def _products(x, y, sym):  # x y^T over the last axis: a point's gradients, or each lane's
    m = x[..., :, None] * y[..., None, :]
    return m + m.swapaxes(-1, -2) if sym else m


def _outer(x, y, sym: bool = False):
    """x y^T (the products of np.outer), plus its transpose with sym."""
    if isinstance(x, float) or isinstance(y, float):
        return 0.0
    if isinstance(x, np.ndarray):
        return _products(x, y, sym)
    return _lanes(_both(x[1], y[1]), _products, x[0], y[0], sym)


def _scaled_outer(c, x, y, sym: bool = False):
    """_scale(c, _outer(x, y, sym)), the products formed only where c is nonzero."""
    if isinstance(x, float) or isinstance(y, float):
        return 0.0
    if isinstance(c, np.ndarray):  # one factor per lane: x is a batch slot
        x = x[0], _both(x[1], _mask(c != 0))
    elif not c:
        return 0.0
    return _scale(c, _outer(x, y, sym))


def _minus(s):
    """-s, in either form."""
    if not isinstance(s, tuple):
        return s if s is None else -s
    return _lanes(s[1], operator.neg, s[0])


class _Jet:
    """Value v, gradient g and Hessian h (not yet symmetrised) along the coordinates,
    at one point or over a batch, in forward mode (Griewank & Walther, *Evaluating
    Derivatives*, SIAM 2008); each rule keeps the arithmetic order in which intsing
    has always formed jets."""

    __slots__ = ("v", "g", "h")
    __array_ufunc__ = None  # numpy scalars defer to the reflected methods

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __eq__(self, other):  # by value (in a batch, lane by lane): the zero-divisor test of _quotient
        return self.v == other

    def __neg__(self):
        return _Jet(-self.v, _minus(self.g), _minus(self.h))

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.v + o.v, _plus(self.g, o.g), _plus(self.h, o.h))
        return _Jet(self.v + o, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, o):  # x - y and x + (-y) round alike
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.v * o, _scale(o, self.g), _scale(o, self.h))
        va, ga, vb, gb = self.v, self.g, o.v, o.g
        g = _plus(_scale(vb, ga), _scale(va, gb))
        if self.h is None:
            return _Jet(va * vb, g, None)
        h = _plus(_plus(_scale(vb, self.h), _scale(va, o.h)), _outer(ga, gb, sym=True))
        return _Jet(va * vb, g, h)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return o.__rtruediv__(self) if isinstance(o, _Jet) else self * (1.0 / o)

    def __rtruediv__(self, o):
        """o / self: f'' = a''/b - (a' b'^T + b' a'^T)/b^2 - a b''/b^2 + 2 a b' b'^T / b^3."""
        va, ga, ha = (o.v, o.g, o.h) if isinstance(o, _Jet) else (o, 0.0, 0.0)
        gb, inv = self.g, 1.0 / self.v
        if self.h is None:  # a first-order divisor: no Hessian terms, as in __mul__
            v = va * inv
            return _Jet(v, _plus(_scale(inv, ga), _scale(-(v * inv), gb)), None)
        v, c = va * inv, 2.0 * va * _power(3)(inv)
        h = _plus(_scale(inv, ha), _scaled_outer(-(inv * inv), ga, gb, sym=True))
        h = _plus(h, _scale(-(va * inv * inv), self.h))
        h = _plus(h, _scaled_outer(c, gb, gb))
        return _Jet(v, _plus(_scale(inv, ga), _scale(-(v * inv), gb)), h)

    def __pow__(self, k: int):  # k >= 2, as _pow builds it
        va, ga = self.v, self.g
        dk, h = k * _power(k - 1)(va), self.h
        if h is not None:
            h = _plus(_scale(dk, h), _scaled_outer(k * (k - 1) * _power(k - 2)(va), ga, ga))
        return _Jet(_power(k)(va), _scale(dk, ga), h)


# ---------------------------------------------------------------------------
# Polynomial normal form: dict {exponent tuple -> Fraction}.  Division is
# admitted only by (sub)expressions that normalize to a nonzero constant.
# ---------------------------------------------------------------------------


def _poly_const(c: Number, nsym: int):
    c = Fraction(c)  # a float's exact binary expansion
    if c == 0:
        return {}
    return {(0,) * nsym: c}


def _poly_mul(p1, p2, nsym):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c == 0:
                out.pop(m, None)
            else:
                out[m] = c
    return out


def _poly_add(p1, p2):
    out = dict(p1)
    for m, c in p2.items():
        s = out.get(m, 0) + c
        if s == 0:
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _polynomial(nsym: int, node: Node, *p: dict) -> dict:
    """The _fold rule of the normal form over nsym symbols."""
    kind = type(node)
    if kind is Const:
        return _poly_const(node.value, nsym)
    if kind is Sym:
        m = [0] * nsym
        m[node.index] = 1
        return {tuple(m): Fraction(1)}
    if kind is Add:
        return _poly_add(*p)
    if kind is Sub:
        return _poly_add(p[0], {m: -c for m, c in p[1].items()})
    if kind is Neg:
        return {m: -c for m, c in p[0].items()}
    if kind is Mul:
        return _poly_mul(*p, nsym)
    if kind is Div:
        if len(p[1]) == 1 and (0,) * nsym in p[1]:
            return {m: v / p[1][(0,) * nsym] for m, v in p[0].items()}
        raise NotPolynomialError("division by a non-constant expression")
    out = _poly_const(1, nsym)  # Pow
    for _ in range(node.k):
        out = _poly_mul(out, p[0], nsym)
    return out


# ---------------------------------------------------------------------------
# Serialization (stable round-trip: parse(to_source(e)) == e)
# ---------------------------------------------------------------------------


def _const_source(c: Number) -> tuple[str, int]:
    if isinstance(c, float):
        text = repr(c)
        prec = 1 if text.startswith("-") else 4
        return text, prec
    if isinstance(c, Fraction):
        text = f"{c.numerator}/{c.denominator}"
        return text, 1 if c < 0 else 2
    return str(c), 1 if c < 0 else 4


_INFIX = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}


def _parens(operand: tuple[str, int], below: int) -> str:
    text, prec = operand
    return f"({text})" if prec < below else text


def _source(node: Node, *operands: tuple[str, int]) -> tuple[str, int]:
    """The _fold rule of serialization: (text, precedence), where
    Add/Sub/Neg=1, Mul/Div=2, Pow=3, atom=4; parse reads the text back as the node."""
    kind = type(node)
    if kind is Const:
        return _const_source(node.value)
    if kind is Sym:
        return node.name, 4
    if kind is Neg:  # "-2*a" reads as (-2)*a: an operand led by a constant factor keeps its parentheses
        lead = node.a
        while type(lead) in (Mul, Div):
            lead = lead.a
        return "-" + _parens(operands[0], 3 if type(lead) is Const else 2), 1
    if kind is Pow:
        return f"{_parens(operands[0], 4)}^{node.k}", 3
    op, prec = _INFIX[kind]  # a left operand of equal precedence needs no parentheses
    return _parens(operands[0], prec) + op + _parens(operands[1], prec + 1), prec


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------


class JetStack(NamedTuple):
    """The jets of k fields as arrays: value (k,), gradient (k, n) and Hessian
    (k, n, n) at one point, each with a leading axis over the points of a batch."""

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


class Expression:
    """Immutable scalar field over a fixed symbol table (coords + params)."""

    __slots__ = ("node", "coords", "params", "_gradient", "_tape")

    def __init__(self, node: Node, coords: Sequence[str], params: Sequence[str] = ()):
        self.node = node
        self.coords = tuple(coords)
        self.params = tuple(params)
        self._gradient: tuple[Expression, ...] | None = None
        self._tape: Tape | None = None

    # -- construction helpers ------------------------------------------------

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.coords + self.params

    def _wrap(self, node: Node) -> "Expression":
        return Expression(node, self.coords, self.params)

    def _coerce(self, other) -> Node:
        if isinstance(other, Expression):
            if other.symbols != self.symbols:
                raise ValueError("mixing expressions over different symbol tables")
            return other.node
        if isinstance(other, (int, float, Fraction)):
            return Const(other)
        return NotImplemented

    def _operator(build, reflected=False):
        def op(self, other):
            n = self._coerce(other)
            if n is NotImplemented:
                return n
            return self._wrap(build(n, self.node) if reflected else build(self.node, n))

        return op

    __add__ = __radd__ = _operator(_add)
    __sub__, __rsub__ = _operator(_sub), _operator(_sub, reflected=True)
    __mul__ = __rmul__ = _operator(_mul)
    __truediv__ = _operator(_div)
    del _operator

    def __pow__(self, k: int):
        return self._wrap(_pow(self.node, k))

    def __neg__(self):
        return self._wrap(_neg(self.node))

    def _structure(self) -> tuple:
        """The symbol table and the tree hash-consed: each structurally distinct
        subtree once, in order of first appearance, as its type and its
        operands' numbers (a constant by value, a symbol by index and name).
        Shared and unshared copies of a tree give the same structure."""
        number: dict = {}

        def intern(node: Node, *operands: int) -> int:
            kind = type(node).__name__  # a name, so hashes vary only with PYTHONHASHSEED
            if kind == "Const":
                key = (kind, node.value)
            elif kind == "Sym":
                key = (kind, node.index, node.name)
            else:
                key = (kind, *operands, getattr(node, "k", 0))  # a power's exponent (>= 2)
            return number.setdefault(key, len(number))

        _fold([self.node], intern)
        return self.symbols, tuple(number)

    def __eq__(self, other):
        return isinstance(other, Expression) and self._structure() == other._structure()

    def __hash__(self):
        return hash(self._structure())

    def __repr__(self):
        return f"Expression({self.to_source()!r})"

    # -- queries -------------------------------------------------------------

    def free_symbols(self) -> set[str]:
        return {n.name for n, _ in _postorder([self.node])[0] if type(n) is Sym}

    def is_zero(self) -> bool:
        """Exact zero test via polynomial normal form."""
        return not self.as_polynomial()

    def to_source(self) -> str:
        return _fold([self.node], _source)[0][0]

    def as_polynomial(self):
        """Monomial dict {exponent tuple: Fraction} over the symbol table."""
        return _fold([self.node], partial(_polynomial, len(self.symbols)))[0]

    def normalized_equal(self, other: "Expression") -> bool:
        if self.symbols != other.symbols:
            return False
        mine, theirs = _fold([self.node, other.node], partial(_polynomial, len(self.symbols)))
        return mine == theirs

    # -- calculus ------------------------------------------------------------

    def diff(self, var: str) -> "Expression":
        try:
            idx = self.symbols.index(var)
        except ValueError:
            raise ValueError(f"undeclared variable {var!r}") from None
        if self._gradient is None:  # every partial from one walk
            partials = _fold([self.node], _partials)[0]
            self._gradient = tuple(self._wrap(partials.get(i, partials[None])) for i in range(len(self.symbols)))
        return self._gradient[idx]

    def substitute(self, mapping: Mapping[str, "Expression"]) -> "Expression":
        """Replace symbols by expressions (all over the target symbol table)."""
        targets = {e.symbols for e in mapping.values()}
        if len(targets) != 1:
            raise ValueError("substitution images must share one symbol table")
        tmpl = next(iter(mapping.values()))

        def image(n: Node, *operands: Node) -> Node:
            kind = type(n)
            if kind is Const:
                return n
            if kind is Neg:
                return _neg(*operands)
            if kind is Pow:
                return _pow(*operands, n.k)
            if kind is not Sym:
                return _BUILD[kind](*operands)
            if n.name in mapping:
                return mapping[n.name].node
            try:
                return Sym(tmpl.symbols.index(n.name), n.name)
            except ValueError:
                raise ValueError(f"symbol {n.name!r} missing from substitution") from None

        return Expression(_fold([self.node], image)[0], tmpl.coords, tmpl.params)

    # -- evaluation ----------------------------------------------------------

    def _compiled(self) -> Tape:
        """This field's one-root tape, compiled on first use."""
        if self._tape is None:
            self._tape = Tape([self])
        return self._tape

    def evaluate(self, point, params: Mapping[str, float] | None = None):
        """The value at one point, or the m values at the rows of an (m, dim) array."""
        return self._compiled().values(point, params)[0]

    def jet2(self, point, params: Mapping[str, float] | None = None) -> JetStack:
        """Value, gradient and Hessian at one point, shapes (), (n,) and (n, n), each
        with a leading m at the rows of an (m, dim) array: this field's `jet_stack`
        with its field axis dropped."""
        V, G, H = self._compiled().jet_stack(point, params)
        return JetStack(np.take(V, 0, -1), np.take(G, 0, -2), np.take(H, 0, -3))


# ---------------------------------------------------------------------------
# Module-level API
# ---------------------------------------------------------------------------


def parse(source: str, coords: Sequence[str], params: Sequence[str] = ()) -> Expression:
    """Parse source text over declared coordinate (and parameter) names."""
    names = tuple(coords) + tuple(params)
    if len(set(names)) != len(names):
        raise ValueError("duplicate symbol names")
    table = {name: i for i, name in enumerate(names)}
    node = _Parser(source, table).parse()
    return Expression(node, coords, params)


def constant(value: Number, coords: Sequence[str], params: Sequence[str] = ()) -> Expression:
    return Expression(Const(value), coords, params)


def symbol(name: str, coords: Sequence[str], params: Sequence[str] = ()) -> Expression:
    names = tuple(coords) + tuple(params)
    return Expression(Sym(names.index(name), name), coords, params)
