"""Canonical local models for non-degenerate singular points.

For a type (r, k_e, k_h, k_f) the chart has coordinates
(lam1, phi1, ..., lamr, phir, x1, y1, ..., xm, ym), m = k_e + k_h + 2 k_f,
with momentum components

    lam_s                       (regular)
    (x_j^2 + y_j^2) / 2         (elliptic)
    x_j y_j                     (hyperbolic)
    x_j y_j + x_{j+1} y_{j+1},
    x_{j+1} y_j - y_{j+1} x_j   (focus pair)

These serve as ground truth for the classifier: ``randomized_disguise``
hides a model behind a random linear symplectomorphism and an affine
remix of the momentum components without changing the Williamson type.

Local quotient models (a twisting group acting on torus x disk factors)
are kept purely combinatorial; only their action data is validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .expr import Const, Expression, Sym, _add, _mul, parse
from .groups import FiniteGroup
from .phasespace import DEFAULT_SEED, IntegrableModel, PhasePoint, PoissonStructure, flow_integrate


@dataclass(frozen=True)
class CanonicalSpec:
    r: int
    k_e: int
    k_h: int
    k_f: int

    def __post_init__(self):
        if min(self.r, self.k_e, self.k_h, self.k_f) < 0:
            raise ValueError("counts must be non-negative")
        if self.n < 1:
            raise ValueError("need at least one degree of freedom")

    @property
    def n(self) -> int:
        return self.r + self.k_e + self.k_h + 2 * self.k_f

    @property
    def dim(self) -> int:
        return 2 * self.n

    def component_roles(self) -> list[str]:
        roles = ["regular"] * self.r + ["elliptic"] * self.k_e + ["hyperbolic"] * self.k_h
        for _ in range(self.k_f):
            roles += ["focus-radial", "focus-angular"]
        return roles


def build_canonical(spec: CanonicalSpec) -> IntegrableModel:
    pairs = [(f"lam{s + 1}", f"phi{s + 1}") for s in range(spec.r)]
    m = spec.k_e + spec.k_h + 2 * spec.k_f
    pairs += [(f"x{j + 1}", f"y{j + 1}") for j in range(m)]
    structure = PoissonStructure.canonical_chart(pairs)
    coords = structure.coords

    comps: list[Expression] = []
    for s in range(spec.r):
        comps.append(parse(f"lam{s + 1}", coords))
    j = 1
    for _ in range(spec.k_e):
        comps.append(parse(f"(1/2)*(x{j}^2+y{j}^2)", coords))
        j += 1
    for _ in range(spec.k_h):
        comps.append(parse(f"x{j}*y{j}", coords))
        j += 1
    for _ in range(spec.k_f):
        comps.append(parse(f"x{j}*y{j}+x{j + 1}*y{j + 1}", coords))
        comps.append(parse(f"x{j + 1}*y{j}-y{j + 1}*x{j}", coords))
        j += 2

    name = f"canonical:{spec.r},{spec.k_e},{spec.k_h},{spec.k_f}"
    return IntegrableModel(structure, comps, name=name, canonical_spec=spec)


# ---------------------------------------------------------------------------
# Randomized disguises (oracle generator for the classifier round trip)
# ---------------------------------------------------------------------------


@dataclass
class DisguiseResult:
    model: IntegrableModel
    point: PhasePoint
    symplectic: np.ndarray
    mix: np.ndarray
    shift: np.ndarray
    seed: int


def _random_symplectic(rng: np.random.Generator, n: int, shears: int = 8, scale: float = 1.0):
    """Product of elementary symplectic shears on R^{2n} (pairwise order)."""
    # block order: interleaved (q1, p1, ..., qn, pn); G[0::2, 1::2] is the q-p block
    S = np.eye(2 * n)
    for _ in range(shears):
        B = rng.uniform(-scale, scale, size=(n, n))
        B = 0.5 * (B + B.T)
        G = np.eye(2 * n)
        if rng.integers(2) == 0:
            G[0::2, 1::2] = B  # q -> q + B p
        else:
            G[1::2, 0::2] = B  # p -> p + B q
        S = S @ G
    return S


def symplectic_form_matrix(n: int) -> np.ndarray:
    """Omega with omega(v, w) = v^T Omega w for interleaved canonical pairs."""
    O = np.zeros((2 * n, 2 * n))
    for k in range(n):
        O[2 * k, 2 * k + 1] = 1.0
        O[2 * k + 1, 2 * k] = -1.0
    return O


def randomized_disguise(
    model: IntegrableModel,
    seed: int = DEFAULT_SEED,
    mix_components: bool = True,
    translate_regular: bool = True,
    shears: int = 8,
) -> DisguiseResult:
    """Conjugate a canonical model by a random linear symplectomorphism and
    post-compose the momentum map with a random invertible affine map.

    Returns the disguised model together with the image of the marked
    singular point (the origin, translated along regular directions).

    Each coordinate image and each mixed component is built from nodes with
    the smart constructors that Expression's operators call, term by term in
    the same order, and wrapped once: the trees are the ones ``e + c * x``
    builds, without an Expression per term.
    """
    spec = model.canonical_spec
    if spec is None:
        raise ValueError("randomized_disguise expects a canonical model")
    rng = np.random.default_rng(seed)
    n2 = model.dim

    S = _random_symplectic(rng, model.n, shears=shears) if shears > 0 else np.eye(n2)
    Sinv = np.linalg.inv(S)

    coords = model.coords
    syms = [Sym(j, cname) for j, cname in enumerate(coords)]
    # substitution old_coord -> row of S^{-1} applied to new coords
    images = {}
    for name, row in zip(coords, Sinv.tolist()):
        e = Const(0)
        for sym, cij in zip(syms, row):
            if cij != 0.0:
                e = _add(e, _mul(sym, Const(cij)))
        images[name] = Expression(e, coords)
    base = [c.substitute(images) for c in model.components]

    if mix_components:
        while True:
            J = rng.uniform(-1.0, 1.0, size=(model.n, model.n))
            if abs(np.linalg.det(J)) > 0.1:
                break
        shift = rng.uniform(-1.0, 1.0, size=model.n)
        comps = []
        for offset, row in zip(shift.tolist(), J.tolist()):
            e = _add(Const(0), Const(offset))
            for b, jij in zip(base, row):
                e = _add(e, _mul(b.node, Const(jij)))
            comps.append(Expression(e, coords))
    else:
        J = np.eye(model.n)
        shift = np.zeros(model.n)
        comps = base

    q = np.zeros(n2)
    if translate_regular and spec.r > 0:
        q[: 2 * spec.r] = rng.uniform(-0.5, 0.5, size=2 * spec.r)
    point = S @ q

    disguised = IntegrableModel(
        model.structure,
        comps,
        name=model.name + "+disguise",
        canonical_spec=spec,
    )
    return DisguiseResult(disguised, PhasePoint(point), S, J, shift, seed)


# ---------------------------------------------------------------------------
# Periodicity of elliptic / focus-angular flows
# ---------------------------------------------------------------------------


@dataclass
class PeriodicityResult:
    component: int
    role: str
    period: float
    max_return_error: float
    tol: float
    passed: bool


def verify_periodicity(
    model: IntegrableModel,
    component: int,
    tol: float = 1e-9,
    n_points: int = 20,
    seed: int = DEFAULT_SEED,
) -> PeriodicityResult:
    """Check that the component's Hamiltonian flow is 2*pi-periodic.

    Valid only for elliptic components and the angular member of a focus
    pair; these generate circle actions, which is what the return-to-start
    test witnesses numerically.
    """
    spec = model.canonical_spec
    if spec is None:
        raise ValueError("verify_periodicity expects a canonical model")
    roles = spec.component_roles()
    role = roles[component]
    if role not in ("elliptic", "focus-angular"):
        raise ValueError(f"component {component} is {role}, not of periodic type")
    field = model.structure.ham_field(model.components[component])
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_points):
        p0 = rng.uniform(-0.5, 0.5, size=model.dim)
        res = flow_integrate(field, PhasePoint(p0), 2 * np.pi, rtol=1e-12, atol=1e-13)
        worst = max(worst, float(np.linalg.norm(res.end.coordinates - p0)))
    return PeriodicityResult(component, role, 2 * np.pi, worst, tol, worst <= tol)


# ---------------------------------------------------------------------------
# Local quotient models (combinatorial data of the twisting group action)
# ---------------------------------------------------------------------------


@dataclass
class QuotientModelSpec:
    """Local model (D^r x R^{r_o} x (S^1)^{r_c} x (D^2)^{n-r}) / Gamma.

    The group acts by translations on the torus factor, by signs on the
    hyperbolic disks, and trivially on everything else.  Translations are
    tuples of Fractions mod 1 (fractions of a full turn), one per closed
    regular direction; signs are +-1 tuples, one per hyperbolic disk.
    """

    r_o: int
    r_c: int
    disk_roles: list[str]  # entries: "elliptic" | "hyperbolic" | "focus"
    group: FiniteGroup
    translations: dict[int, tuple[Fraction, ...]] = field(default_factory=dict)
    signs: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def r(self) -> int:
        return self.r_o + self.r_c


@dataclass
class QuotientValidation:
    passed: bool
    violations: list[str]


def validate_quotient_spec(q: QuotientModelSpec) -> QuotientValidation:
    """Check the twisting-group axioms combinatorially.

    Freeness on the model space: a nonidentity element fixes a point iff
    its torus translation is trivial (disk origins are then fixed), so the
    action is free iff every nonidentity element translates the torus.
    Effectiveness on the disk factor: every nonidentity element must flip
    at least one hyperbolic disk (its action elsewhere is trivial).
    """
    g = q.group
    n_hyp = sum(1 for kind in q.disk_roles if kind == "hyperbolic")
    bad: list[str] = []
    for kind in q.disk_roles:
        if kind not in ("elliptic", "hyperbolic", "focus"):
            bad.append(f"unknown disk role {kind!r}")

    zero = (Fraction(0),) * q.r_c
    ones = (1,) * n_hyp
    trans = {a: tuple(Fraction(t) % 1 for t in q.translations.get(a, zero)) for a in g.elements()}
    signs = {a: tuple(q.signs.get(a, ones)) for a in g.elements()}

    for a in g.elements():
        if len(trans[a]) != q.r_c:
            bad.append(f"{g.labels[a]}: translation length != r_c")
        if len(signs[a]) != n_hyp:
            bad.append(f"{g.labels[a]}: one sign per hyperbolic disk required")
        if any(s not in (1, -1) for s in signs[a]):
            bad.append(f"{g.labels[a]}: signs must be +-1")
    if bad:
        return QuotientValidation(False, bad)

    e = g.identity
    if trans[e] != zero or signs[e] != ones:
        bad.append("identity must act trivially")
    # The law on (element, generator) pairs implies it on all pairs: the
    # generators generate the group, and built-in tables are associative.
    for a in g.elements():
        for b in g.generators:
            ab = g.mul(a, b)
            t = tuple((x + y) % 1 for x, y in zip(trans[a], trans[b]))
            if t != trans[ab]:
                bad.append(f"translations not a homomorphism at ({g.labels[a]},{g.labels[b]})")
            s = tuple(x * y for x, y in zip(signs[a], signs[b]))
            if s != signs[ab]:
                bad.append(f"signs not a homomorphism at ({g.labels[a]},{g.labels[b]})")

    for a in g.elements():
        if a == e:
            continue
        if trans[a] == zero:
            bad.append(f"action not free: {g.labels[a]} fixes the torus factor")
        if signs[a] == ones:
            bad.append(f"action not effective on disks: {g.labels[a]} acts trivially")

    return QuotientValidation(not bad, bad)
