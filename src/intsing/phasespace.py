"""Phase spaces, Poisson brackets, Hamiltonian vector fields and flows.

Sign convention, fixed once: the Hamiltonian field of f is defined by
``omega(., X_f) = df``, so on a canonical pair (x, y) with omega = dx^dy
one has X_f = (-df/dy, df/dx) and the bivector entry pi[x][y] = -1.
Component k of X_f is the bracket {x_k, f} = sum_l pi[k][l] d_l f.

Lie-Poisson spaces are handled in the ambient flat space; symplectic
leaves are selected by Casimir constraint values, never by leaf charts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .expr import Expression, Jet2, Tape, constant, parse

DEFAULT_SEED = 0


class ModelError(ValueError):
    pass


class FlowError(RuntimeError):
    pass


class PoissonStructure:
    """Poisson bivector over named coordinates, with declared Casimirs.

    Entries are stored as a full antisymmetric matrix of expressions;
    ``canonical`` marks charts whose bivector is the constant block form
    of omega_can so serialization can use the shorthand flag.
    """

    def __init__(
        self,
        coords: Sequence[str],
        entries: Sequence[Sequence[Expression]],
        casimirs: Sequence[Expression] = (),
        canonical: bool = False,
    ):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        self.entries = [list(row) for row in entries]
        self.casimirs = list(casimirs)
        self.canonical = canonical
        if len(self.entries) != self.dim or any(len(r) != self.dim for r in self.entries):
            raise ModelError("bivector must be a square matrix over the coordinates")
        for i in range(self.dim):
            for j in range(self.dim):
                if not self.entries[i][j].normalized_equal(-self.entries[j][i]):
                    raise ModelError(f"bivector not antisymmetric at ({i},{j})")
        self._const_matrix = self._as_constant()

    # -- construction --------------------------------------------------------

    @classmethod
    def canonical_chart(cls, pairs: Sequence[tuple[str, str]], params: Sequence[str] = ()):
        """Chart with omega = sum dq^dp over the given (q, p) pairs."""
        coords = tuple(c for pair in pairs for c in pair)
        zero = constant(0, coords, params)
        n = len(coords)
        entries = [[zero] * n for _ in range(n)]
        for k in range(len(pairs)):
            q, p = 2 * k, 2 * k + 1
            entries[q][p] = constant(-1, coords, params)
            entries[p][q] = constant(1, coords, params)
        return cls(coords, entries, canonical=True)

    @classmethod
    def lie_poisson_e3(cls):
        """e(3)* bracket: {S_i,S_j}=eps_ijk S_k, {R_i,R_j}=0, {S_i,R_j}=eps_ijk R_k."""
        coords = ("R1", "R2", "R3", "S1", "S2", "S3")

        def E(src):
            return parse(src, coords)

        z = E("0")
        entries = [[z] * 6 for _ in range(6)]
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
        for (i, j, k), sign in eps.items():
            rk = E(f"R{k + 1}") if sign > 0 else E(f"-R{k + 1}")
            sk = E(f"S{k + 1}") if sign > 0 else E(f"-S{k + 1}")
            entries[3 + i][3 + j] = sk       # {S_i, S_j}
            entries[3 + i][j] = rk           # {S_i, R_j}
            entries[i][3 + j] = rk           # {R_i, S_j}
        casimirs = [E("R1^2+R2^2+R3^2"), E("S1*R1+S2*R2+S3*R3")]
        return cls(coords, entries, casimirs=casimirs)

    # -- evaluation helpers ----------------------------------------------------

    def _as_constant(self):
        vals = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                node = self.entries[i][j]
                try:
                    poly = node.as_polynomial()
                except Exception:
                    return None
                if not poly:
                    continue
                key = (0,) * len(node.symbols)
                if set(poly) != {key}:
                    return None
                vals[i, j] = float(poly[key])
        return vals

    # The index pairs above the diagonal, and their entries' tape, compiled on first use.
    _upper = cached_property(lambda self: [(i, j) for i in range(self.dim) for j in range(i + 1, self.dim)])
    _upper_tape = cached_property(lambda self: Tape([self.entries[i][j] for i, j in self._upper]))

    def bivector_at(self, point, params=None) -> np.ndarray:
        if self._const_matrix is not None:
            return self._const_matrix
        out = np.zeros((self.dim, self.dim))
        for (i, j), v in zip(self._upper, self._upper_tape.values(point, params)):
            out[i, j] = v
            out[j, i] = -v
        return out

    def bivector_gradients_at(self, point, params=None) -> np.ndarray:
        """d pi[i][j] / d c_m as a (dim, dim, dim) array."""
        out = np.zeros((self.dim, self.dim, self.dim))
        if self._const_matrix is not None:
            return out
        for (i, j), jet in zip(self._upper, self._upper_tape.jets(point, params)):
            out[i, j] = jet.gradient
            out[j, i] = -jet.gradient
        return out

    # -- brackets and fields -----------------------------------------------------

    def bracket(self, f: Expression, g: Expression) -> Expression:
        """Poisson bracket {f, g} = sum_ij pi_ij d_i f d_j g.

        Terms are grouped per unordered index pair so that the two
        orientations cancel exactly (not just to rounding) when the
        bracket vanishes pairwise, e.g. for canonical focus pairs.
        """
        out = constant(0, f.coords, f.params)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                pij = self.entries[i][j]
                term = pij * f.diff(self.coords[i]) * g.diff(self.coords[j]) + (
                    -pij
                ) * f.diff(self.coords[j]) * g.diff(self.coords[i])
                out = out + term
        return out

    def ham_field(self, f: Expression) -> list[Expression]:
        """Components {c_k, f} of the Hamiltonian vector field of f."""
        return [
            sum(
                (self.entries[k][l] * f.diff(self.coords[l]) for l in range(self.dim)),
                constant(0, f.coords, f.params),
            )
            for k in range(self.dim)
        ]

    def jacobi_residual(self, samples: int, box: float = 1.0, seed: int = DEFAULT_SEED) -> float:
        """Max |{x_i, pi_jk} + {x_j, pi_ki} + {x_k, pi_ij}| over sampled points
        and i < j < k (the Jacobiator is totally antisymmetric)."""
        if self._const_matrix is not None:
            return 0.0  # a constant bivector satisfies the Jacobi identity
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-box, box, size=(samples, self.dim))
        pi = self.entries
        worst = 0.0
        for i, j, k in combinations(range(self.dim), 3):
            jacobiator = self.ham_field(pi[j][k])[i] + self.ham_field(pi[k][i])[j] + self.ham_field(pi[i][j])[k]
            worst = np.fmax.reduce(np.abs(jacobiator.evaluate(pts)), initial=worst)  # NaN skipped
        return worst

    def casimir_residual(self, samples: int, box: float = 1.0, seed: int = DEFAULT_SEED) -> float:
        """Max |{C, c_k}| over Casimirs, coordinates and sampled points."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-box, box, size=(samples, self.dim))
        worst = 0.0
        for cas in self.casimirs:
            for fx in self.ham_field(cas):
                worst = np.fmax.reduce(np.abs(fx.evaluate(pts)), initial=worst)  # NaN skipped
        return worst


@dataclass
class PhasePoint:
    coordinates: np.ndarray

    def __post_init__(self):
        self.coordinates = np.asarray(self.coordinates, dtype=float)
        if not np.all(np.isfinite(self.coordinates)):
            raise ModelError("phase point has non-finite entries")


class IntegrableModel:
    """Poisson structure + momentum components + leaf constraints."""

    def __init__(
        self,
        structure: PoissonStructure,
        components: Sequence[Expression],
        leaf_values: Sequence[float] = (),
        params: Mapping[str, float] | None = None,
        name: str = "",
        canonical_spec=None,
    ):
        self.structure = structure
        self.components = list(components)
        self.leaf_values = [float(v) for v in leaf_values]
        self.params = dict(params or {})
        self.name = name
        self.canonical_spec = canonical_spec
        if self.leaf_values and len(self.leaf_values) != len(structure.casimirs):
            raise ModelError("one leaf value per declared Casimir required")

    @property
    def coords(self):
        return self.structure.coords

    @property
    def dim(self) -> int:
        return self.structure.dim

    @property
    def n(self) -> int:
        return len(self.components)

    # One tape per field set evaluated together, compiled on first use.
    _component_tape = cached_property(lambda self: Tape(self.components))
    _casimir_tape = cached_property(lambda self: Tape(self.structure.casimirs))

    def component_jets(self, point) -> list[Jet2]:
        return self._component_tape.jets(point, self.params)

    def casimir_jets(self, point) -> list[Jet2]:
        return self._casimir_tape.jets(point, self.params)

    def leaf_residual(self, point) -> float:
        if not self.structure.casimirs:
            return 0.0
        return max(abs(c - v) for c, v in zip(self._casimir_tape.values(point, self.params), self.leaf_values))

    def momentum_value(self, point) -> np.ndarray:
        return np.array(self._component_tape.values(point, self.params))

    def field_exprs(self, index: int) -> list[Expression]:
        return self.structure.ham_field(self.components[index])


def poisson_bracket(f: Expression, g: Expression, P: PoissonStructure) -> Expression:
    """{f, g} with respect to the bivector of P."""
    return P.bracket(f, g)


def hamiltonian_vector_field(f: Expression, P: PoissonStructure) -> list[Expression]:
    """Components {c_k, f}; on a canonical pair this is (-df/dy, df/dx)."""
    return P.ham_field(f)


# ---------------------------------------------------------------------------
# Commutation check (sampling-based; symbolic zero-testing of expanded
# brackets can blow up in size on real systems)
# ---------------------------------------------------------------------------


@dataclass
class CommutationReport:
    max_residual: float
    worst_pair: tuple[int, int] | None
    tol: float
    samples: int
    seed: int
    passed: bool


def check_commutation(
    model: IntegrableModel,
    samples: int = 100,
    tol: float = 1e-9,
    box: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> CommutationReport:
    """Sample |{f_i, f_j}| over a box for all component pairs."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(samples, model.dim))
    worst, worst_pair = 0.0, None
    for i in range(model.n):
        for j in range(i + 1, model.n):
            br = model.structure.bracket(model.components[i], model.components[j])
            top = np.fmax.reduce(np.abs(br.evaluate(pts, model.params)), initial=worst)  # NaN skipped
            if top > worst:
                worst, worst_pair = top, (i, j)
    return CommutationReport(worst, worst_pair, tol, samples, seed, worst <= tol)


# ---------------------------------------------------------------------------
# Flow integration
# ---------------------------------------------------------------------------


@dataclass
class FlowResult:
    end: PhasePoint
    drift: dict[str, float]
    nfev: int


def flow_integrate(
    field: Sequence[Expression],
    p: PhasePoint | np.ndarray,
    time: float,
    rtol: float = 1e-11,
    atol: float = 1e-12,
    monitors: Mapping[str, Expression] | None = None,
    params: Mapping[str, float] | None = None,
) -> FlowResult:
    """Integrate the field with an adaptive Runge-Kutta scheme (DOP853).

    ``monitors`` maps labels to scalar fields whose drift along the
    trajectory (|end - start|) is reported.
    """
    p0 = p.coordinates if isinstance(p, PhasePoint) else np.asarray(p, dtype=float)
    nodes = list(field)

    def rhs(_t, y):
        if not np.all(np.isfinite(y)):
            raise FlowError("state became non-finite during integration")
        return [f.evaluate(y, params) for f in nodes]

    sol = solve_ivp(rhs, (0.0, time), p0, method="DOP853", rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise FlowError(f"integration failed: {sol.message}")
    end = sol.y[:, -1]
    if not np.all(np.isfinite(end)):
        raise FlowError("trajectory blew up")
    drift = {}
    for label, m in (monitors or {}).items():
        drift[label] = abs(m.evaluate(end, params) - m.evaluate(p0, params))
    return FlowResult(PhasePoint(end), drift, int(sol.nfev))


# ---------------------------------------------------------------------------
# Model file format (JSON-compatible; bit-exact parse -> serialize -> parse)
# ---------------------------------------------------------------------------


def model_to_dict(model: IntegrableModel) -> dict:
    st = model.structure
    d: dict = {
        "coordinates": list(st.coords),
        "parameters": {k: model.params[k] for k in sorted(model.params)},
        "components": [c.to_source() for c in model.components],
        "casimirs": [
            {"expr": c.to_source(), "value": v}
            for c, v in zip(st.casimirs, model.leaf_values or [0.0] * len(st.casimirs))
        ],
    }
    if st.canonical:
        d["structure"] = "canonical"
    else:
        d["structure"] = {
            "bivector": [
                {"i": st.coords[i], "j": st.coords[j], "expr": st.entries[i][j].to_source()}
                for i in range(st.dim)
                for j in range(i + 1, st.dim)
                if not st.entries[i][j].is_zero()
            ]
        }
    if model.name:
        d["name"] = model.name
    if model.canonical_spec is not None:
        d["canonical"] = {
            "r": model.canonical_spec.r,
            "ke": model.canonical_spec.k_e,
            "kh": model.canonical_spec.k_h,
            "kf": model.canonical_spec.k_f,
        }
    return d


def model_from_dict(d: dict) -> IntegrableModel:
    """The model of a `model_to_dict` document; ModelError when it has another shape."""
    try:
        coords = tuple(d["coordinates"])
        params, name = dict(d.get("parameters", {})), d.get("name", "")
        real = all(isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v) for v in params.values())
        if not (real and isinstance(name, str)):
            raise ModelError(f"the name ({name!r}) must be a string and the parameters ({params}) finite numbers")
        pnames = tuple(sorted(params))
        casimir_entries = d.get("casimirs", [])
        casimirs = [parse(c["expr"], coords, pnames) for c in casimir_entries]
        leaf_values = [float(c["value"]) for c in casimir_entries]

        structure_spec = d.get("structure", "canonical")
        if structure_spec == "canonical":
            if len(coords) % 2:
                raise ModelError("canonical chart needs an even number of coordinates")
            pairs = [(coords[2 * k], coords[2 * k + 1]) for k in range(len(coords) // 2)]
            st = PoissonStructure.canonical_chart(pairs, pnames)
            st = PoissonStructure(coords, st.entries, casimirs=casimirs, canonical=True)
        else:
            zero = constant(0, coords, pnames)
            entries = [[zero] * len(coords) for _ in range(len(coords))]
            index = {c: i for i, c in enumerate(coords)}
            for item in structure_spec["bivector"]:
                i, j = index[item["i"]], index[item["j"]]
                e = parse(item["expr"], coords, pnames)
                entries[i][j] = e
                entries[j][i] = -e
            st = PoissonStructure(coords, entries, casimirs=casimirs)

        canonical_spec = None
        if "canonical" in d:
            from .canonical import CanonicalSpec

            cs = d["canonical"]
            canonical_spec = CanonicalSpec(cs["r"], cs["ke"], cs["kh"], cs["kf"])

        return IntegrableModel(
            st,
            [parse(src, coords, pnames) for src in d["components"]],
            leaf_values=leaf_values,
            params=params,
            name=name,
            canonical_spec=canonical_spec,
        )
    except (TypeError, AttributeError) as exc:  # a list, or a number where a list belongs
        raise ModelError(f"not a model document: {exc}") from exc


def save_model(model: IntegrableModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> IntegrableModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
