"""Phase spaces, Poisson brackets, Hamiltonian vector fields and flows.

Sign convention, fixed once: the Hamiltonian field of f is defined by
``omega(., X_f) = df``, so on a canonical pair (x, y) with omega = dx^dy
one has X_f = (-df/dy, df/dx) and the bivector entry pi[x][y] = -1.
Component k of X_f is the bracket {x_k, f} = sum_l pi[k][l] d_l f.

A bivector is its entries above the diagonal: pi_ji = -pi_ij and the zero
diagonal hold by construction.  A model file gives each pair once, in either
orientation, never on the diagonal, and finite numbers as Casimir values.

Lie-Poisson spaces are handled in the ambient flat space; symplectic
leaves are selected by Casimir constraint values, never by leaf charts.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .expr import Expression, JetStack, Tape, constant, parse

DEFAULT_SEED = 0


class ModelError(ValueError):
    pass


class FlowError(RuntimeError):
    pass


def _constant(e: Expression) -> float | None:
    """The value of an entry without a free symbol, else None: the parser folds
    such a tree to one constant node, so nothing is expanded."""
    return None if e.free_symbols() else e.node.fvalue


class PoissonStructure:
    """Poisson bivector over named coordinates, with declared Casimirs.

    The bivector is its entries above the diagonal, ``{(i, j): pi_ij}`` with
    i < j; a pair left out is zero, and pi_ji = -pi_ij.  ``canonical`` marks
    charts whose bivector is the constant block form of omega_can so
    serialization can use the shorthand flag.
    """

    def __init__(
        self,
        coords: Sequence[str],
        upper: Mapping[tuple[int, int], Expression],
        casimirs: Sequence[Expression] = (),
        canonical: bool = False,
    ):
        self.coords = tuple(coords)
        self.dim = len(self.coords)
        if any(not 0 <= i < j < self.dim for i, j in upper):
            raise ModelError("bivector entries are given above the diagonal, as (i, j) with i < j")
        self.upper = dict(sorted(upper.items()))
        self.casimirs = list(casimirs)
        self.canonical = canonical
        self._const_matrix = self._as_constant()

    # -- construction --------------------------------------------------------

    @classmethod
    def canonical_chart(cls, pairs: Sequence[tuple[str, str]], params: Sequence[str] = (), casimirs=()):
        """Chart with omega = sum dq^dp over the given (q, p) pairs."""
        coords = tuple(c for pair in pairs for c in pair)
        upper = {(2 * k, 2 * k + 1): constant(-1, coords, params) for k in range(len(pairs))}
        return cls(coords, upper, casimirs, canonical=True)

    @classmethod
    def lie_poisson_e3(cls):
        """e(3)* bracket: {S_i,S_j}=eps_ijk S_k, {R_i,R_j}=0, {S_i,R_j}=eps_ijk R_k."""
        coords = ("R1", "R2", "R3", "S1", "S2", "S3")
        upper = {  # {R_i, S_j} = eps_ijk R_k, then {S_i, S_j} = eps_ijk S_k
            (0, 4): "R3", (0, 5): "-R2", (1, 3): "-R3", (1, 5): "R1", (2, 3): "R2", (2, 4): "-R1",
            (3, 4): "S3", (3, 5): "-S2", (4, 5): "S1",
        }
        casimirs = [parse("R1^2+R2^2+R3^2", coords), parse("S1*R1+S2*R2+S3*R3", coords)]
        return cls(coords, {ij: parse(src, coords) for ij, src in upper.items()}, casimirs)

    # -- evaluation helpers ----------------------------------------------------

    def _as_constant(self):
        """The bivector matrix when every given entry is a constant, else None; a
        zero is +0.0 on both sides of the diagonal."""
        vals = np.zeros((self.dim, self.dim))
        for (i, j), e in self.upper.items():
            c = _constant(e)
            if c is None:
                return None
            vals[i, j] = c or 0.0
        return vals - vals.T

    # The given entries' tape and the Casimirs' tape, compiled on first use.
    _upper_tape = cached_property(lambda self: Tape(list(self.upper.values())))
    _casimir_tape = cached_property(lambda self: Tape(self.casimirs))

    @cached_property
    def _places(self):
        """Flat indices: of the given entries, of each place below the diagonal, and of its mirror above."""
        n, (rows, cols) = self.dim, np.tril_indices(self.dim, -1)
        return np.array([i * n + j for i, j in self.upper], dtype=int), rows * n + cols, cols * n + rows

    def _antisymmetric(self, given: list, shape: tuple) -> np.ndarray:
        """The given entries above the diagonal and their negations below it (-0.0 below a zero)."""
        at, below, mirror = self._places
        out = np.zeros((self.dim * self.dim,) + shape)
        out[at] = given
        out[below] = -out[mirror]
        return out.reshape((self.dim, self.dim) + shape)

    def bivector_at(self, point, params=None) -> np.ndarray:
        """The bivector at one point, or (m, dim, dim) at the rows of an (m, dim) array;
        a constant bivector is its one matrix."""
        if self._const_matrix is not None:
            return self._const_matrix
        lead = np.shape(point)[:-1]
        pi = self._antisymmetric(self._upper_tape.values(point, params), lead)
        return np.ascontiguousarray(pi.transpose(2, 0, 1)) if lead else pi

    def bivector_gradients_at(self, point, params=None) -> np.ndarray:
        """d pi[i][j] / d c_m at one point as a (dim, dim, dim) array, from one first-order run."""
        if self._const_matrix is not None:
            return np.zeros((self.dim,) * 3)
        return self._antisymmetric(self._upper_tape.gradient_stack(point, params)[1], (self.dim,))

    # -- brackets and fields -----------------------------------------------------
    # The bracket and field rules are written once, over any numbers with +, * and
    # unary -: Expressions for the symbolic API, and a block's arrays for the
    # sampled checks, which so sum the symbolic terms in their order.

    def pi(self, k: int, l: int) -> Expression | None:
        """The entry pi_kl, or None where it is zero: on the diagonal and at a pair left out."""
        if k > l:
            e = self.upper.get((l, k))
            return None if e is None else -e
        return self.upper.get((k, l))

    def _bracket(self, out, entries, df, dg):
        """out + {f, g} = sum_ij pi_ij d_i f d_j g, from the given entries and the
        partials df[l] and dg[l] of f and g.

        Terms are grouped per unordered index pair so that the two
        orientations cancel exactly (not just to rounding) when the
        bracket vanishes pairwise, e.g. for canonical focus pairs.
        """
        for (i, j), p in zip(self.upper, entries):
            out = out + (p * df[i] * dg[j] + (-p) * df[j] * dg[i])
        return out

    def _field(self, k: int, out, entries, df):
        """out + {c_k, f} = sum_l pi_kl d_l f, from the given entries and the partials
        df[l] of f: an entry below the diagonal is the negated one above, as in `pi`.
        The entries (l, k) come before (k, l) and each by l, so the terms go by l."""
        for (i, j), p in zip(self.upper, entries):
            if k == i:
                out = out + p * df[j]
            elif k == j:
                out = out + (-p) * df[i]
        return out

    def bracket(self, f: Expression, g: Expression) -> Expression:
        """Poisson bracket {f, g} = sum_ij pi_ij d_i f d_j g."""
        df, dg = ([h.diff(c) for c in self.coords] for h in (f, g))
        return self._bracket(constant(0, f.coords, f.params), self.upper.values(), df, dg)

    def ham_field(self, f: Expression) -> list[Expression]:
        """Components {c_k, f} = sum_l pi_kl d_l f of the Hamiltonian vector field
        of f; on a canonical pair this is (-df/dy, df/dx)."""
        df = [f.diff(c) for c in self.coords]
        return [self._field(k, constant(0, f.coords, f.params), self.upper.values(), df) for k in range(self.dim)]

    def _entries_at(self, points, params=None) -> list:
        """The given entries at a block of m points, each an (m,) array, or a float
        each when the bivector is constant."""
        if self._const_matrix is not None:
            return [self._const_matrix[ij] for ij in self.upper]
        return self._upper_tape.values(points, params)

    def jacobi_residual(self, samples: int, box: float = 1.0, seed: int = DEFAULT_SEED, params=None) -> "Sampled":
        """Max |{x_i, pi_jk} + {x_j, pi_ki} + {x_k, pi_ij}| over sampled points
        and i < j < k (the Jacobiator is totally antisymmetric), from one
        first-order run over the given entries per block of points."""
        if self._const_matrix is not None:
            return Sampled(0.0, None, 0)  # a constant bivector satisfies the Jacobi identity
        entry, triples = {ij: e for e, ij in enumerate(self.upper)}, list(combinations(range(self.dim), 3))

        def jacobiators(points):
            values, grads = self._upper_tape.gradient_stack(points, params)
            entries, partials = values.T, grads.transpose(1, 2, 0)  # partials[e][l]: d_l of entry e

            def field(a: int, pair: tuple[int, int]):  # {x_a, pi_pair}; 0.0 for a pair left out
                return self._field(a, 0.0, entries, partials[entry[pair]]) if pair in entry else 0.0

            out = np.zeros((len(triples), len(points)))
            for t, (i, j, k) in enumerate(triples):
                out[t] = (field(i, (j, k)) - field(j, (i, k))) + field(k, (i, j))  # pi_ki = -pi_ik
            return out

        return _sampled_max(jacobiators, samples, box, seed, self.dim)

    def casimir_residual(self, samples: int, box: float = 1.0, seed: int = DEFAULT_SEED, params=None) -> "Sampled":
        """Max |{c_k, C}| over Casimirs, coordinates and sampled points, from one
        first-order run over the Casimirs per block of points."""

        def fields(points):
            grads = self._casimir_tape.gradient_stack(points, params)[1].transpose(1, 2, 0)  # grads[c][l]: d_l C_c
            entries = self._entries_at(points, params)
            out = np.zeros((len(grads), self.dim, len(points)))
            for c, a in np.ndindex(out.shape[:2]):
                out[c, a] = self._field(a, 0.0, entries, grads[c])
            return out.reshape(-1, len(points))

        return _sampled_max(fields, samples, box, seed, self.dim)


class Sampled(NamedTuple):
    """A sampled check: the largest |value| over its fields and sample points
    (NaN skipped), the index of the first field that reaches it (None for 0),
    and the number of sample points where a value is not finite."""

    max_residual: float
    at: int | None
    nonfinite: int


# Sample points per block of a sampled check: a check's arrays grow with the
# block, not with the number of samples.  `verify --samples 1000000` ran fastest
# near this size (1.3 s, against 1.9 s at 4096 and 2.5 s at 256 or 16384), and
# the default 1000 samples are one block.
SAMPLE_BLOCK = 1024


def _sampled_max(fields_at, samples: int, box: float, seed: int, dim: int) -> Sampled:
    """Max |f| over k fields at seeded uniform points of [-box, box]^dim as a
    Sampled check.  fields_at gives the fields' values at
    a block of m points as a (k, m) array, with numpy's floating-point warnings
    off (an overflow shows in that number); the points are drawn and reduced to
    per-field maxima SAMPLE_BLOCK at a time."""
    rng, top, nonfinite = np.random.default_rng(seed), None, 0
    for start in range(0, samples, SAMPLE_BLOCK):
        points = rng.uniform(-box, box, size=(min(SAMPLE_BLOCK, samples - start), dim))
        with np.errstate(all="ignore"):
            values = np.abs(fields_at(points))
        nonfinite += int(np.count_nonzero(~np.isfinite(values).all(axis=0)))
        block = np.fmax.reduce(values, axis=1, initial=0.0)
        top = block if top is None else np.fmax(top, block)
    if top is None or not top.any():  # no points, no fields, or only zeros and NaN
        return Sampled(0.0, None, nonfinite)
    at = int(np.argmax(top))
    return Sampled(top[at], at, nonfinite)


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
    _casimir_tape = property(lambda self: self.structure._casimir_tape)

    def component_jets(self, point) -> JetStack:
        """The components' jets stacked, at one point or at the rows of an (m, dim) array."""
        return self._component_tape.jet_stack(point, self.params)

    def casimir_jets(self, point) -> JetStack:
        """The Casimirs' jets stacked, at one point or at the rows of an (m, dim) array."""
        return self._casimir_tape.jet_stack(point, self.params)

    def momentum_value(self, point) -> np.ndarray:
        return np.array(self._component_tape.values(point, self.params))


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
    nonfinite: int  # sample points where a bracket is not finite


def check_commutation(
    model: IntegrableModel,
    samples: int = 100,
    tol: float = 1e-9,
    box: float = 1.0,
    seed: int = DEFAULT_SEED,
) -> CommutationReport:
    """Sample |{f_i, f_j}| over a box for all component pairs, from one first-order
    run over the components per block of points."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pairs = list(combinations(range(model.n), 2))
    first, second = np.array(pairs, dtype=int).reshape(-1, 2).T

    def brackets(points):
        grads = model._component_tape.gradient_stack(points, model.params)[1].transpose(2, 1, 0)  # (dim, n, m)
        entries = model.structure._entries_at(points, model.params)
        return model.structure._bracket(np.zeros((len(pairs), len(points))), entries, grads[:, first], grads[:, second])

    worst = _sampled_max(brackets, samples, box, seed, model.dim)
    worst_pair = None if worst.at is None else pairs[worst.at]
    passed = worst.max_residual <= tol and not worst.nonfinite
    return CommutationReport(worst.max_residual, worst_pair, tol, samples, seed, passed, worst.nonfinite)


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
    trajectory (|end - start|) is reported.  scipy's ODE solver is imported
    here, on the first call, so a process that never integrates a flow (every
    CLI command) does not load it.
    """
    from scipy.integrate import solve_ivp

    p0 = p.coordinates if isinstance(p, PhasePoint) else np.asarray(p, dtype=float)
    tape = Tape(list(field))

    def rhs(_t, y):
        if not np.all(np.isfinite(y)):
            raise FlowError("state became non-finite during integration")
        return tape.values(y, params)

    sol = solve_ivp(rhs, (0.0, time), p0, method="DOP853", rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise FlowError(f"integration failed: {sol.message}")
    end = sol.y[:, -1]
    if not np.all(np.isfinite(end)):
        raise FlowError("trajectory blew up")
    monitors = monitors or {}
    watch = Tape(list(monitors.values()))
    drift = {label: abs(a - b) for label, a, b in zip(monitors, watch.values(end, params), watch.values(p0, params))}
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
                {"i": st.coords[i], "j": st.coords[j], "expr": e.to_source()}
                for (i, j), e in st.upper.items()
                if _constant(e) != 0.0
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


def _finite_number(v) -> bool:
    """Whether a JSON value is a number a float holds: not a boolean, a string, NaN or an infinity."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


_DOCUMENT_KEYS = {"coordinates", "parameters", "components", "casimirs", "structure", "name", "canonical"}


def _known_keys(d, keys: set, where: str):
    """d, refused with a ModelError when it is an object with a key outside keys."""
    unknown = sorted(set(d) - keys) if isinstance(d, dict) else []
    if unknown:
        raise ModelError(f"{where} has unknown keys {unknown}; it takes {sorted(keys)}")
    return d


def model_from_dict(d: dict) -> IntegrableModel:
    """The model of a `model_to_dict` document; ModelError when it has another
    shape, or a key that no level of it takes."""
    try:
        _known_keys(d, _DOCUMENT_KEYS, "the model document")
        coords = tuple(d["coordinates"])
        params, name = dict(d.get("parameters", {})), d.get("name", "")
        if not (all(map(_finite_number, params.values())) and isinstance(name, str)):
            raise ModelError(f"the name ({name!r}) must be a string and the parameters ({params}) finite numbers")
        pnames = tuple(sorted(params))
        casimir_entries = [_known_keys(c, {"expr", "value"}, "a Casimir item") for c in d.get("casimirs", [])]
        casimirs = [parse(c["expr"], coords, pnames) for c in casimir_entries]
        leaf_values = [c["value"] for c in casimir_entries]
        if not all(map(_finite_number, leaf_values)):
            raise ModelError(f"the Casimir values ({leaf_values}) must be finite numbers")

        structure_spec = d.get("structure", "canonical")
        if structure_spec == "canonical":
            if len(coords) % 2:
                raise ModelError("canonical chart needs an even number of coordinates")
            pairs = [(coords[2 * k], coords[2 * k + 1]) for k in range(len(coords) // 2)]
            st = PoissonStructure.canonical_chart(pairs, pnames, casimirs)
        else:  # each item gives one pair i != j, in either orientation, and no pair twice
            index, upper = {c: k for k, c in enumerate(coords)}, {}
            for item in _known_keys(structure_spec, {"bivector"}, "structure")["bivector"]:
                _known_keys(item, {"i", "j", "expr"}, "a bivector item")
                i, j = index[item["i"]], index[item["j"]]
                if i == j or (min(i, j), max(i, j)) in upper:
                    why = "is on the diagonal" if i == j else f"gives the pair ({coords[i]}, {coords[j]}) a second time"
                    raise ModelError(f"bivector item {item} {why}")
                e = parse(item["expr"], coords, pnames)
                upper[min(i, j), max(i, j)] = e if i < j else -e
            st = PoissonStructure(coords, upper, casimirs)

        canonical_spec = None
        if "canonical" in d:
            from .canonical import CanonicalSpec

            cs = _known_keys(d["canonical"], {"r", "ke", "kh", "kf"}, "canonical")
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
