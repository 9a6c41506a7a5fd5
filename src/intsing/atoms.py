"""Almost-direct products of atoms, twisting groups and stability verdicts.

An atom here is the combinatorial shadow of an elementary semilocal
singularity: its kind plus the set of singular points on the fiber.  All
catalog fibers are connected, so every criterion in scope (complexity,
the critical-set connectedness checks (iv) and (vi), and the stability
verdict) depends only on how the twisting group permutes singular points
and on which elements act freely on which component fibers.

Freeness of the product action is evaluated from declared per-component
"free on fiber" flags: an element acts freely on the product iff it acts
freely on at least one factor.  The flag defaults to "the vertex
permutation has no fixed point" (never so on the one-point elliptic atom
or the pointless regular annulus), which is how the quotient
constructions in the catalog are built; a regular
annulus factor can carry freeness via a nontrivial torus translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count, product as iproduct
from math import prod
from operator import eq

import numpy as np

from .groups import (
    FiniteGroup,
    group_by_name,
    group_from_dict,
    group_to_dict,
    orbits,
    permutation_is_free,
)


class AtomsError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str
    kind: str  # "regular" | "elliptic" | "hyperbolic" | "focus"
    singular_points: int
    fiber_connected: bool = True


# Vertex counts: validated by the consistency suite against the catalog's
# complexity values; the K3 count is kept at 3 and its products are carried
# as documented exceptions (see exceptions_report).
_CATALOG = [
    Atom("A", "elliptic", 1),
    Atom("B", "hyperbolic", 1),
    Atom("C1", "hyperbolic", 2),
    Atom("C2", "hyperbolic", 2),
    Atom("D1", "hyperbolic", 2),
    Atom("I1", "hyperbolic", 4),
    Atom("J1", "hyperbolic", 4),
    Atom("K3", "hyperbolic", 3),
    Atom("P4", "hyperbolic", 4),
    Atom("F1", "focus", 1),
    Atom("F2", "focus", 2),
    Atom("F3", "focus", 3),
    Atom("F4", "focus", 4),
    Atom("Wreg", "regular", 0),
]

_BY_NAME = {a.name: a for a in _CATALOG}


def catalog() -> list[Atom]:
    return list(_CATALOG)


def atom(name: str) -> Atom:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AtomsError(f"unknown atom {name!r}; known: {sorted(_BY_NAME)}") from None


@dataclass
class GroupAction:
    """Per-component action of a finite group on the atoms' singular points.

    perms[c][a] is the permutation (tuple) of component c's singular-point
    set by group element a; fiber_free[c][a] declares whether that element
    acts freely on component c's whole fiber.
    """

    group: FiniteGroup
    perms: list[list[tuple[int, ...]]]
    fiber_free: list[list[bool]]

    def validate(self, components: list[Atom]) -> None:
        g = self.group
        table, gens = g.table, g.generators
        if len(self.perms) != len(components) or len(self.fiber_free) != len(components):
            raise AtomsError("one action entry per component required")
        for c, comp in enumerate(components):
            perms, free = self.perms[c], self.fiber_free[c]
            if len(perms) != g.order or len(free) != g.order:
                raise AtomsError(f"component {comp.name}: one permutation per group element")
            k = comp.singular_points
            ident = list(range(k))
            if perms[g.identity] != tuple(ident):
                raise AtomsError(f"component {comp.name}: identity must act trivially")
            if free[g.identity]:
                raise AtomsError(f"component {comp.name}: identity cannot act freely")
            for a in g.elements():
                pa = perms[a]
                if sorted(pa) != ident:
                    raise AtomsError(f"component {comp.name}: entry for {g.labels[a]} is not a permutation")
                if free[a] and k > 0 and not permutation_is_free(pa):
                    raise AtomsError(
                        f"component {comp.name}: {g.labels[a]} declared free on the fiber "
                        "but fixes a singular point"
                    )
                # The law on (element, generator) pairs implies it on all pairs
                # when the table is associative: built-in tables are by
                # construction, and group_from_dict checks a file's table.
                # An entry pb not yet checked is read at its first k places.
                for b in gens:
                    ab, pb = table[a][b], perms[b]
                    composed = tuple(map(pa.__getitem__, pb)) if len(pb) == k else tuple(pa[pb[x]] for x in range(k))
                    if composed != perms[ab]:
                        raise AtomsError(
                            f"component {comp.name}: action is not a homomorphism "
                            f"at ({g.labels[a]},{g.labels[b]})"
                        )


@dataclass
class AlmostDirectProduct:
    components: list[Atom]
    action: GroupAction
    name: str = ""

    def __post_init__(self):
        self.action.validate(self.components)

    # Criteria (iv) and (vi), found once, on first use (see cross_check_criteria).
    criteria = cached_property(lambda self: _criteria_report(self))

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def nonregular_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.components) if c.kind != "regular"]

    # -- freeness -------------------------------------------------------------

    def free_on_product(self) -> tuple[bool, str | None]:
        """Free iff every nonidentity element is free on some factor fiber."""
        g = self.group
        for a in g.elements():
            if a != g.identity and not any(free[a] for free in self.action.fiber_free):
                return False, f"element {g.labels[a]} acts with fixed points on every component fiber"
        return True, None

    # -- compact orbits / vertex tuples ---------------------------------------

    def vertex_tuples(self) -> list[tuple[int, ...]]:
        sets = [range(c.singular_points) for c in self.components if c.kind != "regular"]
        return list(iproduct(*sets))

    def fixed_tuples(self) -> list[int]:
        """For each group element, the number of vertex tuples it fixes: the
        product over the non-regular components of the points it fixes there."""
        rows = [self.action.perms[c] for c in self.nonregular_indices()]
        return [prod(sum(map(eq, row[a], count())) for row in rows) for a in self.group.elements()]


def complexity(p: AlmostDirectProduct) -> int:
    """Number of group orbits on the product of singular-point sets, by
    Burnside's lemma: the mean over the group of the vertex tuples each
    element fixes.  Exact because `validate` makes each component's map a
    homomorphism, so the tuples carry a group action.

    Requires the certified-free action; under freeness on the vertex
    tuples this equals (product of counts) / |group|, which is the
    arithmetic the catalog's published values follow.
    """
    free, witness = p.free_on_product()
    if not free:
        raise AtomsError(f"action is not free: {witness}")
    return sum(p.fixed_tuples()) // p.group.order


def tuple_action_free(p: AlmostDirectProduct) -> bool:
    """No element but the identity fixes a vertex tuple."""
    e = p.group.identity
    return not any(n for a, n in enumerate(p.fixed_tuples()) if a != e)


def check_connectedness_vi(p: AlmostDirectProduct) -> tuple[bool, list[dict]]:
    """(vi): the group is transitive on each component's singular points."""
    witnesses = []
    ok = True
    for c, comp in enumerate(p.components):
        if comp.kind == "regular":
            continue
        k = comp.singular_points
        if k == 0:
            continue
        transitive = len({perm[0] for perm in p.action.perms[c]}) == k
        witnesses.append({"component": comp.name, "index": c, "transitive": transitive})
        ok = ok and transitive
    return ok, witnesses


@dataclass
class KiSet:
    """Critical set of one non-regular component near the product fiber.

    Elements are group orbits of (singular point of V_i) x (fibers of the
    other components); catalog fibers are connected, so the second factor
    is a single symbol and the component count is the orbit count on the
    singular-point set of V_i.
    """

    index: int
    atom_name: str
    orbit_partition: list[list[int]]
    connected_components: int


def build_Ki_sets(p: AlmostDirectProduct) -> list[KiSet]:
    out = []
    for c in p.nonregular_indices():
        comp = p.components[c]
        parts = orbits(p.action.perms[c], comp.singular_points)
        out.append(KiSet(c, comp.name, parts, len(parts)))
    return out


@dataclass
class CrossCheckReport:
    iv: bool
    vi: bool
    agree: bool
    ki_sets: list[KiSet]
    witnesses: list[dict]


def cross_check_criteria(p: AlmostDirectProduct) -> CrossCheckReport:
    """Criteria (iv) and (vi) must agree on every product model.  The report
    is found once per product and kept on it (do not mutate); a disagreement
    is never kept, so it raises on every call."""
    return p.criteria


def _criteria_report(p: AlmostDirectProduct) -> CrossCheckReport:
    ki_sets = build_Ki_sets(p)
    iv = all(k.connected_components == 1 for k in ki_sets)  # (iv): every critical set K_i is connected
    vi, witnesses = check_connectedness_vi(p)
    if iv != vi:
        raise AtomsError(
            f"criteria disagree on {p.name or 'product'}: (iv)={iv}, (vi)={vi} "
            "- implementation bug, the criteria are equivalent on product models"
        )
    return CrossCheckReport(iv, vi, True, ki_sets, witnesses)


def stability_verdict(p: AlmostDirectProduct) -> str:
    """Sufficiency verdict: connectedness implies structural stability in a
    strong sense under real-analytic integrable perturbations.  The
    criterion failing never implies instability, so the negative verdict
    only records that the sufficient condition was not met."""
    report = cross_check_criteria(p)
    if report.iv and report.vi:
        return "stable-analytic-strong-sense"
    return "criterion-not-satisfied"


# ---------------------------------------------------------------------------
# Action constructors
# ---------------------------------------------------------------------------


def make_action(
    group: FiniteGroup,
    components: list[Atom],
    perms: list[list[tuple[int, ...]]],
    fiber_free: list[list[bool] | None] | None = None,
) -> GroupAction:
    """Assemble a GroupAction, defaulting fiber-freeness from the perms."""
    ff = []
    for c in range(len(components)):
        given = fiber_free[c] if fiber_free is not None else None
        ff.append(list(given) if given is not None else [permutation_is_free(perms[c][a]) for a in group.elements()])
    return GroupAction(group, [list(map(tuple, ps)) for ps in perms], ff)


# ---------------------------------------------------------------------------
# The named products from the structural-stability catalog
# ---------------------------------------------------------------------------


_K3_NOTE = (
    "catalog keeps the K3 vertex count at 3; with |Gamma| = {order} the free-orbit "
    "arithmetic {prod} / {order} is not an integer and no admissible action on the "
    "vertex tuples yields 2 orbits, so the published complexity 2 forces K3 to have "
    "4 singular points (pending the cited classification literature)"
)


def _exceptional(name: str, components: list[str], group_name: str) -> dict:
    counts = [atom(c).singular_points for c in components]
    order = group_by_name(group_name).order
    return {
        "name": name,
        "components": components,
        "group": group_name,
        "status": "exception",
        "expected_complexity": 2,
        "vertex_counts": counts,
        "note": _K3_NOTE.format(order=order, prod="*".join(map(str, counts))),
        "resolves_with_count": 4,
        "resolved_arithmetic": f"{4 * counts[0] if components[0] != 'K3' else 16}/{order}",
    }


# name: (components, group, the images of the group's generators on each
# component's singular points[, product name, fiber-freeness flags]).  The
# generators are FiniteGroup.generators: g for Z2 and Z4, (e,g) and (g,e) for
# Z2+Z2, the rotation r1 and the reflection r0s for D4.  The K3 entries have
# no images: they are carried as exceptions (see exceptions_report).
_NAMED = {
    # complexity 1 (four saddle-saddle + two saddle-focus)
    "B*B": (["B", "B"], "1", [[], []]),
    "(B*C2)/Z2": (["B", "C2"], "Z2", [[(0,)], [(1, 0)]]),
    "(B*D1)/Z2": (["B", "D1"], "Z2", [[(0,)], [(1, 0)]]),
    "(C2*C2)/(Z2+Z2)": (["C2", "C2"], "Z2+Z2", [[(0, 1), (1, 0)], [(1, 0), (0, 1)]]),
    "B*F1": (["B", "F1"], "1", [[], []]),
    "(B*F2)/Z2": (["B", "F2"], "Z2", [[(0,)], [(1, 0)]]),
    # complexity 2, saddle-saddle; D4 acts on the two P4 through the two
    # classes of reflections of the square, so each reflection is
    # vertex-free on one factor
    "(D1*D1)/Z2": (["D1", "D1"], "Z2", [[(1, 0)], [(1, 0)]]),
    "(P4*P4)/D4": (["P4", "P4"], "D4", [[(1, 2, 3, 0), (0, 3, 2, 1)], [(1, 2, 3, 0), (1, 0, 3, 2)]]),
    "(C2*C2)/Z2": (["C2", "C2"], "Z2", [[(1, 0)], [(1, 0)]]),
    "(C1*I1)/Z4": (["C1", "I1"], "Z4", [[(1, 0)], [(1, 2, 3, 0)]]),
    "(K3*K3)/(Z4+Z2)": (["K3", "K3"], "Z4+Z2", None),
    "(C1*J1)/Z4": (["C1", "J1"], "Z4", [[(1, 0)], [(1, 2, 3, 0)]]),
    "(C1*K3)/Z4": (["C1", "K3"], "Z4", None),
    "(C1*P4)/Z4": (["C1", "P4"], "Z4", [[(1, 0)], [(1, 2, 3, 0)]]),
    "(D1*C2)/Z2": (["D1", "C2"], "Z2", [[(1, 0)], [(1, 0)]]),
    "(C2*P4)/(Z2+Z2)": (["C2", "P4"], "Z2+Z2", [[(0, 1), (1, 0)], [(2, 3, 0, 1), (1, 0, 3, 2)]]),
    # complexity 2, saddle-focus and focus
    "(D1*F2)/Z2": (["D1", "F2"], "Z2", [[(1, 0)], [(1, 0)]]),
    "(C1*F4)/Z4": (["C1", "F4"], "Z4", [[(1, 0)], [(1, 2, 3, 0)]]),
    "(C2*F2)/Z2": (["C2", "F2"], "Z2", [[(1, 0)], [(1, 0)]]),
    "(F2*F2)/Z2": (["F2", "F2"], "Z2", [[(1, 0)], [(1, 0)]]),
    # simple singularities and the Kovalevskaya negative example; A* is the
    # flip on B with freeness carried by the half-turn translation on the
    # regular annulus
    "A": (["A"], "1", [[]]),
    "B": (["B"], "1", [[]]),
    "A*": (["B", "Wreg"], "Z2", [[(0,)], [()]], "(B*Wreg)/Z2", [[False, False], [False, True]]),
    "C2": (["C2"], "1", [[]]),
}


def _named(key: str, components: list[str], group_name: str, images, name: str = "", fiber_free=None):
    if images is None:
        return _exceptional(key, components, group_name)
    comps = [atom(n) for n in components]
    g = group_by_name(group_name)
    perms = [g.extend(imgs, comp.singular_points) for comp, imgs in zip(comps, images)]
    return AlmostDirectProduct(comps, make_action(g, comps, perms, fiber_free), name or key)


@cache
def named_products() -> dict:
    return {key: _named(key, *entry) for key, entry in _NAMED.items()}


def named_product(name: str):
    reg = named_products()
    try:
        return reg[name]
    except KeyError:
        raise AtomsError(f"unknown product {name!r}; known: {sorted(reg)}") from None


PAPER_COMPLEXITY_1 = ["B*B", "(B*C2)/Z2", "(B*D1)/Z2", "(C2*C2)/(Z2+Z2)", "B*F1", "(B*F2)/Z2"]
PAPER_COMPLEXITY_2_SADDLE = [
    "(D1*D1)/Z2",
    "(P4*P4)/D4",
    "(C2*C2)/Z2",
    "(C1*I1)/Z4",
    "(K3*K3)/(Z4+Z2)",
    "(C1*J1)/Z4",
    "(C1*K3)/Z4",
    "(C1*P4)/Z4",
    "(D1*C2)/Z2",
    "(C2*P4)/(Z2+Z2)",
]
PAPER_COMPLEXITY_2_FOCUS = ["(D1*F2)/Z2", "(C1*F4)/Z4", "(C2*F2)/Z2", "(F2*F2)/Z2"]


def exceptions_report() -> list[dict]:
    """Catalog entries whose published complexity the recorded vertex
    counts cannot reproduce; kept visible instead of silently adjusted."""
    return [v for v in named_products().values() if isinstance(v, dict)]


def consistency_suite() -> dict:
    """Re-derive every published complexity value from orbit counting."""
    results = {"ok": [], "exceptions": exceptions_report(), "mismatches": []}
    expected = {name: 1 for name in PAPER_COMPLEXITY_1}
    expected.update({name: 2 for name in PAPER_COMPLEXITY_2_SADDLE + PAPER_COMPLEXITY_2_FOCUS})
    for name, want in expected.items():
        entry = named_product(name)
        if isinstance(entry, dict):
            continue  # carried in the exceptions list
        got = complexity(entry)
        record = {"name": name, "expected": want, "computed": got, "free_on_tuples": tuple_action_free(entry)}
        if got == want:
            results["ok"].append(record)
        else:
            results["mismatches"].append(record)
    return results


# ---------------------------------------------------------------------------
# Product spec files and fuzzing
# ---------------------------------------------------------------------------


def product_from_dict(d: dict) -> AlmostDirectProduct:
    """The product of a `product_to_dict` document; AtomsError when it has another shape."""
    try:
        names = d["components"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise AtomsError(f"components must be a list of atom names, not {names!r}")
        comps = [atom(n) for n in names]
        group = group_from_dict(d["group"])
        label_index = {lab: i for i, lab in enumerate(group.labels)}
        entries = d["action"]
        if not isinstance(entries, list) or len(entries) != len(comps):
            raise AtomsError(f"action must be a list of one entry per component ({len(comps)}), not {entries!r}")
        perms: list[list[tuple[int, ...]]] = []
        fiber_free: list[list[bool] | None] = []
        for comp, centry in zip(comps, entries):
            row = [None] * group.order
            for lab, perm in centry["perms"].items():
                row[label_index[lab]] = tuple(perm)
            if any(p is None for p in row):
                raise AtomsError(f"component {comp.name}: permutation missing for some element")
            perms.append(row)
            ff = centry.get("fiber_free")
            if ff is None:
                fiber_free.append(None)
            else:
                flags = [False] * group.order
                for lab, val in ff.items():
                    if not isinstance(val, bool):
                        raise AtomsError(f"component {comp.name}: fiber_free of {lab} is {val!r}, not true or false")
                    flags[label_index[lab]] = val
                fiber_free.append(flags)
        action = make_action(group, comps, perms, fiber_free)
        return AlmostDirectProduct(comps, action, d.get("name", ""))
    except (TypeError, AttributeError, IndexError) as exc:
        raise AtomsError(f"not a product document: {exc}") from exc


def product_to_dict(p: AlmostDirectProduct) -> dict:
    g = p.group
    return {
        "name": p.name,
        "components": [c.name for c in p.components],
        "group": group_to_dict(g),
        "action": [
            {
                "perms": dict(zip(g.labels, map(list, perms))),
                "fiber_free": dict(zip(g.labels, free)),
            }
            for perms, free in zip(p.action.perms, p.action.fiber_free)
        ],
    }


_FUZZ_GROUPS = ["1", "Z2", "Z3", "Z4", "Z2+Z2", "Z4+Z2", "D4"]
_FUZZ_ATOMS = ["A", "B", "C1", "C2", "D1", "I1", "J1", "K3", "P4", "F1", "F2", "F4"]


def random_product(rng: np.random.Generator) -> AlmostDirectProduct:
    """Random catalog product with a random admissible group action."""
    group = group_by_name(_FUZZ_GROUPS[rng.integers(len(_FUZZ_GROUPS))])
    ncomp = int(rng.integers(1, 4))
    comps = [atom(_FUZZ_ATOMS[rng.integers(len(_FUZZ_ATOMS))]) for _ in range(ncomp)]
    perms = []
    for comp in comps:
        homs = group.homomorphisms_to_sym(comp.singular_points)
        perms.append(homs[rng.integers(len(homs))])
    action = make_action(group, comps, perms)
    return AlmostDirectProduct(comps, action, "fuzz")
