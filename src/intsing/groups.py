"""Small finite groups as explicit element tables.

Every group appearing in the atom catalog has order <= 8, so groups are
stored as label lists plus an index multiplication table.  A group action
is given by the images of a generating set; homomorphisms into symmetric
groups are enumerated by extending every choice of generator images.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import count, permutations, product
from operator import ne


class FiniteGroup:
    def __init__(self, labels: list[str], table: list[list[int]], name: str = ""):
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        self.name = name or "G"
        self.order = len(labels)
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table must be square")
        self.identity = self._find_identity()
        for a in range(self.order):
            if self.identity not in self.table[a]:
                raise ValueError(f"element {self.labels[a]} has no inverse")

    def _find_identity(self) -> int:
        ident = list(range(self.order))
        for e in ident:
            if self.table[e] == ident and [row[e] for row in self.table] == ident:
                return e
        raise ValueError("table has no identity element")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self):
        return range(self.order)

    def check_associative(self) -> bool:
        """Light's test: (x*g)*y = x*(g*y) for every generator g, one row per x.
        The elements g that pass hold the identity and are closed under
        products, and every element is a product e*s1*...*sm of generators, so
        this decides associativity exactly."""
        t = self.table
        return all(t[t[x][g]] == list(map(t[x].__getitem__, t[g])) for g in self.generators for x in self.elements())

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set chosen greedily in element order: each generator
        is the first element outside the subgroup the earlier ones generate."""
        gens, span = [], [self.identity]
        for x in self.elements():
            if x not in span:
                gens.append(x)
                span = [self.identity]
                for a in span:  # grows while it is walked
                    for b in map(self.table[a].__getitem__, gens):
                        if b not in span:
                            span.append(b)
        return tuple(gens)

    def extend(self, images, k: int) -> list[tuple[int, ...]] | None:
        """The homomorphism into Sym(k) sending the i-th generator to images[i],
        as permutation tuples indexed by group element; None if there is none.

        Every element is reached as a*s from an element a reached before, and
        every (element, generator) product is checked: on an associative table
        that is the whole homomorphism law.
        """
        perms: list = [None] * self.order
        perms[self.identity] = tuple(range(k))
        reached = [self.identity]
        for a in reached:  # grows while it is walked
            for s, image in zip(self.generators, images):
                b, p = self.table[a][s], _perm_mul(perms[a], image)
                if perms[b] is None:
                    perms[b] = p
                    reached.append(b)
                elif perms[b] != p:
                    return None
        return perms

    def homomorphisms_to_sym(self, k: int) -> list[list[tuple[int, ...]]]:
        """All homomorphisms into Sym(k), each as a list of permutation tuples
        indexed by group element, in lexicographic order of the generator
        images.  Cached per table: do not mutate."""
        key = (tuple(map(tuple, self.table)), k)
        if key not in _HOMS:
            candidates = product(permutations(range(k)), repeat=len(self.generators))
            _HOMS[key] = [h for images in candidates if (h := self.extend(images, k)) is not None]
        return _HOMS[key]


_HOMS: dict = {}


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(labels, table, name or f"Z{n}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    labels = []
    index = {}
    for i, j in product(range(g1.order), range(g2.order)):
        index[(i, j)] = len(labels)
        labels.append(f"({g1.labels[i]},{g2.labels[j]})")
    table = []
    for i, j in product(range(g1.order), range(g2.order)):
        row = []
        for k, l in product(range(g1.order), range(g2.order)):
            row.append(index[(g1.mul(i, k), g2.mul(j, l))])
        table.append(row)
    return FiniteGroup(labels, table, name or f"{g1.name}+{g2.name}")


def dihedral(n: int, name: str | None = None) -> FiniteGroup:
    """Dihedral group of order 2n: elements r^a s^b."""
    labels = []
    for b in range(2):
        for a in range(n):
            labels.append(f"r{a}" if b == 0 else f"r{a}s")
    labels[0] = "e"

    def idx(a, b):
        return b * n + a

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a1, b1 in product(range(n), range(2)):
        for a2, b2 in product(range(n), range(2)):
            # (r^a1 s^b1)(r^a2 s^b2) = r^(a1 + a2*(-1)^b1) s^(b1+b2)
            a = (a1 + (a2 if b1 == 0 else -a2)) % n
            b = (b1 + b2) % 2
            table[idx(a1, b1)][idx(a2, b2)] = idx(a, b)
    return FiniteGroup(labels, table, name or f"D{n}")


def trivial() -> FiniteGroup:
    return FiniteGroup(["e"], [[0]], "1")


BUILTIN_GROUPS = {
    "1": trivial,
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z2+Z2": lambda: direct_product(cyclic(2), cyclic(2), "Z2+Z2"),
    "Z4+Z2": lambda: direct_product(cyclic(4), cyclic(2), "Z4+Z2"),
    "D4": lambda: dihedral(4),
}


@cache
def group_by_name(name: str) -> FiniteGroup:
    """The built-in group of that name, one shared instance per name: do not mutate."""
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise ValueError(f"unknown group {name!r}; known: {sorted(BUILTIN_GROUPS)}") from None


def group_from_dict(d: dict) -> FiniteGroup:
    if isinstance(d, str):
        return group_by_name(d)
    labels = d["elements"]
    index = {lab: i for i, lab in enumerate(labels)}
    table = [list(map(index.__getitem__, row)) for row in d["table"]]
    g = FiniteGroup(labels, table, d.get("name", ""))
    if not g.check_associative():
        raise ValueError("multiplication table is not associative")
    return g


def group_to_dict(g: FiniteGroup) -> dict:
    return {
        "name": g.name,
        "elements": list(g.labels),
        "table": [list(map(g.labels.__getitem__, row)) for row in g.table],
    }


def permutation_is_free(perm: tuple[int, ...]) -> bool:
    return bool(perm) and all(map(ne, perm, count()))


def orbits(perms: list[tuple[int, ...]], k: int) -> list[list[int]]:
    """Orbits of the group generated by the given permutations on {0..k-1}."""
    out, seen = [], set()
    for x in range(k):
        if x not in seen:
            orbit = [x]
            seen.add(x)
            for y in orbit:  # grows while it is walked
                for p in perms:
                    if p[y] not in seen:
                        seen.add(p[y])
                        orbit.append(p[y])
            out.append(sorted(orbit))
    return out
