"""Small finite groups as explicit element tables.

Every group appearing in the atom catalog has order <= 8, so groups are
stored as label lists plus an index multiplication table; homomorphisms
into symmetric groups are found by exhaustive enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product


class FiniteGroup:
    def __init__(self, labels: list[str], table: list[list[int]], name: str = ""):
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        self.name = name or "G"
        self.order = len(labels)
        if any(len(row) != self.order for row in self.table):
            raise ValueError("multiplication table must be square")
        self.identity = self._find_identity()
        self._inverses = [self._find_inverse(i) for i in range(self.order)]

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                return e
        raise ValueError("table has no identity element")

    def _find_inverse(self, a: int) -> int:
        for b in range(self.order):
            if self.table[a][b] == self.identity:
                return b
        raise ValueError(f"element {self.labels[a]} has no inverse")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def elements(self):
        return range(self.order)

    def check_associative(self) -> bool:
        n = self.order
        return all(
            self.table[self.table[a][b]][c] == self.table[a][self.table[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def homomorphisms_to_sym(self, k: int) -> list[list[tuple[int, ...]]]:
        """All homomorphisms into Sym(k), each as a list of permutation
        tuples indexed by group element.  Exhaustive, cached per table: do not mutate."""
        return _enumerate_homs(tuple(map(tuple, self.table)), self.identity, k)


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


@lru_cache(maxsize=None)
def _sym_elements(k: int):
    return [tuple(p) for p in permutations(range(k))]


def _is_hom(table: tuple[tuple[int, ...], ...], images: dict[int, tuple[int, ...]]) -> bool:
    n = len(table)
    return all(
        _perm_mul(images[a], images[b]) == images[table[a][b]]
        for a in range(n)
        for b in range(n)
    )


@lru_cache(maxsize=None)
def _enumerate_homs(table: tuple[tuple[int, ...], ...], identity: int, k: int):
    syms = _sym_elements(k)
    n = len(table)
    homs = []

    def forced_image(g: int, assigned: dict[int, tuple[int, ...]]):
        for a in assigned:
            for b in assigned:
                if table[a][b] == g:
                    return _perm_mul(assigned[a], assigned[b])
        return None

    def backtrack(assigned: dict[int, tuple[int, ...]], todo: list[int]):
        if not todo:
            if _is_hom(table, assigned):
                homs.append([assigned[i] for i in range(n)])
            return
        g, rest = todo[0], todo[1:]
        forced = forced_image(g, assigned)
        candidates = [forced] if forced is not None else syms
        for img in candidates:
            assigned[g] = img
            ok = True
            for a in list(assigned):
                ab = table[a][g]
                if ab in assigned and _perm_mul(assigned[a], img) != assigned[ab]:
                    ok = False
                    break
                ba = table[g][a]
                if ba in assigned and _perm_mul(img, assigned[a]) != assigned[ba]:
                    ok = False
                    break
            if ok:
                backtrack(assigned, rest)
            del assigned[g]

    others = [g for g in range(n) if g != identity]
    backtrack({identity: tuple(range(k))}, others)
    return homs


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


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), "Z2+Z2")


BUILTIN_GROUPS = {
    "1": trivial,
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z2+Z2": klein_four,
    "Z4+Z2": lambda: direct_product(cyclic(4), cyclic(2), "Z4+Z2"),
    "D4": lambda: dihedral(4),
}


def group_by_name(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise ValueError(f"unknown group {name!r}; known: {sorted(BUILTIN_GROUPS)}") from None


def group_from_dict(d: dict) -> FiniteGroup:
    if isinstance(d, str):
        return group_by_name(d)
    labels = d["elements"]
    index = {lab: i for i, lab in enumerate(labels)}
    table = [[index[c] for c in row] for row in d["table"]]
    g = FiniteGroup(labels, table, d.get("name", ""))
    if not g.check_associative():
        raise ValueError("multiplication table is not associative")
    return g


def group_to_dict(g: FiniteGroup) -> dict:
    return {
        "name": g.name,
        "elements": list(g.labels),
        "table": [[g.labels[g.table[a][b]] for b in range(g.order)] for a in range(g.order)],
    }


def permutation_is_free(perm: tuple[int, ...]) -> bool:
    return all(perm[i] != i for i in range(len(perm))) if perm else False


def orbits(perms: list[tuple[int, ...]], k: int) -> list[list[int]]:
    """Orbits of the group generated by the given permutations on {0..k-1}."""
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
    out: dict[int, list[int]] = {}
    for i in range(k):
        out.setdefault(find(i), []).append(i)
    return sorted(out.values())
