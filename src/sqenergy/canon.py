"""Canonical labelling by refinement with backtracking.

Two graphs get the same canonical form iff they are isomorphic, which
turns deduplication of generated graphs into byte-string comparisons.

The search is the classic individualize-and-refine scheme: the ordered
partition of the vertices is refined to equitability; if cells remain,
each vertex of the first one is tried in turn, and the lexicographically
largest adjacency bitstring over all discrete leaves wins.  Two leaves
with equal bitstrings reveal an automorphism, and the orbits of the
automorphisms found so far prune sibling branches, which keeps highly
symmetric graphs (cliques, stars, unions of twins) from exploding into
factorial subtrees.
"""

from __future__ import annotations

from .graphs import Graph, relabel, to_graph6

__all__ = [
    "canonical_form",
    "canonical_graph",
    "canonical_pair",
    "canonical_g6",
    "is_isomorphic",
]


def refine(rows: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Equitable refinement preserving cell order.

    Repeatedly splits every cell by the vector of neighbour counts into
    all current cells; sub-cells are ordered by that signature so the
    outcome is isomorphism-invariant.
    """
    while True:
        masks = [0] * len(cells)
        for i, cell in enumerate(cells):
            m = 0
            for v in cell:
                m |= 1 << v
            masks[i] = m
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                rv = rows[v]
                sig = tuple((rv & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(tuple(groups[sig]))
        cells = new_cells
        if not changed:
            return cells


def _leaf_bits(rows: tuple[int, ...], perm: tuple[int, ...]) -> int:
    """Upper-triangle adjacency bits of the relabelled graph, packed msb-first."""
    acc = 0
    for i, pi in enumerate(perm):
        ri = rows[pi]
        for pj in perm[i + 1 :]:
            acc = acc << 1 | (ri >> pj & 1)
    return acc


class _Orbits:
    """Union-find over vertices, merged along recorded automorphisms."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _canonical_search(n: int, rows: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Best (max) leaf bitstring and the labelling that produces it."""
    if n == 0:
        return 0, ()
    best_bits = -1
    best_perm: tuple[int, ...] = ()
    autos: list[tuple[int, ...]] = []

    def descend(cells: list[tuple[int, ...]], prefix: tuple[int, ...]) -> None:
        nonlocal best_bits, best_perm
        cells = refine(rows, cells)
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            perm = tuple(c[0] for c in cells)
            leaf = _leaf_bits(rows, perm)
            if leaf > best_bits:
                best_bits = leaf
                best_perm = perm
            elif leaf == best_bits and perm != best_perm:
                sigma = [0] * n
                for i, pi in enumerate(perm):
                    sigma[pi] = best_perm[i]
                autos.append(tuple(sigma))
            return
        cell = cells[target]
        head = cells[:target]
        tail = cells[target + 1 :]
        tried: list[int] = []
        orbits: _Orbits | None = None
        orbits_at = -1
        for v in cell:
            if tried:
                if orbits_at != len(autos):
                    orbits = _Orbits(n)
                    for sigma in autos:
                        if all(sigma[p] == p for p in prefix):
                            for a in range(n):
                                orbits.union(a, sigma[a])
                    orbits_at = len(autos)
                assert orbits is not None
                root = orbits.find(v)
                if any(orbits.find(u) == root for u in tried):
                    continue
            tried.append(v)
            rest = tuple(w for w in cell if w != v)
            descend(head + [(v,), rest] + tail, prefix + (v,))

    descend([tuple(range(n))], ())
    return best_bits, best_perm


def canonical_form(g: Graph) -> bytes:
    """Canonical key: order header plus the maximal adjacency bitstring."""
    leaf, _ = _canonical_search(g.n, g.rows)
    nbits = g.n * (g.n - 1) // 2
    return g.n.to_bytes(4, "big") + leaf.to_bytes((nbits + 7) // 8 or 1, "big")


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of g."""
    _, perm = _canonical_search(g.n, g.rows)
    return relabel(g, perm) if g.n else g


def canonical_pair(g: Graph) -> tuple[bytes, Graph]:
    """Canonical key and relabelled graph from a single search."""
    leaf, perm = _canonical_search(g.n, g.rows)
    nbits = g.n * (g.n - 1) // 2
    key = g.n.to_bytes(4, "big") + leaf.to_bytes((nbits + 7) // 8 or 1, "big")
    return key, (relabel(g, perm) if g.n else g)


def canonical_g6(g: Graph) -> str:
    """graph6 encoding of the canonical labelling."""
    return to_graph6(canonical_graph(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism test via canonical forms (after cheap invariants)."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(r.bit_count() for r in g.rows) != sorted(r.bit_count() for r in h.rows):
        return False
    return canonical_form(g) == canonical_form(h)
