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
factorial subtrees.  A vertex whose twin was already tried is skipped
outright, since swapping twins is an automorphism.  The automorphisms a
search finds generate a subgroup of the automorphism group, not always
all of it; ``canonical_pair`` hands them out for callers that only use
them to skip equivalent work.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, _row_bits, relabel, to_graph6

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
    outcome is isomorphism-invariant.  Empty cells are dropped.
    """
    cells = [c for c in cells if c]
    return _refine(rows, cells, [_mask(c) for c in cells]) if cells else cells


def _mask(cell: Iterable[int]) -> int:
    m = 0
    for v in cell:
        m |= 1 << v
    return m


def _refine(
    rows: tuple[int, ...], cells: list[tuple[int, ...]], fresh: list[int]
) -> list[tuple[int, ...]]:
    """``refine`` given the cells whose counts can still differ within a cell.

    ``fresh`` lists those cells as bitmasks, in cell order.  Vertices of
    one cell agree on their counts into every other cell, so comparing
    counts into the fresh cells orders them as the full vectors would.
    After a split, the sub-cells are fresh except the last of each split
    cell, whose count is the old cell's count minus the others'.  A
    vertex's counts are packed into one integer, the first fresh cell's
    count most significant.
    """
    width = len(rows).bit_length()
    while True:
        new_cells: list[tuple[int, ...]] = []
        next_fresh: list[int] = []
        m = fresh[0] if len(fresh) == 1 else 0
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            if m:
                sigs = [(rows[v] & m).bit_count() for v in cell]
            else:
                sigs = []
                for v in cell:
                    r = rows[v]
                    sig = 0
                    for f in fresh:
                        sig = sig << width | (r & f).bit_count()
                    sigs.append(sig)
            if sigs.count(sigs[0]) == len(sigs):
                new_cells.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v, sig in zip(cell, sigs):
                if sig in groups:
                    groups[sig].append(v)
                else:
                    groups[sig] = [v]
            order = sorted(groups)
            for sig in order:
                new_cells.append(tuple(groups[sig]))
            next_fresh.extend(_mask(groups[sig]) for sig in order[:-1])
        if not next_fresh:
            return new_cells
        cells = new_cells
        fresh = next_fresh


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


def _canonical_search(
    n: int, rows: tuple[int, ...]
) -> tuple[int, tuple[int, ...], list[tuple[int, ...]]]:
    """Best (max) leaf bitstring, the labelling that produces it, and the automorphisms met.

    Besides the automorphisms that orbit pruning records, a cell vertex
    whose twin (equal open or closed neighbourhood) was already tried is
    skipped, and the swap of the two is an automorphism met.  Neither kind
    of pruning can skip the first leaf that attains the maximum, so the
    labelling does not depend on them.
    """
    if n == 0:
        return 0, (), []
    nbrs = [tuple(_row_bits(r)) for r in rows]
    best_bits = -1
    best_perm: tuple[int, ...] = ()
    autos: list[tuple[int, ...]] = []
    swaps: list[tuple[int, ...]] = []
    # A leaf's bitstring is row by row: row i holds its bits to the vertices
    # after i, the nearest one most significant.  With vertex perm[j] weighted
    # 1 << (n - 1 - j), row i is its neighbours' weight sum below 1 << (n - 1 - i).
    place = [0] * n
    weight = place.__getitem__
    tails = [(n - 1 - i, (1 << (n - 1 - i)) - 1) for i in range(n)]

    def descend(cells: list[tuple[int, ...]], fresh: list[int], prefix: tuple[int, ...]) -> None:
        nonlocal best_bits, best_perm
        cells = _refine(rows, cells, fresh)
        for target, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            perm = tuple([c[0] for c in cells])
            for i, v in enumerate(perm):
                place[v] = 1 << (n - 1 - i)
            leaf = 0
            for v, (shift, below) in zip(perm, tails):
                leaf = leaf << shift | sum(map(weight, nbrs[v])) & below
            if leaf > best_bits:
                best_bits = leaf
                best_perm = perm
            elif leaf == best_bits and perm != best_perm:
                sigma = [0] * n
                for pi, bi in zip(perm, best_perm):
                    sigma[pi] = bi
                autos.append(tuple(sigma))
            return
        head = cells[:target]
        tail = cells[target + 1 :]
        tried: list[int] = []
        orbits: _Orbits | None = None
        orbits_at = -1
        for v in cell:
            if tried:
                rv, cv = rows[v], rows[v] | 1 << v
                twin = next((u for u in tried if rows[u] == rv or rows[u] | 1 << u == cv), -1)
                if twin >= 0:
                    sigma = list(range(n))
                    sigma[twin], sigma[v] = v, twin
                    swaps.append(tuple(sigma))
                    continue
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
            rest = tuple([w for w in cell if w != v])
            descend(head + [(v,), rest] + tail, [1 << v], prefix + (v,))

    descend([tuple(range(n))], [(1 << n) - 1], ())
    return best_bits, best_perm, autos + swaps


def _key(n: int, leaf: int) -> bytes:
    nbits = n * (n - 1) // 2
    return n.to_bytes(4, "big") + leaf.to_bytes((nbits + 7) // 8 or 1, "big")


def canonical_form(g: Graph) -> bytes:
    """Canonical key: order header plus the maximal adjacency bitstring."""
    leaf, _, _ = _canonical_search(g.n, g.rows)
    return _key(g.n, leaf)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labelled copy of g."""
    _, perm, _ = _canonical_search(g.n, g.rows)
    return relabel(g, perm) if g.n else g


def canonical_pair(g: Graph, automorphisms: bool = False) -> tuple:
    """Canonical key and relabelled graph from a single search.

    With ``automorphisms=True`` the same search also returns ``labels``,
    where ``labels[v]`` is the vertex of the canonical graph that g's
    vertex v becomes, and the automorphisms it found, as permutations of
    the canonical graph's vertices: ``(key, canon, labels, generators)``.
    They generate a subgroup of the automorphism group, possibly trivial.
    """
    leaf, perm, autos = _canonical_search(g.n, g.rows)
    key = _key(g.n, leaf)
    canon = relabel(g, perm) if g.n else g
    if not automorphisms:
        return key, canon
    labels = [0] * g.n
    for i, v in enumerate(perm):
        labels[v] = i
    generators = tuple(tuple(labels[sigma[v]] for v in perm) for sigma in autos)
    return key, canon, tuple(labels), generators


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
