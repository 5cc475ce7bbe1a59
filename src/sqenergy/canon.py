"""Canonical labelling by refinement with backtracking.

Two graphs get the same canonical form iff they are isomorphic, which
turns deduplication of generated graphs into byte-string comparisons.

The search is the classic individualize-and-refine scheme: the ordered
partition of the vertices is refined to equitability; if cells remain,
each vertex of the first one is tried in turn, and the lexicographically
largest adjacency bitstring over all discrete leaves wins.  Two leaves
with equal bitstrings reveal an automorphism.  A vertex whose twin was
already tried is skipped outright, and the swap of the two joins the
automorphisms found so far.  Their orbits, under those that fix the
current prefix, prune sibling branches, which keeps highly symmetric
graphs (cliques, stars, unions of twins) from exploding into factorial
subtrees.  The automorphisms a search finds generate a subgroup of the
automorphism group, not always all of it; ``canonical_pair`` hands them
out for callers that only use them to skip equivalent work.

Inside the search a cell is a bitmask of its vertices, so a fresh
cell is its own count mask: a vertex's count into it is one ``&`` and a
bit count.  Each leaf is kept as the rows of the graph
it labels; leaves compare row by row, so the winning leaf's rows are
the canonical graph and the key is read off them, without a relabelling
pass.  Colour refinement in ``partitions`` runs on the same kernel.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, bits

__all__ = [
    "canonical_form",
    "canonical_pair",
]


def _refine(rows: Sequence[int], cells: list[int], fresh: list[int]) -> list[int]:
    """Equitable refinement of the ordered cells, given as bitmasks.

    Repeatedly splits every cell by the vector of neighbour counts into
    all current cells, ordering the sub-cells by that signature so the
    outcome is isomorphism-invariant; a cell that does not split keeps
    its place.  ``fresh`` lists the cells whose counts can still differ,
    as bitmasks, in cell order: on the first call, every cell.  Vertices of
    one cell agree on their counts into every other cell, so comparing
    counts into the fresh cells orders them as the full vectors would.  A
    vertex's counts are packed into one integer, the first fresh cell's
    count most significant, and sub-cells are ordered by it; a two-vertex
    cell compares its two count vectors up to the first difference.  After
    a split, the sub-cells are fresh except the last of each split cell,
    whose count is the old cell's count minus the others'.  A discrete
    partition is returned at once.
    """
    width = len(rows).bit_length()
    while True:
        new_cells: list[int] = []
        next_fresh: list[int] = []
        for cell in cells:
            high = cell & (cell - 1)
            if not high:
                new_cells.append(cell)
                continue
            if not high & (high - 1):
                # two vertices: the first count that differs orders them
                low = cell ^ high
                ra = rows[low.bit_length() - 1]
                rb = rows[high.bit_length() - 1]
                for f in fresh:
                    d = (ra & f).bit_count() - (rb & f).bit_count()
                    if d:
                        break
                if not d:
                    new_cells.append(cell)
                elif d < 0:
                    new_cells += (low, high)
                    next_fresh.append(low)
                else:
                    new_cells += (high, low)
                    next_fresh.append(high)
                continue
            groups: dict[int, int] = {}
            get = groups.get
            for v in bits(cell):
                r = rows[v]
                sig = 0
                for f in fresh:
                    sig = sig << width | (r & f).bit_count()
                groups[sig] = get(sig, 0) | 1 << v
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            order = sorted(groups)
            last = groups[order.pop()]
            for sig in order:
                new_cells.append(groups[sig])
                next_fresh.append(groups[sig])
            new_cells.append(last)
        if not next_fresh or len(new_cells) == len(rows):
            return new_cells
        cells = new_cells
        fresh = next_fresh


def _orbit(v: int, gens: Sequence[Sequence[int]]) -> int:
    """The orbit of vertex v under the group generated by gens, as a bitset."""
    orbit = 1 << v
    stack = [v]
    while stack:
        u = stack.pop()
        for sigma in gens:
            w = sigma[u]
            if not orbit >> w & 1:
                orbit |= 1 << w
                stack.append(w)
    return orbit


def _canonical_search(
    n: int, rows: tuple[int, ...]
) -> tuple[list[int], list[int], list[tuple[int, ...]]]:
    """Rows of the best (max) leaf, the labelling that produces it, and the automorphisms met.

    Leaves compare by their bitstring: row by row, the bits to the later
    vertices, the nearest one most significant.  A cell vertex whose twin
    (equal open or closed neighbourhood) was already tried is skipped,
    and the swap of the two joins the automorphisms met; a cell vertex
    that those fixing the prefix map onto a tried vertex is skipped too.
    Neither kind of pruning can skip the first leaf that attains the
    maximum, so the labelling does not depend on them.
    """
    if n == 0:
        return [], [], []
    best_rows: list[int] = []
    best_perm: list[int] = []
    autos: list[tuple[int, ...]] = []
    place = [0] * n  # place[v] = 1 << (v's position in the leaf)
    bit_of = place.__getitem__

    def descend(cells: list[int], fresh: list[int], prefix: tuple[int, ...]) -> None:
        nonlocal best_rows, best_perm
        cells = _refine(rows, cells, fresh)
        if len(cells) == n:
            perm = [c.bit_length() - 1 for c in cells]
            for i, v in enumerate(perm):
                place[v] = 1 << i
            leaf = [sum(map(bit_of, bits(rows[v]))) for v in perm]
            if leaf == best_rows:
                sigma = [0] * n
                for pi, bi in zip(perm, best_perm):
                    sigma[pi] = bi
                autos.append(tuple(sigma))
                return
            if best_rows:
                # the first row that differs differs only at later vertices;
                # the nearest of those is its lowest differing bit
                for a, b in zip(leaf, best_rows):
                    if a != b:
                        break
                d = a ^ b
                if not d & -d & a:
                    return
            best_rows = leaf
            best_perm = perm
            return
        target = 0
        for cell in cells:
            if cell & (cell - 1):
                break
            target += 1
        head = cells[:target]
        tail = cells[target + 1 :]
        tried = 0
        fixing: list[tuple[int, ...]] = []  # the automorphisms met that fix the prefix
        checked = 0
        for v in bits(cell):
            if tried:
                rv = rows[v]
                cv = rv | 1 << v
                twin = -1
                for u in bits(tried):
                    ru = rows[u]
                    if ru == rv or ru | 1 << u == cv:
                        twin = u
                        break
                if twin >= 0:
                    sigma = list(range(n))
                    sigma[twin], sigma[v] = v, twin
                    autos.append(tuple(sigma))
                    continue
                if checked < len(autos):
                    fixing += [s for s in autos[checked:] if all(s[p] == p for p in prefix)]
                    checked = len(autos)
                if fixing and _orbit(v, fixing) & tried:
                    continue
            tried |= 1 << v
            bit = 1 << v
            descend(head + [bit, cell ^ bit] + tail, [bit], prefix + (v,))

    everyone = (1 << n) - 1
    descend([everyone], [everyone], ())
    return best_rows, best_perm, autos


_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _key(n: int, rows: Sequence[int]) -> bytes:
    """Order header plus the leaf bitstring of the graph with these rows."""
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 7) // 8 or 1
    # the bits to later vertices, nearest first, laid out from the least
    # significant end after 8 * nbytes - nbits pad bits; reversing every
    # bit turns that into the big-endian bitstring
    low = 0
    shift = 8 * nbytes - nbits
    for i, r in enumerate(rows):
        low |= r >> (i + 1) << shift
        shift += n - 1 - i
    return n.to_bytes(4, "big") + low.to_bytes(nbytes, "little").translate(_REVERSED_BITS)


def canonical_form(g: Graph) -> bytes:
    """Canonical key: order header plus the maximal adjacency bitstring."""
    rows, _, _ = _canonical_search(g.n, g.rows)
    return _key(g.n, rows)


def canonical_pair(g: Graph, automorphisms: bool = False) -> tuple:
    """Canonical key and relabelled graph from a single search.

    With ``automorphisms=True`` the same search also returns ``labels``,
    where ``labels[v]`` is the vertex of the canonical graph that g's
    vertex v becomes, and the automorphisms it found, as permutations of
    the canonical graph's vertices: ``(key, canon, labels, generators)``.
    They generate a subgroup of the automorphism group, possibly trivial.
    """
    rows, perm, autos = _canonical_search(g.n, g.rows)
    key = _key(g.n, rows)
    canon = Graph(g.n, tuple(rows))
    if not automorphisms:
        return key, canon
    labels = [0] * g.n
    for i, v in enumerate(perm):
        labels[v] = i
    generators = tuple(tuple([labels[sigma[v]] for v in perm]) for sigma in autos)
    return key, canon, tuple(labels), generators
