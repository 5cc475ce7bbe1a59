"""Exhaustive generation of small graphs, one representative per isomorphism class.

Connected graphs are grown one vertex at a time: every connected graph
on k+1 vertices contains a vertex whose removal leaves a connected graph
(any leaf of a spanning tree), so augmenting each k-vertex representative
with a new vertex attached to every non-empty neighbourhood subset
reaches everything.  Every child is labelled canonically once and
duplicates are removed by canonical form.

Unicyclic graphs are grown from their cycle by pendant additions, with
canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  Every graph has one canonical parent: remove
the leaf of least invariant and, among ties, highest canonical label.
A leaf's invariant is taken in two steps at its neighbour h: first the
degree of h, then, only between leaves that tie on that degree, the
pair (sum of the degrees of h's neighbours, sum of that same sum over
h's neighbours).  A child is kept only if removing the canonical leaf
gives back the parent it was grown from.  A child whose new leaf has a
larger invariant than some other leaf is rejected before it is built:
its invariants are read off a per-parent table, adjusted for the one
attachment.  Each survivor is labelled once; its new leaf being the
canonical deletion, or in the same orbit under the automorphisms that
search found, accepts it without further work, and otherwise one
canonical form of the child minus the canonical deletion decides (at
order 13, for 153 of the 13365 labelled children).  All copies of a
class come from its one canonical parent, so a per-parent set of keys
removes the remaining duplicates, and attachment vertices that the
parent's known automorphisms map onto each other are tried once.

Each order's last level is sorted by canonical key, so two runs emit
byte-identical sequences.
"""

from __future__ import annotations

from operator import or_
from typing import Iterator

from .canon import _orbit, canonical_form, canonical_pair
from .families import cycle_graph
from .graphs import Graph, add_leaf, bits, induced_subgraph

__all__ = [
    "enumerate_connected",
    "enumerate_unicyclic_nonbipartite",
    "CONNECTED_MAX_N",
    "UNICYCLIC_MAX_N",
]

CONNECTED_MAX_N = 10
UNICYCLIC_MAX_N = 18

Generators = tuple[tuple[int, ...], ...]
# (canonical key, canonical graph, automorphism generators found for it)
Level = list[tuple[bytes, Graph, Generators]]


def enumerate_connected(n: int) -> Iterator[Graph]:
    """All connected graphs of order n up to isomorphism, canonically labelled.

    Deterministic order (sorted canonical keys).  Orders up to 8 are
    quick; 9 and 10 are supported but take correspondingly longer.
    """
    _check_connected_order(n)
    k1 = Graph(1, (0,))
    level: dict[bytes, Graph] = {canonical_pair(k1)[0]: k1}
    for k in range(1, n):
        grown: dict[bytes, Graph] = {}
        # spread[mask][u]: the bit that joins u to the new vertex k when u is in mask
        spread = [tuple([(mask >> u & 1) << k for u in range(k)]) for mask in range(1 << k)]
        for parent in level.values():
            rows = parent.rows
            for mask in range(1, 1 << k):
                child_rows = (*map(or_, rows, spread[mask]), mask)
                key, canon = canonical_pair(Graph(k + 1, child_rows))
                if key not in grown:
                    grown[key] = canon
        level = grown
    for key in sorted(level):
        yield level[key]


def enumerate_unicyclic_nonbipartite(n: int) -> Iterator[Graph]:
    """Connected unicyclic graphs of order n with an odd cycle, up to isomorphism.

    Grown per cycle length: start from the odd cycle and attach pendant
    vertices.  Emitted by cycle length, then sorted canonical key.
    Orders 3 to 18 are supported; each order takes about three times as
    long as the one before.
    """
    _check_unicyclic_order(n)
    for c in range(3, n + 1, 2):
        key, base, _, gens = canonical_pair(cycle_graph(c), automorphisms=True)
        level: Level = [(key, base, gens)]
        for k in range(c, n):
            extend = k + 1 < n
            grown: Level = []
            for parent_key, parent, parent_gens in level:
                seen: set[bytes] = set()
                table = _leaf_table(parent.rows)
                for v in _attachments(parent.n, parent_gens):
                    ties = _tied_leaves(table, v)
                    if ties is None:
                        continue
                    child = add_leaf(parent, v)
                    key, canon, labels, gens = canonical_pair(child, automorphisms=True)
                    if key in seen:
                        continue
                    seen.add(key)
                    # the canonical deletion: the tied leaf of highest canonical label
                    w = max(ties, key=labels.__getitem__, default=k)
                    if labels[w] < labels[k]:
                        w = k
                    others = (u for u in range(k + 1) if u != w)
                    if (
                        w == k
                        or _orbit(labels[k], gens) >> labels[w] & 1
                        or canonical_form(induced_subgraph(child, others)) == parent_key
                    ):
                        grown.append((key, canon, gens if extend else ()))
            level = grown
        level.sort(key=lambda item: item[0])
        for _, g, _ in level:
            yield g


def _check_connected_order(n: int) -> None:
    if not 1 <= n <= CONNECTED_MAX_N:
        raise ValueError(f"connected enumeration supports 1 <= n <= {CONNECTED_MAX_N}, got {n}")


def _check_unicyclic_order(n: int) -> None:
    if n < 3:
        raise ValueError(f"unicyclic enumeration needs n >= 3, got {n}")
    if n > UNICYCLIC_MAX_N:
        raise ValueError(f"unicyclic enumeration capped at n <= {UNICYCLIC_MAX_N}")


# (rows, degree, leaves, fine) of a parent: leaves pairs each leaf with its
# neighbour, and fine memoises (s1(h), s2(h)) per vertex h, where s1(x) sums
# the degrees of x's neighbours and s2(h) sums s1 over h's neighbours
LeafTable = tuple[tuple[int, ...], list[int], list[tuple[int, int]], dict[int, tuple[int, int]]]


def _leaf_table(rows: tuple[int, ...]) -> LeafTable:
    """The per-parent table that ``_tied_leaves`` updates for one attachment."""
    degree = [r.bit_count() for r in rows]
    leaves = [(v, r.bit_length() - 1) for v, r in enumerate(rows) if degree[v] == 1]
    return rows, degree, leaves, {}


def _parent_fine(table: LeafTable, h: int) -> tuple[int, int]:
    """The parent's (s1(h), s2(h)), computed once per parent and vertex."""
    rows, degree, _, fine = table
    f = fine.get(h)
    if f is None:
        near = bits(rows[h])
        s1 = sum([degree[u] for u in near])
        s2 = sum([degree[w] for u in near for w in bits(rows[u])])
        f = fine[h] = (s1, s2)
    return f


def _tied_leaves(table: LeafTable, v: int) -> list[int] | None:
    """The other leaves whose invariant equals the new leaf's, when it hangs on v.

    A leaf's invariant is, for its neighbour h, first the degree of h,
    then ``(s1(h), s2(h))``.  The second step is taken only for the
    leaves that tie with the new leaf on the first.  None when some leaf
    has a smaller invariant, which rules the new leaf out as the
    canonical deletion.  Values are the child's, read off the parent's
    table: the attachment raises the degree of v by one, so s1 rises by
    one at v and at its neighbours, and s2(h) by the number of h's
    neighbours among v and v's neighbours, which at v itself is
    2 deg(v) + 1.  v itself is no leaf of the child.
    """
    rows, degree, leaves, _ = table
    mine = degree[v] + 1
    ties = []
    for leaf, h in leaves:
        if leaf == v:
            continue
        d = degree[h] + (h == v)
        if d < mine:
            return None
        if d == mine:
            ties.append((leaf, h))
    if not ties:
        return []
    s1, s2 = _parent_fine(table, v)
    mine_fine = (s1 + 1, s2 + 2 * degree[v] + 1)
    near = rows[v]
    finer = []
    for leaf, h in ties:
        if h != v:
            a = near >> h & 1
            s1, s2 = _parent_fine(table, h)
            f = (s1 + a, s2 + (rows[h] & near).bit_count() + a)
            if f < mine_fine:
                return None
            if f > mine_fine:
                continue
        finer.append(leaf)
    return finer


def _attachments(n: int, gens: Generators) -> Iterator[int]:
    """The vertices 0..n-1, one per orbit of gens (its smallest)."""
    attached = 0
    for v in range(n):
        if not attached >> v & 1:
            attached |= _orbit(v, gens)
            yield v
