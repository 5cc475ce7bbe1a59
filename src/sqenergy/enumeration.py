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
larger invariant than some other leaf is rejected before any canonical
labelling.  Each survivor is labelled once; its new leaf being the
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

from typing import Iterator

from .canon import _orbit, canonical_form, canonical_pair
from .families import cycle_graph
from .graphs import Graph, _row_bits, add_leaf, induced_subgraph

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
        for parent in level.values():
            rows = parent.rows
            for mask in range(1, 1 << k):
                child_rows = tuple(
                    r | ((mask >> u & 1) << k) for u, r in enumerate(rows)
                ) + (mask,)
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
                for child in _leaf_children(parent, parent_gens):
                    ties = _tied_leaves(child.rows)
                    if ties is None:
                        continue
                    key, canon, labels, gens = canonical_pair(child, automorphisms=True)
                    if key in seen:
                        continue
                    seen.add(key)
                    # the canonical deletion: the tied leaf of highest canonical label
                    w = max(ties, key=labels.__getitem__, default=k)
                    if labels[w] < labels[k]:
                        w = k
                    others = (v for v in range(k + 1) if v != w)
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


def _tied_leaves(rows: tuple[int, ...]) -> list[int] | None:
    """The other leaves whose invariant equals the new (last) leaf's.

    A leaf's invariant is, for its neighbour h, first the degree of h,
    then ``(s1(h), s2(h))``: ``s1(x)`` sums the degrees of x's
    neighbours and ``s2(h)`` sums ``s1`` over h's neighbours.  The second
    step is computed only for the leaves that tie with the new leaf on
    the first.  None when some leaf has a smaller invariant, which rules
    the new leaf out as the canonical deletion.
    """
    k = len(rows) - 1
    hub = rows[k].bit_length() - 1
    degree = rows[hub].bit_count()
    ties = []
    for v in range(k):
        if rows[v].bit_count() == 1:
            d = rows[rows[v].bit_length() - 1].bit_count()
            if d < degree:
                return None
            if d == degree:
                ties.append(v)
    if not ties:
        return ties

    def s1(x: int) -> int:
        return sum(rows[u].bit_count() for u in _row_bits(rows[x]))

    def fine(h: int) -> tuple[int, int]:
        return s1(h), sum(map(s1, _row_bits(rows[h])))

    mine = fine(hub)
    finer = []
    for v in ties:
        f = fine(rows[v].bit_length() - 1)
        if f < mine:
            return None
        if f == mine:
            finer.append(v)
    return finer


def _leaf_children(parent: Graph, gens: Generators) -> Iterator[Graph]:
    """The parent plus a pendant vertex on each vertex, up to gens."""
    attached = 0
    for v in range(parent.n):
        if not attached >> v & 1:
            attached |= _orbit(v, gens)
            yield add_leaf(parent, v)

