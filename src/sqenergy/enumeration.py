"""Exhaustive generation of small graphs, one representative per isomorphism class.

Connected graphs are grown one vertex at a time: every connected graph
on k+1 vertices contains a vertex whose removal leaves a connected graph
(any leaf of a spanning tree), so augmenting each k-vertex representative
with a new vertex attached to every non-empty neighbourhood subset
reaches everything.  Every child is labelled canonically once and
duplicates are removed by canonical form.

Unicyclic graphs are generated directly, with no duplicates to remove.
A connected unicyclic graph is its cycle C_c with a rooted tree hanging
at each cycle vertex, and two such graphs are isomorphic iff their tree
sequences around the cycle are equal up to rotation and reflection
(Harary & Palmer, *Graphical Enumeration*, 1973).  Rooted trees are
numbered once per call by (size, sorted tuple of child ids), so equal
trees get equal ids (the code of Aho, Hopcroft & Ullman, 1974); each
class is then the one id sequence that is least among its 2c dihedral
images (a bracelet).  Each bracelet's graph is emitted as it is built,
with no canonical labelling: the cycle is ``0..c-1`` and the trees'
other vertices follow.

Each connected order's last level is sorted by canonical key, and the
unicyclic classes come in cycle length, then bracelet order, so two runs
emit byte-identical sequences.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import or_
from typing import Iterator

from .canon import canonical_pair
from .graphs import Graph

__all__ = [
    "enumerate_connected",
    "enumerate_unicyclic_nonbipartite",
    "CONNECTED_MAX_N",
    "UNICYCLIC_MAX_N",
]

CONNECTED_MAX_N = 10
UNICYCLIC_MAX_N = 18


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

    One class per bracelet of rooted trees around each odd cycle length,
    emitted as it is found: by cycle length, then bracelet order.  The
    graphs are not canonically labelled: the cycle is ``0..c-1``, then
    come the trees, one after another around it (see ``_unicyclic``).
    Orders 3 to 18 are supported; each order takes about three times as
    long as the one before.
    """
    _check_unicyclic_order(n)
    size, parents = _rooted_trees(n - 2)
    for c in range(3, n + 1, 2):
        for seq in _bracelets(c, n, size):
            yield _unicyclic(seq, parents)


def _rooted_trees(max_size: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Every rooted tree of at most max_size vertices, one per class.

    A tree's id is its place in (size, sorted tuple of child ids) order,
    so children have smaller ids than their parent tree, and isomorphic
    trees get the same id.  ``size[t]`` is tree t's order, and
    ``parents[t][j - 1]`` is the parent of its vertex j: the root is
    vertex 0 and each child's subtree follows in one block.
    """
    size = [1]
    parents: list[tuple[int, ...]] = [()]

    def forests(total: int, low: int) -> Iterator[tuple[int, ...]]:
        # the nondecreasing tuples of ids >= low whose sizes sum to total,
        # in lexicographic order
        if not total:
            yield ()
            return
        for t in range(low, bisect_right(size, total)):
            for rest in forests(total - size[t], t):
                yield (t, *rest)

    for s in range(2, max_size + 1):
        for children in forests(s - 1, 0):
            tree: list[int] = []
            for t in children:
                root = len(tree) + 1
                tree.append(0)
                tree += [root + p for p in parents[t]]
            size.append(s)
            parents.append(tuple(tree))
    return size, parents


def _bracelets(c: int, n: int, size: list[int]) -> Iterator[tuple[int, ...]]:
    """The length-c tuples of tree ids whose sizes sum to n, each the least
    of its c rotations and c reflections."""

    def extend(seq: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        # every later entry is >= the head, so it has at least the head's size
        slots = c - len(seq)
        if slots == 1:
            for t in range(max(head, bisect_left(size, left)), bisect_right(size, left)):
                yield (*seq, t)
            return
        for t in range(head, bisect_right(size, left - (slots - 1) * size[head])):
            yield from extend((*seq, t), left - size[t])

    for head in range(bisect_right(size, n // c)):
        for seq in extend((head,), n - size[head]):
            twice = seq + seq
            back = twice[::-1]
            # an image that starts above the head is larger; compare the rest
            if all(
                (twice[i] != head or twice[i : i + c] >= seq) and (back[i] != head or back[i : i + c] >= seq)
                for i in range(c)
            ):
                yield seq


def _unicyclic(seq: tuple[int, ...], parents: list[tuple[int, ...]]) -> Graph:
    """The cycle 0..c-1 with tree seq[i] rooted at vertex i, its other
    vertices numbered after the cycle, tree by tree."""
    c = len(seq)
    rows = [1 << (i - 1) % c | 1 << (i + 1) % c for i in range(c)]
    for i, t in enumerate(seq):
        base = len(rows) - 1  # the tree's vertex j > 0 is base + j
        for p in parents[t]:
            u = base + p if p else i
            rows[u] |= 1 << len(rows)
            rows.append(1 << u)
    return Graph(len(rows), tuple(rows))


def _check_connected_order(n: int) -> None:
    if not 1 <= n <= CONNECTED_MAX_N:
        raise ValueError(f"connected enumeration supports 1 <= n <= {CONNECTED_MAX_N}, got {n}")


def _check_unicyclic_order(n: int) -> None:
    if n < 3:
        raise ValueError(f"unicyclic enumeration needs n >= 3, got {n}")
    if n > UNICYCLIC_MAX_N:
        raise ValueError(f"unicyclic enumeration capped at n <= {UNICYCLIC_MAX_N}")
