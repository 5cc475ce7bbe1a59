"""Simple undirected graphs on vertex set 0..n-1.

Adjacency is stored as one Python int per vertex (bit v of ``rows[u]`` is
set iff u ~ v).  Ints double as packed bitsets of any width, so the same
representation covers both small and large orders.  Graphs are immutable;
every operation returns a new value.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphStats",
    "CactusProfile",
    "Graph6Error",
    "from_graph6",
    "to_graph6",
    "read_graph6_lines",
    "from_edges",
    "complement",
    "component_masks",
    "join",
    "kronecker",
    "delete_edge",
    "add_leaf",
    "move_neighbors",
    "induced_subgraph",
    "relabel",
    "stats",
    "cactus_profile",
    "DENSE_ORDER_CAP",
]

_G6_MAX_N = 1 << 18
# Largest order given a dense n x n float64 matrix: 8192^2 entries are 512 MiB.
DENSE_ORDER_CAP = 8192


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[u]`` is the neighbour bitset of u.

    The constructor trusts its arguments.  Build graphs through
    :func:`from_edges`, :func:`from_graph6` or the family generators,
    which validate symmetry and the absence of self-loops.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return bits(self.rows[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographic."""
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield u, v

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 float adjacency matrix; orders above DENSE_ORDER_CAP raise ValueError."""
        return _unpack_rows((self,), self.n)[0].astype(float)


def _check_dense_order(n: int) -> None:
    """The one check of DENSE_ORDER_CAP, read when called, for every dense
    build: a larger order raises ValueError before anything is allocated."""
    if n > DENSE_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the dense matrix cap of {DENSE_ORDER_CAP} vertices")


def _unpack_rows(group: Sequence[Graph], n: int) -> np.ndarray:
    """The 0/1 adjacency matrices of order-n graphs as a (k, n, n) uint8 stack."""
    _check_dense_order(n)
    w = (n + 7) // 8  # row u as w little-endian bytes: bit v is entry (u, v)
    packed = b"".join([r.to_bytes(w, "little") for g in group for r in g.rows])
    table = np.frombuffer(packed, dtype=np.uint8).reshape(len(group) * n, w)
    return np.unpackbits(table, axis=1, count=n, bitorder="little").reshape(len(group), n, n)


def bits(mask: int) -> tuple[int, ...]:
    """Indices of set bits as an ascending tuple; a negative mask raises ValueError.

    Masks below 2**16 are read off byte tables; wider ones are walked
    lowest bit first.
    """
    if mask < 256:
        if mask < 0:
            raise ValueError(f"bit mask must be nonnegative, got {mask}")
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BYTE_BITS[mask >> 8]
    return tuple(_walk_bits(mask))


def _walk_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BYTE_BITS = [tuple(_walk_bits(b)) for b in range(256)]
_HIGH_BYTE_BITS = [tuple(v + 8 for v in vs) for vs in _BYTE_BITS]


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, validating the input."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# graph6 payload bytes are 6-bit groups offset by 63: base64 with another alphabet
_G6_TO_BITS = {63 + i: format(i, "06b") for i in range(64)}
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))


class Graph6Error(ValueError):
    """Malformed graph6 text; the message names the byte offset."""


def _g6_header(text: str) -> tuple[int, int]:
    """Decode the order; return (n, index of first payload char)."""
    if not text:
        raise Graph6Error("empty graph6 string (byte 0)")
    c = ord(text[0])
    if c == 126:  # '~': extended order
        if len(text) >= 2 and ord(text[1]) == 126:
            k, start = 6, 2
        else:
            k, start = 3, 1
        if len(text) < start + k:
            raise Graph6Error(
                f"truncated graph6 order field (byte {len(text)})"
            )
        n = 0
        for i in range(start, start + k):
            d = ord(text[i])
            if not 63 <= d <= 126:
                raise Graph6Error(f"invalid graph6 byte {d} (byte {i})")
            n = n << 6 | (d - 63)
        if n <= (62 if k == 3 else 258047):  # a shorter order field exists
            raise Graph6Error("non-canonical graph6 order field (byte 0)")
        return n, start + k
    if not 63 <= c <= 126:
        raise Graph6Error(f"invalid graph6 byte {c} (byte 0)")
    return c - 63, 1


def _g6_payload(text: str) -> tuple[int, int]:
    """Validate one graph6 line (a trailing newline is tolerated) into
    ``(n, x)``, where bit k of the int x is graph6 bit k.

    Raises :class:`Graph6Error` naming the byte offset of the first problem.
    """
    if text.startswith(">>graph6<<"):
        text = text[10:]
    text = text.rstrip("\n")
    n, pos = _g6_header(text)
    if n > _G6_MAX_N:
        raise Graph6Error(f"order {n} exceeds the supported cap {_G6_MAX_N}")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    payload = text[pos : pos + nchars]  # its bytes are checked before its length
    bitstr = payload.translate(_G6_TO_BITS)
    if len(bitstr) != 6 * len(payload):  # translate leaves an invalid byte as one char
        i = next(i for i in range(pos, len(text)) if not 63 <= ord(text[i]) <= 126)
        raise Graph6Error(f"invalid graph6 byte {ord(text[i])} (byte {i})")
    if len(text) - pos < nchars:
        raise Graph6Error(
            f"truncated graph6 payload: need {nchars} bytes, "
            f"got {len(text) - pos} (byte {len(text)})"
        )
    if len(text) - pos > nchars:
        raise Graph6Error(f"trailing garbage after graph6 payload (byte {pos + nchars})")
    x = int("0" + bitstr[::-1], 2)  # bit k is graph6 bit k; "0" parses n < 2
    if x >> nbits:
        raise Graph6Error(f"nonzero padding bit (byte {pos + nchars - 1})")
    return n, x


def _g6_graph(n: int, x: int) -> Graph:
    """The graph of a validated graph6 payload, mirrored into both triangles."""
    rows = [0] * n
    for v in range(1, n):
        rows[v] = col = x & ((1 << v) - 1)  # the next v bits: pairs (u, v), u < v
        x >>= v
        bit, base = 1 << v, 0
        while col:  # mirror into rows u < v, a byte of the column at a time
            for u in _BYTE_BITS[col & 255]:
                rows[base + u] |= bit
            col >>= 8
            base += 8
    return Graph(n, tuple(rows))


def from_graph6(text: str) -> Graph:
    """Decode one graph6 line (a trailing newline is tolerated).

    Bits of the upper triangle are read column by column: (0,1), (0,2),
    (1,2), (0,3), ...  Raises :class:`Graph6Error` naming the byte offset
    of the first problem.
    """
    return _g6_graph(*_g6_payload(text))


def _g6_lower_triangles(xs: Sequence[int], n: int) -> np.ndarray:
    """The order-n graph6 payloads ``xs`` as a (k, n, n) float stack that
    holds only the strict lower triangles, all ``eigvalsh`` reads.

    ``np.tri(n, -1)`` walks that triangle row by row, (1,0), (2,0), (2,1),
    (3,0), ..., which is graph6 order.
    """
    _check_dense_order(n)
    nbits = n * (n - 1) // 2
    w = (nbits + 7) // 8
    packed = np.frombuffer(b"".join([x.to_bytes(w, "little") for x in xs]), dtype=np.uint8)
    a = np.zeros((len(xs), n, n))
    a[:, np.tri(n, k=-1, dtype=bool)] = np.unpackbits(
        packed.reshape(len(xs), w), axis=1, count=nbits, bitorder="little"
    )
    return a


def to_graph6(g: Graph) -> str:
    """Encode in graph6 (no trailing newline)."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"order {n} exceeds the supported cap {_G6_MAX_N}")
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    # column v is bits 0..v-1 of rows[v]; bin(rows[v] | top) puts bit u at n + 2 - u
    nbits = n * (n - 1) // 2
    top = 1 << n
    bitstr = "".join([bin(g.rows[v] | top)[n + 2 : n + 2 - v : -1] for v in range(1, n)])
    nbytes = (nbits + 23) // 24 * 3  # base64 turns each 3 bytes into four 6-bit groups
    packed = int("0" + bitstr, 2) << (8 * nbytes - nbits)
    six = binascii.b2a_base64(packed.to_bytes(nbytes, "big"), newline=False)
    return head + six[: (nbits + 5) // 6].translate(_B64_TO_G6).decode("ascii")


def _read_g6_payloads(lines: Iterable[str], source: str) -> Iterator[tuple[str, int, int]]:
    """``read_graph6_lines`` without the graphs: ``(text, n, x)`` per line,
    with ``(n, x)`` as :func:`_g6_payload` gives it."""
    for lineno, line in enumerate(lines, start=1):
        # str.isspace's ASCII spaces only: a non-ASCII space is the validator's to name
        text = line.strip(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")
        if not text:
            continue
        try:
            n, x = _g6_payload(text)
        except Graph6Error as exc:
            raise Graph6Error(f"{source}, line {lineno}: {exc}") from None
        yield text.removeprefix(">>graph6<<"), n, x


def read_graph6_lines(lines: Iterable[str], source: str = "<input>") -> Iterator[tuple[str, Graph]]:
    """Decode graph6 lines, skipping blank ones, into ``(text, graph)`` pairs.

    ``text`` is the stripped line less any ``>>graph6<<`` header; the
    decoder accepts one order field per order, so it equals ``to_graph6``
    of the graph.  A bad line raises :class:`Graph6Error` located as
    ``"<source>, line k: ..."``, counting lines from 1.
    """
    for text, n, x in _read_g6_payloads(lines, source):
        yield text, _g6_graph(n, x)


# ---------------------------------------------------------------------------
# operations


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ r) & ~(1 << u) for u, r in enumerate(g.rows)))


def component_masks(g: Graph) -> list[int]:
    """Connected components as vertex bitsets, ordered by smallest member."""
    comps, _ = _layers(g)
    return [sum(layers) for layers in comps]  # layers are disjoint: sum is union


def _layers(g: Graph) -> tuple[list[list[int]], bool]:
    """Breadth-first layers (vertex bitsets) of each component from its
    smallest vertex, and whether g is bipartite: no layer meets its own
    vertices' neighbourhoods, so no edge lies inside a layer."""
    rows = g.rows
    todo = (1 << g.n) - 1
    out = []
    inside = 0
    while todo:
        frontier = reach = todo & -todo
        layers = []
        while frontier:
            layers.append(frontier)
            grow = 0
            for u in bits(frontier):
                grow |= rows[u]
            inside |= grow & frontier
            frontier = grow & ~reach
            reach |= grow
        out.append(layers)
        todo &= ~reach
    return out, not inside


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides.

    Vertices of ``g`` keep their labels; vertices of ``h`` are shifted up
    by ``g.n``.  Empty operands are allowed.
    """
    n = g.n + h.n
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [r | hmask for r in g.rows]
    rows += [(r << g.n) | gmask for r in h.rows]
    return Graph(n, tuple(rows))


def kronecker(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product; vertex (i, j) gets label i*h.n + j."""
    hn = h.n
    rows = []
    for i in range(g.n):
        gi = g.rows[i]
        for j in range(hn):
            mask = 0
            for a in bits(gi):
                mask |= h.rows[j] << (a * hn)
            rows.append(mask)
    return Graph(g.n * hn, tuple(rows))


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = e
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def add_leaf(g: Graph, v: int) -> Graph:
    """Append a new degree-1 vertex attached to v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    rows = list(g.rows)
    rows[v] |= 1 << g.n
    rows.append(1 << v)
    return Graph(g.n + 1, tuple(rows))


def move_neighbors(g: Graph, u: int, v: int, w_set: Iterable[int]) -> Graph:
    """Detach each w in w_set from v and attach it to u instead.

    Requires w_set to be a subset of N(v) outside N(u) and distinct from
    u, so the move never creates a parallel edge or loop and is undone by
    moving the same set back from u to v.
    """
    ws = sorted(set(w_set))
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"invalid vertex pair ({u}, {v})")
    rows = list(g.rows)
    for w in ws:
        if not 0 <= w < g.n or w == u or w == v:
            raise ValueError(f"moved vertex {w} must be distinct from u and v")
        if not g.has_edge(v, w):
            raise ValueError(f"moved vertex {w} is not a neighbour of {v}")
        if g.has_edge(u, w):
            raise ValueError(f"moved vertex {w} is already a neighbour of {u}")
        rows[v] &= ~(1 << w)
        rows[w] &= ~(1 << v)
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    return Graph(g.n, tuple(rows))


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by s, relabelled 0..|s|-1 in ascending old order.

    New label i corresponds to ``sorted(s)[i]``; certificates that need
    original names recover them from that sorted list.
    """
    keep = sorted(set(s))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError(f"vertex set {keep} out of range for n={g.n}")
    return _placed(g, keep)


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel so that new vertex i is old vertex perm[i].

    Raises ValueError unless ``perm`` is a permutation of ``range(g.n)``.
    """
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"relabel needs a permutation of range({g.n}), got {list(perm)}")
    return _placed(g, perm)


def _placed(g: Graph, order: Sequence[int]) -> Graph:
    """The subgraph on the distinct vertices ``order``, new vertex i being
    old vertex order[i]; edges to vertices outside ``order`` are dropped."""
    label = [0] * g.n
    for i, v in enumerate(order):
        label[v] = 1 << i
    get = label.__getitem__
    rows = g.rows
    return Graph(len(order), tuple([sum(map(get, bits(rows[v]))) for v in order]))


def _inside_edges(g: Graph, mask: int) -> int:
    """Number of edges with both ends in the vertex bitset ``mask``."""
    rows = g.rows
    return sum([(rows[v] & mask).bit_count() for v in bits(mask)]) // 2


# ---------------------------------------------------------------------------
# structure reports


@dataclass(frozen=True)
class GraphStats:
    m: int
    max_degree: int
    connected: bool
    bipartite: bool


@dataclass(frozen=True)
class CactusProfile:
    is_cactus: bool
    # cyclic vertex walks, each from its smallest vertex toward its
    # smaller neighbour, sorted by (length, walk)
    cycles: tuple[tuple[int, ...], ...]


def stats(g: Graph) -> GraphStats:
    """Size, maximum degree, connectivity and bipartiteness.

    A graph is bipartite iff no edge lies inside a breadth-first layer.
    """
    return _stats(g, *_layers(g))


def _stats(g: Graph, comps: list[list[int]], bipartite: bool) -> GraphStats:
    """``stats`` of g from its breadth-first layering ``comps, bipartite``
    (``_layers(g)``)."""
    degrees = [r.bit_count() for r in g.rows]
    return GraphStats(
        m=sum(degrees) // 2,
        max_degree=max(degrees, default=0),
        connected=len(comps) <= 1,
        bipartite=bipartite,
    )


def cactus_profile(g: Graph) -> CactusProfile:
    """Decide whether g is a cactus and list its cycles.

    A connected graph is a cactus iff the fundamental cycles of a spanning
    tree share no edge: any other cycle is a union of two or more of them.
    Raises on disconnected input.
    """
    return _cactus(g, _layers(g)[0], g.m)


def _cactus(g: Graph, comps: list[list[int]], m: int) -> CactusProfile:
    """``cactus_profile`` of g from its breadth-first layers ``comps``
    (``_layers(g)``) and its edge count m."""
    if len(comps) != 1:
        raise ValueError("cactus profile requires a connected graph")
    if m > 3 * (g.n - 1) // 2:  # more edges than any cactus of this order
        return CactusProfile(False, ())
    cycles = _fundamental_cycles(g, comps[0])
    if cycles is None:
        return CactusProfile(False, ())
    cycles.sort(key=lambda c: (len(c), c))
    return CactusProfile(True, tuple(cycles))


def _fundamental_cycles(g: Graph, layers: list[int]) -> list[tuple[int, ...]] | None:
    """The cycle each non-tree edge closes in the breadth-first tree, or None
    once two share a tree edge.  Each vertex hangs on its smallest neighbour
    in the layer above.
    """
    rows = g.rows
    parent = [-1] * g.n
    depth = [0] * g.n
    for i in range(1, len(layers)):
        above = layers[i - 1]
        for v in bits(layers[i]):
            up = rows[v] & above
            parent[v] = (up & -up).bit_length() - 1
            depth[v] = i
    used = [False] * g.n  # tree edge (v, parent[v]), indexed by its child v
    cycles = []
    for u in range(g.n):
        for w in bits(rows[u] >> (u + 1) << (u + 1)):
            if parent[w] == u or parent[u] == w:
                continue
            a, b, path_a, path_b = u, w, [u], [w]
            while a != b:  # climb the deeper end until both meet
                if depth[a] < depth[b]:
                    a, b, path_a, path_b = b, a, path_b, path_a
                if used[a]:
                    return None
                used[a] = True
                a = parent[a]
                path_a.append(a)
            # walk from the smallest vertex toward its smaller neighbour
            walk = path_a + path_b[-2::-1]
            k = walk.index(min(walk))
            walk = walk[k:] + walk[:k]
            if walk[-1] < walk[1]:
                walk[1:] = walk[:0:-1]
            cycles.append(tuple(walk))
    return cycles
