"""Vertex partitions, quotient matrices, equitable refinement and twins.

Equitability is decided on exact integer neighbour counts, never floats.
Quotient matrices are generally non-symmetric; their eigenvalues are
still real (the matrix is diagonally similar to a symmetric one), and
``spectrum_from_values`` checks the solver output against a hard
imaginary-part budget before the real parts are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import graphs
from .canon import _refine
from .graphs import Graph, _inside_edges, bits
from .spectral import Spectrum, spectrum_from_values

__all__ = [
    "Partition",
    "QuotientMatrix",
    "TwinClass",
    "EdgeCutBound",
    "parse_partition",
    "quotient_matrix",
    "quotient_eigenvalues",
    "coarsest_equitable_refinement",
    "find_twins",
    "twin_quotient_spectrum",
    "edge_cut_quotient",
]


@dataclass(frozen=True)
class Partition:
    """Ordered partition of 0..n-1 into non-empty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty partition block")
            for v in block:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two blocks")
                seen.add(v)
        n = len(seen)
        if seen != set(range(n)):
            raise ValueError("partition blocks must cover 0..n-1 exactly")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @staticmethod
    def of(blocks: Iterable[Iterable[int]]) -> "Partition":
        return Partition(tuple(tuple(sorted(b)) for b in blocks))


def parse_partition(text: str) -> Partition:
    """Parse "0,1;2;3,4,5" into a Partition (semicolons between blocks).

    Blank text is the partition of no blocks, the empty graph's; an empty
    block anywhere else is an error.
    """
    if not text.strip():
        return Partition(())
    try:
        blocks = [
            [int(tok) for tok in part.split(",") if tok.strip() != ""]
            for part in text.split(";")
        ]
    except ValueError:
        raise ValueError(f"unparseable partition text {text!r}") from None
    return Partition.of(blocks)


@dataclass(frozen=True, eq=False)
class QuotientMatrix:
    """Blockwise average adjacency counts.

    ``entries[i][j]`` is the average number of neighbours a vertex of
    block i has inside block j; ``incidence[i][j]`` is the exact integer
    total, so entries * block size can be checked rationally.
    """

    entries: np.ndarray
    incidence: tuple[tuple[int, ...], ...]
    partition: Partition
    equitable: bool


def quotient_matrix(g: Graph, x: Partition) -> QuotientMatrix:
    """Quotient of g's adjacency over the partition x.

    Equitability is decided exactly: block i is even with respect to
    block j iff all its vertices have the same integer neighbour count in
    block j.  Partitions of more than DENSE_ORDER_CAP blocks raise ValueError.
    """
    if x.n != g.n:
        raise ValueError(f"partition covers {x.n} vertices, graph has {g.n}")
    p = len(x.blocks)
    cap = graphs.DENSE_ORDER_CAP
    if p > cap:
        raise ValueError(f"partition of {p} blocks exceeds the dense matrix cap of {cap} blocks")
    masks = [sum(1 << v for v in block) for block in x.blocks]
    incidence = []
    equitable = True
    entries = np.zeros((p, p))
    for i, block in enumerate(x.blocks):
        row_counts = []
        for j, mask in enumerate(masks):
            counts = [(g.rows[v] & mask).bit_count() for v in block]
            total = sum(counts)
            if counts.count(counts[0]) != len(counts):
                equitable = False
            row_counts.append(total)
            entries[i, j] = total / len(block)
        incidence.append(tuple(row_counts))
    return QuotientMatrix(entries, tuple(incidence), x, equitable)


def quotient_eigenvalues(q: QuotientMatrix) -> Spectrum:
    """Real spectrum of the quotient matrix; stray imaginary parts above
    1e-9 raise ArithmeticError."""
    return spectrum_from_values(np.linalg.eigvals(q.entries))


def coarsest_equitable_refinement(g: Graph, seed: Partition) -> Partition:
    """Coarsest equitable partition refining ``seed``.

    Classic colour refinement: split every block by the vector of
    neighbour counts into current blocks until stable.  Deterministic:
    each block is ascending, and the blocks are sorted by (size, smallest
    vertex), whatever the order of the seed's blocks and their vertices.
    """
    if seed.n != g.n:
        raise ValueError(f"partition covers {seed.n} vertices, graph has {g.n}")
    masks = [sum(1 << v for v in block) for block in seed.blocks]
    blocks = [bits(m) for m in _refine(g.rows, masks, masks)]
    return Partition(tuple(sorted(blocks, key=lambda b: (len(b), b[0]))))


@dataclass(frozen=True)
class TwinClass:
    """A maximal set of vertices sharing a neighbourhood.

    kind "independent": equal open neighbourhoods, pairwise non-adjacent,
    each class contributes eigenvalue 0 with multiplicity size-1.
    kind "adjacent": equal closed neighbourhoods, pairwise adjacent,
    contributing eigenvalue -1 likewise.
    """

    vertices: tuple[int, ...]
    kind: str
    alpha: float


def find_twins(g: Graph) -> list[TwinClass]:
    """All twin classes of size >= 2, ordered by smallest member."""
    if g.n < 3:
        raise ValueError(f"twin detection assumes order >= 3, got {g.n}")
    open_groups: dict[int, list[int]] = {}
    closed_groups: dict[int, list[int]] = {}
    for v in range(g.n):
        open_groups.setdefault(g.rows[v], []).append(v)
        closed_groups.setdefault(g.rows[v] | (1 << v), []).append(v)
    out = []
    for group in open_groups.values():
        if len(group) > 1:
            out.append(TwinClass(tuple(group), "independent", 0.0))
    for group in closed_groups.values():
        if len(group) > 1:
            out.append(TwinClass(tuple(group), "adjacent", -1.0))
    out.sort(key=lambda t: t.vertices[0])
    return out


def _twin_alpha(g: Graph, block: Sequence[int]) -> float:
    """alpha of a twin block: 0 for independent twins, -1 for adjacent."""
    first = block[0]
    if all(g.rows[v] == g.rows[first] for v in block[1:]):
        return 0.0
    closed = g.rows[first] | (1 << first)
    if all(g.rows[v] | (1 << v) == closed for v in block[1:]):
        return -1.0
    raise ValueError(f"block {tuple(block)} is not a twin class")


def twin_quotient_spectrum(g: Graph, x: Partition) -> Spectrum:
    """Spectrum assembled from twin blocks plus the quotient matrix.

    Every non-singleton block of x must be a twin class; each such block
    of size t contributes its alpha (0 or -1) with multiplicity t-1, and
    the quotient matrix supplies the remaining |x| eigenvalues.  Such a
    partition is automatically equitable, which is still verified exactly.
    """
    if x.n != g.n:
        raise ValueError(f"partition covers {x.n} vertices, graph has {g.n}")
    extra: list[float] = []
    for block in x.blocks:
        if len(block) == 1:
            continue
        alpha = _twin_alpha(g, block)
        extra.extend([alpha] * (len(block) - 1))
    q = quotient_matrix(g, x)
    if not q.equitable:
        raise ValueError("twin partition failed the exact equitability check")
    quo = quotient_eigenvalues(q)
    return spectrum_from_values(list(quo.values) + extra)


@dataclass(frozen=True)
class EdgeCutBound:
    """Two-block quotient data for a vertex cut (s, complement).

    d1/d2 are the average degrees inside the two sides, c the number of
    crossing edges.  When the 2x2 quotient has nonnegative determinant
    both its eigenvalues are nonnegative and only s_plus is bounded;
    otherwise lambda_minus is negative and bounds s_minus as well.
    """

    d1: float
    d2: float
    c: int
    lambda_plus: float
    lambda_minus: float
    determinant_sign: int
    s_plus_lower: float
    s_minus_lower: float | None


def edge_cut_quotient(g: Graph, s: Iterable[int]) -> EdgeCutBound:
    """Eigenvalue bounds from the 2-block quotient over (s, V without s)."""
    side = sorted(set(s))
    if not side or len(side) == g.n:
        raise ValueError("cut side must be a proper non-empty vertex subset")
    if side[0] < 0 or side[-1] >= g.n:
        raise ValueError(f"cut side {side} out of range for n={g.n}")
    mask = sum(1 << v for v in side)
    comask = ((1 << g.n) - 1) ^ mask
    k = len(side)
    nk = g.n - k
    e1 = _inside_edges(g, mask)
    e2 = _inside_edges(g, comask)
    c = sum((g.rows[v] & comask).bit_count() for v in side)
    d1 = 2.0 * e1 / k
    d2 = 2.0 * e2 / nk
    cross = c * c / (k * nk)
    disc = (d1 - d2) ** 2 + 4.0 * cross
    lam_plus = 0.5 * (d1 + d2 + disc**0.5)
    lam_minus = 0.5 * (d1 + d2 - disc**0.5)
    det4 = 4 * e1 * e2 - c * c  # sign of det(B), computed exactly
    det_sign = 0 if det4 == 0 else (1 if det4 > 0 else -1)
    if det_sign >= 0:
        s_plus_lower = d1 * d1 + d2 * d2 + 2.0 * cross
        s_minus_lower = None
    else:
        s_plus_lower = lam_plus * lam_plus
        s_minus_lower = lam_minus * lam_minus
    return EdgeCutBound(
        d1=d1,
        d2=d2,
        c=c,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        determinant_sign=det_sign,
        s_plus_lower=s_plus_lower,
        s_minus_lower=s_minus_lower,
    )
