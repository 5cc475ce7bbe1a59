"""Vertex partitions, quotient matrices and equitable refinement.

Equitability is decided on exact integer neighbour counts, never floats.
Quotient matrices are generally non-symmetric; their eigenvalues are
still real (the matrix is diagonally similar to a symmetric one), and
``spectrum_from_values`` checks the solver output against a hard
imaginary-part budget before the real parts are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import graphs
from .canon import _refine
from .graphs import Graph, bits
from .spectral import Spectrum, spectrum_from_values

__all__ = [
    "Partition",
    "QuotientMatrix",
    "parse_partition",
    "quotient_matrix",
    "quotient_eigenvalues",
    "coarsest_equitable_refinement",
]


@dataclass(frozen=True)
class Partition:
    """Ordered partition of 0..n-1 into non-empty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        owner: dict[int, int] = {}  # vertex -> index of its block
        for i, block in enumerate(self.blocks):
            if not block:
                raise ValueError("empty partition block")
            for v in block:
                if v in owner:
                    where = f"twice in block {i}" if owner[v] == i else "in two blocks"
                    raise ValueError(f"vertex {v} appears {where}")
                owner[v] = i
        n = len(owner)
        if owner.keys() != set(range(n)):
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
