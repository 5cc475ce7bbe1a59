"""Adjacency spectra, square energies, exact rank and exact characteristic polynomials.

Floating-point eigenvalues come from a dense symmetric solver and are
classified against a tolerance scaled to the order and spectral radius;
exact integer arithmetic (the rank by fraction-free elimination, and the
characteristic polynomial) backs up multiplicity questions.  A corpus is
solved in same-order stacks: one ``eigvalsh`` call per stack and, when
ranks are asked for, up to order 22, one int64 fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .graphs import Graph, _g6_lower_triangles, _unpack_rows, bits, component_masks

__all__ = [
    "Spectrum",
    "Inertia",
    "EnergyProfile",
    "IntPolynomial",
    "ZERO_TOL_FLOOR",
    "zero_tolerance",
    "eigenvalues",
    "spectrum_from_values",
    "energy_profile",
    "graph_profile",
    "perron_vector",
    "char_poly_exact",
    "rank_exact",
    "spectra_and_ranks",
    "EXACT_ORDER_CAP",
]

ZERO_TOL_FLOOR = 1e-9
EXACT_ORDER_CAP = 64
# Every entry of a Bareiss elimination on a 0/1 matrix is a minor, at most
# Hadamard's (k+1)^((k+1)/2) / 2^k for a k x k minor, and each update
# forms a difference of two products of such minors: 2 H(22)^2 < 2^63.
_INT64_RANK_CAP = 22

_EPS = float(np.finfo(float).eps)


def zero_tolerance(n: int, lam_max: float) -> float:
    """Classification tolerance: max(1e-9, n * eps * max(1, lam_max))."""
    return max(ZERO_TOL_FLOOR, n * _EPS * max(1.0, lam_max))


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues in non-increasing order plus their zero tolerance."""

    values: tuple[float, ...]
    zero_tol: float

    @property
    def fragile(self) -> bool:
        """True when some eigenvalue sits within 10x of the zero tolerance."""
        return any(
            self.zero_tol < abs(v) <= 10.0 * self.zero_tol for v in self.values
        )


@dataclass(frozen=True)
class Inertia:
    positive: int
    zero: int
    negative: int


@dataclass(frozen=True)
class EnergyProfile:
    """s_plus / s_minus are the sums of squared positive / negative eigenvalues."""

    s_plus: float
    s_minus: float
    energy: float
    inertia: Inertia


def spectrum_from_values(values: Iterable[complex]) -> Spectrum:
    """Wrap solver eigenvalues (any order) with the standard tolerance.

    Complex values, as ``np.linalg.eigvals`` and ``np.roots`` return them,
    must be numerically real: an imaginary part above ZERO_TOL_FLOOR is
    an ArithmeticError, never something to truncate away.
    """
    vals = [complex(v) for v in values]
    worst = max((abs(v.imag) for v in vals), default=0.0)
    if worst > ZERO_TOL_FLOOR:
        raise ArithmeticError(f"eigenvalues not numerically real (imag up to {worst:.3e})")
    return _spectrum(sorted((v.real for v in vals), reverse=True))


def eigenvalues(g: Graph) -> Spectrum:
    """Adjacency spectrum of g, non-increasing."""
    return _spectrum(np.linalg.eigvalsh(g.adjacency_matrix())[::-1].tolist())


def _spectrum(values: list[float]) -> Spectrum:
    """The Spectrum of a non-increasing eigenvalue list."""
    top = max(values[0], -values[-1], 0.0) if values else 0.0
    return Spectrum(tuple(values), zero_tolerance(len(values), top))


def energy_profile(spectrum: Spectrum) -> EnergyProfile:
    """Square energies, energy and inertia; the one place eigenvalues are
    split by sign at the spectrum's zero tolerance.  One left-to-right pass
    and no builtin ``sum`` (compensated from Python 3.12 on), so the bits
    do not depend on the interpreter."""
    tol = spectrum.zero_tol
    s_plus = s_minus = energy = 0.0
    pos = neg = 0
    for v in spectrum.values:
        energy += abs(v)
        if v > tol:
            s_plus += v * v
            pos += 1
        elif v < -tol:
            s_minus += v * v
            neg += 1
    return EnergyProfile(s_plus, s_minus, energy, Inertia(pos, len(spectrum.values) - pos - neg, neg))


def graph_profile(g: Graph) -> EnergyProfile:
    """Convenience: energy profile straight from a graph."""
    return energy_profile(eigenvalues(g))


def perron_vector(g: Graph) -> tuple[float, np.ndarray]:
    """Leading eigenpair (lam1, unit positive eigenvector) of a connected graph.

    The last eigenpair of the symmetric eigensolver; a connected graph's
    largest eigenvalue is simple, so its eigenvector is one up to sign.
    """
    if g.n == 0 or g.m == 0:
        raise ValueError("perron vector needs a connected graph with an edge")
    if len(component_masks(g)) != 1:
        raise ValueError("perron vector needs a connected graph")
    vals, vecs = np.linalg.eigh(g.adjacency_matrix())
    return float(vals[-1]), np.abs(vecs[:, -1])


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients from the leading term down."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def zero_root_multiplicity(self) -> int:
        k = 0
        for c in reversed(self.coeffs):
            if c != 0:
                break
            k += 1
        return k

    def root_multiplicity(self, r: int) -> int:
        """Multiplicity of the integer root r (0 when r is not a root)."""
        coeffs = list(self.coeffs)
        mult = 0
        while len(coeffs) > 1:
            # synthetic division by (x - r)
            out = [coeffs[0]]
            for c in coeffs[1:]:
                out.append(out[-1] * r + c)
            if out[-1] != 0:
                break
            mult += 1
            coeffs = out[:-1]
        return mult


def _adjacency_rows_times(g: Graph, m: list[list[int]]) -> list[list[int]]:
    """A @ M over exact ints, exploiting the 0/1 structure of A."""
    n = g.n
    out = []
    for u in range(n):
        acc = [0] * n
        for v in bits(g.rows[u]):
            mv = m[v]
            acc = [a + b for a, b in zip(acc, mv)]
        out.append(acc)
    return out


def char_poly_exact(g: Graph) -> IntPolynomial:
    """det(xI - A) with exact integer coefficients (Faddeev-LeVerrier).

    Capped at order 64; beyond that the iteration cost and coefficient
    growth stop paying for themselves.
    """
    n = g.n
    if n > EXACT_ORDER_CAP:
        raise ValueError(f"exact characteristic polynomial capped at n <= {EXACT_ORDER_CAP}")
    coeffs = [1] + [0] * n
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = _adjacency_rows_times(g, m)
        tr = sum(am[i][i] for i in range(n))
        c, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by step index")
        coeffs[k] = c
        if k < n:
            for i in range(n):
                am[i][i] += c
            m = am
    return IntPolynomial(tuple(coeffs))


def rank_exact(g: Graph) -> int:
    """Exact rank of the adjacency matrix, for order up to 64.

    Fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968) on
    the 0/1 integer rows: every entry stays an integer minor of A, so each
    division by the previous pivot is exact.  A is symmetric, so n minus
    this rank is the zero-root multiplicity of the characteristic
    polynomial.  Raises ValueError above the cap, as char_poly_exact does.
    """
    if g.n > EXACT_ORDER_CAP:
        raise ValueError(f"exact rank capped at n <= {EXACT_ORDER_CAP}")
    # Only the columns right of the last pivot column are kept; a row
    # that becomes all zero stays zero and is dropped.
    rows = [[r >> v & 1 for v in range(g.n)] for r in g.rows if r]
    rank, prev = 0, 1
    while rows:
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is None:
            rows = [r[1:] for r in rows]
            continue
        pivot = rows.pop(i)
        p, tail = pivot[0], pivot[1:]
        reduced = []
        for r in rows:
            c = r[0]
            if c:
                r = [(p * a - c * b) // prev for a, b in zip(r[1:], tail)]
            elif p == prev:  # a zero in the pivot column only rescales by p / prev
                r = r[1:]
            else:
                r = [p * a // prev for a in r[1:]]
            if any(r):
                reduced.append(r)
        rows, prev = reduced, p
        rank += 1
    return rank


def spectra_and_ranks(graphs: Sequence[Graph]) -> list[tuple[Spectrum, Optional[int]]]:
    """Each graph's spectrum, equal to ``eigenvalues(g)``, and its exact
    rank for orders 1 to 22 (None otherwise), in the stacks of
    ``_solved_by_order``.  A caller that needs the rank of a graph left
    without one asks ``rank_exact``, up to its cap.
    """
    return _solved_by_order([(g.n, g) for g in graphs], _unpack_rows, ranked=True)


def _g6_spectra(payloads: Sequence[tuple[int, int]]) -> list[Spectrum]:
    """The spectrum of each graph6 payload ``(n, x)``, equal to
    ``eigenvalues(from_graph6(text))``, with no graph built: the stacks
    of ``_solved_by_order``, filled from the payloads' lower triangles."""
    return [s for s, _ in _solved_by_order(payloads, _g6_lower_triangles, ranked=False)]


def _solved_by_order(
    items: Sequence[tuple[int, object]], stack: Callable[[list, int], np.ndarray], ranked: bool
) -> list[tuple[Spectrum, Optional[int]]]:
    """``(spectrum, rank)`` for each ``(n, item)``, in order; the rank is
    exact for orders 1 to 22 when ``ranked``, and None otherwise.

    ``stack(group, n)`` is the (k, n, n) adjacency stack of the order-n
    items ``group``; unranked, its lower triangles suffice, as ``eigvalsh``
    reads no more.  The items of one order up to 64 take one ``eigvalsh``
    call on their stack and, when ranked, up to order 22, one int64
    fraction-free elimination; each item of a larger order takes one
    (n, n) call.
    """
    groups: dict[int, list[int]] = {}
    for i, (n, _) in enumerate(items):
        groups.setdefault(n, []).append(i)
    out: list = [None] * len(items)
    for n, idx in groups.items():
        group = [items[i][1] for i in idx]
        ranks = [None] * len(group)
        if n <= EXACT_ORDER_CAP:
            a = stack(group, n)
            solved = np.linalg.eigvalsh(a)[:, ::-1].tolist()
            if ranked and 0 < n <= _INT64_RANK_CAP:
                ranks = _bareiss_ranks(a).tolist()
        else:
            solved = [np.linalg.eigvalsh(stack([item], n)[0])[::-1].tolist() for item in group]
        for i, values, rank in zip(idx, solved, ranks):
            out[i] = (_spectrum(values), rank)
    return out


def _bareiss_ranks(a: np.ndarray) -> np.ndarray:
    """Exact ranks of a (k, n, n) stack of 0/1 matrices, n <= _INT64_RANK_CAP.

    The elimination of ``rank_exact``, column by column over the whole
    stack: each matrix pivots on its first nonzero entry in the column,
    or skips the column when it has none.  A pivot row is zeroed once
    used, so only unused rows can hold a nonzero entry.
    """
    m = a.astype(np.int64)
    k, n, _ = m.shape
    stack = np.arange(k)
    prev = np.ones(k, dtype=np.int64)
    rank = np.zeros(k, dtype=np.int64)
    for j in range(n):
        nonzero = m[:, :, j] != 0
        has = nonzero.any(axis=1)
        piv = nonzero.argmax(axis=1)
        # a matrix without a pivot here keeps p = prev and has c = 0 in
        # every row, so the update leaves it unchanged
        p = np.where(has, m[stack, piv, j], prev)
        prow = m[stack, piv, j + 1 :]
        m[stack[has], piv[has]] = 0
        c = m[:, :, j]
        tail = m[:, :, j + 1 :]
        tail[...] = (p[:, None, None] * tail - c[:, :, None] * prow[:, None, :]) // prev[:, None, None]
        prev = p
        rank += has
    return rank
