"""Adjacency spectra, square energies, exact rank and exact characteristic polynomials.

Floating-point eigenvalues come from a dense symmetric solver and are
classified against a tolerance scaled to the order and spectral radius;
exact integer arithmetic (the rank by fraction-free elimination, and the
characteristic polynomial) backs up multiplicity questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import Graph, bits, component_masks

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
    "EXACT_ORDER_CAP",
]

ZERO_TOL_FLOOR = 1e-9
EXACT_ORDER_CAP = 64

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
    fragile: bool = False


@dataclass(frozen=True)
class EnergyProfile:
    """s_plus / s_minus are the sums of squared positive / negative eigenvalues."""

    s_plus: float
    s_minus: float
    energy: float
    inertia: Inertia


def spectrum_from_values(values: Iterable[float]) -> Spectrum:
    """Wrap raw real eigenvalues (any order) with the standard tolerance."""
    vals = tuple(sorted((float(v) for v in values), reverse=True))
    top = max((abs(v) for v in vals), default=0.0)
    return Spectrum(vals, zero_tolerance(len(vals), top))


def eigenvalues(g: Graph) -> Spectrum:
    """Adjacency spectrum of g, non-increasing."""
    if g.n == 0:
        return Spectrum((), ZERO_TOL_FLOOR)
    vals = tuple(np.linalg.eigvalsh(g.adjacency_matrix())[::-1].tolist())
    return Spectrum(vals, zero_tolerance(g.n, max(vals[0], -vals[-1], 0.0)))


def energy_profile(spectrum: Spectrum) -> EnergyProfile:
    """Square energies, energy and inertia; the one place eigenvalues are
    split by sign at the spectrum's zero tolerance."""
    tol = spectrum.zero_tol
    pos = [v for v in spectrum.values if v > tol]
    neg = [v for v in spectrum.values if v < -tol]
    s_plus = float(sum(v * v for v in pos))
    s_minus = float(sum(v * v for v in neg))
    energy = float(sum(abs(v) for v in spectrum.values))
    zero = len(spectrum.values) - len(pos) - len(neg)
    inertia = Inertia(len(pos), zero, len(neg), spectrum.fragile)
    return EnergyProfile(s_plus, s_minus, energy, inertia)


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
