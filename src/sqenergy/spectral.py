"""Adjacency spectra, square energies and exact integer characteristic polynomials.

Floating-point eigenvalues come from a dense symmetric solver and are
classified against a tolerance scaled to the order and spectral radius;
an exact arbitrary-precision characteristic polynomial backs them up
whenever sign or multiplicity questions get delicate.
"""

from __future__ import annotations

import warnings
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
    "inertia_of",
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
    def positive(self) -> tuple[float, ...]:
        return tuple(v for v in self.values if v > self.zero_tol)

    @property
    def negative(self) -> tuple[float, ...]:
        return tuple(v for v in self.values if v < -self.zero_tol)

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


def spectrum_from_values(values: Iterable[float], n: int | None = None) -> Spectrum:
    """Wrap raw real eigenvalues (any order) with the standard tolerance."""
    vals = tuple(sorted((float(v) for v in values), reverse=True))
    top = max((abs(v) for v in vals), default=0.0)
    return Spectrum(vals, zero_tolerance(n if n is not None else len(vals), top))


def eigenvalues(g: Graph) -> Spectrum:
    """Adjacency spectrum of g, non-increasing."""
    if g.n == 0:
        return Spectrum((), ZERO_TOL_FLOOR)
    vals = np.linalg.eigvalsh(g.adjacency_matrix())[::-1]
    lam_max = float(max(vals[0], -vals[-1], 0.0))
    return Spectrum(tuple(float(v) for v in vals), zero_tolerance(g.n, lam_max))


def inertia_of(spectrum: Spectrum) -> Inertia:
    """Count positive / zero / negative eigenvalues at the spectrum's tolerance."""
    pos = len(spectrum.positive)
    neg = len(spectrum.negative)
    return Inertia(
        positive=pos,
        zero=len(spectrum.values) - pos - neg,
        negative=neg,
        fragile=spectrum.fragile,
    )


def energy_profile(spectrum: Spectrum) -> EnergyProfile:
    s_plus = sum(v * v for v in spectrum.positive)
    s_minus = sum(v * v for v in spectrum.negative)
    energy = sum(abs(v) for v in spectrum.values)
    return EnergyProfile(s_plus, s_minus, energy, inertia_of(spectrum))


def graph_profile(g: Graph) -> EnergyProfile:
    """Convenience: energy profile straight from a graph."""
    return energy_profile(eigenvalues(g))


def perron_vector(g: Graph) -> tuple[float, np.ndarray]:
    """Leading eigenpair (lam1, unit positive eigenvector) of a connected graph.

    Power iteration on A + I from the all-ones vector; the shift keeps the
    iteration convergent on bipartite graphs while leaving the eigenvector
    alone.  Stops when the relative residual drops below 1e-12.
    """
    n = g.n
    if n == 0 or g.m == 0:
        raise ValueError("perron vector needs a connected graph with an edge")
    if len(component_masks(g)) != 1:
        raise ValueError("perron vector needs a connected graph")
    a = g.adjacency_matrix()
    x = np.ones(n) / np.sqrt(n)
    for _ in range(200_000):
        ax = a @ x
        lam = float(x @ ax)
        resid = np.linalg.norm(ax - lam * x)
        if resid <= 1e-12 * max(lam, 1.0):
            break
        y = ax + x  # (A + I) x
        x = y / np.linalg.norm(y)
    else:
        raise ArithmeticError("power iteration failed to converge")
    x = np.abs(x)
    return lam, x


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
    """Rank of the adjacency matrix.

    Exact (via the integer characteristic polynomial) up to order 64.
    Beyond the cap it falls back to counting eigenvalues outside the zero
    tolerance and warns that the value is no longer certified exact.
    """
    if g.n <= EXACT_ORDER_CAP:
        p = char_poly_exact(g)
        return g.n - p.zero_root_multiplicity()
    warnings.warn(
        f"order {g.n} exceeds the exact cap {EXACT_ORDER_CAP}; "
        "falling back to tolerance-based rank",
        RuntimeWarning,
        stacklevel=2,
    )
    spec = eigenvalues(g)
    return len(spec.positive) + len(spec.negative)
