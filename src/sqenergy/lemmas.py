"""The paper's graph-operation lemmas and closed forms, as library functions.

Each needs structure the caller names (a factorization, an edge, a move,
a twin partition, a cut) or a family's order, so none is a ``certify`` rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import BoundCertificate, _certificate, _meets_floor
from .graphs import Graph, _inside_edges, delete_edge, kronecker, move_neighbors, stats
from .partitions import Partition, quotient_eigenvalues, quotient_matrix
from .spectral import (
    IntPolynomial,
    Spectrum,
    eigenvalues,
    energy_profile,
    graph_profile,
    perron_vector,
    spectrum_from_values,
)

__all__ = [
    "EdgeDeletionBound",
    "MovingNeighborsBound",
    "ExtendedBarbellForm",
    "H3nAnalysis",
    "TwinClass",
    "EdgeCutBound",
    "check_kronecker",
    "edge_deletion_bound",
    "moving_neighbors_bound",
    "m0_threshold",
    "extended_barbell_closed_form",
    "h3n_quotient_analysis",
    "find_twins",
    "twin_quotient_spectrum",
    "edge_cut_quotient",
]


# ---------------------------------------------------------------------------
# tensor products and perturbations (edge deletion, neighbour moving)


def check_kronecker(g: Graph, factors: tuple[Graph, Graph]) -> Optional[BoundCertificate]:
    """Certify both energies of a tensor product from its factors.

    The caller supplies the factorization; it is verified label for
    label.  When both factors have at least 3 vertices and themselves
    satisfy the n - 1 floor numerically, the product identity
    s_plus(GxH) = s+s+ + s-s- (and its s_minus twin) gives the bound
    2 (|G| - 1)(|H| - 1) >= |G||H| - 1 for both targets.
    """
    ga, gb = factors
    if kronecker(ga, gb).rows != g.rows or g.n != ga.n * gb.n:
        raise ValueError("supplied factors do not multiply to the given graph")
    na, nb = ga.n, gb.n
    if na < 3 or nb < 3:
        return None
    pa, pb = graph_profile(ga), graph_profile(gb)
    if not all(_meets_floor(min(p.s_plus, p.s_minus), h.n) for p, h in ((pa, ga), (pb, gb))):
        return None
    bound = 2 * (na - 1) * (nb - 1)
    witness = {
        "factor_orders": [na, nb],
        "factor_profiles": [[pa.s_plus, pa.s_minus], [pb.s_plus, pb.s_minus]],
    }
    return _certificate("kronecker", "both", bound, witness, g.n)


@dataclass(frozen=True)
class EdgeDeletionBound:
    """What adding the edge back to H = g - e is guaranteed to keep."""

    s_plus_lower: float
    s_minus_lower: float
    theta_2: float
    theta_n: float


def edge_deletion_bound(g: Graph, e: tuple[int, int]) -> Optional[EdgeDeletionBound]:
    """Lower bounds for s_plus(g), s_minus(g) from the edge-deleted graph.

    With H = g - e and spectrum theta, s_plus(g) >= s_plus(H) - theta_2^2
    and s_minus(g) >= s_minus(H) - theta_n^2, provided H has at least two
    positive and two negative eigenvalues (otherwise inapplicable).
    """
    h = delete_edge(g, e)
    spec = eigenvalues(h)
    prof = energy_profile(spec)
    if prof.inertia.positive < 2 or prof.inertia.negative < 2:
        return None
    theta2 = spec.values[1]
    thetan = spec.values[-1]
    return EdgeDeletionBound(
        s_plus_lower=prof.s_plus - theta2 * theta2,
        s_minus_lower=prof.s_minus - thetan * thetan,
        theta_2=theta2,
        theta_n=thetan,
    )


@dataclass(frozen=True)
class MovingNeighborsBound:
    """Bounds for the graph obtained by rewiring w_set from v to u.

    The weak s_plus bound always holds; the strong one (losing only
    lambda_2^2 instead of lambda_1^2) needs one of two side conditions,
    recorded in ``strong_condition`` when met.
    """

    s_plus_lower_weak: float
    s_plus_lower_strong: Optional[float]
    s_minus_lower: float
    strong_condition: Optional[str]


def moving_neighbors_bound(
    g: Graph, u: int, v: int, w_set: Iterable[int]
) -> MovingNeighborsBound:
    """Bounds for move_neighbors(g, u, v, w_set) in terms of g's spectrum.

    Strong condition (a): the Perron weight of u is at least that of v.
    Strong condition (b): u's closed neighbourhood misses N(v) entirely
    and the whole of N(v) is being moved.
    """
    ws = sorted(set(w_set))
    move_neighbors(g, u, v, ws)  # validates the move; raises on a bad pair or w
    spec = eigenvalues(g)
    prof = energy_profile(spec)
    lam1 = spec.values[0]
    lam2 = spec.values[1] if g.n > 1 else 0.0
    lamn = spec.values[-1]
    strong: Optional[str] = None
    nv = g.rows[v]
    closed_u = g.rows[u] | (1 << u)
    if nv & closed_u == 0 and sum(1 << w for w in ws) == nv:
        strong = "whole_neighbourhood_disjoint"
    elif stats(g).connected and g.m >= 1:
        _, x = perron_vector(g)
        if x[u] >= x[v] - 1e-12 * float(np.max(np.abs(x))):
            strong = "perron_weight"
    return MovingNeighborsBound(
        s_plus_lower_weak=prof.s_plus - lam1 * lam1,
        s_plus_lower_strong=(prof.s_plus - lam2 * lam2) if strong else None,
        s_minus_lower=prof.s_minus - lamn * lamn,
        strong_condition=strong,
    )


# ---------------------------------------------------------------------------
# closed forms: the odd-cycle threshold and the two benchmark families


def m0_threshold(n: float) -> float:
    """Smallest cycle half-length making the cosine bound reach n - 1.

    Solves 2 n cos(pi / (2m+1)) / (1 + cos(pi / (2m+1))) = n - 1 for m:
    m0 = pi / (2 arccos((n-1)/(n+1))) - 1/2.  Grows like sqrt(n).
    """
    if n < 3:
        raise ValueError(f"threshold needs n >= 3, got {n}")
    return math.pi / (2.0 * math.acos((n - 1.0) / (n + 1.0))) - 0.5


@dataclass(frozen=True)
class ExtendedBarbellForm:
    """Closed-form spectrum of the bridge-subdivided double clique.

    Eigenvalues are k-1, -1 with multiplicity n-4, and the three roots of
    the cubic x^3 - (k-2) x^2 - (k+1) x + 2(k-2).
    """

    spectrum: Spectrum
    s_plus: float
    s_minus: float
    conclusive: bool
    cubic_coeffs: tuple[int, int, int, int]


def extended_barbell_closed_form(k: int) -> ExtendedBarbellForm:
    """Spectrum and square energies of the order-(2k+1) extended barbell.

    Verifies, in exact rational arithmetic, the cubic's values that pin
    the root ordering mu_1 > k-1 > mu_2 > -1 > mu_3 < -9/5, then returns
    floats.  Both energies clear n - 1 with room (s_plus > 2 (k-1)^2,
    s_minus > n - 4 + 3.24).
    """
    if k < 3:
        raise ValueError(f"extended barbell needs k >= 3, got {k}")
    n = 2 * k + 1
    coeffs = (1, -(k - 2), -(k + 1), 2 * (k - 2))
    f = IntPolynomial(coeffs)
    if f(Fraction(k - 1)) != Fraction(-2):
        raise ArithmeticError("cubic sanity value at k-1 is off")
    if f(Fraction(-1)) != Fraction(2 * k - 2):
        raise ArithmeticError("cubic sanity value at -1 is off")
    if f(Fraction(-9, 5)) != Fraction(14 * k, 25) - Fraction(194, 125):
        raise ArithmeticError("cubic sanity value at -9/5 is off")
    mu1, mu2, mu3 = spectrum_from_values(np.roots(np.array(coeffs, dtype=float))).values
    if not (mu1 > k - 1 > mu2 > -1 > mu3 and mu3 < -9.0 / 5.0 and mu2 > 0):
        raise ArithmeticError("cubic roots violate the expected ordering")
    values = [mu1, float(k - 1), mu2] + [-1.0] * (n - 4) + [mu3]
    spec = spectrum_from_values(values)
    prof = energy_profile(spec)
    conclusive = _meets_floor(prof.s_plus, n) and _meets_floor(prof.s_minus, n)
    return ExtendedBarbellForm(spec, prof.s_plus, prof.s_minus, conclusive, coeffs)


@dataclass(frozen=True)
class H3nAnalysis:
    """Quotient polynomial data for the triangle-with-pendants family.

    The degree-4 quotient polynomial carries the four non-trivial
    eigenvalues; the remaining spectrum is -1 once and 0 with
    multiplicity n - 5.  ``s_minus_gap`` = mu_3^2 + mu_4^2 - (n - 2)
    measures how far the two negative quotient roots alone sit from the
    n - 2 floor they would need for a fully spectral proof.
    """

    poly_coeffs: tuple[int, ...]
    mu: tuple[float, float, float, float]
    s_minus_gap: float


def h3n_quotient_analysis(n: int) -> H3nAnalysis:
    """Quotient eigenvalues of the triangle with a pendant star of order n >= 5."""
    if n < 5:
        raise ValueError(f"analysis needs n >= 5, got {n}")
    coeffs = (1, -1, -(n - 1), n - 3, 2 * (n - 4))
    mu = spectrum_from_values(np.roots(np.array(coeffs, dtype=float))).values
    gap = mu[2] ** 2 + mu[3] ** 2 - (n - 2)
    return H3nAnalysis(coeffs, mu, gap)


# ---------------------------------------------------------------------------
# twin and two-block quotients


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
    if side and (side[0] < 0 or side[-1] >= g.n):
        raise ValueError(f"cut side {side} out of range for n={g.n}")
    if not side or len(side) == g.n:
        raise ValueError("cut side must be a proper non-empty vertex subset")
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
