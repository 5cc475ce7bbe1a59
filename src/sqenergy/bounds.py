"""Structural lower bounds for the square energies, as checkable certificates.

Every check either returns a :class:`BoundCertificate` (or a small result
record for the interlacing-style bounds) or reports inapplicability with
``None``.  A certificate is *conclusive* when its bound already reaches
n - 1, the conjectured floor for both square energies of a connected
graph.  Checks only ever under-promise: the certified value is a true
lower bound whenever the stated hypotheses hold, and the hypotheses are
verified here rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .graphs import (
    CactusProfile,
    Graph,
    GraphStats,
    bits,
    cactus_profile,
    complement,
    component_masks,
    delete_edge,
    induced_subgraph,
    kronecker,
    move_neighbors,
    stats,
)
from .partitions import Partition, quotient_eigenvalues, quotient_matrix
from .spectral import (
    EXACT_ORDER_CAP,
    EnergyProfile,
    Inertia,
    IntPolynomial,
    Spectrum,
    eigenvalues,
    energy_profile,
    graph_profile,
    perron_vector,
    rank_exact,
    spectrum_from_values,
)

__all__ = [
    "CONCLUSIVE_TOL",
    "GraphFacts",
    "BoundCertificate",
    "PairBound",
    "EdgeDeletionBound",
    "MovingNeighborsBound",
    "ExtendedBarbellForm",
    "H3nAnalysis",
    "check_avg_degree",
    "max_clique",
    "check_spanning_structures",
    "check_join",
    "check_self_join",
    "check_kronecker",
    "edge_deletion_bound",
    "moving_neighbors_bound",
    "induced_subgraph_bound",
    "induced_bipartite_bound",
    "quotient_bound",
    "m0_threshold",
    "unicyclic_fractional_bound",
    "majorization_two_positive",
    "energy_count_bound",
    "rank_bound",
    "extended_barbell_closed_form",
    "h3n_quotient_analysis",
    "certify",
    "CERTIFY_RULES",
]

CONCLUSIVE_TOL = 1e-9


class GraphFacts:
    """Per-graph invariants the certificate rules share, each computed on
    first use and at most once.  Build one per graph and drop it after:
    facts kept for a whole corpus would keep every spectrum alive.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    @cached_property
    def stats(self) -> GraphStats:
        return stats(self.graph)

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigenvalues(self.graph)

    @cached_property
    def profile(self) -> EnergyProfile:
        return energy_profile(self.spectrum)

    @cached_property
    def inertia(self) -> Inertia:
        """The spectrum's tolerance inertia, checked up to the exact cap:
        raises ArithmeticError when its zero count differs from n - rank(A).
        """
        inertia = self.profile.inertia
        if self.graph.n <= EXACT_ORDER_CAP:
            zero = self.graph.n - rank_exact(self.graph)
            if zero != inertia.zero:
                raise ArithmeticError(
                    f"tolerance classified {inertia.zero} zero eigenvalues, "
                    f"exact rank says {zero}"
                )
        return inertia

    @cached_property
    def complement_components(self) -> list[int]:
        return component_masks(complement(self.graph))

    @cached_property
    def cactus(self) -> CactusProfile:
        return cactus_profile(self.graph)


def _facts(g: Graph | GraphFacts) -> GraphFacts:
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


@dataclass(frozen=True)
class BoundCertificate:
    """A checkable claim: the named rule proves target >= bound_value.

    ``target`` is "s_plus", "s_minus" or "both"; ``witness`` carries the
    structure the rule found (vertex sets as sorted lists, scalars as
    plain numbers) so the claim can be re-verified independently.
    ``conclusive`` records whether the bound reaches n - 1.
    """

    rule: str
    target: str
    bound_value: float
    witness: dict
    conclusive: bool

    def covers(self, target: str) -> bool:
        """Whether this certificate alone proves the n - 1 floor for target."""
        return self.conclusive and self.target in (target, "both")

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "target": self.target,
            "bound": self.bound_value,
            "witness": self.witness,
            "conclusive": self.conclusive,
        }


def _meets_floor(value: float, n: int) -> bool:
    """Whether value reaches the n - 1 floor, up to ``CONCLUSIVE_TOL``."""
    return bool(value >= n - 1 - CONCLUSIVE_TOL)


def _certificate(rule: str, target: str, bound: float, witness: dict, n: int) -> BoundCertificate:
    return BoundCertificate(
        rule=rule,
        target=target,
        bound_value=float(bound),
        witness=witness,
        conclusive=_meets_floor(bound, n),
    )


@dataclass(frozen=True)
class PairBound:
    """Lower bounds for both square energies from one argument."""

    s_plus_lower: float
    s_minus_lower: float


# ---------------------------------------------------------------------------
# average degree and spanning structures


def check_avg_degree(g: Graph | GraphFacts) -> Optional[BoundCertificate]:
    """Certify s_plus >= avg_degree^2 when that already reaches n - 1.

    The mean degree is a convex combination bound on the largest
    eigenvalue, so lam_1^2 alone carries the claim.  The firing test
    4 m^2 >= n^2 (n - 1) is exact integer arithmetic.
    """
    f = _facts(g)
    if not f.stats.connected:
        raise ValueError("average degree bound assumes a connected graph")
    n, m = f.stats.n, f.stats.m
    if 4 * m * m < n * n * (n - 1):
        return None
    dbar = 2.0 * m / n
    return _certificate("avg_degree", "s_plus", dbar * dbar, {"avg_degree": dbar}, n)


_EXACT_CLIQUE_CAP = 12


def max_clique(g: Graph) -> tuple[int, ...]:
    """A largest clique: exact search up to order 12, greedy beyond.

    The greedy fallback can miss the optimum; callers only ever use the
    returned clique as a witness, so soundness is preserved either way.
    """
    n = g.n
    if n == 0:
        return ()
    rows = g.rows
    if n <= _EXACT_CLIQUE_CAP:
        best_mask = 0

        def grow(r: int, p: int, x: int) -> None:
            nonlocal best_mask
            if p == 0 and x == 0:
                if r.bit_count() > best_mask.bit_count():
                    best_mask = r
                return
            if r.bit_count() + p.bit_count() <= best_mask.bit_count():
                return
            pivot = max(bits(p | x), key=lambda u: (p & rows[u]).bit_count())
            cand = p & ~rows[pivot]
            for v in bits(cand):
                grow(r | 1 << v, p & rows[v], x & rows[v])
                p &= ~(1 << v)
                x |= 1 << v

        grow(0, (1 << n) - 1, 0)
        return tuple(bits(best_mask))
    # greedy: repeatedly extend by the candidate keeping most options open
    best: tuple[int, ...] = ()
    order = sorted(range(n), key=lambda u: -rows[u].bit_count())
    for start in order[:50]:
        mask = 1 << start
        cand = rows[start]
        while cand:
            v = max(bits(cand), key=lambda u: (cand & rows[u]).bit_count())
            mask |= 1 << v
            cand &= rows[v]
        if mask.bit_count() > len(best):
            best = tuple(bits(mask))
    return best


def _balanced_complement_split(f: GraphFacts) -> Optional[tuple[list[int], list[int]]]:
    """A join split (all cross edges present), roughly balanced, if one exists.

    Cross-complete cuts are exactly the cuts that complement components
    never straddle, so group those components greedily by size.
    """
    comps = f.complement_components
    if len(comps) < 2:
        return None
    sides = [0, 0]
    weights = [0, 0]
    for mask in sorted(comps, key=lambda c: (-c.bit_count(), c)):
        i = 0 if weights[0] <= weights[1] else 1
        sides[i] |= mask
        weights[i] += mask.bit_count()
    return sorted(bits(sides[0])), sorted(bits(sides[1]))


def check_spanning_structures(g: Graph | GraphFacts) -> list[BoundCertificate]:
    """Certificates from spanning structure: spanning complete bipartite
    subgraph, large clique.

    Both rules feed the same mechanism (a known subgraph forces lam_1 and
    hence s_plus): a spanning K_{r, n-r} gives r (n - r), at least n - 1,
    and a clique K_{r+1} gives r^2 which is useful once r >= sqrt(n - 1).
    A dominating vertex is the spanning K_{1, n-1}, and any join contains
    a spanning complete bipartite graph, so neither needs a rule of its own.
    """
    f = _facts(g)
    g = f.graph
    n = g.n
    out = []
    split = _balanced_complement_split(f)
    if split is not None:
        r = len(split[0])
        out.append(
            _certificate(
                "complete_bipartite_span",
                "s_plus",
                r * (n - r),
                {"side": split[0], "r": r},
                n,
            )
        )
    clique = max_clique(g)
    r = len(clique) - 1
    if r >= 1 and r * r >= n - 1:
        out.append(_certificate("clique", "s_plus", r * r, {"clique": list(clique)}, n))
    return out


# ---------------------------------------------------------------------------
# joins and products


def _check_partition(g: Graph, side_a: Sequence[int], side_b: Sequence[int]) -> None:
    """Raise ValueError unless the two sides split the vertex set, each vertex once."""
    if not side_a or not side_b:
        raise ValueError("join split sides must be non-empty")
    amask = sum(1 << v for v in side_a)
    bmask = sum(1 << v for v in side_b)
    if amask & bmask or amask | bmask != (1 << g.n) - 1 or len(side_a) + len(side_b) != g.n:
        raise ValueError("join split must partition the vertex set")


def _check_cross_edges(g: Graph, side_a: Sequence[int], side_b: Sequence[int]) -> None:
    """Raise ValueError unless every vertex of side_a is adjacent to all of side_b."""
    bmask = sum(1 << v for v in side_b)
    for v in side_a:
        if g.rows[v] & bmask != bmask:
            missing = next(bits(bmask & ~g.rows[v]))
            raise ValueError(f"missing cross edge ({v}, {missing}) for the claimed join")


def check_join(
    g: Graph | GraphFacts, split: Optional[tuple[Sequence[int], Sequence[int]]] = None
) -> Optional[BoundCertificate]:
    """Certify s_plus >= n - 1 when g is a join of two non-empty graphs.

    With no split supplied, one is detected from the components of the
    complement (a graph is a join iff its complement is disconnected), so
    it is a join by construction; a supplied split is validated edge by
    edge.  ``certify`` does not run this check: ``complete_bipartite_span``
    certifies r (n - r) >= n - 1 on the same split.
    """
    f = _facts(g)
    g = f.graph
    if split is None:
        found = _balanced_complement_split(f)
        if found is None:
            return None
        side_a = found[0]
    else:
        side_a, side_b = sorted(split[0]), sorted(split[1])
        _check_partition(g, side_a, side_b)
        _check_cross_edges(g, side_a, side_b)
    return _certificate("join", "s_plus", g.n - 1, {"side": list(side_a)}, g.n)


def check_self_join(
    g: Graph | GraphFacts, split: Optional[tuple[Sequence[int], Sequence[int]]] = None
) -> Optional[BoundCertificate]:
    """Certify both energies for balanced joins of two equally dense halves.

    Needs half order r >= 8, every cross edge present, equal inside edge
    counts, and inside average degree d <= r/2.  The two-block quotient
    then has lambda_minus = d - r, so s_minus >= (r - d)^2 >= r^2/4 >=
    2r - 1 = n - 1, and the join itself covers s_plus >= n - 1.  A
    supplied split must partition the vertex set (ValueError otherwise);
    its cross edges are checked once its halves pass the other tests.
    """
    f = _facts(g)
    g = f.graph
    n = g.n
    candidates: list[tuple[list[int], list[int]]]
    if split is not None:
        candidates = [(sorted(split[0]), sorted(split[1]))]
        _check_partition(g, *candidates[0])
    if n % 2:
        return None
    r = n // 2
    if r < 8:
        return None
    if split is None:
        comps = sorted(f.complement_components, key=lambda c: (c.bit_count(), c))
        if len(comps) < 2 or len(comps) > 12:
            return None
        candidates = []
        # side A always holds the last component, killing mirror duplicates
        for pick in range(0, 1 << (len(comps) - 1)):
            amask = comps[-1]
            for i in bits(pick):
                amask |= comps[i]
            if amask.bit_count() == r:
                bmask = (1 << n) - 1 - amask
                candidates.append((sorted(bits(amask)), sorted(bits(bmask))))
    for side_a, side_b in candidates:
        if len(side_a) != r:
            continue
        e1 = induced_subgraph(g, side_a).m
        e2 = induced_subgraph(g, side_b).m
        if e1 != e2 or 4 * e1 > r * r:  # unequal halves, or average degree above r/2
            continue
        if split is not None:  # found splits are unions of complement components
            _check_cross_edges(g, side_a, side_b)
        d = 2.0 * e1 / r
        bound = min(float(n - 1), (r - d) * (r - d))
        return _certificate(
            "self_join",
            "both",
            bound,
            {"side": list(side_a), "half_order": r, "avg_degree": d},
            n,
        )
    return None


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


# ---------------------------------------------------------------------------
# perturbation bounds (edge deletion, neighbour moving)


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
# subgraph and quotient bounds


def induced_subgraph_bound(g: Graph, s: Iterable[int]) -> PairBound:
    """Square energies of an induced subgraph bound those of g (interlacing)."""
    prof = graph_profile(induced_subgraph(g, s))
    return PairBound(prof.s_plus, prof.s_minus)


def _greedy_odd_cycle_deletions(f: GraphFacts) -> Optional[list[int]]:
    """Vertices whose removal kills every odd cycle of a cactus.

    Prefers vertices shared by many odd cycles; one third of each odd
    cycle's length is untouchable anyway, so greed is plenty here.
    """
    prof = f.cactus
    if not prof.is_cactus:
        return None
    odd = [set(c) for c in prof.cycles if len(c) % 2]
    chosen: list[int] = []
    while odd:
        counts: dict[int, int] = {}
        for cyc in odd:
            for v in cyc:
                counts[v] = counts.get(v, 0) + 1
        v = max(sorted(counts), key=lambda w: counts[w])
        chosen.append(v)
        odd = [c for c in odd if v not in c]
    return chosen


def induced_bipartite_bound(
    g: Graph | GraphFacts, deletions: Optional[Iterable[int]] = None
) -> Optional[BoundCertificate]:
    """Certify both energies from a bipartite induced subgraph.

    Deleting S leaves a bipartite H, whose square energies both equal
    |E(H)|; interlacing transfers that to g.  When no deletion set is
    supplied one is chosen automatically: empty if g is already
    bipartite, a greedy odd-cycle cover if g is a cactus, otherwise the
    rule reports inapplicability.  The coarser estimate
    |E| - |S| * max_degree is recorded alongside for comparison.
    """
    f = _facts(g)
    g, st = f.graph, f.stats
    if deletions is None:
        if st.bipartite:
            dels: list[int] = []
        elif st.connected:
            found = _greedy_odd_cycle_deletions(f)
            if found is None:
                return None
            dels = found
        else:
            return None
    else:
        dels = sorted(set(deletions))
        if dels and not (0 <= dels[0] and dels[-1] < g.n):
            raise ValueError(f"vertex set {dels} out of range for n={g.n}")
    keep = [v for v in range(g.n) if v not in set(dels)]
    h = induced_subgraph(g, keep)
    if not stats(h).bipartite:
        raise ValueError(f"deleting {dels} does not leave a bipartite graph")
    bound = h.m
    coarse = g.m - len(dels) * st.max_degree
    return _certificate(
        "induced_bipartite",
        "both",
        bound,
        {"deleted": list(dels), "remaining_edges": h.m, "coarse_bound": coarse},
        g.n,
    )


def quotient_bound(g: Graph, x: Partition) -> PairBound:
    """Square energies of any quotient matrix bound those of g.

    Quotient eigenvalues interlace the adjacency spectrum, so the sums of
    squared positive / negative quotient eigenvalues are lower bounds.
    """
    prof = energy_profile(quotient_eigenvalues(quotient_matrix(g, x)))
    return PairBound(prof.s_plus, prof.s_minus)


# ---------------------------------------------------------------------------
# odd-cycle (unicyclic) fractional bound


def m0_threshold(n: float) -> float:
    """Smallest cycle half-length making the cosine bound reach n - 1.

    Solves 2 n cos(pi / (2m+1)) / (1 + cos(pi / (2m+1))) = n - 1 for m:
    m0 = pi / (2 arccos((n-1)/(n+1))) - 1/2.  Grows like sqrt(n).
    """
    if n < 3:
        raise ValueError(f"threshold needs n >= 3, got {n}")
    return math.pi / (2.0 * math.acos((n - 1.0) / (n + 1.0))) - 0.5


def unicyclic_fractional_bound(g: Graph | GraphFacts) -> Optional[BoundCertificate]:
    """Both square energies of a unicyclic graph with odd cycle 2m+1 (m >= 2)
    are at least 2mn/(2m+1); for m >= m0(n) the sharper cosine bound
    already reaches n - 1.

    Returns the ``odd_cycle`` certificate, whose bound is the sharp form
    when that reaches n - 1 and the base form otherwise; the witness
    records m, the cycle length and both forms.  Returns None outside
    those hypotheses.
    """
    f = _facts(g)
    n, st = f.graph.n, f.stats
    if not st.connected or st.m != n:
        return None
    prof = f.cactus
    if len(prof.cycles) != 1:
        return None
    length = len(prof.cycles[0])
    if length % 2 == 0:
        return None
    m = (length - 1) // 2
    if m < 2:
        return None
    base = 2.0 * m * n / (2 * m + 1)
    cos = math.cos(math.pi / (2 * m + 1))
    sharp = 2.0 * n * cos / (1.0 + cos)
    witness = {"m": m, "cycle_length": length, "base_bound": base, "sharp_bound": sharp}
    return _certificate("odd_cycle", "both", sharp if _meets_floor(sharp, n) else base, witness, n)


# ---------------------------------------------------------------------------
# majorization, energy counts, rank


def majorization_two_positive(g: Graph | GraphFacts) -> Optional[BoundCertificate]:
    """For connected graphs with exactly two positive eigenvalues, the
    positive part majorizes the absolute negative part, forcing
    s_plus >= s_minus and hence s_plus >= |E| >= n - 1.

    Returns the ``two_positive`` certificate after checking the chain
    numerically: every partial sum of (lam_1, lam_2, 0, ...) reaches that
    of the |negative| spectrum, and the totals agree; a failed check
    raises ArithmeticError.  The positive count is tolerance-classified
    and, within the exact cap, cross-checked against the exact rank
    through ``GraphFacts.inertia``.  Returns None when the shape does
    not apply.
    """
    f = _facts(g)
    g = f.graph
    if not f.stats.connected:
        return None
    spec = f.spectrum
    inert = f.inertia
    if inert.positive != 2:
        return None
    nu = inert.negative
    mu = tuple(spec.values[:2]) + (0.0,) * (nu - 2) if nu >= 2 else tuple(spec.values[:nu])
    theta = tuple(abs(t) for t in spec.values[::-1][:nu])
    prefix_ok = []
    run_mu, run_theta = 0.0, 0.0
    for k in range(nu - 1):
        run_mu += mu[k]
        run_theta += theta[k]
        prefix_ok.append(run_mu >= run_theta - CONCLUSIVE_TOL)
    total_mu = sum(mu)
    total_theta = sum(theta)
    totals_equal = abs(total_mu - total_theta) <= 1e-9 * max(1.0, total_theta)
    if not all(prefix_ok) or not totals_equal:
        raise ArithmeticError("majorization chain failed numerically on a two-positive graph")
    return _certificate(
        "two_positive",
        "s_plus",
        g.n - 1,
        {"positive_count": 2, "edge_count": g.m},
        g.n,
    )


def energy_count_bound(g: Graph | GraphFacts) -> PairBound:
    """Cauchy-Schwarz floors: s_plus >= E^2/(4 pi), s_minus >= E^2/(4 nu).

    E is the graph energy; pi/nu are the positive/negative eigenvalue
    counts.  Needs at least one edge so both counts are positive.
    """
    f = _facts(g)
    if f.stats.m == 0:
        raise ValueError("energy count bound needs at least one edge")
    inert = f.inertia
    e2 = f.profile.energy * f.profile.energy
    return PairBound(e2 / (4.0 * inert.positive), e2 / (4.0 * inert.negative))


def rank_bound(g: Graph | GraphFacts) -> Optional[BoundCertificate]:
    """Rank pigeonhole: few eigenvalues of one sign force a big square sum.

    With r = rank(A), the nonzero eigenvalues have product at least 1 in
    absolute value, which yields s_plus >= r^2/(4 pi) whenever
    pi <= r^2/(4(n-1)) (and symmetrically for s_minus).  One certificate
    is returned covering whichever targets fire.
    """
    f = _facts(g)
    g = f.graph
    if not f.stats.connected:
        raise ValueError("rank bound assumes a connected graph")
    if g.n < 3:
        raise ValueError(f"rank bound assumes order >= 3, got {g.n}")
    inert = f.inertia
    r = inert.positive + inert.negative
    gate = r * r / (4.0 * (g.n - 1))
    plus_fires = inert.positive <= gate
    minus_fires = inert.negative <= gate
    if not plus_fires and not minus_fires:
        return None
    witness = {"rank": r, "positive": inert.positive, "negative": inert.negative}
    if plus_fires and minus_fires:
        bound = min(r * r / (4.0 * inert.positive), r * r / (4.0 * inert.negative))
        return _certificate("rank", "both", bound, witness, g.n)
    if plus_fires:
        return _certificate("rank", "s_plus", r * r / (4.0 * inert.positive), witness, g.n)
    return _certificate("rank", "s_minus", r * r / (4.0 * inert.negative), witness, g.n)


# ---------------------------------------------------------------------------
# closed forms for the two benchmark families


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
    roots = np.roots(np.array(coeffs, dtype=float))
    if float(np.max(np.abs(roots.imag))) > 1e-9:
        raise ArithmeticError("cubic produced complex roots")
    mu1, mu2, mu3 = sorted((float(t) for t in roots.real), reverse=True)
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
    roots = np.roots(np.array(coeffs, dtype=float))
    if float(np.max(np.abs(roots.imag))) > 1e-9:
        raise ArithmeticError("quotient polynomial produced complex roots")
    mu = tuple(sorted((float(t) for t in roots.real), reverse=True))
    gap = mu[2] ** 2 + mu[3] ** 2 - (n - 2)
    return H3nAnalysis(coeffs, mu, gap)


# ---------------------------------------------------------------------------
# certification pipeline


def _energy_certificates(f: GraphFacts) -> list[BoundCertificate]:
    pb = energy_count_bound(f)
    certs = [
        _certificate("energy", target, bound, {key: bound}, f.graph.n)
        for target, bound, key in (
            ("s_plus", pb.s_plus_lower, "energy_sq_over_4pi"),
            ("s_minus", pb.s_minus_lower, "energy_sq_over_4nu"),
        )
    ]
    return [c for c in certs if c.conclusive]


# The certify sweep, in output order: the rule names a check can emit,
# and the check, which returns a list of certificates (None where a rule
# did not fire).  The lambdas look the rule functions up at call time,
# so wrappers installed on this module see every call the sweep makes.
_SWEEP = (
    (("avg_degree",), lambda f: [check_avg_degree(f)]),
    (("complete_bipartite_span", "clique"), lambda f: check_spanning_structures(f)),
    (("self_join",), lambda f: [check_self_join(f)]),
    (("induced_bipartite",), lambda f: [induced_bipartite_bound(f)]),
    (("odd_cycle",), lambda f: [unicyclic_fractional_bound(f)]),
    (("two_positive",), lambda f: [majorization_two_positive(f)]),
    (("rank",), lambda f: [rank_bound(f) if f.graph.n >= 3 else None]),
    (("energy",), lambda f: _energy_certificates(f) if f.stats.m else []),
)

CERTIFY_RULES = tuple(name for names, _ in _SWEEP for name in names)


def _wanted_rules(rules: Optional[Iterable[str]]) -> frozenset[str]:
    """The rule names to run; raises ValueError naming any unknown ones."""
    wanted = frozenset(CERTIFY_RULES if rules is None else rules)
    unknown = wanted.difference(CERTIFY_RULES)
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CERTIFY_RULES)}"
        )
    return wanted


def certify(g: Graph | GraphFacts, rules: Optional[Iterable[str]] = None) -> list[BoundCertificate]:
    """Run every self-contained certificate rule against one graph.

    Rules that need caller-supplied structure (factorizations, explicit
    cuts, moves) are not part of this sweep.  ``rules`` filters by name
    and must name only members of :data:`CERTIFY_RULES`.  Assumes a
    connected graph, as the n - 1 floor does.
    """
    wanted = _wanted_rules(rules)
    f = _facts(g)
    if not f.stats.connected or f.graph.n == 0:
        raise ValueError("certification assumes a non-empty connected graph")
    out: list[BoundCertificate] = []
    for names, check in _SWEEP:
        if not wanted.isdisjoint(names):
            out.extend(cert for cert in check(f) if cert and cert.rule in wanted)
    return out
