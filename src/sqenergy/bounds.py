"""Structural lower bounds for the square energies, as checkable certificates.

Every check either returns a :class:`BoundCertificate` or reports
inapplicability with ``None``.  A certificate is *conclusive* when its
bound already reaches n - 1, the conjectured floor for both square
energies of a connected graph.  Checks only ever under-promise: the certified value is a true
lower bound whenever the stated hypotheses hold, and the hypotheses are
verified here rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import (
    CactusProfile,
    Graph,
    GraphStats,
    _cactus,
    _inside_edges,
    _layers,
    _stats,
    bits,
    complement,
    component_masks,
    induced_subgraph,
    stats,
)
from .spectral import (
    EXACT_ORDER_CAP,
    EnergyProfile,
    Inertia,
    Spectrum,
    eigenvalues,
    energy_profile,
    rank_exact,
)

__all__ = [
    "CONCLUSIVE_TOL",
    "GraphFacts",
    "BoundCertificate",
    "PairBound",
    "check_avg_degree",
    "max_clique",
    "check_spanning_structures",
    "check_join",
    "check_self_join",
    "induced_bipartite_bound",
    "unicyclic_fractional_bound",
    "majorization_two_positive",
    "energy_count_bound",
    "rank_bound",
    "certify",
    "CERTIFY_RULES",
]

CONCLUSIVE_TOL = 1e-9


class _once:
    """A lazily computed attribute: the first read calls the function and
    stores its value in the instance ``__dict__``, where every later read,
    or an assignment made before the first, finds it without this
    descriptor.  ``functools.cached_property`` does the same but takes a
    lock on each first read in Python 3.11.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class GraphFacts:
    """Per-graph invariants the certificate rules share, each computed on
    first use and at most once.  ``stats`` and ``cactus`` share one
    breadth-first layering.  Build one per graph and drop it after:
    facts kept for a whole corpus would keep every spectrum alive.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    @_once
    def _components(self) -> list[list[int]]:
        return _layers(self.graph)

    @_once
    def stats(self) -> GraphStats:
        return _stats(self.graph, self._components)

    @_once
    def spectrum(self) -> Spectrum:
        return eigenvalues(self.graph)

    @_once
    def profile(self) -> EnergyProfile:
        return energy_profile(self.spectrum)

    @_once
    def _exact_rank(self) -> Optional[int]:
        return rank_exact(self.graph) if self.graph.n <= EXACT_ORDER_CAP else None

    @_once
    def inertia(self) -> Inertia:
        """The spectrum's tolerance inertia, checked up to the exact cap:
        raises ArithmeticError when its zero count differs from n - rank(A).
        """
        inertia = self.profile.inertia
        if self._exact_rank is not None:
            zero = self.graph.n - self._exact_rank
            if zero != inertia.zero:
                raise ArithmeticError(
                    f"tolerance classified {inertia.zero} zero eigenvalues, "
                    f"exact rank says {zero}"
                )
        return inertia

    @_once
    def complement_components(self) -> list[int]:
        return component_masks(complement(self.graph))

    @_once
    def cactus(self) -> CactusProfile:
        return _cactus(self.graph, self._components, self.stats.m)


def _facts(g: Graph | GraphFacts) -> GraphFacts:
    return g if isinstance(g, GraphFacts) else GraphFacts(g)


def _solved_facts(g: Graph, spectrum: Spectrum, rank: Optional[int]) -> GraphFacts:
    """Facts whose spectrum, and exact rank unless it is None, were solved
    ahead, as ``spectral.spectra_and_ranks`` gives them for a corpus; a
    missing rank is computed on first use, as for any ``GraphFacts``."""
    f = GraphFacts(g)
    f.spectrum = spectrum  # assigning fills the cache of an _once attribute
    if rank is not None:
        f._exact_rank = rank
    return f


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
    n, m = f.graph.n, f.stats.m
    if n == 0 or 4 * m * m < n * n * (n - 1):
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
        best_mask = best_size = 0

        def grow(r: int, size: int, p: int, x: int) -> None:
            nonlocal best_mask, best_size
            if not p:
                if not x and size > best_size:
                    best_mask, best_size = r, size
                return
            if size + p.bit_count() <= best_size:
                return
            # Tomita pivot: the first vertex of P | X with most neighbours in P
            most = -1
            for u in bits(p | x):
                k = (p & rows[u]).bit_count()
                if k > most:
                    most, pivot = k, u
            for v in bits(p & ~rows[pivot]):
                row, bit = rows[v], 1 << v
                grow(r | bit, size + 1, p & row, x & row)
                p ^= bit
                x |= bit

        grow(0, 0, (1 << n) - 1, 0)
        return bits(best_mask)
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
            best = bits(mask)
    return best


def _balanced_complement_split(f: GraphFacts) -> Optional[int]:
    """Side A's vertex bitset of a join split (all cross edges present),
    roughly balanced, if one exists.

    Cross-complete cuts are exactly the cuts that complement components
    never straddle, so group those components greedily by size.
    """
    comps = f.complement_components
    if len(comps) < 2:
        return None
    sides = [0, 0]
    for mask in sorted(comps, key=lambda c: (-c.bit_count(), c)):
        sides[sides[0].bit_count() > sides[1].bit_count()] |= mask  # ties go to side A
    return sides[0]


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
    amask = _balanced_complement_split(f)
    if amask is not None:
        r = amask.bit_count()
        out.append(
            _certificate(
                "complete_bipartite_span",
                "s_plus",
                r * (n - r),
                {"side": list(bits(amask)), "r": r},
                n,
            )
        )
    clique = max_clique(g)
    r = len(clique) - 1
    if r >= 1 and r * r >= n - 1:
        out.append(_certificate("clique", "s_plus", r * r, {"clique": list(clique)}, n))
    return out


# ---------------------------------------------------------------------------
# joins


def _check_partition(g: Graph, split: tuple[Iterable[int], Iterable[int]]) -> int:
    """Side A's vertex bitset; raise ValueError unless the two sides split
    the vertex set, each vertex once."""
    side_a, side_b = list(split[0]), list(split[1])
    if not side_a or not side_b:
        raise ValueError("join split sides must be non-empty")
    # a negative vertex sets no bit, so the sides then cover too few vertices
    amask = sum(1 << v for v in side_a if v >= 0)
    bmask = sum(1 << v for v in side_b if v >= 0)
    if amask & bmask or amask | bmask != (1 << g.n) - 1 or len(side_a) + len(side_b) != g.n:
        raise ValueError("join split must partition the vertex set")
    return amask


def _check_cross_edges(g: Graph, amask: int) -> None:
    """Raise ValueError unless every vertex of side A (the bitset amask) is
    adjacent to every vertex outside it."""
    bmask = ((1 << g.n) - 1) ^ amask
    for v in bits(amask):
        lack = bmask & ~g.rows[v]
        if lack:
            missing = (lack & -lack).bit_length() - 1
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
        amask = _balanced_complement_split(f)
        if amask is None:
            return None
    else:
        amask = _check_partition(g, split)
        _check_cross_edges(g, amask)
    return _certificate("join", "s_plus", g.n - 1, {"side": list(bits(amask))}, g.n)


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
    if split is not None:
        candidates = [_check_partition(g, split)]
    if n % 2 or n < 16:  # half order r = n/2 below 8
        return None
    r = n // 2
    if split is None:
        comps = sorted(f.complement_components, key=lambda c: (c.bit_count(), c))
        if len(comps) < 2 or len(comps) > 12:
            return None
        # side A always holds the last component, killing mirror duplicates;
        # components are disjoint, so their sum is their union
        candidates = [
            sum((comps[i] for i in bits(pick)), comps[-1])
            for pick in range(1 << (len(comps) - 1))
        ]
    full = (1 << n) - 1
    for amask in candidates:
        if amask.bit_count() != r:
            continue
        e1 = _inside_edges(g, amask)
        e2 = _inside_edges(g, full ^ amask)
        if e1 != e2 or 4 * e1 > r * r:  # unequal halves, or average degree above r/2
            continue
        if split is not None:  # found splits are unions of complement components
            _check_cross_edges(g, amask)
        d = 2.0 * e1 / r
        bound = min(float(n - 1), (r - d) * (r - d))
        return _certificate(
            "self_join",
            "both",
            bound,
            {"side": list(bits(amask)), "half_order": r, "avg_degree": d},
            n,
        )
    return None


# ---------------------------------------------------------------------------
# bipartite induced subgraphs


def _greedy_odd_cycle_deletions(f: GraphFacts) -> Optional[list[int]]:
    """Vertices whose removal kills every odd cycle of a cactus.

    Prefers vertices shared by many odd cycles; one third of each odd
    cycle's length is untouchable anyway, so greed is plenty here.
    """
    prof = f.cactus
    if not prof.is_cactus:
        return None
    odd = [sum(1 << v for v in c) for c in prof.cycles if len(c) % 2]
    chosen: list[int] = []
    while odd:
        counts = [0] * f.graph.n
        for cyc in odd:
            for v in bits(cyc):
                counts[v] += 1
        v = counts.index(max(counts))  # the smallest vertex on most odd cycles
        chosen.append(v)
        odd = [c for c in odd if not c >> v & 1]
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
    dropped = set(dels)
    keep = [v for v in range(g.n) if v not in dropped]
    hs = stats(induced_subgraph(g, keep))
    if not hs.bipartite:
        raise ValueError(f"deleting {dels} does not leave a bipartite graph")
    coarse = st.m - len(dels) * st.max_degree
    return _certificate(
        "induced_bipartite",
        "both",
        hs.m,
        {"deleted": list(dels), "remaining_edges": hs.m, "coarse_bound": coarse},
        g.n,
    )


# ---------------------------------------------------------------------------
# odd-cycle (unicyclic) fractional bound


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
    if not st.connected or st.m != n or n < 3:
        return None
    length = len(f.cactus.cycles[0])  # connected with m = n: exactly one cycle
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
    st = f.stats
    if not st.connected:
        return None
    inert = f.inertia
    if inert.positive != 2:
        return None
    values, nu = f.spectrum.values, inert.negative
    run_mu = run_theta = 0.0
    for k in range(nu):
        run_mu += values[k] if k < 2 else 0.0
        run_theta += abs(values[-1 - k])
        if k < nu - 1:
            held = run_mu >= run_theta - CONCLUSIVE_TOL
        else:
            held = abs(run_mu - run_theta) <= 1e-9 * max(1.0, run_theta)
        if not held:
            raise ArithmeticError("majorization chain failed numerically on a two-positive graph")
    return _certificate(
        "two_positive",
        "s_plus",
        f.graph.n - 1,
        {"positive_count": 2, "edge_count": st.m},
        f.graph.n,
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
    pi <= r^2/(4(n-1)) (and symmetrically for s_minus).  At most one
    target fires: both would need r = pi + nu <= r^2/(2(n-1)), that is
    2(n-1) <= r <= n as r > 0, which no order n >= 3 allows.
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
    if plus_fires:
        return _certificate("rank", "s_plus", r * r / (4.0 * inert.positive), witness, g.n)
    return _certificate("rank", "s_minus", r * r / (4.0 * inert.negative), witness, g.n)


# ---------------------------------------------------------------------------
# certification pipeline


def _energy_certificates(f: GraphFacts) -> list[BoundCertificate]:
    pb = energy_count_bound(f)
    return [
        _certificate("energy", target, bound, {key: bound}, f.graph.n)
        for target, bound, key in (
            ("s_plus", pb.s_plus_lower, "energy_sq_over_4pi"),
            ("s_minus", pb.s_minus_lower, "energy_sq_over_4nu"),
        )
        if _meets_floor(bound, f.graph.n)
    ]


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
_ALL_RULES = frozenset(CERTIFY_RULES)


def _wanted_rules(rules: Optional[Iterable[str]]) -> frozenset[str]:
    """The rule names to run; raises ValueError naming any unknown ones."""
    if rules is None:
        return _ALL_RULES
    wanted = frozenset(rules)
    unknown = wanted.difference(CERTIFY_RULES)
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CERTIFY_RULES)}"
        )
    return wanted


def certify(g: Graph | GraphFacts, rules: Optional[Iterable[str]] = None) -> list[BoundCertificate]:
    """Run every self-contained certificate rule against one graph.

    Lemmas that need caller-supplied structure (factorizations, explicit
    cuts, moves) are not part of this sweep; they live in ``lemmas``.
    ``rules`` filters by name and must name only members of
    :data:`CERTIFY_RULES`.  Assumes a connected graph, as the n - 1
    floor does.
    """
    wanted = _wanted_rules(rules)
    f = _facts(g)
    if not f.stats.connected or f.graph.n == 0:
        raise ValueError("certification assumes a non-empty connected graph")
    out: list[BoundCertificate] = []
    for names, check in _SWEEP:
        if not wanted.isdisjoint(names):
            for cert in check(f):
                if cert and cert.rule in wanted:
                    out.append(cert)
    return out
