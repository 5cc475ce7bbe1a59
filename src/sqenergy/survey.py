"""Corpus surveys: compare square energies, track minima, tally certificates.

A survey consumes a stream of same-order graphs, computes both square
energies for each, and reports the counts and minima that the scan
subcommands print.  Certification coverage runs the full rule pipeline
per graph while still computing the energies directly, so a buggy rule
can never silently hide a counterexample.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .bounds import CERTIFY_RULES, _meets_floor, _solved_facts, _wanted_rules, certify
from .graphs import Graph, GraphStats, add_leaf, stats, to_graph6
from .spectral import EnergyProfile, graph_profile, spectra_and_ranks

__all__ = [
    "SurveyRecord",
    "SurveyReport",
    "RuleCoverage",
    "CoverageReport",
    "survey",
    "leaf_increment_profile",
    "certify_corpus",
]

TIE_TOL = 1e-9  # s_plus vs s_minus, and each minimum vs its ties
_CORPUS_CHUNK = 256  # the largest window a stacked corpus pass solves at once


@dataclass(frozen=True)
class SurveyRecord:
    """Per-graph facts gathered during a survey."""

    graph6: str
    n: int
    m: int
    s_plus: float
    s_minus: float
    positive: int
    zero: int
    negative: int
    bipartite: bool
    conjecture_ok: bool


@dataclass(frozen=True)
class SurveyReport:
    """Aggregate of one same-order survey.

    ``equal`` counts graphs with |s_plus - s_minus| inside the tie
    tolerance; ``bipartite`` is counted independently so the two can be
    compared.  Ties for either minimum within the tolerance are all
    retained.  ``min_slack`` is the worst min(s_plus, s_minus) - (n-1)
    seen, the direct margin of the conjectured floor.
    """

    n: int
    total: int
    s_plus_gt: int
    s_minus_gt: int
    equal: int
    bipartite: int
    min_s_plus: float
    min_s_plus_g6: str
    min_s_plus_ties: tuple[str, ...]
    min_s_minus: float
    min_s_minus_g6: str
    min_s_minus_ties: tuple[str, ...]
    min_slack: float
    rounding_flags: tuple[str, ...]


def _solved(g: Graph) -> tuple[Graph, EnergyProfile, GraphStats]:
    """The one per-graph step of a survey: its eigensolve and its layering."""
    return g, graph_profile(g), stats(g)


class _MinTracker:
    """Streaming minimum with a tolerance band of tied witnesses.

    The ties stay in stream order and the first of them is the witness,
    so which graph is printed does not follow the float's last bits.
    A tag may be any object; ``survey`` offers the graphs themselves.
    """

    def __init__(self):
        self.value = math.inf
        self.near: list[tuple[float, object]] = []

    def offer(self, value: float, tag: object) -> None:
        if value < self.value:
            self.value = value
            self.near = [p for p in self.near if p[0] <= value + TIE_TOL]
        if value <= self.value + TIE_TOL:
            self.near.append((value, tag))

    def result(self) -> tuple[float, object, tuple[object, ...]]:
        ties = tuple(t for _, t in self.near)
        return self.value, ties[0] if ties else "", ties


def _rounding_flag(label: str, value: float) -> Optional[str]:
    # distance (in value units) to the nearest 6-decimal rounding midpoint
    scaled = value * 1e6
    dist = abs(scaled - math.floor(scaled) - 0.5) * 1e-6
    if dist < 1e-9:
        return f"{label}={value!r} sits within 1e-9 of a 6-decimal rounding midpoint"
    return None


def survey(
    graphs: Iterable[Graph],
    *,
    threads: int = 1,
    record_sink: Optional[Callable[[SurveyRecord], None]] = None,
) -> SurveyReport:
    """Survey a stream of graphs of one common order.

    Counts the s_plus > s_minus / < / tie split, counts bipartite graphs
    independently, and tracks both minima with their graph6 witnesses
    (plus any ties within ``TIE_TOL``), each in the stream's labelling
    and the ties in stream order.  Each graph is solved once and layered
    once; graph6 is written only for the minimisers and ties the report
    names.  ``record_sink``, when given, receives every per-graph record
    as it is produced; without one no record is built.  ``threads`` > 1
    fans the per-graph work out over processes, preserving order and
    determinism; it must lie between 1 and the CPU count, and its workers
    must be able to import the calling script (not one read from standard
    input); both are checked before any graph is read.  Mixed orders in
    one stream are an error.
    """
    _check_threads(threads)
    n = -1
    total = plus_gt = minus_gt = equal = bip = 0
    tplus = _MinTracker()
    tminus = _MinTracker()
    for g, prof, st in _solved_stream(graphs, threads):
        if n < 0:
            n = g.n
        elif g.n != n:
            raise ValueError(f"survey stream mixes orders {n} and {g.n}")
        total += 1
        s_plus, s_minus = prof.s_plus, prof.s_minus
        if s_plus > s_minus + TIE_TOL:
            plus_gt += 1
        elif s_minus > s_plus + TIE_TOL:
            minus_gt += 1
        else:
            equal += 1
        if st.bipartite:
            bip += 1
        tplus.offer(s_plus, g)
        tminus.offer(s_minus, g)
        if record_sink is not None:
            record_sink(
                SurveyRecord(
                    graph6=to_graph6(g),
                    n=n,
                    m=st.m,
                    s_plus=s_plus,
                    s_minus=s_minus,
                    positive=prof.inertia.positive,
                    zero=prof.inertia.zero,
                    negative=prof.inertia.negative,
                    bipartite=st.bipartite,
                    conjecture_ok=_meets_floor(s_plus, n) and _meets_floor(s_minus, n),
                )
            )
    if total == 0:
        raise ValueError("survey needs at least one graph")
    # graph6 only for the graphs the report names; the witness is the first tie
    vplus, _, ties = tplus.result()
    ties_plus = tuple(map(to_graph6, ties))
    vminus, _, ties = tminus.result()
    ties_minus = tuple(map(to_graph6, ties))
    flags = []
    for label, value in (("min_s_plus", vplus), ("min_s_minus", vminus)):
        flag = _rounding_flag(label, value)
        if flag:
            flags.append(flag)
    return SurveyReport(
        n=n,
        total=total,
        s_plus_gt=plus_gt,
        s_minus_gt=minus_gt,
        equal=equal,
        bipartite=bip,
        min_s_plus=vplus,
        min_s_plus_g6=ties_plus[0],
        min_s_plus_ties=ties_plus,
        min_s_minus=vminus,
        min_s_minus_g6=ties_minus[0],
        min_s_minus_ties=ties_minus,
        min_slack=min(vplus, vminus) - (n - 1),
        rounding_flags=tuple(flags),
    )


def _check_threads(threads: int) -> None:
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise ValueError(f"threads must be between 1 and {cpus} (the CPU count), got {threads}")


def _solved_stream(
    graphs: Iterable[Graph], threads: int
) -> Iterator[tuple[Graph, EnergyProfile, GraphStats]]:
    if threads == 1:
        return map(_solved, graphs)
    # a spawned worker re-imports __main__ by its module name or else from
    # its __file__; name the cause before workers die on "<stdin>"
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if getattr(main, "__spec__", None) is None and path is not None and not os.path.isfile(path):
        raise ValueError(f"threads > 1 needs a __main__ that workers can import, not {path!r}")

    def run() -> Iterator[tuple[Graph, EnergyProfile, GraphStats]]:
        # imported here, where it is used: the module adds about 1.5 MB of RSS
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not the platform's fork: numpy's BLAS may already run threads;
        # a worker that dies (say, re-running an unguarded survey call while
        # it imports the script) raises BrokenProcessPool here
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(threads, mp_context=context) as pool:
            yield from pool.map(_solved, graphs, chunksize=64)

    return run()


def leaf_increment_profile(g: Graph) -> list[tuple[float, float]]:
    """Per-vertex (delta s_plus, delta s_minus) of attaching one pendant."""
    base = graph_profile(g)
    out = []
    for v in range(g.n):
        prof = graph_profile(add_leaf(g, v))
        out.append((prof.s_plus - base.s_plus, prof.s_minus - base.s_minus))
    return out


@dataclass(frozen=True)
class RuleCoverage:
    fired: int
    conclusive: int


@dataclass(frozen=True)
class CoverageReport:
    """How the certificate rules fare over a corpus.

    Conclusiveness is per target: a graph is fully covered once some
    conclusive certificate speaks for s_plus and some (possibly the
    same, if its target is "both") for s_minus.  Direct energies are
    still computed for every graph; ``min_slack`` is their worst margin
    over the n - 1 floor, independent of any certificate.
    """

    total: int
    per_rule: dict[str, RuleCoverage]
    covered_plus: int
    covered_minus: int
    covered_both: int
    uncertified: tuple[str, ...]
    min_slack: float


def _windows(items: Iterable) -> Iterator[list]:
    """``items`` in lists of 1, 2, 4, ... up to _CORPUS_CHUNK at a time.

    When reading an item raises, the items read before it come out as a
    last list, and the error is raised after it.
    """
    window, size = [], 1
    try:
        for item in items:
            window.append(item)
            if len(window) == size:
                yield window
                window, size = [], min(2 * size, _CORPUS_CHUNK)
    except Exception:
        if window:
            yield window
        raise
    if window:
        yield window


def _certified(
    window: list[Graph], solved: list, rules: Optional[Iterable[str]]
) -> Iterator[tuple]:
    """``(facts, certificates, plus_ok, minus_ok)`` per graph of ``window``:
    its ``GraphFacts``, ``certify``'s list, and whether those certificates
    prove the n - 1 floor for s_plus and for s_minus.

    ``solved`` is ``spectra_and_ranks(window)``, one call per window, made
    by the caller before any graph is certified: a stack's error is raised
    there, and an error this iterator raises belongs to the graph it is on.
    """
    for g, (spectrum, rank) in zip(window, solved):
        facts = _solved_facts(g, spectrum, rank)
        certs = certify(facts, rules=rules)
        plus_ok = minus_ok = False
        for c in certs:
            plus_ok = plus_ok or c.covers("s_plus")
            minus_ok = minus_ok or c.covers("s_minus")
        yield facts, certs, plus_ok, minus_ok


def certify_corpus(
    graphs: Iterable[Graph], rules: Optional[Iterable[str]] = None
) -> CoverageReport:
    """Run the certificate pipeline over a corpus and tally coverage.

    The corpus is read in ``_windows``, each solved by one
    ``spectra_and_ranks`` call.  Unknown rule names raise ValueError
    before any graph is read.
    """
    rules = _wanted_rules(rules)
    fired = {r: 0 for r in CERTIFY_RULES}
    conclusive = {r: 0 for r in CERTIFY_RULES}
    total = 0
    covered_plus = covered_minus = covered_both = 0
    uncovered: list[str] = []
    min_slack = math.inf
    for window in _windows(graphs):
        for facts, certs, plus_ok, minus_ok in _certified(window, spectra_and_ranks(window), rules):
            total += 1
            prof = facts.profile
            min_slack = min(min_slack, min(prof.s_plus, prof.s_minus) - (facts.graph.n - 1))
            for cert in certs:
                fired[cert.rule] += 1
                conclusive[cert.rule] += cert.conclusive
            covered_plus += plus_ok
            covered_minus += minus_ok
            covered_both += plus_ok and minus_ok
            if not (plus_ok and minus_ok):
                uncovered.append(to_graph6(facts.graph))
    return CoverageReport(
        total=total,
        per_rule={r: RuleCoverage(fired[r], conclusive[r]) for r in CERTIFY_RULES},
        covered_plus=covered_plus,
        covered_minus=covered_minus,
        covered_both=covered_both,
        uncertified=tuple(uncovered),
        min_slack=min_slack,
    )
