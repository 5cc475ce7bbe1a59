"""Acceptance gate: one test per published claim the package must reproduce.

Each test prints one pass/fail line under ``pytest -v``.  Expensive scans
are shared through module-scoped fixtures; the n = 9 connected scan and
the n = 13..15 unicyclic run are opt-in via SQENERGY_EXTENDED=1.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from fractions import Fraction

import pytest
from test_enumeration import canonical_unicyclic, g6_stream

from sqenergy.bounds import (
    energy_count_bound,
    induced_bipartite_bound,
    unicyclic_fractional_bound,
    certify,
)
from sqenergy.canon import canonical_form
from sqenergy.enumeration import enumerate_connected, enumerate_unicyclic_nonbipartite
from sqenergy.families import cycle_graph, extended_barbell_graph, h_kn_graph
from sqenergy.graphs import (
    from_edges,
    from_graph6,
    induced_subgraph,
    kronecker,
    move_neighbors,
    stats,
)
from sqenergy.lemmas import edge_deletion_bound, m0_threshold, moving_neighbors_bound, twin_quotient_spectrum
from sqenergy.partitions import Partition, quotient_eigenvalues, quotient_matrix
from sqenergy.spectral import char_poly_exact, eigenvalues, energy_profile, graph_profile, rank_exact
from sqenergy.survey import survey

# ---------------------------------------------------------------------------
# frozen reference values

# connected graphs by order: total, s_plus > s_minus, s_minus > s_plus,
# equal, bipartite
TABLE1 = {
    2: (1, 0, 0, 1, 1),
    3: (2, 1, 0, 1, 1),
    4: (6, 3, 0, 3, 3),
    5: (21, 15, 1, 5, 5),
    6: (112, 93, 2, 17, 17),
    7: (853, 795, 14, 44, 44),
    8: (11117, 10848, 87, 182, 182),
}

# total is OEIS A001349 and bipartite OEIS A005142
TABLE1_EXTENDED = {
    9: (261080, 259656, 694, 730, 730),
}

# non-bipartite unicyclic graphs by order: total, min s_plus, min s_minus
TABLE2 = {
    3: (1, 4.0, 2.0),
    4: (1, 4.806063, 3.193937),
    5: (4, 4.763932, 4.096788),
    6: (8, 5.8548, 5.073208),
    7: (23, 6.797054, 6.060343),
    8: (55, 7.786641, 7.051905),
    9: (155, 8.78153, 8.045829),
    10: (403, 9.778404, 9.041196),
    11: (1116, 10.776269, 10.037521),
    12: (3029, 11.774708, 11.034519),
}

TABLE2_EXTENDED = {
    13: (8417, 12.773512, 12.032012),
    14: (23285, 13.772564, 13.029882),
    15: (65137, 14.771792, 14.028045),
}

# sha256 of the canonicalised graph6 stream (one newline-terminated line per
# graph, each canonically labelled, sorted by cycle length and canonical key)
# of enumerate_unicyclic_nonbipartite(n); tests/test_enumeration.py pins n <= 12
TABLE2_EXTENDED_STREAM_SHA256 = {
    13: "3b38c25fe5107d4c30f3c027327273a8e92e8d574608bd90bbb515c8ad8c4e10",
    14: "6a4b031effd623fb2e24088ae4aebdbe3acce3f75f96a15d2864a2c4426d88f2",
    15: "de8d95f02259e04b1615d4a35cab251d7d2c428a7b77e4850c285991c85ca9fa",
}

# sha256 of the same stream as emitted, in bracelet labelling and order
TABLE2_EXTENDED_RAW_STREAM_SHA256 = {
    13: "37074636b0cf0b2aecd73896ee8ebd6eaa6f0b2752d34e3087a787c369b374ca",
    14: "2ac6f4ffd87f20db8e7973e1e78453c3d12d5251b1370889f583f74d54936eee",
    15: "b3a420eba76483cea423c87f0a8b449ebf94d05b35d6fd890fa0b663eb97538a",
}


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def table1_scan():
    """Single-threaded connected scans for n = 2..8, with per-order timing."""
    reports, elapsed = {}, {}
    for n in TABLE1:
        start = time.perf_counter()
        reports[n] = survey(enumerate_connected(n), threads=1)
        elapsed[n] = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def unicyclic_scan():
    return {n: survey(enumerate_unicyclic_nonbipartite(n)) for n in TABLE2}


@pytest.fixture(scope="module")
def connected_upto7():
    return [g for n in range(1, 8) for g in enumerate_connected(n)]


def _random_connected(rng: random.Random, lo: int = 4, hi: int = 9):
    while True:
        n = rng.randint(lo, hi)
        p = rng.uniform(0.25, 0.75)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = from_edges(n, edges)
        if stats(g).connected:
            return g


def _random_graph(rng: random.Random, lo: int = 1, hi: int = 6):
    n = rng.randint(lo, hi)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_table1(table1_scan):
    reports, elapsed = table1_scan
    for n, (total, plus_gt, minus_gt, equal, bipartite) in TABLE1.items():
        report = reports[n]
        got = (report.total, report.s_plus_gt, report.s_minus_gt,
               report.equal, report.bipartite)
        assert got == (total, plus_gt, minus_gt, equal, bipartite), f"n={n}: {got}"
    assert elapsed[8] <= 600.0, f"n=8 scan took {elapsed[8]:.1f}s single-threaded"


@pytest.mark.skipif(
    os.environ.get("SQENERGY_EXTENDED") != "1",
    reason="extended n=9 connected scan; set SQENERGY_EXTENDED=1 to run",
)
def test_criterion_01_table1_extended():
    for n, row in TABLE1_EXTENDED.items():
        report = survey(enumerate_connected(n), threads=1)
        got = (report.total, report.s_plus_gt, report.s_minus_gt,
               report.equal, report.bipartite)
        assert got == row, f"n={n}: {got}"


def test_criterion_02_table2(unicyclic_scan):
    for n, (total, min_plus, min_minus) in TABLE2.items():
        report = unicyclic_scan[n]
        assert report.total == total, f"n={n}: total {report.total}"
        assert abs(report.min_s_plus - min_plus) <= 1e-6, f"n={n} min s_plus"
        assert abs(report.min_s_minus - min_minus) <= 1e-6, f"n={n} min s_minus"
        if n >= 7:
            assert len(report.min_s_plus_ties) == 1, f"n={n}: s_plus minimizer not unique"
            witness = from_graph6(report.min_s_plus_g6)
            assert canonical_form(witness) == canonical_form(h_kn_graph(n, 5)), f"n={n} s_plus minimizer"
        if n >= 5:
            assert len(report.min_s_minus_ties) == 1, f"n={n}: s_minus minimizer not unique"
            witness = from_graph6(report.min_s_minus_g6)
            assert canonical_form(witness) == canonical_form(h_kn_graph(n, 3)), f"n={n} s_minus minimizer"


@pytest.mark.skipif(
    os.environ.get("SQENERGY_EXTENDED") != "1",
    reason="extended n=13..15 unicyclic scan; set SQENERGY_EXTENDED=1 to run",
)
def test_criterion_02_table2_extended():
    for n, (total, min_plus, min_minus) in TABLE2_EXTENDED.items():
        graphs = list(enumerate_unicyclic_nonbipartite(n))
        digest = hashlib.sha256(g6_stream(graphs)).hexdigest()
        assert digest == TABLE2_EXTENDED_RAW_STREAM_SHA256[n], f"n={n}"
        digest = hashlib.sha256(g6_stream(canonical_unicyclic(graphs))).hexdigest()
        assert digest == TABLE2_EXTENDED_STREAM_SHA256[n], f"n={n}"
        report = survey(graphs)
        assert report.total == total
        assert abs(report.min_s_plus - min_plus) <= 1e-6
        assert abs(report.min_s_minus - min_minus) <= 1e-6
        assert canonical_form(from_graph6(report.min_s_plus_g6)) == canonical_form(h_kn_graph(n, 5))
        assert canonical_form(from_graph6(report.min_s_minus_g6)) == canonical_form(h_kn_graph(n, 3))


def test_criterion_03_h35_spectrum():
    expected = [2.214320, 1.0, -0.539189, -1.0, -1.675131]
    values = eigenvalues(h_kn_graph(5, 3)).values
    for got, want in zip(values, expected):
        assert abs(got - want) <= 1e-6, f"{got} vs {want}"


def test_criterion_04_extended_barbell():
    for k in range(3, 13):
        n = 2 * k + 1
        g = extended_barbell_graph(k)
        part = Partition.of(
            [list(range(k - 1)), [k - 1], [k], list(range(k + 1, 2 * k)), [2 * k]]
        )
        folded = twin_quotient_spectrum(g, part).values
        dense = eigenvalues(g).values
        assert len(folded) == len(dense) == n
        for a, b in zip(folded, dense):
            assert abs(a - b) <= 1e-8, f"k={k}: twin spectrum off by {abs(a - b)}"

        poly = char_poly_exact(g)
        assert poly.root_multiplicity(-1) == n - 4, f"k={k}: -1 multiplicity"
        assert poly.root_multiplicity(k - 1) >= 1, f"k={k}: k-1 not a root"

        prof = graph_profile(g)
        assert prof.s_plus > 2 * (k - 1) ** 2, f"k={k}: s_plus margin"
        assert prof.s_minus > n - 1, f"k={k}: s_minus margin"

        def f(x: Fraction) -> Fraction:
            return x**3 - (k - 2) * x**2 - (k + 1) * x + 2 * (k - 2)

        assert f(Fraction(k - 1)) == Fraction(-2)
        assert f(Fraction(-1)) == Fraction(2 * k - 2)
        assert f(Fraction(-9, 5)) == Fraction(14 * k, 25) - Fraction(194, 125)


def test_criterion_05_odd_cycles():
    for m in range(1, 21):
        n = 2 * m + 1
        g = cycle_graph(n)
        prof = graph_profile(g)
        assert prof.s_plus >= 2 * m - 1e-9, f"m={m}: s_plus"
        assert prof.s_minus >= 2 * m - 1e-9, f"m={m}: s_minus"
        closed = sorted(
            (2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n)), reverse=True
        )
        for got, want in zip(eigenvalues(g).values, closed):
            assert abs(got - want) <= 1e-8, f"m={m}: eigenvalue {got} vs {want}"


def test_criterion_06_kronecker_identity():
    rng = random.Random(0xA55E55)
    floor_checked = 0
    for _ in range(100):
        a, b = _random_graph(rng), _random_graph(rng)
        pa, pb = graph_profile(a), graph_profile(b)
        prod = graph_profile(kronecker(a, b))
        want_plus = pa.s_plus * pb.s_plus + pa.s_minus * pb.s_minus
        want_minus = pa.s_plus * pb.s_minus + pa.s_minus * pb.s_plus
        assert abs(prod.s_plus - want_plus) <= 1e-7
        assert abs(prod.s_minus - want_minus) <= 1e-7
        if (
            a.n >= 3
            and b.n >= 3
            and min(pa.s_plus, pa.s_minus) >= a.n - 1 - 1e-9
            and min(pb.s_plus, pb.s_minus) >= b.n - 1 - 1e-9
        ):
            floor = a.n * b.n - 1
            assert prod.s_plus >= floor - 1e-7
            assert prod.s_minus >= floor - 1e-7
            floor_checked += 1
    assert floor_checked >= 10, f"only {floor_checked} qualifying factor pairs"


def test_criterion_07_interlacing_suites():
    slack = 1e-8

    # edge deletion: s_plus(G) >= s_plus(G - e) - theta_2^2 and the
    # s_minus twin, whenever G - e keeps two eigenvalues of each sign
    rng = random.Random(0xED6E01)
    done = attempts = 0
    while done < 1000:
        attempts += 1
        assert attempts < 50000, "edge-deletion suite starved of instances"
        g = _random_connected(rng)
        e = rng.choice(list(g.edges()))
        rec = edge_deletion_bound(g, e)
        if rec is None:
            continue
        prof = graph_profile(g)
        assert rec.s_plus_lower <= prof.s_plus + slack
        assert rec.s_minus_lower <= prof.s_minus + slack
        done += 1

    # neighbour moving: bounds for the rewired graph from the original
    rng = random.Random(0xED6E02)
    done = attempts = 0
    while done < 1000:
        attempts += 1
        assert attempts < 50000, "neighbour-moving suite starved of instances"
        g = _random_connected(rng)
        pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        rng.shuffle(pairs)
        chosen = None
        for u, v in pairs:
            ws = [
                w
                for w in range(g.n)
                if w not in (u, v) and g.has_edge(v, w) and not g.has_edge(u, w)
            ]
            if ws:
                chosen = (u, v, rng.sample(ws, rng.randint(1, len(ws))))
                break
        if chosen is None:
            continue
        u, v, ws = chosen
        rec = moving_neighbors_bound(g, u, v, ws)
        prof = graph_profile(move_neighbors(g, u, v, ws))
        assert rec.s_plus_lower_weak <= prof.s_plus + slack
        if rec.s_plus_lower_strong is not None:
            assert rec.s_plus_lower_strong <= prof.s_plus + slack
        assert rec.s_minus_lower <= prof.s_minus + slack
        done += 1

    # quotient: eigenvalues of any quotient matrix interlace the graph's
    rng = random.Random(0xED6E03)
    for _ in range(1000):
        g = _random_connected(rng)
        colors = [rng.randrange(rng.randint(1, g.n)) for _ in range(g.n)]
        blocks: dict[int, list[int]] = {}
        for vtx, color in enumerate(colors):
            blocks.setdefault(color, []).append(vtx)
        part = Partition.of(list(blocks.values()))
        mu = quotient_eigenvalues(quotient_matrix(g, part)).values
        lam = eigenvalues(g).values
        p = len(mu)
        for i in range(p):
            assert lam[i] >= mu[i] - slack
            assert mu[i] >= lam[g.n - p + i] - slack

    # induced subgraph: Cauchy interlacing against the parent spectrum
    rng = random.Random(0xED6E04)
    for _ in range(1000):
        g = _random_connected(rng)
        k = rng.randint(1, g.n)
        sub = sorted(rng.sample(range(g.n), k))
        theta = eigenvalues(induced_subgraph(g, sub)).values
        lam = eigenvalues(g).values
        for i in range(k):
            assert lam[i] >= theta[i] - slack
            assert theta[i] >= lam[i + g.n - k] - slack


def test_criterion_08_bound_soundness(connected_upto7):
    slack = 1e-8
    fired = {"certificate": 0, "edge_deletion": 0, "moving": 0,
             "energy": 0, "induced_bipartite": 0, "fractional": 0}
    for g in connected_upto7:
        prof = graph_profile(g)
        truth = {
            "s_plus": prof.s_plus,
            "s_minus": prof.s_minus,
            "both": min(prof.s_plus, prof.s_minus),
        }
        for cert in certify(g):
            if cert.conclusive:
                assert cert.bound_value <= truth[cert.target] + slack, (
                    f"{cert.rule} on n={g.n}"
                )
                fired["certificate"] += 1
        for e in g.edges():
            rec = edge_deletion_bound(g, e)
            if rec is None:
                continue
            assert rec.s_plus_lower <= prof.s_plus + slack
            assert rec.s_minus_lower <= prof.s_minus + slack
            fired["edge_deletion"] += 1
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                ws = [
                    w
                    for w in range(g.n)
                    if w not in (u, v) and g.has_edge(v, w) and not g.has_edge(u, w)
                ]
                if not ws:
                    continue
                rec = moving_neighbors_bound(g, u, v, ws)
                moved_prof = graph_profile(move_neighbors(g, u, v, ws))
                assert rec.s_plus_lower_weak <= moved_prof.s_plus + slack
                if rec.s_plus_lower_strong is not None:
                    assert rec.s_plus_lower_strong <= moved_prof.s_plus + slack
                assert rec.s_minus_lower <= moved_prof.s_minus + slack
                fired["moving"] += 1
        if g.m >= 1:
            pb = energy_count_bound(g)
            assert pb.s_plus_lower <= prof.s_plus + slack
            assert pb.s_minus_lower <= prof.s_minus + slack
            fired["energy"] += 1
        cert = induced_bipartite_bound(g)
        if cert is not None:
            assert cert.bound_value <= truth["both"] + slack
            fired["induced_bipartite"] += 1
        cert = unicyclic_fractional_bound(g)
        if cert is not None:
            assert cert.bound_value <= truth["both"] + slack
            fired["fractional"] += 1
    assert all(count > 0 for count in fired.values()), fired


def test_criterion_09_m0_threshold():
    value = m0_threshold(100)
    assert abs(value - 7.38) <= 0.01

    rng = random.Random(0x0D15EA5E)
    for _ in range(30):
        n = rng.randint(40, 90)
        m_low = math.ceil(value if n == 100 else m0_threshold(n))
        m = rng.randint(m_low, (n - 1) // 2)
        cycle_len = 2 * m + 1
        edges = [(i, (i + 1) % cycle_len) for i in range(cycle_len)]
        for extra in range(cycle_len, n):
            edges.append((rng.randrange(extra), extra))
        g = from_edges(n, edges)
        assert g.m == n and not stats(g).bipartite
        prof = graph_profile(g)
        assert prof.s_plus >= n - 1 - 1e-9, f"n={n} m={m}: s_plus {prof.s_plus}"
        assert prof.s_minus >= n - 1 - 1e-9, f"n={n} m={m}: s_minus {prof.s_minus}"


def test_criterion_10_zero_multiplicity_exactness(connected_upto7):
    mismatches = 0
    for g in connected_upto7:
        tol_zero = energy_profile(eigenvalues(g)).inertia.zero
        exact_zero = char_poly_exact(g).zero_root_multiplicity()
        assert rank_exact(g) == g.n - exact_zero
        if tol_zero != exact_zero:
            mismatches += 1
    assert mismatches == 0


def test_criterion_11_conjecture_scan(table1_scan):
    reports, _ = table1_scan
    single = graph_profile(from_edges(1, []))
    assert min(single.s_plus, single.s_minus) >= 0 - 1e-9  # n=1 floor
    for n, report in reports.items():
        assert report.min_slack >= -1e-9, f"n={n}: slack {report.min_slack}"
