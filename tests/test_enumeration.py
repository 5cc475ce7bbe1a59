"""Isomorphism-free enumeration of connected and unicyclic graphs."""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

import pytest

import sqenergy.canon
import sqenergy.enumeration
from sqenergy.canon import canonical_form, canonical_pair
from sqenergy.enumeration import (
    CONNECTED_MAX_N,
    UNICYCLIC_MAX_N,
    enumerate_connected,
    enumerate_unicyclic_nonbipartite,
)
from sqenergy.graphs import cactus_profile, from_edges, stats, to_graph6

CONNECTED8_G6 = Path(__file__).resolve().parent.parent / "perfbench" / "connected8.g6"

# unlabelled connected graphs by order (classic integer sequence)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# connected non-bipartite unicyclic graphs by order
UNICYCLIC_COUNTS = {3: 1, 4: 1, 5: 4, 6: 8, 7: 23, 8: 55, 9: 155, 10: 403, 11: 1116, 12: 3029}

# sha256 of the canonicalised graph6 stream (one line per graph,
# newline-terminated) of enumerate_unicyclic_nonbipartite(n): each graph
# through canonical_pair, sorted by (cycle length, canonical key).  Every
# unicyclic enumerator so far (global dedupe, canonical augmentation,
# bracelets of rooted trees, labelled or not) gives it, so these pin the
# classes and their order
UNICYCLIC_STREAM_SHA256 = {
    3: "8e71b38f493557683524eb45ca8f814efe19aa3c9d7e946c42a25658f532618e",
    4: "2229daff9fc1aa3aec2fd43e4fc86f64cacec28d61ea4f33e05cbafb2319dc53",
    5: "1e380828b6a3066c7a742683b442846a4e48f2d04cf24b573d74813675f3b960",
    6: "582517ffd32d638ee04c48e4c917e22a592b57a73b1899fe321933450296b3ab",
    7: "d528c9c6e15b788fb784bc24a792cfabafbd036eb6f11c7593f954f6039b7f69",
    8: "0c6e4a83c4a93f25089db3097553ebd2225a503db8ed66d815b6ff4916307234",
    9: "b07c94ae3a8e584f34daec9a689e01e054ea7c03ee64a1953ecde39ba03635f9",
    10: "1842a0174e3c165204ecfb336c271981577588dbfa5b7522c281870468eee409",
    11: "fe4af22997c4a53c2756197305de2d03608a056cc30187a92202230c8a2930f0",
    12: "479bf4f0757e51679ec36b000e8afb229e744df4a0150341a8f199b456c2abcb",
}

# sha256 of the graph6 stream as emitted, in bracelet labelling and order
UNICYCLIC_RAW_STREAM_SHA256 = {
    3: "8e71b38f493557683524eb45ca8f814efe19aa3c9d7e946c42a25658f532618e",
    4: "8da9e43410b550734a2f53eb24dc228eaa06f123c558c770c7ac1f6937bc066a",
    5: "b67eff2c3b10dbce2e47fb8e0455cb89d4ff5fb4216b92dce5cba9acfa27dfba",
    6: "6d1d643ca1bf3ae62d5b567b485c22196b3b2b07490b1919414baffc9bdb6d7b",
    7: "ef3801611df09bdd6ff43266931d7a1671be620de51da047cfe398733134c320",
    8: "4ea2e6c7678c30b9944e3fa4e7ece42b63d8e98d9fac8d29d290e31d8b4ec20d",
    9: "e28d19c1538db3a870eaa4346aabff67b589def23321ff8476231feed3a86f90",
    10: "3037cdb582a3ba3e05088b663818ce2bcd51393bb04b838777ae3724bab64f41",
    11: "9b60f6744ea7eca11d3e4b30d97cd684c6acc6d82816593914a93cd97774163f",
    12: "0e479895c825965ce52aa5ee7778343ce1513c555c1911973e5f195e4ef843c4",
}


# unicyclic_count(n) for n = 3..18, from the Polya count below
POLYA_COUNTS = [1, 1, 4, 8, 23, 55, 155, 403, 1116, 3029, 8417, 23285, 65137, 182211, 512625, 1444444]


def _no_search(*args, **kwargs):
    raise AssertionError("an order was enumerated")


def g6_stream(graphs) -> bytes:
    return "".join(to_graph6(g) + "\n" for g in graphs).encode("ascii")


def canonical_unicyclic(graphs) -> list:
    """Unicyclic ``graphs`` canonically labelled, sorted by (cycle length,
    canonical key): the order and labelling the enumerator once emitted."""
    labelled = sorted((len(cactus_profile(g).cycles[0]), *canonical_pair(g)) for g in graphs)
    return [canon for _, _, canon in labelled]


def rooted_tree_counts(n_max: int) -> list[int]:
    """a[k]: rooted trees on k vertices (OEIS A000081, a[0] = 0), by the recurrence
    k a(k+1) = sum_{j=1..k} (sum_{d | j} d a(d)) a(k-j+1)."""
    a = [0, 1]
    for k in range(1, n_max):
        total = sum(sum(d * a[d] for d in range(1, j + 1) if j % d == 0) * a[k - j + 1] for j in range(1, k + 1))
        a.append(total // k)
    return a[: n_max + 1]


def _times(p: list[int], q: list[int]) -> list[int]:
    # product of two power series, truncated to len(p) terms
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(len(p))]


def unicyclic_class_count(n: int, c: int) -> int:
    """Connected unicyclic graphs of order n whose cycle has odd length c, up to isomorphism,
    counted without canonical labelling.  By Polya's theorem they are the bracelets of
    rooted trees: half of [x^n] ((1/c) sum_{d | c} phi(d) T(x^d)^(c/d) + T(x) T(x^2)^((c-1)/2)),
    with T(x) the rooted-tree series."""
    a = rooted_tree_counts(n)

    def power(d: int, e: int) -> list[int]:
        # T(x^d)^e, truncated after x^n
        t = [a[k // d] if k % d == 0 else 0 for k in range(n + 1)]
        out = [1] + [0] * n
        for _ in range(e):
            out = _times(out, t)
        return out

    rotations = sum(_phi(d) * power(d, c // d)[n] for d in range(1, c + 1) if c % d == 0)
    reflections = _times(power(1, 1), power(2, (c - 1) // 2))[n]
    total = rotations + c * reflections
    assert total % (2 * c) == 0
    return total // (2 * c)


def _rooted_code(parents: tuple[int, ...]) -> str:
    """The nested-bracket code of a rooted tree (Aho, Hopcroft & Ullman), where vertex
    j > 0 hangs from parents[j - 1] < j; isomorphic rooted trees share it."""
    below: list[list[str]] = [[] for _ in range(len(parents) + 1)]
    for j in range(len(parents), 0, -1):
        below[parents[j - 1]].append("(" + "".join(sorted(below[j])) + ")")
    return "(" + "".join(sorted(below[0])) + ")"


def _phi(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def unicyclic_count(n: int) -> int:
    """Connected non-bipartite unicyclic graphs of order n, summed over odd cycle lengths."""
    return sum(unicyclic_class_count(n, c) for c in range(3, n + 1, 2))


class TestConnected:
    # order 8 is counted by the stream test, which enumerates it once
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]

    def test_all_connected_and_distinct(self):
        seen = set()
        for g in enumerate_connected(6):
            assert g.n == 6
            assert stats(g).connected
            key = canonical_form(g)
            assert key not in seen
            seen.add(key)

    def test_deterministic_stream(self):
        first = [g.rows for g in enumerate_connected(6)]
        second = [g.rows for g in enumerate_connected(6)]
        assert first == second

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            list(enumerate_connected(0))
        with pytest.raises(ValueError):
            list(enumerate_connected(CONNECTED_MAX_N + 1))

    def test_order_eight_stream_matches_the_committed_corpus(self):
        stream = g6_stream(enumerate_connected(8))
        assert stream.count(b"\n") == CONNECTED_COUNTS[8]
        assert stream == CONNECTED8_G6.read_bytes()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_classes_match_the_graph_atlas(self, n):
        nx = pytest.importorskip("networkx")
        atlas = {
            canonical_form(from_edges(n, h.edges()))
            for h in nx.graph_atlas_g()
            if h.number_of_nodes() == n and nx.is_connected(h)
        }
        ours = [canonical_form(g) for g in enumerate_connected(n)]
        assert len(ours) == len(atlas) and set(ours) == atlas

class TestUnicyclic:
    @pytest.mark.parametrize("n", sorted(UNICYCLIC_COUNTS))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_unicyclic_nonbipartite(n)) == UNICYCLIC_COUNTS[n]

    def test_polya_count_matches_every_pinned_count(self):
        from test_acceptance import TABLE2, TABLE2_EXTENDED

        assert [unicyclic_count(n) for n in range(3, UNICYCLIC_MAX_N + 1)] == POLYA_COUNTS
        pinned = dict(UNICYCLIC_COUNTS)
        pinned.update((n, row[0]) for n, row in {**TABLE2, **TABLE2_EXTENDED}.items())
        for n, count in pinned.items():
            assert unicyclic_count(n) == count, f"n={n}"

    @pytest.mark.parametrize("n", range(3, 14))
    def test_bracelets_per_cycle_length_match_the_polya_count(self, n):
        size, _ = sqenergy.enumeration._rooted_trees(n - 2)
        for c in range(3, n + 1, 2):
            got = sum(1 for _ in sqenergy.enumeration._bracelets(c, n, size))
            assert got == unicyclic_class_count(n, c), f"c={c}"

    def test_order_13_stream_matches_the_polya_count(self):
        graphs = list(enumerate_unicyclic_nonbipartite(13))
        assert len(graphs) == unicyclic_count(13)
        assert len({g.rows for g in graphs}) == len(graphs)

    @pytest.mark.skipif(
        os.environ.get("SQENERGY_EXTENDED") != "1",
        reason="orders 14 to 17; set SQENERGY_EXTENDED=1 to run",
    )
    @pytest.mark.parametrize("n", [14, 15, 16, 17])
    def test_counts_match_the_polya_count_extended(self, n):
        assert sum(1 for _ in enumerate_unicyclic_nonbipartite(n)) == unicyclic_count(n)

    def test_rooted_tree_table_has_the_a000081_counts(self):
        size, parents = sqenergy.enumeration._rooted_trees(13)
        a = rooted_tree_counts(13)
        assert a[1:12] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842]
        assert [size.count(k) for k in range(1, 14)] == a[1:]
        assert size == sorted(size) and [len(p) + 1 for p in parents] == size
        # each id is a rooted tree, and no two ids are isomorphic
        assert all(p < j for tree in parents for j, p in enumerate(tree, start=1))
        codes = [_rooted_code(tree) for tree in parents]
        assert len(set(codes)) == len(codes)

    def test_membership_properties(self):
        for g in enumerate_unicyclic_nonbipartite(8):
            st = stats(g)
            assert st.connected and not st.bipartite
            assert g.m == g.n  # exactly one cycle
            prof = cactus_profile(g)
            assert prof.is_cactus and [len(c) % 2 for c in prof.cycles] == [1]

    def test_distinct_canonical_forms(self):
        keys = [canonical_form(g) for g in enumerate_unicyclic_nonbipartite(9)]
        assert len(keys) == len(set(keys))

    def test_deterministic_stream(self):
        first = [g.rows for g in enumerate_unicyclic_nonbipartite(9)]
        second = [g.rows for g in enumerate_unicyclic_nonbipartite(9)]
        assert first == second

    @pytest.mark.parametrize("n", sorted(UNICYCLIC_STREAM_SHA256))
    def test_stream_is_pinned(self, n):
        graphs = list(enumerate_unicyclic_nonbipartite(n))
        assert hashlib.sha256(g6_stream(graphs)).hexdigest() == UNICYCLIC_RAW_STREAM_SHA256[n]
        stream = g6_stream(canonical_unicyclic(graphs))
        assert hashlib.sha256(stream).hexdigest() == UNICYCLIC_STREAM_SHA256[n]

    def test_classes_at_the_order_cap_have_rows_wider_than_16_bits(self):
        # bits() walks rows of 2^16 and up instead of reading its tables
        n = UNICYCLIC_MAX_N - 1
        size, parents = sqenergy.enumeration._rooted_trees(n - 2)
        for c in (n - 2, n):
            keys = set()
            for seq in sqenergy.enumeration._bracelets(c, n, size):
                g = sqenergy.enumeration._unicyclic(seq, parents)
                assert g.n == g.m == n and max(g.rows).bit_length() > 16
                assert all(g.rows[u] >> v & 1 == g.rows[v] >> u & 1 for u in range(n) for v in range(n))
                assert stats(g).connected
                prof = cactus_profile(g)
                assert [len(cyc) % 2 for cyc in prof.cycles] == [1] and len(prof.cycles[0]) == c
                keys.add(canonical_form(g))
            assert len(keys) == unicyclic_class_count(n, c)

    def test_makes_no_canonical_labelling(self, monkeypatch):
        for module, name in (
            (sqenergy.enumeration, "canonical_pair"),
            (sqenergy.canon, "canonical_pair"),
            (sqenergy.canon, "canonical_form"),
        ):
            monkeypatch.setattr(module, name, _no_search)
        assert sum(1 for _ in enumerate_unicyclic_nonbipartite(12)) == UNICYCLIC_COUNTS[12]

    def test_first_class_comes_before_the_second_is_built(self, monkeypatch):
        built = []
        build = sqenergy.enumeration._unicyclic

        def counted(seq, parents):
            built.append(seq)
            return build(seq, parents)

        monkeypatch.setattr(sqenergy.enumeration, "_unicyclic", counted)
        g = next(enumerate_unicyclic_nonbipartite(UNICYCLIC_MAX_N))
        assert g.n == UNICYCLIC_MAX_N and len(built) == 1

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(sqenergy.enumeration, "canonical_pair", _no_search)
        assert UNICYCLIC_MAX_N == 18
        with pytest.raises(ValueError, match=r"capped at n <= 18$"):
            list(enumerate_unicyclic_nonbipartite(19))
        with pytest.raises(ValueError):
            list(enumerate_unicyclic_nonbipartite(2))
