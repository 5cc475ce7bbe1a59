"""Isomorphism-free enumeration of connected and unicyclic graphs."""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

import sqenergy.enumeration
from sqenergy.canon import canonical_form
from sqenergy.enumeration import (
    CONNECTED_MAX_N,
    UNICYCLIC_MAX_N,
    enumerate_connected,
    enumerate_unicyclic_nonbipartite,
)
from sqenergy.graphs import add_leaf, bits, cactus_profile, from_edges, stats, to_graph6

CONNECTED8_G6 = Path(__file__).resolve().parent.parent / "perfbench" / "connected8.g6"

# unlabelled connected graphs by order (classic integer sequence)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# connected non-bipartite unicyclic graphs by order
UNICYCLIC_COUNTS = {3: 1, 4: 1, 5: 4, 6: 8, 7: 23, 8: 55, 9: 155, 10: 403, 11: 1116, 12: 3029}

# sha256 of the graph6 stream (one line per graph, newline-terminated) of
# enumerate_unicyclic_nonbipartite(n), as emitted by the global-dedupe
# enumerator that canonical augmentation replaced
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


def _no_search(*args, **kwargs):
    raise AssertionError("an order was enumerated")


def g6_stream(graphs) -> bytes:
    return "".join(to_graph6(g) + "\n" for g in graphs).encode("ascii")


def tied_leaves_from_rows(rows):
    """The leaves whose invariant equals the new (last) leaf's, from the child's own rows;
    None when some leaf's invariant is smaller."""
    degree = [r.bit_count() for r in rows]

    def s1(x):
        return sum(degree[u] for u in bits(rows[x]))

    def invariant(leaf):
        h = rows[leaf].bit_length() - 1
        return degree[h], s1(h), sum(s1(x) for x in bits(rows[h]))

    k = len(rows) - 1
    mine = invariant(k)
    others = {v: invariant(v) for v in range(k) if degree[v] == 1}
    if any(inv < mine for inv in others.values()):
        return None
    return [v for v, inv in others.items() if inv == mine]


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

    def test_membership_properties(self):
        for g in enumerate_unicyclic_nonbipartite(8):
            st = stats(g)
            assert st.connected and not st.bipartite
            assert g.m == g.n  # exactly one cycle
            prof = cactus_profile(g)
            assert prof.is_cactus and prof.odd_count == 1 and prof.even_count == 0

    def test_distinct_canonical_forms(self):
        keys = [canonical_form(g) for g in enumerate_unicyclic_nonbipartite(9)]
        assert len(keys) == len(set(keys))

    def test_deterministic_stream(self):
        first = [g.rows for g in enumerate_unicyclic_nonbipartite(9)]
        second = [g.rows for g in enumerate_unicyclic_nonbipartite(9)]
        assert first == second

    @pytest.mark.parametrize("n", sorted(UNICYCLIC_STREAM_SHA256))
    def test_stream_is_pinned(self, n):
        digest = hashlib.sha256(g6_stream(enumerate_unicyclic_nonbipartite(n))).hexdigest()
        assert digest == UNICYCLIC_STREAM_SHA256[n]

    def test_leaf_table_matches_the_child_rows(self):
        # the per-parent table adjusted for one attachment reads the child's invariants
        for k in range(3, 11):
            for parent in enumerate_unicyclic_nonbipartite(k):
                table = sqenergy.enumeration._leaf_table(parent.rows)
                for v in range(k):
                    expected = tied_leaves_from_rows(add_leaf(parent, v).rows)
                    assert sqenergy.enumeration._tied_leaves(table, v) == expected

    def test_leaf_table_matches_the_child_rows_at_the_order_cap(self):
        # order-17 parents have rows wider than 16 bits, which bits() walks instead of reading tables
        rng = random.Random(17)
        for _ in range(20):
            k = rng.choice([3, 5, 7])
            parent = from_edges(k, [(i, (i + 1) % k) for i in range(k)])
            while parent.n < UNICYCLIC_MAX_N - 1:
                parent = add_leaf(parent, rng.randrange(parent.n))
            table = sqenergy.enumeration._leaf_table(parent.rows)
            for v in range(parent.n):
                expected = tied_leaves_from_rows(add_leaf(parent, v).rows)
                assert sqenergy.enumeration._tied_leaves(table, v) == expected

    def test_canonical_labelling_runs_on_few_children(self, monkeypatch):
        # labelling every pendant child takes 18382 searches at order 12; a leaf
        # invariant of the neighbour's degree alone labels 6740 children and
        # needs 1945 second forms, the two-step invariant 4832 and 37
        calls = {"canonical_pair": 0, "canonical_form": 0}
        for name in calls:
            search = getattr(sqenergy.enumeration, name)

            def counted(*args, _search=search, _name=name, **kwargs):
                calls[_name] += 1
                return _search(*args, **kwargs)

            monkeypatch.setattr(sqenergy.enumeration, name, counted)
        assert sum(1 for _ in enumerate_unicyclic_nonbipartite(12)) == UNICYCLIC_COUNTS[12]
        assert calls["canonical_pair"] <= 5000
        assert calls["canonical_form"] <= 100

    def test_order_cap(self, monkeypatch):
        monkeypatch.setattr(sqenergy.enumeration, "canonical_pair", _no_search)
        assert UNICYCLIC_MAX_N == 18
        with pytest.raises(ValueError, match=r"capped at n <= 18$"):
            list(enumerate_unicyclic_nonbipartite(19))
        with pytest.raises(ValueError):
            list(enumerate_unicyclic_nonbipartite(2))
