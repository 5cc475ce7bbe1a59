"""Graph container, graph6 codec, and structural operations."""

from __future__ import annotations

import random

import numpy as np
import pytest
from _strategies import graphs
from hypothesis import given
from hypothesis import strategies as st

import sqenergy.graphs as graphs_module
from sqenergy.families import complete_graph, cycle_graph, path_graph, star_graph
from sqenergy.graphs import (
    CactusProfile,
    Graph,
    Graph6Error,
    add_leaf,
    bits,
    cactus_profile,
    complement,
    component_masks,
    delete_edge,
    from_edges,
    from_graph6,
    induced_subgraph,
    join,
    kronecker,
    move_neighbors,
    read_graph6_lines,
    relabel,
    stats,
    to_graph6,
)


class TestGraphBasics:
    def test_edge_and_degree_accounting(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert g.n == 4
        assert g.m == 5
        assert g.degree(0) == 3
        assert g.degree(1) == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(1, 3)
        assert list(g.neighbors(0)) == [1, 2, 3]

    def test_edges_are_lexicographic(self):
        g = from_edges(4, [(2, 3), (0, 3), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_adjacency_matrix_is_symmetric_01(self):
        g = cycle_graph(5)
        a = g.adjacency_matrix()
        assert a.shape == (5, 5)
        assert np.array_equal(a, a.T)
        assert a.sum() == 2 * g.m
        assert np.all(np.diag(a) == 0)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17])
    def test_adjacency_matrix_is_the_float_slice_of_the_shared_unpack(self, n):
        group = [_seeded_graph(n, p, seed=n) for p in (0.2, 0.5, 0.9)]
        stack = graphs_module._unpack_rows(group, n)
        assert stack.shape == (len(group), n, n) and stack.dtype == np.uint8
        for g, slice_ in zip(group, stack):
            a = g.adjacency_matrix()
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert np.array_equal(a, slice_.astype(float))
            assert a.tolist() == [[float(g.has_edge(u, v)) for v in range(n)] for u in range(n)]

    def test_adjacency_matrix_refuses_orders_above_the_dense_cap(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "DENSE_ORDER_CAP", 4)
        assert path_graph(4).adjacency_matrix().shape == (4, 4)
        with pytest.raises(ValueError, match="order 5 exceeds the dense matrix cap of 4"):
            path_graph(5).adjacency_matrix()
        # the one check, shared with the stacked spectra
        with pytest.raises(ValueError, match="order 5 exceeds the dense matrix cap of 4"):
            graphs_module._unpack_rows([path_graph(5), cycle_graph(5)], 5)

    def test_bits_ascending(self):
        assert list(bits(0)) == []
        assert list(bits(0b101101)) == [0, 2, 3, 5]

    @staticmethod
    def reference_bits(mask: int) -> list[int]:
        return [i for i in range(mask.bit_length()) if mask >> i & 1]

    def test_bits_on_both_sides_of_the_table_boundaries(self):
        # byte tables below 2**8 and 2**16, the bit walk from 2**16 up
        rnd = random.Random(16)
        masks = [b + d for b in (1 << 8, 1 << 16) for d in range(-3, 4)]
        masks += [(1 << 8) - 1, (1 << 16) - 1, (1 << 16) | 1, (1 << 200) - 1, 1 << 199]
        masks += [rnd.getrandbits(200) for _ in range(50)] + [rnd.getrandbits(16) for _ in range(50)]
        for mask in masks:
            assert list(bits(mask)) == self.reference_bits(mask), mask

    def test_bits_is_a_tuple_at_every_width(self):
        # a tuple can be read twice, whatever the width of the mask
        for mask in (0, 5, (1 << 8) + 3, (1 << 16) + 3, (1 << 200) - 1):
            got = bits(mask)
            assert type(got) is tuple and got == tuple(self.reference_bits(mask))
        assert path_graph(70).neighbors(60) == (59, 61)

    @pytest.mark.parametrize("mask", [-1, -3, -(1 << 8), -(1 << 16) - 5, -(1 << 200)])
    def test_bits_rejects_a_negative_mask_before_iterating(self, mask):
        with pytest.raises(ValueError, match="nonnegative"):
            bits(mask)

    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="nonnegative"):
            from_edges(-1, [])


class TestGraph6:
    def test_known_vectors(self):
        g = from_graph6("@")
        assert (g.n, g.m) == (1, 0)
        g = from_graph6("Bw")
        assert (g.n, g.m) == (3, 3)
        g = from_graph6("D?{")
        assert (g.n, g.m) == (5, 4)
        assert g.degree(4) == 4  # hub sits at the last vertex

    def test_encode_known_vectors(self):
        assert to_graph6(from_edges(1, [])) == "@"
        assert to_graph6(complete_graph(3)) == "Bw"

    def test_header_prefix_and_newline_tolerated(self):
        assert from_graph6(">>graph6<<Bw\n") == from_graph6("Bw")

    def test_empty_graph_of_order_zero(self):
        g = from_graph6("?")
        assert (g.n, g.m) == (0, 0)
        assert to_graph6(g) == "?"

    @pytest.mark.parametrize("n", [1, 2, 61, 62, 63, 64, 70, 100])
    def test_roundtrip_at_header_boundaries(self, n):
        g = path_graph(n) if n > 1 else from_edges(1, [])
        assert from_graph6(to_graph6(g)) == g

    def test_extended_header_has_tilde(self):
        assert to_graph6(path_graph(62))[0] != "~"
        assert to_graph6(path_graph(63))[0] == "~"

    def test_error_empty(self):
        with pytest.raises(Graph6Error, match=r"empty graph6 string \(byte 0\)"):
            from_graph6("")

    def test_error_invalid_byte(self):
        with pytest.raises(Graph6Error, match=r"invalid graph6 byte 35 \(byte 0\)"):
            from_graph6("#")
        with pytest.raises(Graph6Error, match=r"\(byte 1\)"):
            from_graph6("B#")

    def test_error_truncated_payload(self):
        with pytest.raises(Graph6Error, match="truncated graph6 payload"):
            from_graph6("B")

    def test_error_trailing_garbage(self):
        with pytest.raises(Graph6Error, match="trailing garbage"):
            from_graph6("Bww")

    def test_error_nonzero_padding(self):
        # K3 payload uses 3 of 6 bits; force a padding bit on
        bad = "B" + chr(0b111001 + 63)
        with pytest.raises(Graph6Error, match="nonzero padding bit"):
            from_graph6(bad)

    def test_error_truncated_order_field(self):
        with pytest.raises(Graph6Error, match="truncated graph6 order field"):
            from_graph6("~A")

    def test_encode_order_above_cap(self):
        n = graphs_module._G6_MAX_N + 1
        with pytest.raises(ValueError, match=f"order {n} exceeds the supported cap"):
            to_graph6(Graph(n, (0,) * n))

    def test_error_order_above_cap(self):
        # six-char extended header encoding 2^18 + 1
        n = (1 << 18) + 1
        head = "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
        with pytest.raises(Graph6Error, match="exceeds the supported cap"):
            from_graph6(head)

    def test_read_lines_skips_blanks(self):
        got = list(read_graph6_lines(["Bw\n", "", "  \n", "@\n"]))
        assert [(text, g.n) for text, g in got] == [("Bw", 3), ("@", 1)]

    def test_read_lines_locates_a_bad_line(self):
        lines = read_graph6_lines(["Bw\n", "B\x07\n"], "f.g6")
        assert next(lines)[0] == "Bw"
        with pytest.raises(Graph6Error) as info:
            next(lines)
        assert str(info.value).startswith("f.g6, line 2:")

    @given(graphs())
    def test_roundtrip_property(self, g):
        assert from_graph6(to_graph6(g)) == g

    # An order-8 payload is 28 bits in 5 bytes (offsets 1-5); the last
    # byte carries 4 bits and 2 padding bits.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("G??#??", "invalid graph6 byte 35 (byte 3)"),
            ("G????#", "invalid graph6 byte 35 (byte 5)"),
            ("G????" + chr(63 + 1), "nonzero padding bit (byte 5)"),
            ("G???", "truncated graph6 payload: need 5 bytes, got 3 (byte 4)"),
            ("G??????", "trailing garbage after graph6 payload (byte 6)"),
            ("G?#??" + chr(63 + 1), "invalid graph6 byte 35 (byte 2)"),
            # an order field longer than needed: K_3 in 4 bytes, then the largest
            # orders each short form holds (62 and 258047); one more is accepted
            ("~??Bw", "non-canonical graph6 order field (byte 0)"),
            ("~??}", "non-canonical graph6 order field (byte 0)"),
            ("~??~", "truncated graph6 payload: need 326 bytes, got 0 (byte 4)"),
            ("~~???}~~", "non-canonical graph6 order field (byte 0)"),
            ("~~???~??", "truncated graph6 payload: need 5549042688 bytes, got 0 (byte 8)"),
            # a bad byte inside the three- and the six-byte order field
            ("~?#?", "invalid graph6 byte 35 (byte 2)"),
            ("~~????? ", "invalid graph6 byte 32 (byte 7)"),
        ],
        ids=[
            "invalid-mid", "invalid-last", "padding", "truncated", "trailing", "invalid-first",
            "long-order-k3", "long-order-62", "order-63", "long-order-258047", "order-258048",
            "invalid-in-order", "invalid-in-long-order",
        ],
    )
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(Graph6Error) as info:
            from_graph6(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("ch", ["\x7f", "\xe9", "\u20ac"])
    def test_error_names_the_first_bad_byte(self, ch):
        with pytest.raises(Graph6Error) as info:
            from_graph6("G?" + ch + "?" + chr(200) + "?")
        assert str(info.value) == f"invalid graph6 byte {ord(ch)} (byte 2)"


def _seeded_graph(n: int, p: float, seed: int):
    rnd = random.Random(seed)
    return from_edges(
        n, [(u, v) for v in range(n) for u in range(v) if rnd.random() < p]
    )


CODEC_ORDERS = [0, 1, 2, 7, 8, 62, 63, 64, 100, 300]
CODEC_DENSITIES = [0.0, 0.3, 1.0]


@pytest.mark.parametrize("p", CODEC_DENSITIES)
@pytest.mark.parametrize("n", CODEC_ORDERS)
class TestNetworkxOracle:
    """graph6 and adjacency matrices against networkx on seeded graphs."""

    @pytest.fixture
    def pair(self, n, p):
        nx = pytest.importorskip("networkx")
        g = _seeded_graph(n, p, seed=1000 * n + int(10 * p))
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges())
        return nx, g, ref

    def test_encode_matches(self, pair):
        nx, g, ref = pair
        assert to_graph6(g) == nx.to_graph6_bytes(ref, header=False).decode().strip()

    def test_decode_matches(self, pair):
        nx, g, ref = pair
        text = nx.to_graph6_bytes(ref, header=False).decode().strip()
        h = from_graph6(text)
        back = nx.from_graph6_bytes(text.encode())
        assert h == g
        assert h.n == back.number_of_nodes()
        assert set(h.edges()) == {(min(e), max(e)) for e in back.edges()}

    def test_adjacency_matrix_matches(self, pair):
        nx, g, ref = pair
        a = g.adjacency_matrix()
        assert a.dtype == np.float64 and a.shape == (g.n, g.n)
        assert np.array_equal(a, nx.to_numpy_array(ref, nodelist=range(g.n)))


class TestOperations:
    def test_complement_of_complete_is_empty(self):
        g = complement(complete_graph(4))
        assert g.m == 0 and g.n == 4

    def test_complement_of_c5_is_c5(self):
        h = complement(cycle_graph(5))
        assert sorted(h.degree(v) for v in range(5)) == [2] * 5
        assert stats(h).connected

    def test_component_masks(self):
        g = from_edges(5, [(0, 1), (3, 4)])
        assert component_masks(g) == [0b00011, 0b00100, 0b11000]

    def test_join_builds_star(self):
        center = from_edges(1, [])
        leaves = from_edges(4, [])
        g = join(center, leaves)
        assert g.degree(0) == 4 and g.m == 4

    def test_join_edge_count(self):
        g = join(path_graph(3), cycle_graph(4))
        assert g.n == 7
        assert g.m == 2 + 4 + 3 * 4
        # h labels shifted by g.n
        assert g.has_edge(3, 4) and g.has_edge(6, 3)

    def test_kronecker_of_two_k2(self):
        g = kronecker(complete_graph(2), complete_graph(2))
        assert g.n == 4 and g.m == 2
        assert g.has_edge(0, 3) and g.has_edge(1, 2)
        assert not stats(g).connected

    @given(graphs(max_n=7), graphs(max_n=7))
    def test_kronecker_edge_count(self, a, b):
        assert kronecker(a, b).m == 2 * a.m * b.m

    def test_delete_edge(self):
        g = delete_edge(complete_graph(3), (0, 2))
        assert g.m == 2 and not g.has_edge(0, 2)
        with pytest.raises(ValueError, match="not present"):
            delete_edge(g, (0, 2))

    def test_add_leaf(self):
        g = add_leaf(complete_graph(3), 1)
        assert g.n == 4 and g.degree(3) == 1 and g.has_edge(1, 3)
        with pytest.raises(ValueError, match="out of range"):
            add_leaf(g, 9)

    def test_move_neighbors(self):
        star = star_graph(5)  # centre 0
        g = move_neighbors(star, 1, 0, [2, 3])
        assert g.degree(1) == 3 and g.degree(0) == 2
        assert g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_move_neighbors_rejects_bad_moves(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match="distinct from u and v"):
            move_neighbors(g, 0, 1, [0])
        with pytest.raises(ValueError, match="not a neighbour"):
            move_neighbors(g, 0, 1, [3])
        with pytest.raises(ValueError, match="already a neighbour"):
            move_neighbors(complete_graph(4), 0, 1, [2])
        with pytest.raises(ValueError, match="invalid vertex pair"):
            move_neighbors(g, 2, 2, [1])

    @given(graphs(max_n=10), st.data())
    def test_move_neighbors_is_reversible(self, g, data):
        pairs = [
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and (g.rows[v] & ~g.rows[u] & ~(1 << u) & ~(1 << v))
        ]
        if not pairs:
            return
        u, v = data.draw(st.sampled_from(pairs))
        legal = [
            w
            for w in range(g.n)
            if w not in (u, v) and g.has_edge(v, w) and not g.has_edge(u, w)
        ]
        w_set = data.draw(st.sets(st.sampled_from(legal), min_size=1))
        moved = move_neighbors(g, u, v, w_set)
        assert move_neighbors(moved, v, u, w_set) == g

    def test_induced_subgraph_relabels_ascending(self):
        g = from_edges(5, [(1, 3), (3, 4), (1, 4), (0, 2)])
        h = induced_subgraph(g, {4, 1, 3})
        # new labels: 0->1, 1->3, 2->4
        assert h.n == 3 and h.m == 3
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(g, {1, 7})

    @given(graphs(max_n=12), st.randoms(use_true_random=False))
    def test_induced_subgraph_keeps_exactly_the_inside_edges(self, g, rnd):
        keep = sorted(rnd.sample(range(g.n), rnd.randint(0, g.n)))
        h = induced_subgraph(g, keep)
        assert set(h.edges()) == {
            (i, j) for j, v in enumerate(keep) for i, u in enumerate(keep[:j]) if g.has_edge(u, v)
        }
        assert graphs_module._inside_edges(g, sum(1 << v for v in keep)) == h.m

    def test_relabel_maps_new_to_old(self):
        g = path_graph(4)  # edges 01 12 23
        h = relabel(g, (3, 2, 1, 0))
        assert h == path_graph(4)
        h = relabel(g, (1, 0, 2, 3))
        assert h.has_edge(0, 2) and h.has_edge(0, 1) and h.has_edge(2, 3)

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 5], [-1, 0, 1]])
    def test_relabel_rejects_a_non_permutation(self, perm):
        with pytest.raises(ValueError, match=r"permutation of range\(3\)"):
            relabel(path_graph(3), perm)

    @given(graphs(max_n=10), st.randoms(use_true_random=False))
    def test_relabel_preserves_degree_multiset(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        assert sorted(h.rows[i].bit_count() for i in range(g.n)) == sorted(
            g.rows[i].bit_count() for i in range(g.n)
        )
        assert h.m == g.m


class TestStats:
    def test_path_stats(self):
        st_ = stats(path_graph(4))
        assert st_.connected and st_.bipartite
        assert st_.m == 3 and st_.max_degree == 2
        assert st_.avg_degree == pytest.approx(1.5)
        c = st_.bipartition
        assert c is not None and all(c[u] != c[v] for u, v in path_graph(4).edges())

    def test_odd_cycle_not_bipartite(self):
        st_ = stats(cycle_graph(5))
        assert not st_.bipartite and st_.bipartition is None

    def test_disconnected(self):
        assert not stats(from_edges(4, [(0, 1)])).connected

    def test_empty_graph(self):
        st_ = stats(from_edges(0, []))
        assert st_.connected and st_.bipartite and st_.avg_degree == 0.0

    def test_matches_networkx_on_seeded_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 60)
            p = rng.choice([0.5 / n, 1.5 / n, 0.1, 0.4])
            if rng.random() < 0.3:  # cacti keep many bipartite graphs in the sample
                g = _shuffled(rng, n, _random_cactus_edges(rng, n))
            else:
                g = _seeded_graph(n, p, seed=rng.randrange(1 << 30))
            ref = nx.Graph(list(g.edges()))
            ref.add_nodes_from(range(g.n))
            st_ = stats(g)
            assert (st_.m, st_.max_degree) == (ref.number_of_edges(), max(d for _, d in ref.degree))
            assert st_.connected == nx.is_connected(ref)
            assert st_.bipartite == nx.is_bipartite(ref)
            if st_.bipartite:  # colour = parity of the distance from the component's least vertex
                color = [0] * n
                for comp in nx.connected_components(ref):
                    for v, d in nx.single_source_shortest_path_length(ref, min(comp)).items():
                        color[v] = d % 2
                assert st_.bipartition == tuple(color)
            else:
                assert st_.bipartition is None

    @pytest.mark.parametrize("n", [15, 16, 17, 40, 70])
    def test_stats_and_components_match_networkx_across_the_table_boundary(self, n):
        # rows of vertices 16 and up are wider than the byte tables
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        tree = _shuffled(rng, n, [(v, rng.randrange(v)) for v in range(1, n)])
        samples = [_seeded_graph(n, p, seed=100 * n + i) for i, p in enumerate([0.6 / n, 1.2 / n, 2.5 / n, 0.3])]
        for g in [tree, *samples]:
            ref = nx.Graph(list(g.edges()))
            ref.add_nodes_from(range(n))
            st_ = stats(g)
            assert (st_.m, st_.max_degree) == (ref.number_of_edges(), max(d for _, d in ref.degree))
            assert (st_.connected, st_.bipartite) == (nx.is_connected(ref), nx.is_bipartite(ref))
            comps = [sum(1 << v for v in c) for c in nx.connected_components(ref)]
            assert component_masks(g) == sorted(comps, key=lambda c: c & -c)  # by least vertex


class TestCactus:
    def test_cycle_is_cactus(self):
        prof = cactus_profile(cycle_graph(5))
        assert prof.is_cactus
        assert prof.cycles == ((0, 1, 2, 3, 4),)
        assert prof.odd_count == 1 and prof.even_count == 0

    def test_tree_is_cactus_without_cycles(self):
        prof = cactus_profile(path_graph(6))
        assert prof.is_cactus and prof.cycles == ()

    def test_two_triangles_sharing_a_vertex(self):
        g = from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        prof = cactus_profile(g)
        assert prof.is_cactus and prof.odd_count == 2

    def test_chorded_cycle_is_not_cactus(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        prof = cactus_profile(g)
        assert not prof.is_cactus and prof.cycles == ()

    def test_complete_graph_is_not_cactus(self):
        assert not cactus_profile(complete_graph(4)).is_cactus

    def test_disconnected_raises(self):
        with pytest.raises(ValueError, match="connected"):
            cactus_profile(from_edges(3, [(0, 1)]))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="connected"):
            cactus_profile(from_edges(0, []))

    def test_edge_count_skips_the_cycle_search(self, monkeypatch):
        calls = []
        real = graphs_module._fundamental_cycles
        monkeypatch.setattr(
            graphs_module, "_fundamental_cycles", lambda g, layers: calls.append(g) or real(g, layers)
        )
        assert cactus_profile(complete_graph(4)) == CactusProfile(False, (), 0, 0)
        assert calls == []
        assert cactus_profile(cycle_graph(4)).is_cactus and len(calls) == 1

    def test_cycles_sharing_one_tree_edge(self):
        # two triangles on the edge (0, 1): within the edge-count gate, not a cactus
        g = from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (3, 4)])
        assert g.m <= 3 * (g.n - 1) // 2
        assert cactus_profile(g) == CactusProfile(False, (), 0, 0)

    def test_matches_networkx_blocks_up_to_order_7(self, connected_by_order):
        nx = pytest.importorskip("networkx")
        corpus = [g for n in sorted(connected_by_order) for g in connected_by_order[n]]
        assert len(corpus) == 996
        assert any(g.m > 3 * (g.n - 1) // 2 for g in corpus)
        for g in corpus:
            assert cactus_profile(g) == _networkx_cactus_profile(nx, g)

    def test_matches_networkx_on_seeded_larger_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8)
        for _ in range(150):
            n = rng.randint(8, 60)
            cactus = _shuffled(rng, n, _random_cactus_edges(rng, n))
            assert cactus_profile(cactus) == _networkx_cactus_profile(nx, cactus)
            assert cactus_profile(cactus).is_cactus
            # a spanning tree plus at most (n - 1) // 2 edges passes the edge-count gate
            extra = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, (n - 1) // 2))]
            sparse = _shuffled(rng, n, [(v, rng.randrange(v)) for v in range(1, n)] + extra)
            assert sparse.m <= 3 * (n - 1) // 2
            assert cactus_profile(sparse) == _networkx_cactus_profile(nx, sparse)

    def test_mixed_parity_cycles(self):
        # triangle and square hanging off a shared path vertex
        g = from_edges(
            8,
            [
                (0, 1), (1, 2), (2, 0),
                (2, 3),
                (3, 4), (4, 5), (5, 6), (6, 3),
                (3, 7),
            ],
        )
        prof = cactus_profile(g)
        assert prof.is_cactus
        assert prof.odd_count == 1 and prof.even_count == 1
        assert (3, 4, 5, 6) in prof.cycles


def _random_cactus_edges(rng, n):
    """Edges of a random cactus on 0..n-1: pendant edges and cycles of length 3-12."""
    edges, grown = [], 1
    while grown < n:
        at = rng.randrange(grown)
        k = rng.randint(2, min(n - grown + 1, 12))
        ring = [at, *range(grown, grown + k - 1)]
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k if k > 2 else 1)]
        grown += k - 1
    return edges


def _shuffled(rng, n, edges):
    """The graph on these edges under a random relabelling, duplicates merged."""
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _networkx_cactus_profile(nx, g):
    """Cactus profile from networkx's biconnected components."""
    ref = nx.Graph(list(g.edges()))
    ref.add_nodes_from(range(g.n))
    cycles = []
    for block in nx.biconnected_component_edges(ref):
        if len(block) == 1:
            continue
        cyc = ref.edge_subgraph(block)
        if cyc.number_of_edges() != cyc.number_of_nodes():  # not a simple cycle
            return CactusProfile(False, (), 0, 0)
        start = min(cyc)
        walk, prev, cur = [start], start, min(cyc[start])
        while cur != start:
            walk.append(cur)
            prev, cur = cur, next(w for w in cyc[cur] if w != prev)
        cycles.append(tuple(walk))
    cycles.sort(key=lambda c: (len(c), c))
    odd = sum(len(c) % 2 for c in cycles)
    return CactusProfile(True, tuple(cycles), odd, len(cycles) - odd)
