"""Partitions, quotient matrices, refinement, twins, and two-block cuts."""

from __future__ import annotations

import math

import numpy as np
import pytest
from _strategies import graphs
from hypothesis import given
from hypothesis import strategies as st

import sqenergy.graphs as graphs_module
from sqenergy.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    u_n3_graph,
)
from sqenergy.graphs import from_edges, relabel
from sqenergy.lemmas import edge_cut_quotient, find_twins, twin_quotient_spectrum
from sqenergy.partitions import (
    Partition,
    QuotientMatrix,
    coarsest_equitable_refinement,
    parse_partition,
    quotient_eigenvalues,
    quotient_matrix,
)
from sqenergy.spectral import eigenvalues, graph_profile


class TestPartition:
    def test_of_sorts_blocks(self):
        p = Partition.of([[2, 0], [1]])
        assert p.blocks == ((0, 2), (1,))
        assert p.n == 3 and len(p.blocks) == 2

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty partition block"):
            Partition.of([[0], []])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="^vertex 1 appears in two blocks$"):
            Partition.of([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="^vertex 0 appears twice in block 0$"):
            Partition.of([[0, 0], [1, 2]])

    def test_rejects_gaps(self):
        with pytest.raises(ValueError, match="cover 0..n-1"):
            Partition.of([[0, 2]])

    def test_parse(self):
        p = parse_partition("0,1;2;3,4,5")
        assert p.blocks == ((0, 1), (2,), (3, 4, 5))
        with pytest.raises(ValueError, match="unparseable"):
            parse_partition("0,x;1")

    def test_parse_blank_is_the_partition_of_no_blocks(self):
        assert parse_partition("") == parse_partition(" ") == Partition(())
        assert parse_partition("").n == 0
        with pytest.raises(ValueError, match="empty partition block"):
            parse_partition("0;1,2;")


class TestQuotientMatrix:
    def test_star_quotient(self):
        q = quotient_matrix(star_graph(5), Partition.of([[0], [1, 2, 3, 4]]))
        assert q.equitable
        assert np.array_equal(q.entries, [[0.0, 4.0], [1.0, 0.0]])
        assert q.incidence == ((0, 4), (4, 0))
        spec = quotient_eigenvalues(q)
        assert spec.values == pytest.approx((2.0, -2.0), abs=1e-12)

    def test_non_equitable_detected(self):
        q = quotient_matrix(path_graph(3), Partition.of([[0, 1, 2]]))
        assert not q.equitable
        assert q.entries[0, 0] == pytest.approx(4.0 / 3.0)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="partition covers"):
            quotient_matrix(path_graph(3), Partition.of([[0, 1]]))

    def test_refuses_more_blocks_than_the_dense_cap(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "DENSE_ORDER_CAP", 4)
        four = Partition.of([[0, 1], [2], [3], [4]])
        assert quotient_matrix(path_graph(5), four).entries.shape == (4, 4)
        with pytest.raises(
            ValueError, match="partition of 5 blocks exceeds the dense matrix cap of 4 blocks"
        ):
            quotient_matrix(path_graph(5), Partition.of([[v] for v in range(5)]))

    def test_imaginary_budget_is_enforced(self):
        rotation = QuotientMatrix(
            entries=np.array([[0.0, -1.0], [1.0, 0.0]]),
            incidence=((0, 0), (0, 0)),
            partition=Partition.of([[0], [1]]),
            equitable=False,
        )
        with pytest.raises(ArithmeticError, match="not numerically real"):
            quotient_eigenvalues(rotation)

    @given(graphs(max_n=9), st.data())
    def test_quotient_interlaces_dense(self, g, data):
        if g.n < 2:
            return
        # random partition: assign each vertex one of up to 3 colours
        colors = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2), min_size=g.n, max_size=g.n
            )
        )
        blocks: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            blocks.setdefault(c, []).append(v)
        part = Partition.of(blocks.values())
        mu = quotient_eigenvalues(quotient_matrix(g, part)).values
        lam = eigenvalues(g).values
        p, n = len(mu), g.n
        for i in range(p):
            assert lam[i] >= mu[i] - 1e-8
            assert mu[i] >= lam[n - p + i] - 1e-8


class TestRefinement:
    def test_path4_orbits(self):
        part = coarsest_equitable_refinement(
            path_graph(4), Partition.of([range(4)])
        )
        assert part.blocks == ((0, 3), (1, 2))
        # an unsorted seed block gives the same blocks, each ascending
        part = coarsest_equitable_refinement(path_graph(4), Partition(((3, 2, 1, 0),)))
        assert part.blocks == ((0, 3), (1, 2))

    def test_regular_graph_stays_whole(self):
        part = coarsest_equitable_refinement(
            cycle_graph(6), Partition.of([range(6)])
        )
        assert part.blocks == ((0, 1, 2, 3, 4, 5),)

    def test_result_is_equitable_and_refines_seed(self):
        g = u_n3_graph(7)
        seed = Partition.of([range(7)])
        part = coarsest_equitable_refinement(g, seed)
        assert quotient_matrix(g, part).equitable
        # hub, triangle pair, pendant leaves
        assert part.blocks == ((0,), (1, 2), (3, 4, 5, 6))

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="partition covers 2 vertices, graph has 3"):
            coarsest_equitable_refinement(path_graph(3), Partition.of([[0, 1]]))

    def test_respects_seed_blocks(self):
        g = cycle_graph(6)
        part = coarsest_equitable_refinement(g, Partition.of([[0], range(1, 6)]))
        # distance classes from vertex 0
        assert part.blocks == ((0,), (3,), (1, 5), (2, 4))

    @given(graphs(max_n=9), st.randoms(use_true_random=False))
    def test_seed_order_does_not_change_the_result(self, g, rnd):
        blocks = [[] for _ in range(rnd.randint(1, 3))]
        for v in range(g.n):
            rnd.choice(blocks).append(v)
        blocks = [b for b in blocks if b]
        sorted_part = coarsest_equitable_refinement(g, Partition.of(blocks))
        for b in blocks:
            rnd.shuffle(b)
        rnd.shuffle(blocks)
        part = coarsest_equitable_refinement(g, Partition(tuple(map(tuple, blocks))))
        assert part == sorted_part
        assert all(list(b) == sorted(b) for b in part.blocks)

    @given(graphs(max_n=9), st.randoms(use_true_random=False))
    def test_commutes_with_relabelling(self, g, rnd):
        if g.n < 2:
            return
        part = coarsest_equitable_refinement(g, Partition.of([range(g.n)]))
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        hpart = coarsest_equitable_refinement(h, Partition.of([range(g.n)]))
        inv = {v: i for i, v in enumerate(perm)}
        mapped = {tuple(sorted(inv[v] for v in b)) for b in part.blocks}
        assert mapped == set(hpart.blocks)


class TestTwins:
    def test_star_leaves_are_independent_twins(self):
        tw = find_twins(star_graph(5))
        assert len(tw) == 1
        assert tw[0].vertices == (1, 2, 3, 4)
        assert tw[0].kind == "independent" and tw[0].alpha == 0.0

    def test_clique_is_one_adjacent_class(self):
        tw = find_twins(complete_graph(4))
        assert len(tw) == 1
        assert tw[0].vertices == (0, 1, 2, 3)
        assert tw[0].kind == "adjacent" and tw[0].alpha == -1.0

    def test_cycle_has_no_twins(self):
        assert find_twins(cycle_graph(5)) == []

    def test_triangle_with_pendants(self):
        tw = find_twins(u_n3_graph(5))
        kinds = {t.vertices: t.kind for t in tw}
        assert kinds == {(1, 2): "adjacent", (3, 4): "independent"}

    def test_small_order_raises(self):
        with pytest.raises(ValueError, match="order >= 3"):
            find_twins(path_graph(2))

    def test_twin_quotient_matches_dense(self):
        g = u_n3_graph(6)
        part = Partition.of([[0], [1, 2], [3, 4, 5]])
        got = sorted(twin_quotient_spectrum(g, part).values)
        want = sorted(eigenvalues(g).values)
        assert got == pytest.approx(want, abs=1e-9)

    def test_twin_quotient_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        part = Partition.of([[0, 1], [2, 3, 4]])
        got = sorted(twin_quotient_spectrum(g, part).values)
        root = math.sqrt(6)
        assert got == pytest.approx([-root, 0.0, 0.0, 0.0, root], abs=1e-9)

    def test_twin_quotient_order_mismatch(self):
        with pytest.raises(ValueError, match="partition covers 4 vertices, graph has 5"):
            twin_quotient_spectrum(star_graph(5), Partition.of([[0], [1, 2, 3]]))

    def test_non_twin_block_rejected(self):
        with pytest.raises(ValueError, match="not a twin class"):
            twin_quotient_spectrum(path_graph(4), Partition.of([[0, 1], [2], [3]]))


class TestEdgeCut:
    def test_complete_graph_clique_cut_is_tight(self):
        rec = edge_cut_quotient(complete_graph(4), [0, 1])
        assert rec.determinant_sign == -1
        assert rec.lambda_plus == pytest.approx(3.0, abs=1e-12)
        assert rec.lambda_minus == pytest.approx(-1.0, abs=1e-12)
        assert rec.s_plus_lower == pytest.approx(9.0, abs=1e-9)
        assert rec.s_minus_lower == pytest.approx(1.0, abs=1e-9)

    def test_star_hub_cut(self):
        rec = edge_cut_quotient(star_graph(5), [0])
        assert rec.c == 4 and rec.d1 == 0.0 and rec.d2 == 0.0
        assert rec.s_plus_lower == pytest.approx(4.0, abs=1e-9)
        assert rec.s_minus_lower == pytest.approx(4.0, abs=1e-9)

    def test_zero_determinant_uses_trace_form(self):
        # C4 split into opposite edges: 4 e1 e2 == c^2
        rec = edge_cut_quotient(cycle_graph(4), [0, 1])
        assert rec.determinant_sign == 0
        assert rec.s_minus_lower is None
        assert rec.s_plus_lower == pytest.approx(4.0, abs=1e-9)

    def test_positive_determinant(self):
        g = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
        rec = edge_cut_quotient(g, [0, 1, 2])
        assert rec.determinant_sign == 1
        assert rec.s_minus_lower is None
        assert graph_profile(g).s_plus >= rec.s_plus_lower - 1e-9

    def test_pendant_vertex_cut_bound(self):
        for n in range(4, 9):
            g = u_n3_graph(n)
            rec = edge_cut_quotient(g, [0])
            prof = graph_profile(g)
            assert prof.s_plus >= rec.s_plus_lower - 1e-9
            assert rec.s_minus_lower is not None
            assert prof.s_minus >= rec.s_minus_lower - 1e-9

    def test_rejects_improper_sides(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="proper non-empty"):
            edge_cut_quotient(g, [])
        with pytest.raises(ValueError, match="proper non-empty"):
            edge_cut_quotient(g, [0, 1, 2])
        with pytest.raises(ValueError, match="out of range"):
            edge_cut_quotient(g, [5])
        # three vertices on n = 3 would also fail the size test: the range is named
        with pytest.raises(ValueError, match=r"^cut side \[0, 1, 5\] out of range for n=3$"):
            edge_cut_quotient(g, [0, 1, 5])
