"""Certificate rules and interlacing-style lower bounds."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given

from _strategies import graphs
from conftest import random_connected
from test_graphs import _seeded_graph
import sqenergy.bounds as bounds_module
import sqenergy.graphs as graphs_module
import sqenergy.spectral as spectral_module
from sqenergy.bounds import (
    CERTIFY_RULES,
    CONCLUSIVE_TOL,
    BoundCertificate,
    GraphFacts,
    certify,
    check_avg_degree,
    check_join,
    check_kronecker,
    check_self_join,
    check_spanning_structures,
    edge_deletion_bound,
    energy_count_bound,
    extended_barbell_closed_form,
    h3n_quotient_analysis,
    induced_bipartite_bound,
    induced_subgraph_bound,
    m0_threshold,
    majorization_two_positive,
    max_clique,
    moving_neighbors_bound,
    quotient_bound,
    rank_bound,
    unicyclic_fractional_bound,
)
from sqenergy.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    extended_barbell_graph,
    h_kn_graph,
    path_graph,
    star_graph,
)
from sqenergy.graphs import (
    Graph,
    add_leaf,
    cactus_profile,
    complement,
    component_masks,
    from_edges,
    from_graph6,
    join,
    kronecker,
    move_neighbors,
    stats,
    to_graph6,
)
from sqenergy.partitions import parse_partition
from sqenergy.spectral import Inertia, Spectrum, eigenvalues, graph_profile


def two_triangles() -> Graph:
    return from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def perfect_matching(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(0, n, 2)])


class TestAvgDegree:
    def test_complete_graph_fires(self):
        cert = check_avg_degree(complete_graph(4))
        assert cert is not None and cert.rule == "avg_degree"
        assert cert.target == "s_plus" and cert.conclusive
        assert cert.bound_value == pytest.approx(9.0)

    def test_sparse_graph_does_not_fire(self):
        assert check_avg_degree(path_graph(4)) is None

    def test_firing_test_is_exact_at_the_margin(self):
        # C_4: 4 m^2 = 256 > n^2 (n - 1) = 48, dbar = 2, bound 4 > n - 1
        cert = check_avg_degree(cycle_graph(4))
        assert cert is not None and cert.bound_value == pytest.approx(4.0)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            check_avg_degree(two_triangles())


class TestMaxClique:
    def test_exact_small_cases(self):
        assert len(max_clique(complete_graph(5))) == 5
        assert len(max_clique(cycle_graph(5))) == 2
        assert len(max_clique(complete_bipartite_graph(3, 3))) == 2

    def test_clique_edges_all_present(self):
        g = from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (2, 4)])
        clique = max_clique(g)
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert g.has_edge(u, v)

    def test_greedy_fallback_beyond_cap(self):
        g = complete_graph(14)
        clique = max_clique(g)
        assert len(clique) == 14

    @given(graphs(max_n=8))
    def test_returns_a_clique(self, g):
        clique = max_clique(g)
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert g.has_edge(u, v)

    # sha256 of "graph6 clique" lines, sorted, for the returned clique itself
    # (not only its size): a pivot that breaks ties differently returns
    # another clique of the same size on some of these graphs
    CLIQUE_SHA256 = {
        "connected8": "29f54b76184e29969a67e8f21f2cbf0a8a3854f8c56020732416e317f8163b97",
        "connected_upto7": "5288e197d84ef7c70dd0c9fccc2d739a2883488d34862aafaa2c31e6c57c321f",
        "gnp_9_to_12": "2ef9a054e9a317247f4b341fc222cb91ff03673732fa7a07f29079f9c054ea6e",
        "greedy_13_to_20": "304e535e518be855c663aba6640d6e8d78ee485b5b91dba8850758ae2bad0354",
    }

    @staticmethod
    def clique_digest(graphs) -> str:
        lines = sorted(f"{to_graph6(g)} {','.join(map(str, max_clique(g)))}\n" for g in graphs)
        return hashlib.sha256("".join(lines).encode()).hexdigest()

    @staticmethod
    def seeded(orders, densities=(0.3, 0.5, 0.7, 0.9), per=12):
        rng = random.Random(20)
        return [random_connected(rng, n, p) for n in orders for p in densities for _ in range(per)]

    def test_clique_pinned_on_connected8(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "connected8.g6"
        corpus = [from_graph6(line) for line in path.read_text().split()]
        assert self.clique_digest(corpus) == self.CLIQUE_SHA256["connected8"]

    def test_clique_pinned_on_connected_upto7(self, connected_by_order):
        every = [g for gs in connected_by_order.values() for g in gs]
        assert self.clique_digest(every) == self.CLIQUE_SHA256["connected_upto7"]

    def test_clique_pinned_on_seeded_exact_orders(self):
        assert self.clique_digest(self.seeded(range(9, 13))) == self.CLIQUE_SHA256["gnp_9_to_12"]

    def test_clique_pinned_on_greedy_orders(self):
        assert self.clique_digest(self.seeded(range(13, 21), per=3)) == self.CLIQUE_SHA256["greedy_13_to_20"]

    def test_exact_size_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in self.seeded(range(2, 13), per=4):
            ref = nx.Graph(list(g.edges()))
            assert len(max_clique(g)) == max(len(c) for c in nx.find_cliques(ref))


class TestSpanningStructures:
    def test_dominating_vertex(self):
        # a dominating vertex is the spanning K_{1, n-1}: no rule of its own
        certs = {c.rule: c for c in check_spanning_structures(star_graph(6))}
        assert "dominating_vertex" not in certs
        cert = certs["complete_bipartite_span"]
        assert cert.bound_value == pytest.approx(5.0) and cert.conclusive
        assert cert.witness == {"side": [1, 2, 3, 4, 5], "r": 5}

    def test_spanning_complete_bipartite(self):
        certs = {c.rule: c for c in check_spanning_structures(complete_bipartite_graph(3, 3))}
        cert = certs["complete_bipartite_span"]
        assert cert.bound_value == pytest.approx(9.0) and cert.conclusive
        assert cert.witness["r"] == 3

    def test_clique_certificate(self):
        certs = {c.rule: c for c in check_spanning_structures(complete_graph(5))}
        cert = certs["clique"]
        assert cert.bound_value == pytest.approx(16.0) and cert.conclusive

    def test_sparse_graph_yields_nothing(self):
        assert check_spanning_structures(path_graph(6)) == []


class TestJoin:
    def test_detected_from_complement(self):
        cert = check_join(complete_bipartite_graph(2, 3))
        assert cert is not None and cert.bound_value == pytest.approx(4.0) and cert.conclusive

    def test_explicit_split_validated(self):
        g = complete_bipartite_graph(2, 3)
        cert = check_join(g, split=([0, 1], [2, 3, 4]))
        assert cert is not None
        with pytest.raises(ValueError, match="cross edge"):
            check_join(path_graph(4), split=([0, 1], [2, 3]))
        with pytest.raises(ValueError, match="partition the vertex set"):
            check_join(g, split=([0], [2, 3, 4]))

    @pytest.mark.parametrize("split", [([], range(5)), (range(5), ())], ids=["a-empty", "b-empty"])
    def test_empty_side_raises(self, split):
        with pytest.raises(ValueError, match="join split sides must be non-empty"):
            check_join(complete_bipartite_graph(2, 3), split=split)

    def test_non_join_returns_none(self):
        assert check_join(path_graph(5)) is None


class TestSelfJoin:
    def test_balanced_empty_halves(self):
        g = complete_bipartite_graph(8, 8)
        cert = check_self_join(g)
        assert cert is not None and cert.target == "both"
        assert cert.bound_value == pytest.approx(15.0) and cert.conclusive
        assert cert.witness["half_order"] == 8

    def test_small_half_order_rejected(self):
        assert check_self_join(complete_bipartite_graph(4, 4)) is None

    def test_dense_halves_rejected(self):
        # the complement is 8 disjoint edges; any half of 4 of them keeps
        # 28 - 4 = 24 inside edges, average inside degree 6 > r/2
        dense = complement(perfect_matching(8))
        assert len(component_masks(complement(join(dense, dense)))) == 8
        assert check_self_join(join(dense, dense)) is None

    def test_unequal_halves_rejected(self):
        # the only balanced split puts the 8 isolated vertices on one side:
        # 0 inside edges there, 24 on the other
        g = join(complement(perfect_matching(8)), from_edges(8, []))
        assert check_self_join(g) is None
        assert check_self_join(g, split=(range(8), range(8, 16))) is None

    def test_more_than_12_complement_components_are_not_searched(self, monkeypatch):
        # K16 has 16 complement components; the cap keeps the search to 2^11 masks
        def no_count(g, mask):
            raise AssertionError("a candidate half was counted")

        monkeypatch.setattr(bounds_module, "_inside_edges", no_count)
        assert check_self_join(complete_graph(16)) is None

    def test_sparse_equal_halves_fire(self):
        g = join(perfect_matching(8), perfect_matching(8))
        cert = check_self_join(g)
        assert cert is not None and cert.target == "both" and cert.conclusive
        assert cert.witness == {"side": list(range(8, 16)), "half_order": 8, "avg_degree": 1.0}
        assert cert.bound_value == 15.0  # min(n - 1, (r - d)^2) = min(15, 49)

    def test_explicit_bad_split_raises(self):
        from sqenergy.graphs import delete_edge

        g = delete_edge(complete_bipartite_graph(8, 8), (0, 8))
        with pytest.raises(ValueError, match="cross edge"):
            check_self_join(g, split=(list(range(8)), list(range(8, 16))))

    @pytest.mark.parametrize(
        "split",
        [(range(8), range(8)), ([0, 1, 2, 3, 4, 5, 6, 7, 7], range(8, 16))],
        ids=["overlapping", "vertex-twice"],
    )
    def test_split_that_is_not_a_partition_raises(self, split):
        with pytest.raises(ValueError, match="join split must partition the vertex set"):
            check_self_join(complete_graph(16), split=split)

    def test_unbalanced_explicit_split_inapplicable(self):
        g = complete_bipartite_graph(8, 8)
        assert check_self_join(g, split=(list(range(7)), list(range(7, 16)))) is None


class TestKronecker:
    def test_product_of_triangles(self):
        a = complete_graph(3)
        g = kronecker(a, a)
        cert = check_kronecker(g, (a, a))
        assert cert is not None and cert.target == "both"
        assert cert.bound_value == pytest.approx(8.0) and cert.conclusive

    def test_small_factor_returns_none(self):
        a, b = complete_graph(2), complete_graph(3)
        assert check_kronecker(kronecker(a, b), (a, b)) is None

    def test_mismatched_factors_raise(self):
        a = complete_graph(3)
        with pytest.raises(ValueError, match="factors"):
            check_kronecker(kronecker(a, a), (a, path_graph(3)))

    def test_factor_below_floor_returns_none(self):
        # a graph with no edges has both energies 0 < n - 1
        empty = from_edges(3, [])
        a = complete_graph(3)
        assert check_kronecker(kronecker(empty, a), (empty, a)) is None


class TestEdgeDeletion:
    def test_bound_is_sound_on_cycle(self):
        g = cycle_graph(5)
        rec = edge_deletion_bound(g, (0, 1))
        assert rec is not None
        prof = graph_profile(g)
        assert rec.s_plus_lower <= prof.s_plus + 1e-8
        assert rec.s_minus_lower <= prof.s_minus + 1e-8

    def test_inapplicable_when_inertia_too_small(self):
        # star minus an edge leaves a smaller star: one positive eigenvalue
        assert edge_deletion_bound(star_graph(5), (0, 1)) is None

    def test_reports_the_deleted_spectrum_slots(self):
        rec = edge_deletion_bound(cycle_graph(6), (0, 1))
        assert rec is not None
        spec = eigenvalues(path_graph(6))
        assert rec.theta_2 == pytest.approx(spec.values[1])
        assert rec.theta_n == pytest.approx(spec.values[-1])


class TestMovingNeighbors:
    def test_whole_neighbourhood_move(self):
        # path 0-1-2-3: move N(3) = {2} over to 0
        g = path_graph(4)
        rec = moving_neighbors_bound(g, 0, 3, [2])
        assert rec.strong_condition == "whole_neighbourhood_disjoint"
        moved = move_neighbors(g, 0, 3, [2])
        prof = graph_profile(moved)
        assert rec.s_plus_lower_weak <= prof.s_plus + 1e-8
        assert rec.s_plus_lower_strong <= prof.s_plus + 1e-8
        assert rec.s_minus_lower <= prof.s_minus + 1e-8

    def test_perron_weight_condition(self):
        # star centre has the dominant Perron weight
        g = from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        rec = moving_neighbors_bound(g, 0, 4, [5])
        assert rec.strong_condition == "perron_weight"
        moved = move_neighbors(g, 0, 4, [5])
        prof = graph_profile(moved)
        assert rec.s_plus_lower_strong <= prof.s_plus + 1e-8

    def test_validation_errors(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="distinct"):
            moving_neighbors_bound(g, 0, 3, [0])
        with pytest.raises(ValueError, match="not a neighbour"):
            moving_neighbors_bound(g, 0, 3, [1])
        with pytest.raises(ValueError, match="already a neighbour"):
            moving_neighbors_bound(g, 1, 3, [2])

    def test_empty_move_with_equal_pair_rejected(self):
        with pytest.raises(ValueError, match="invalid vertex pair"):
            moving_neighbors_bound(path_graph(4), 1, 1, [])

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError, match="invalid vertex pair"):
            moving_neighbors_bound(path_graph(4), 9, 1, [2])

    @given(graphs(max_n=8))
    def test_weak_bound_sound_for_single_moves(self, g):
        if g.m == 0:
            return
        for v in range(g.n):
            for u in range(g.n):
                if u == v:
                    continue
                ws = [w for w in range(g.n) if w not in (u, v)
                      and g.has_edge(v, w) and not g.has_edge(u, w)]
                if not ws:
                    continue
                rec = moving_neighbors_bound(g, u, v, ws[:1])
                prof = graph_profile(move_neighbors(g, u, v, ws[:1]))
                assert rec.s_plus_lower_weak <= prof.s_plus + 1e-8
                assert rec.s_minus_lower <= prof.s_minus + 1e-8
                return


class TestSubgraphAndQuotient:
    def test_induced_bound_on_complete_graph(self):
        pb = induced_subgraph_bound(complete_graph(5), [0, 1, 2])
        prof = graph_profile(complete_graph(5))
        assert pb.s_plus_lower == pytest.approx(4.0)
        assert pb.s_plus_lower <= prof.s_plus and pb.s_minus_lower <= prof.s_minus

    def test_quotient_bound_exact_on_star(self):
        g = star_graph(5)
        pb = quotient_bound(g, parse_partition("0;1,2,3,4"))
        assert pb.s_plus_lower == pytest.approx(4.0)
        assert pb.s_minus_lower == pytest.approx(4.0)
        # one block: the 1x1 quotient has no negative eigenvalue
        pb = quotient_bound(g, parse_partition("0,1,2,3,4"))
        assert pb.s_plus_lower == pytest.approx(64 / 25)
        assert pb.s_minus_lower == 0.0 and isinstance(pb.s_minus_lower, float)


class TestInducedBipartite:
    def test_bipartite_graph_uses_all_edges(self):
        cert = induced_bipartite_bound(complete_bipartite_graph(2, 3))
        assert cert is not None and cert.witness["deleted"] == []
        assert cert.bound_value == pytest.approx(6.0) and cert.conclusive

    def test_cactus_greedy_deletion(self):
        cert = induced_bipartite_bound(cycle_graph(5))
        assert cert is not None and len(cert.witness["deleted"]) == 1
        assert cert.bound_value == pytest.approx(3.0)

    def test_explicit_deletions_checked(self):
        g = cycle_graph(5)
        cert = induced_bipartite_bound(g, deletions=[0])
        assert cert is not None and cert.bound_value == pytest.approx(3.0)
        with pytest.raises(ValueError, match="bipartite"):
            induced_bipartite_bound(complete_graph(4), deletions=[0])

    @pytest.mark.parametrize("deletions", [[7], [-1]])
    def test_deletions_outside_the_vertex_set_rejected(self, deletions):
        with pytest.raises(ValueError, match=r"vertex set \[-?\d\] out of range for n=4"):
            induced_bipartite_bound(path_graph(4), deletions=deletions)

    def test_non_cactus_non_bipartite_inapplicable(self):
        assert induced_bipartite_bound(complete_graph(4)) is None

    def test_disconnected_non_bipartite_inapplicable(self):
        assert induced_bipartite_bound(two_triangles()) is None

    def test_greedy_deletes_the_smallest_vertex_on_most_odd_cycles(self):
        # triangles 012 and 234 share vertex 2; triangle 567 hangs off 4-5
        g = from_edges(8, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5),
                           (5, 6), (5, 7), (6, 7)])
        cert = induced_bipartite_bound(g)
        assert cert is not None and cert.witness["deleted"] == [2, 5]
        assert cert.witness["remaining_edges"] == 3

    def test_coarse_estimate_recorded(self):
        cert = induced_bipartite_bound(cycle_graph(5))
        assert cert is not None
        assert cert.witness["coarse_bound"] == 5 - 1 * 2


class TestUnicyclicFractional:
    def test_five_cycle(self):
        cert = unicyclic_fractional_bound(cycle_graph(5))
        assert cert is not None and cert.witness["m"] == 2
        assert cert.witness["base_bound"] == pytest.approx(4.0)
        cos = math.cos(math.pi / 5)
        assert cert.witness["sharp_bound"] == pytest.approx(10 * cos / (1 + cos))
        assert cert.conclusive and cert.bound_value == pytest.approx(cert.witness["sharp_bound"])

    def test_bound_is_sound(self):
        g = add_leaf(cycle_graph(7), 0)
        cert = unicyclic_fractional_bound(g)
        assert cert is not None
        prof = graph_profile(g)
        assert cert.bound_value <= min(prof.s_plus, prof.s_minus) + 1e-8

    def test_short_cycle_below_threshold_keeps_base(self):
        # pentagon with a long tail: m = 2 < m0(12), so the base form stays
        g = cycle_graph(5)
        for _ in range(7):
            g = add_leaf(g, g.n - 1)
        cert = unicyclic_fractional_bound(g)
        assert cert is not None and not cert.conclusive
        assert cert.bound_value == pytest.approx(cert.witness["base_bound"])

    def test_inapplicable_shapes(self):
        assert unicyclic_fractional_bound(cycle_graph(3)) is None  # m = 1
        assert unicyclic_fractional_bound(cycle_graph(6)) is None  # even cycle
        assert unicyclic_fractional_bound(path_graph(5)) is None  # tree
        assert unicyclic_fractional_bound(two_triangles()) is None  # disconnected

    def test_conclusive_exactly_from_the_m0_threshold(self):
        # the sharp bound grows with m and reaches n - 1 at m0(n)
        for n in range(7, 81):
            threshold = math.ceil(m0_threshold(n) - 1e-12)
            for k in range(5, n - 1, 2):
                cert = unicyclic_fractional_bound(h_kn_graph(n, k))
                assert cert.conclusive == (cert.witness["m"] >= threshold), (n, k)

    def test_m0_threshold_values(self):
        assert m0_threshold(100) == pytest.approx(7.380092, abs=1e-5)
        assert math.ceil(m0_threshold(5)) == 2
        with pytest.raises(ValueError):
            m0_threshold(2)


class TestMajorization:
    def test_path_has_two_positive_eigenvalues(self):
        cert = majorization_two_positive(path_graph(4))
        assert cert is not None
        assert cert.rule == "two_positive" and cert.bound_value == pytest.approx(3.0)
        assert cert.conclusive

    def test_inapplicable_positive_counts(self):
        assert majorization_two_positive(complete_graph(3)) is None  # one positive
        assert majorization_two_positive(cycle_graph(5)) is None  # three positive
        assert majorization_two_positive(two_triangles()) is None  # disconnected

    def test_three_negative_eigenvalues_certify_s_plus(self):
        # two positive and three negative eigenvalues
        g = from_edges(5, [(0, 4), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
        cert = majorization_two_positive(g)
        assert cert is not None
        assert cert.target == "s_plus" and cert.conclusive

    def test_failed_chain_raises(self):
        # still two positive eigenvalues and no zero one, so the exact rank
        # check passes; lam_1 = 1 falls short of |lam_n| = 3
        f = GraphFacts(path_graph(4))
        f.spectrum = Spectrum((1.0, 0.5, -0.2, -3.0), 1e-9)
        for rule in (majorization_two_positive, lambda g: certify(g, rules=["two_positive"])):
            with pytest.raises(ArithmeticError, match="majorization chain failed numerically"):
                rule(f)

    def test_unequal_totals_raise(self):
        # the proper prefix holds (3 >= 2), but the totals 4 and 2.5 differ
        f = GraphFacts(path_graph(4))
        f.spectrum = Spectrum((3.0, 1.0, -0.5, -2.0), 1e-9)
        with pytest.raises(ArithmeticError, match="majorization chain failed numerically"):
            majorization_two_positive(f)


class TestEnergyCount:
    def test_triangle_values_are_tight(self):
        pb = energy_count_bound(complete_graph(3))
        assert pb.s_plus_lower == pytest.approx(4.0)
        assert pb.s_minus_lower == pytest.approx(2.0)

    def test_needs_an_edge(self):
        with pytest.raises(ValueError, match="edge"):
            energy_count_bound(from_edges(3, []))

    @given(graphs(max_n=9))
    def test_sound_below_true_energies(self, g):
        if g.m == 0:
            return
        pb = energy_count_bound(g)
        prof = graph_profile(g)
        assert pb.s_plus_lower <= prof.s_plus + 1e-8
        assert pb.s_minus_lower <= prof.s_minus + 1e-8


class TestRankBound:
    def test_triangle(self):
        cert = rank_bound(complete_graph(3))
        assert cert is not None and cert.target == "s_plus"
        assert cert.bound_value == pytest.approx(2.25) and cert.conclusive
        assert cert.witness["rank"] == 3

    def test_star_does_not_fire(self):
        assert rank_bound(star_graph(5)) is None

    def test_few_negative_eigenvalues_target_s_minus(self):
        # no rank certificate on the order-8 corpus targets s_minus, so the
        # inertia is assigned: r = 3, and nu = 1 <= 9/8 < pi = 2
        facts = GraphFacts(path_graph(3))
        facts.inertia = Inertia(2, 0, 1)
        cert = rank_bound(facts)
        assert cert is not None and cert.target == "s_minus"
        assert cert.bound_value == pytest.approx(2.25) and cert.conclusive
        assert cert.witness == {"rank": 3, "positive": 2, "negative": 1}

    def test_order_and_connectivity_guards(self):
        with pytest.raises(ValueError, match="order"):
            rank_bound(complete_graph(2))
        with pytest.raises(ValueError, match="connected"):
            rank_bound(two_triangles())


class TestExtendedBarbellForm:
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_matches_dense_spectrum(self, k):
        form = extended_barbell_closed_form(k)
        dense = eigenvalues(extended_barbell_graph(k)).values
        assert form.spectrum.values == pytest.approx(dense, abs=1e-8)
        prof = graph_profile(extended_barbell_graph(k))
        assert form.s_plus == pytest.approx(prof.s_plus, abs=1e-8)
        assert form.s_minus == pytest.approx(prof.s_minus, abs=1e-8)

    def test_energy_margins(self):
        for k in range(3, 13):
            form = extended_barbell_closed_form(k)
            n = 2 * k + 1
            assert form.conclusive
            assert form.s_plus > 2 * (k - 1) ** 2
            assert form.s_minus > n - 1

    def test_cubic_coefficients(self):
        assert extended_barbell_closed_form(3).cubic_coeffs == (1, -1, -4, 2)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError, match="k >= 3"):
            extended_barbell_closed_form(2)


class TestH3nAnalysis:
    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_quotient_and_trivial_parts_rebuild_the_spectrum(self, n):
        rec = h3n_quotient_analysis(n)
        rebuilt = sorted(list(rec.mu) + [-1.0] + [0.0] * (n - 5), reverse=True)
        dense = eigenvalues(h_kn_graph(n, 3)).values
        assert rebuilt == pytest.approx(dense, abs=1e-8)

    def test_gap_tracks_the_conjecture_slack(self):
        # s_minus of the family is mu_3^2 + mu_4^2 + 1, so the gap equals
        # the distance above the n - 1 floor: positive and shrinking
        gaps = [h3n_quotient_analysis(n).s_minus_gap for n in range(5, 15)]
        assert all(gap > 0 for gap in gaps)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        prof = graph_profile(h_kn_graph(9, 3))
        assert prof.s_minus - 8 == pytest.approx(h3n_quotient_analysis(9).s_minus_gap, abs=1e-8)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError, match="n >= 5"):
            h3n_quotient_analysis(4)


class TestCertifyPipeline:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            certify(two_triangles())

    def test_rule_names_and_order(self):
        assert CERTIFY_RULES == (
            "avg_degree",
            "complete_bipartite_span",
            "clique",
            "self_join",
            "induced_bipartite",
            "odd_cycle",
            "two_positive",
            "rank",
            "energy",
        )

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule.*bogus.*available: avg_degree"):
            certify(complete_graph(4), rules=["clique", "bogus"])

    def test_rule_filter(self):
        g = complete_graph(4)
        certs = certify(g, rules=["avg_degree"])
        assert [c.rule for c in certs] == ["avg_degree"]
        assert all(c.rule in CERTIFY_RULES for c in certify(g))

    def test_star_is_fully_certified(self):
        g = star_graph(7)
        certs = certify(g)
        rules = {c.rule for c in certs}
        assert "complete_bipartite_span" in rules and "induced_bipartite" in rules
        conclusive_targets = {c.target for c in certs if c.conclusive}
        assert "both" in conclusive_targets or {"s_plus", "s_minus"} <= conclusive_targets

    def test_odd_cycle_rule_wraps_fractional_record(self):
        certs = certify(cycle_graph(5), rules=["odd_cycle"])
        assert len(certs) == 1
        cert = certs[0]
        assert cert.witness["cycle_length"] == 5
        assert cert.witness["base_bound"] == pytest.approx(4.0)

    def test_every_sweep_rule_takes_the_order_0_graph(self):
        # the empty graph counts as connected, so only the documented
        # hypotheses of rank_bound and energy_count_bound may reject it
        empty = from_edges(0, [])
        assert check_avg_degree(empty) is None
        assert check_spanning_structures(empty) == []
        assert check_self_join(empty) is None
        induced_bipartite_bound(empty)
        assert unicyclic_fractional_bound(empty) is None
        assert majorization_two_positive(empty) is None
        with pytest.raises(ValueError, match="order >= 3"):
            rank_bound(empty)
        with pytest.raises(ValueError, match="at least one edge"):
            energy_count_bound(empty)
        for _, check in bounds_module._SWEEP:
            check(GraphFacts(empty))

    def test_json_shape(self):
        cert = certify(complete_graph(4), rules=["avg_degree"])[0]
        payload = cert.to_json_dict()
        assert payload["rule"] == "avg_degree"
        assert payload["bound"] == pytest.approx(9.0)
        assert payload["conclusive"] is True

    @given(graphs(max_n=8))
    def test_conclusive_bounds_never_exceed_truth(self, g):
        if not stats(g).connected or g.n == 0:
            return
        prof = graph_profile(g)
        truth = {"s_plus": prof.s_plus, "s_minus": prof.s_minus,
                 "both": min(prof.s_plus, prof.s_minus)}
        for cert in certify(g):
            assert cert.bound_value <= truth[cert.target] + 1e-8
            if cert.conclusive:
                assert cert.bound_value >= g.n - 1 - CONCLUSIVE_TOL


class TestFloor:
    @pytest.mark.parametrize("n", [2, 8, 65, 1000])
    def test_floor_is_inclusive_at_the_tolerance(self, n):
        edge = n - 1 - CONCLUSIVE_TOL
        assert bounds_module._meets_floor(edge, n) is True
        assert bounds_module._meets_floor(math.nextafter(edge, -math.inf), n) is False


class TestBoundCertificate:
    def test_dataclass_behaviour_is_kept(self):
        cert = BoundCertificate("clique", "s_plus", 9.0, {"clique": [0, 1, 2, 3]}, True)
        assert cert == BoundCertificate(
            rule="clique", target="s_plus", bound_value=9.0, witness={"clique": [0, 1, 2, 3]},
            conclusive=True,
        )
        assert cert != BoundCertificate("clique", "s_plus", 9.0, {"clique": [0, 1, 2, 3]}, False)
        assert repr(cert) == (
            "BoundCertificate(rule='clique', target='s_plus', bound_value=9.0, "
            "witness={'clique': [0, 1, 2, 3]}, conclusive=True)"
        )
        assert [f.name for f in dataclasses.fields(cert)] == [
            "rule", "target", "bound_value", "witness", "conclusive"
        ]
        lower = dataclasses.replace(cert, bound_value=4.0, conclusive=False)
        assert lower == BoundCertificate("clique", "s_plus", 4.0, {"clique": [0, 1, 2, 3]}, False)
        assert cert.bound_value == 9.0 and cert.conclusive
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.bound_value = 10.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del cert.rule
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(cert)  # the fields' hash, and a witness is a dict
        plain = BoundCertificate("rank", "s_minus", 7.0, (), True)
        assert hash(plain) == hash(("rank", "s_minus", 7.0, (), True))


class TestGraphFacts:
    SAMPLES = [
        complete_graph(4),
        cycle_graph(5),
        star_graph(7),
        path_graph(6),
        complete_bipartite_graph(3, 4),
        extended_barbell_graph(3),
    ]

    @staticmethod
    def _replace(monkeypatch, fn, new) -> None:
        """Put ``new`` in place of ``fn`` in every ``sqenergy`` namespace that holds it."""
        for key, mod in list(sys.modules.items()):
            if key == "sqenergy" or key.startswith("sqenergy."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, new)

    def _count(self, monkeypatch, module, name) -> list[tuple]:
        """The argument tuples of every later call to ``module.name``."""
        fn, log = getattr(module, name), []

        def counted(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)

        self._replace(monkeypatch, fn, counted)
        return log

    def _refuse(self, monkeypatch, module, name) -> None:
        def refuse(*args, **kwargs):
            pytest.fail(f"{name} called")

        self._replace(monkeypatch, getattr(module, name), refuse)

    @pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}")
    def test_one_certify_call_computes_each_invariant_once(self, g, monkeypatch):
        layered = self._count(monkeypatch, graphs_module, "_layers")
        solved = self._count(monkeypatch, spectral_module, "eigenvalues")
        ranked = self._count(monkeypatch, spectral_module, "rank_exact")
        certify(g)
        assert len(solved) == 1 and len(ranked) == 1
        # g itself is layered once and its complement at most once; any
        # other layering is of a new graph, induced_bipartite's H = g - S
        seen = [args[0] for args in layered]
        assert sum(h is g for h in seen) == 1, seen
        assert seen.count(complement(g)) <= 1, seen

    def test_facts_are_computed_only_when_a_rule_reads_them(self, monkeypatch):
        for module, name in (
            (spectral_module, "eigenvalues"),
            (spectral_module, "rank_exact"),
            (graphs_module, "complement"),
        ):
            self._refuse(monkeypatch, module, name)
        fired = [certify(g, rules=["avg_degree"]) for g in self.SAMPLES]
        assert [len(certs) for certs in fired] == [1, 1, 0, 0, 1, 0]

    @pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}")
    def test_solved_facts_are_not_solved_again(self, g, monkeypatch):
        expected = certify(g)
        facts = bounds_module._solved_facts(g, eigenvalues(g), spectral_module.rank_exact(g))
        self._refuse(monkeypatch, spectral_module, "eigenvalues")
        self._refuse(monkeypatch, spectral_module, "rank_exact")
        assert certify(facts) == expected

    def test_stats_and_cactus_match_the_public_functions(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "connected8.g6"
        corpus = [from_graph6(line) for line in path.read_text().split()]
        seeded = [
            _seeded_graph(n, p, seed=n)
            for n in range(5, 71)
            for p in (1.0 / n, 2.0 / n, 4.0 / n, 0.3)
        ]
        connected = 0
        for g in corpus + seeded:
            facts = GraphFacts(g)
            assert facts.stats == stats(g)
            if facts.stats.connected:
                connected += 1
                assert facts.cactus == cactus_profile(g)
        assert len(corpus) < connected < len(corpus) + len(seeded)  # both kinds seeded

    @pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}")
    def test_rules_agree_on_graph_and_facts(self, g):
        rules = [
            check_avg_degree,
            check_spanning_structures,
            check_join,
            check_self_join,
            induced_bipartite_bound,
            unicyclic_fractional_bound,
            majorization_two_positive,
            rank_bound,
            energy_count_bound,
        ]
        facts = GraphFacts(g)
        for rule in rules:
            assert rule(facts) == rule(g), rule.__name__
        assert certify(facts) == certify(g)

    def test_inertia_is_unchecked_above_the_cap(self, monkeypatch):
        assert GraphFacts(star_graph(5)).inertia.zero == 3

        def refuse(g):
            pytest.fail("rank_exact called above the exact cap")

        monkeypatch.setattr(bounds_module, "rank_exact", refuse)
        assert GraphFacts(path_graph(65)).inertia.zero == 1

    def test_exact_rank_disagreeing_with_the_inertia_raises(self, monkeypatch):
        # P4 is connected with two positive eigenvalues and rank 4
        monkeypatch.setattr(bounds_module, "rank_exact", lambda g: g.n - 1)
        for rule in (
            rank_bound,
            majorization_two_positive,
            energy_count_bound,
            lambda g: certify(g, rules=["energy"]),
        ):
            with pytest.raises(ArithmeticError, match="tolerance classified 0 zero eigenvalues"):
                rule(path_graph(4))
