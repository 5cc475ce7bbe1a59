"""Certificate rules and interlacing-style lower bounds."""

from __future__ import annotations

import math

import pytest
from hypothesis import given

from _strategies import graphs
import sqenergy.bounds as bounds_module
import sqenergy.spectral as spectral_module
from sqenergy.bounds import (
    CERTIFY_RULES,
    CONCLUSIVE_TOL,
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
from sqenergy.graphs import Graph, add_leaf, from_edges, kronecker, move_neighbors, stats
from sqenergy.partitions import parse_partition
from sqenergy.spectral import Spectrum, eigenvalues, graph_profile


def two_triangles() -> Graph:
    return from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


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
        # halves are K_8: average inside degree 7 > r/2
        g = check_self_join(from_edges(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                                            if (u < 8) == (v < 8) or (u < 8) != (v < 8)]))
        assert g is None

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


class TestGraphFacts:
    SAMPLES = [
        complete_graph(4),
        cycle_graph(5),
        star_graph(7),
        path_graph(6),
        complete_bipartite_graph(3, 4),
        extended_barbell_graph(3),
    ]

    @pytest.mark.parametrize("g", SAMPLES, ids=lambda g: f"n{g.n}m{g.m}")
    def test_one_certify_call_computes_each_invariant_once(self, g, monkeypatch):
        calls = {}

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("eigenvalues", "rank_exact", "component_masks", "cactus_profile"):
            count(bounds_module, name)
        count(spectral_module, "eigenvalues")  # reached through graph_profile
        certify(g)
        assert calls and max(calls.values()) == 1, calls

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
