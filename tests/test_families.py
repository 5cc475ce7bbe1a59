"""Family generators: structure, labelling conventions, validation."""

from __future__ import annotations

import pytest

from sqenergy.families import (
    FAMILIES,
    barbell_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    extended_barbell_graph,
    generate_family,
    h_kn_graph,
    path_graph,
    star_graph,
    threshold_graph,
    u_n3_graph,
)
from sqenergy.graphs import stats


class TestBasicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert (g.n, g.m) == (5, 4)
        assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
        assert path_graph(1).m == 0

    def test_cycle(self):
        g = cycle_graph(6)
        assert (g.n, g.m) == (6, 6)
        assert all(g.degree(v) == 2 for v in range(6))

    def test_star_centre_is_zero(self):
        g = star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10 and all(g.degree(v) == 4 for v in range(5))

    def test_complete_bipartite_sides(self):
        g = complete_bipartite_graph(2, 3)
        assert (g.n, g.m) == (5, 6)
        assert all(g.degree(v) == 3 for v in range(2))
        assert all(g.degree(v) == 2 for v in range(2, 5))
        assert not g.has_edge(0, 1) and not g.has_edge(2, 3)

    @pytest.mark.parametrize(
        "fn,bad",
        [
            (path_graph, 0),
            (cycle_graph, 2),
            (star_graph, 0),
            (complete_graph, 0),
            (barbell_graph, 1),
            (extended_barbell_graph, 2),
            (u_n3_graph, 2),
        ],
    )
    def test_rejects_too_small(self, fn, bad):
        with pytest.raises(ValueError):
            fn(bad)

    @pytest.mark.parametrize("r,s", [(0, 3), (3, 0)])
    def test_complete_bipartite_rejects_an_empty_side(self, r, s):
        with pytest.raises(ValueError, match=r"needs r, s >= 1"):
            complete_bipartite_graph(r, s)


class TestCompositeFamilies:
    def test_barbell(self):
        g = barbell_graph(3)
        assert (g.n, g.m) == (6, 7)
        assert g.has_edge(2, 3)
        assert sorted(g.degree(v) for v in range(6)) == [2, 2, 2, 2, 3, 3]

    def test_extended_barbell_midpoint(self):
        k = 4
        g = extended_barbell_graph(k)
        assert g.n == 2 * k + 1
        assert g.m == k * (k - 1) + 2
        mid = 2 * k
        assert g.degree(mid) == 2
        assert g.has_edge(mid, k - 1) and g.has_edge(mid, k)
        assert not g.has_edge(k - 1, k)

    def test_u_n3(self):
        g = u_n3_graph(6)
        assert (g.n, g.m) == (6, 6)
        assert g.degree(0) == 5 and g.has_edge(1, 2)
        st = stats(g)
        assert st.connected and not st.bipartite

    def test_h_kn_shape(self):
        g = h_kn_graph(8, 5)
        assert (g.n, g.m) == (8, 8)
        # cycle 0..4, glued at 4; star centre 5 with leaves 6, 7
        assert g.has_edge(4, 0) and g.has_edge(4, 5)
        assert g.degree(5) == 3 and g.degree(6) == 1 and g.degree(7) == 1
        st = stats(g)
        assert st.connected and not st.bipartite

    def test_h_kn_validation(self):
        with pytest.raises(ValueError, match="k >= 3"):
            h_kn_graph(5, 2)
        with pytest.raises(ValueError, match="n >= k \\+ 2"):
            h_kn_graph(4, 3)

    def test_threshold(self):
        # d after i: the new dominating vertex also swallows the isolated one
        g = threshold_graph("id")
        assert (g.n, g.m) == (3, 2)
        assert g.degree(2) == 2
        assert threshold_graph("").n == 1
        st = stats(threshold_graph("iidd"))
        assert st.connected

    def test_threshold_rejects_unknown_letters(self):
        with pytest.raises(ValueError, match="'i'/'d'"):
            threshold_graph("ix")


class TestDispatch:
    def test_every_family_is_dispatchable(self):
        samples = {
            "path": (4,),
            "cycle": (5,),
            "star": (4,),
            "complete": (4,),
            "complete_bipartite": (2, 3),
            "barbell": (3,),
            "extended_barbell": (3,),
            "u_n3": (5,),
            "h_kn": (7, 3),
            "threshold": ("idd",),
        }
        assert set(samples) == set(FAMILIES)
        for name, params in samples.items():
            g = generate_family(name, *params)
            assert g.n >= 1

    def test_string_parameters_coerce(self):
        assert generate_family("cycle", "5") == cycle_graph(5)
        assert generate_family("h_kn", "7", "3") == h_kn_graph(7, 3)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="available:"):
            generate_family("moebius", 4)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            generate_family("cycle", 5, 6)

    def test_non_integer_parameter(self):
        with pytest.raises(ValueError, match="integer"):
            generate_family("cycle", "five")

    def test_threshold_needs_its_creation_string(self):
        with pytest.raises(ValueError, match="threshold expects its creation string"):
            generate_family("threshold", 5)
