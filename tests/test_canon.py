"""Canonical forms and isomorphism testing."""

from __future__ import annotations

import itertools
import random

import pytest
from _strategies import graphs
from hypothesis import given
from hypothesis import strategies as st

from sqenergy.canon import (
    canonical_form,
    canonical_g6,
    canonical_graph,
    canonical_pair,
    is_isomorphic,
    refine,
)
from sqenergy.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from sqenergy.graphs import complement, from_edges, from_graph6, relabel


def refine_by_full_vectors(rows, cells):
    """Refinement as defined: every pass splits by counts into all cells."""
    cells = [c for c in cells if c]
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        split = []
        for cell in cells:
            groups = {}
            for v in cell:
                groups.setdefault(tuple((rows[v] & m).bit_count() for m in masks), []).append(v)
            split.extend(tuple(groups[sig]) for sig in sorted(groups))
        if split == cells:
            return cells
        cells = split


def petersen() -> "Graph":
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def circulant(n: int, jumps: tuple[int, ...]) -> "Graph":
    return from_edges(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


def hypercube(d: int) -> "Graph":
    n = 1 << d
    return from_edges(n, [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1])


def copies(g: "Graph", k: int) -> "Graph":
    return from_edges(k * g.n, [(i * g.n + u, i * g.n + v) for i in range(k) for u, v in g.edges()])


def leaf_bits(g: "Graph", perm) -> int:
    """The bitstring the search maximises: row by row, the nearest later vertex most significant."""
    out = 0
    for i, v in enumerate(perm):
        row = g.rows[v]
        for u in perm[i + 1 :]:
            out = out << 1 | row >> u & 1
    return out


def unpruned_leaves(g: "Graph"):
    """Every leaf of the individualise-and-refine tree, in search order, with no pruning."""

    def descend(cells):
        cells = refine(g.rows, cells)
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            yield tuple(cell[0] for cell in cells)
            return
        for v in cells[target]:
            rest = tuple(w for w in cells[target] if w != v)
            yield from descend(cells[:target] + [(v,), rest] + cells[target + 1 :])

    return descend([tuple(range(g.n))])


class TestCanonicalForm:
    @given(graphs(max_n=10), st.randoms(use_true_random=False))
    def test_invariant_under_relabelling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        assert canonical_form(relabel(g, perm)) == canonical_form(g)

    def test_distinguishes_same_degree_sequence(self):
        # C6 and two disjoint triangles are both 2-regular on 6 vertices
        two_triangles = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert canonical_form(cycle_graph(6)) != canonical_form(two_triangles)

    def test_canonical_graph_is_isomorphic_fixpoint(self):
        g = petersen()
        cg = canonical_graph(g)
        assert is_isomorphic(g, cg)
        assert canonical_graph(cg) == cg
        key, cg2 = canonical_pair(g)
        assert cg2 == cg and key == canonical_form(g)

    @given(graphs(max_n=10))
    def test_labels_and_automorphisms_come_from_the_same_search(self, g):
        key, canon, labels, generators = canonical_pair(g, automorphisms=True)
        assert (key, canon) == canonical_pair(g)
        assert sorted(labels) == list(range(g.n))
        assert all(canon.has_edge(labels[u], labels[v]) for u, v in g.edges())
        for sigma in generators:
            assert sorted(sigma) == list(range(g.n))
            assert relabel(canon, sigma) == canon

    def test_found_automorphisms_of_a_cycle_act_transitively(self):
        _, canon, _, generators = canonical_pair(cycle_graph(7), automorphisms=True)
        orbit, todo = {0}, [0]
        while todo:
            v = todo.pop()
            for sigma in generators:
                if sigma[v] not in orbit:
                    orbit.add(sigma[v])
                    todo.append(sigma[v])
        assert orbit == set(range(7))

    @given(graphs(max_n=12), st.randoms(use_true_random=False))
    def test_refine_matches_full_count_vectors(self, g, rnd):
        # only the cells that changed are counted into; the result must not notice
        cells = [[] for _ in range(rnd.randint(1, 3))]
        for v in range(g.n):
            rnd.choice(cells).append(v)
        cells = [tuple(c) for c in cells]
        assert refine(g.rows, cells) == refine_by_full_vectors(g.rows, cells)

    def test_twin_swaps_are_reported_as_automorphisms(self):
        # the five leaves of a star are twins, searched once and swapped
        _, canon, _, generators = canonical_pair(star_graph(6), automorphisms=True)
        moved = {v for sigma in generators for v in range(6) if sigma[v] != v}
        assert len(moved) == 5
        assert all(relabel(canon, sigma) == canon for sigma in generators)

    def test_canonical_g6_is_stable_string(self):
        g = petersen()
        perm = [3, 1, 4, 0, 9, 2, 6, 8, 5, 7]
        assert canonical_g6(g) == canonical_g6(relabel(g, perm))
        assert from_graph6(canonical_g6(g)).n == 10

    def test_exhaustive_partition_by_isomorphism_small(self):
        # all graphs on 5 labelled vertices: canonical forms must agree
        # exactly with brute-force permutation equivalence
        perms = list(itertools.permutations(range(5)))
        seen: dict[bytes, "Graph"] = {}
        for mask in range(1 << 10):
            edges = []
            k = 0
            for v in range(1, 5):
                for u in range(v):
                    if mask >> k & 1:
                        edges.append((u, v))
                    k += 1
            g = from_edges(5, edges)
            key = canonical_form(g)
            if key in seen:
                h = seen[key]
                assert any(relabel(g, p) == h for p in perms)
            else:
                for other_key, h in seen.items():
                    assert not any(relabel(g, p) == h for p in perms)
                seen[key] = g
        # number of graphs on 5 unlabelled vertices
        assert len(seen) == 34


class TestHighSymmetry:
    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(8),
            star_graph(9),
            complete_bipartite_graph(4, 4),
            cycle_graph(9),
            path_graph(9),
        ],
        ids=["K8", "K1_8", "K44", "C9", "P9"],
    )
    def test_symmetric_graphs_finish_fast(self, g):
        perm = list(reversed(range(g.n)))
        assert canonical_form(g) == canonical_form(relabel(g, perm))


class TestOracle:
    def test_key_is_the_maximal_leaf_of_the_unpruned_tree(self, connected_by_order):
        # refinement orders the cells before any choice, so the search maximises
        # over its tree's leaves, not over all n! relabellings (P3 scores 011, not 110)
        for n in range(1, 8):
            nbytes = (n * (n - 1) // 2 + 7) // 8 or 1
            for g in connected_by_order[n]:
                for h in (g, complement(g)):
                    leaves = list(unpruned_leaves(h))
                    scores = [leaf_bits(h, perm) for perm in leaves]
                    best = max(scores)
                    assert canonical_form(h) == n.to_bytes(4, "big") + best.to_bytes(nbytes, "big")
                    # pruning never skips the first leaf that attains the maximum
                    assert canonical_graph(h) == relabel(h, leaves[scores.index(best)])

    @pytest.mark.parametrize(
        "g",
        [
            petersen(),
            hypercube(3),
            hypercube(4),
            circulant(12, (1, 5)),
            circulant(13, (1, 5)),
            circulant(10, (1, 4)),
            copies(cycle_graph(5), 2),
            copies(cycle_graph(4), 3),
            complete_bipartite_graph(3, 3),
            copies(petersen(), 2),
        ],
        ids=[
            "Petersen", "Q3", "Q4", "C12(1,5)", "C13(1,5)",
            "C10(1,4)", "2C5", "3C4", "K33", "2Petersen",
        ],
    )
    def test_random_relabellings_keep_the_key(self, g):
        rng = random.Random(g.n * 1000 + g.m)
        key, canon = canonical_pair(g)
        for _ in range(12):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h_key, h_canon, _, generators = canonical_pair(relabel(g, perm), automorphisms=True)
            assert (h_key, h_canon) == (key, canon)
            assert all(relabel(canon, sigma) == canon for sigma in generators)


class TestIsIsomorphic:
    def test_petersen_relabelled(self):
        g = petersen()
        assert is_isomorphic(g, relabel(g, [9, 3, 7, 1, 0, 4, 8, 2, 6, 5]))

    def test_rejects_quickly_on_invariants(self):
        assert not is_isomorphic(path_graph(4), path_graph(5))
        assert not is_isomorphic(cycle_graph(4), path_graph(4))
        assert not is_isomorphic(star_graph(4), path_graph(4))

    def test_cospectral_mates_are_distinguished(self):
        # C4 + K1 and K_{1,4} share the spectrum but are not isomorphic
        c4_k1 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_isomorphic(c4_k1, star_graph(5))
