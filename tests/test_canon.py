"""Canonical forms and isomorphism testing."""

from __future__ import annotations

import hashlib
import itertools
import os
import random

import pytest
from _strategies import graphs
from hypothesis import given
from hypothesis import strategies as st
from test_enumeration import canonical_unicyclic

from sqenergy.canon import _refine, canonical_form, canonical_pair
from sqenergy.enumeration import enumerate_connected, enumerate_unicyclic_nonbipartite
from sqenergy.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from sqenergy.graphs import (
    Graph,
    add_leaf,
    bits,
    complement,
    from_edges,
    from_graph6,
    relabel,
    to_graph6,
)


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
        cells = refine_by_full_vectors(g.rows, cells)
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
        cg = canonical_pair(g)[1]
        assert canonical_form(g) == canonical_form(cg)
        assert canonical_pair(cg)[1] == cg
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
        # only the cells that changed are counted into; the cells and their
        # order must not notice, and each cell comes out ascending
        cells = [[] for _ in range(rnd.randint(1, 3))]
        for v in range(g.n):
            rnd.choice(cells).append(v)
        for cell in cells:
            rnd.shuffle(cell)
        cells = [tuple(c) for c in cells if c]
        masks = [sum(1 << v for v in cell) for cell in cells]
        want = [tuple(sorted(c)) for c in refine_by_full_vectors(g.rows, cells)]
        assert [tuple(bits(m)) for m in _refine(g.rows, masks, masks)] == want

    def test_refine_after_individualizing_one_vertex(self):
        # as in the search: an equitable partition, one vertex of its first
        # non-singleton cell put in a cell of its own just before the rest,
        # and that one vertex the only fresh cell
        checked = 0
        for g in itertools.chain(symmetric_graphs(), random_graphs()):
            cells = refine_by_full_vectors(g.rows, [tuple(range(g.n))])
            while len(cells) < g.n:
                target = next(i for i, cell in enumerate(cells) if len(cell) > 1)
                for v in cells[target]:
                    rest = tuple(w for w in cells[target] if w != v)
                    split = cells[:target] + [(v,), rest] + cells[target + 1 :]
                    masks = [sum(1 << w for w in cell) for cell in split]
                    want = refine_by_full_vectors(g.rows, split)
                    assert [tuple(bits(m)) for m in _refine(g.rows, masks, [1 << v])] == want
                    checked += 1
                cells = want
        assert checked > 1000

    def test_twin_swaps_are_reported_as_automorphisms(self):
        # the five leaves of a star are twins, searched once and swapped
        _, canon, _, generators = canonical_pair(star_graph(6), automorphisms=True)
        moved = {v for sigma in generators for v in range(6) if sigma[v] != v}
        assert len(moved) == 5
        assert all(relabel(canon, sigma) == canon for sigma in generators)

    def test_canonical_g6_is_stable_string(self):
        g = petersen()
        perm = [3, 1, 4, 0, 9, 2, 6, 8, 5, 7]
        assert to_graph6(canonical_pair(g)[1]) == to_graph6(canonical_pair(relabel(g, perm))[1])
        assert from_graph6(to_graph6(canonical_pair(g)[1])).n == 10

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
                    assert canonical_pair(h)[1] == relabel(h, leaves[scores.index(best)])

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


class TestIsomorphismByCanonicalForm:
    def test_petersen_relabelled(self):
        g = petersen()
        assert canonical_form(g) == canonical_form(relabel(g, [9, 3, 7, 1, 0, 4, 8, 2, 6, 5]))

    def test_rejects_pairs_with_different_invariants(self):
        assert canonical_form(path_graph(4)) != canonical_form(path_graph(5))
        assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))
        assert canonical_form(star_graph(4)) != canonical_form(path_graph(4))

    def test_cospectral_mates_are_distinguished(self):
        # C4 + K1 and K_{1,4} share the spectrum but are not isomorphic
        c4_k1 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert canonical_form(c4_k1) != canonical_form(star_graph(5))


def search_digest(inputs) -> str:
    """sha256 of everything one search hands out, per input graph in turn."""
    h = hashlib.sha256()
    for g in inputs:
        key, canon, labels, generators = canonical_pair(g, automorphisms=True)
        h.update(repr((key, canon.rows, labels, generators)).encode())
    return h.hexdigest()


def connected_children(k: int):
    """The order-(k + 1) children that ``enumerate_connected`` labels: each class
    of order k plus a new vertex on every non-empty neighbour set."""
    for parent in enumerate_connected(k):
        for mask in range(1, 1 << k):
            rows = tuple(r | (mask >> u & 1) << k for u, r in enumerate(parent.rows))
            yield Graph(k + 1, rows + (mask,))


def unicyclic_children(n: int):
    """Every odd cycle up to order n and every pendant child of each unicyclic
    class below n, canonically labelled: sparse, highly symmetric inputs with
    many tied leaves."""
    for c in range(3, n + 1, 2):
        yield cycle_graph(c)
    for k in range(3, n):
        for parent in canonical_unicyclic(enumerate_unicyclic_nonbipartite(k)):
            for v in range(k):
                yield add_leaf(parent, v)


def random_graphs():
    """Seeded G(n, p) at orders 0, 1 and 9-20 (rows of 256 and up take the
    table-free bit loop), sparse to dense so twins and isolated vertices occur."""
    rng = random.Random(20140060)
    for n in (0, 1, *range(9, 21)):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for _ in range(2):
                yield from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def symmetric_graphs():
    """Vertex-transitive and twin-rich graphs up to order 20, each with seeded
    relabellings, so orbit pruning runs on rows of 256 and up."""
    rng = random.Random(60)
    base = [
        petersen(), hypercube(3), hypercube(4), circulant(12, (1, 5)), circulant(13, (1, 5)),
        circulant(10, (1, 4)), copies(cycle_graph(5), 2), copies(cycle_graph(4), 3),
        complete_bipartite_graph(3, 3), copies(petersen(), 2), complete_graph(8), star_graph(9),
        complete_bipartite_graph(5, 6), copies(complete_graph(3), 6),
    ]
    for g in base:
        yield g
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            yield relabel(g, perm)


# Digests of (key, canon.rows, labels, generators): any change to the search
# that moves a canonical form, a labelling or a found automorphism shows here.
IDENTITY_SHA256 = {
    "connected7": "d5670b175e68b9eedd412b43191f2760ae7755551a3e877b112b54ed3c1006d7",
    "unicyclic11": "48d2e8e3b227fd5108e735f29cff0acae7e64cb2976ccaca3d3064abaa71aaad",
    "random": "e2aea51b0f18bf89a03ab8028d461a3c56b84217dd46fc11250451b134c726f3",
    "symmetric": "58402dc779bb049f8db2e58a2c3b3cb16fb6bc4fab231c6b9ce06c3ed9125dc4",
    "connected8": "b65569fb64b5c4dcb1b64934b54e87f6f9eee53be0f2d55f0663c79b32e003a7",
}


class TestSearchIdentity:
    def test_connected_children_up_to_order_7(self):
        inputs = (g for k in range(1, 7) for g in connected_children(k))
        assert search_digest(inputs) == IDENTITY_SHA256["connected7"]

    def test_unicyclic_children_up_to_order_11(self):
        assert search_digest(unicyclic_children(11)) == IDENTITY_SHA256["unicyclic11"]

    def test_seeded_random_graphs(self):
        assert search_digest(random_graphs()) == IDENTITY_SHA256["random"]

    def test_symmetric_graphs(self):
        assert search_digest(symmetric_graphs()) == IDENTITY_SHA256["symmetric"]

    @pytest.mark.skipif(
        os.environ.get("SQENERGY_EXTENDED") != "1",
        reason="108331 order-8 children; set SQENERGY_EXTENDED=1 to run",
    )
    def test_canonical_identity_extended(self):
        assert search_digest(connected_children(7)) == IDENTITY_SHA256["connected8"]
