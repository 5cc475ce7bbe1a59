"""Spectra, energies, the Perron pair, and exact characteristic polynomials."""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np
import pytest
from conftest import compensated_sum
from hypothesis import given
from hypothesis import strategies as st

import sqenergy.graphs as graphs_module
import sqenergy.spectral as spectral_module
from sqenergy.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from sqenergy.graphs import (
    _g6_payload,
    _unpack_rows,
    complement,
    from_edges,
    from_graph6,
    to_graph6,
)
from sqenergy.spectral import (
    EXACT_ORDER_CAP,
    ZERO_TOL_FLOOR,
    IntPolynomial,
    Spectrum,
    _g6_spectra,
    char_poly_exact,
    eigenvalues,
    energy_profile,
    graph_profile,
    perron_vector,
    rank_exact,
    spectra_and_ranks,
    spectrum_from_values,
    zero_tolerance,
)

from _strategies import graphs


class TestSpectrumBasics:
    def test_zero_tolerance_floor_and_scaling(self):
        assert zero_tolerance(5, 2.0) == ZERO_TOL_FLOOR
        big = zero_tolerance(10**7, 10.0)
        assert big == pytest.approx(1e7 * float(np.finfo(float).eps) * 10.0)
        assert big > ZERO_TOL_FLOOR

    def test_complete_graph_spectrum(self):
        spec = eigenvalues(complete_graph(5))
        assert spec.values[0] == pytest.approx(4.0, abs=1e-12)
        assert all(v == pytest.approx(-1.0, abs=1e-12) for v in spec.values[1:])

    def test_complete_bipartite_spectrum(self):
        spec = eigenvalues(complete_bipartite_graph(2, 3))
        root = math.sqrt(6)
        assert spec.values[0] == pytest.approx(root, abs=1e-12)
        assert spec.values[-1] == pytest.approx(-root, abs=1e-12)
        assert energy_profile(spec).inertia == energy_profile(spec).inertia
        assert energy_profile(spec).inertia.zero == 3

    def test_path_closed_form(self):
        n = 6
        spec = eigenvalues(path_graph(n))
        expect = sorted(
            (2 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)),
            reverse=True,
        )
        assert spec.values == pytest.approx(expect, abs=1e-12)

    def test_cycle_closed_form(self):
        n = 7
        spec = eigenvalues(cycle_graph(n))
        expect = sorted(
            (2 * math.cos(2 * math.pi * j / n) for j in range(n)), reverse=True
        )
        assert spec.values == pytest.approx(expect, abs=1e-10)

    def test_empty_graph(self):
        spec = eigenvalues(from_edges(0, []))
        assert spec.values == ()
        prof = energy_profile(spec)
        assert prof.s_plus == 0.0 and prof.s_minus == 0.0

    def test_spectrum_from_values_sorts(self):
        spec = spectrum_from_values([1.0, -2.0, 0.5])
        assert spec.values == (1.0, 0.5, -2.0)
        assert spectrum_from_values(v for v in (1.0, -2.0, 0.5)) == spec
        assert spectrum_from_values(iter(())) == Spectrum((), ZERO_TOL_FLOOR)

    def test_spectrum_from_values_keeps_the_real_parts_of_numerically_real_input(self):
        spec = spectrum_from_values(np.array([1.0 + 1e-9j, -2.0 - 1e-9j, 0.5 + 0j]))
        assert spec == spectrum_from_values([1.0, -2.0, 0.5])
        assert all(type(v) is float for v in spec.values)
        # x^3 - x: np.roots returns a float array when every root is real
        assert spectrum_from_values(np.roots([1.0, 0.0, -1.0, 0.0])).values == pytest.approx(
            (1.0, 0.0, -1.0), abs=1e-12
        )

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 0.5 + 2e-9j, 0.5 - 2e-9j],
            [1.0, 0.5 - 1e-6j, 0.5 + 1e-6j],
            np.roots([1.0, 0.0, 1.0]),  # x^2 + 1
        ],
    )
    def test_spectrum_from_values_rejects_imaginary_parts_above_the_budget(self, values):
        with pytest.raises(ArithmeticError, match=r"^eigenvalues not numerically real \(imag up to "):
            spectrum_from_values(values)

    def test_fragile_flag(self):
        spec = Spectrum((1.0, 5e-9, -1.0), 1e-9)
        assert spec.fragile
        spec = Spectrum((1.0, 0.0, -1.0), 1e-9)
        assert not spec.fragile

    @given(graphs(max_n=12))
    def test_trace_identities(self, g):
        spec = eigenvalues(g)
        assert sum(spec.values) == pytest.approx(0.0, abs=1e-9)
        assert sum(v * v for v in spec.values) == pytest.approx(2 * g.m, abs=1e-8)
        assert list(spec.values) == sorted(spec.values, reverse=True)


class TestEnergyProfile:
    def test_triangle(self):
        prof = graph_profile(complete_graph(3))
        assert prof.s_plus == pytest.approx(4.0, abs=1e-9)
        assert prof.s_minus == pytest.approx(2.0, abs=1e-9)
        assert prof.energy == pytest.approx(4.0, abs=1e-9)
        assert (prof.inertia.positive, prof.inertia.zero, prof.inertia.negative) == (1, 0, 2)

    def test_star_energy(self):
        # K_{1,4}: eigenvalues +-2 and three zeros
        prof = graph_profile(star_graph(5))
        assert prof.s_plus == pytest.approx(4.0, abs=1e-9)
        assert prof.s_minus == pytest.approx(4.0, abs=1e-9)
        assert prof.energy == pytest.approx(4.0, abs=1e-9)
        assert prof.inertia.zero == 3

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_edgeless_energies_are_floats(self, n):
        prof = graph_profile(from_edges(n, []))
        assert (prof.s_plus, prof.s_minus, prof.energy) == (0.0, 0.0, 0.0)
        assert all(type(x) is float for x in (prof.s_plus, prof.s_minus, prof.energy))

    @given(graphs(max_n=12))
    def test_square_energies_sum_to_2m(self, g):
        prof = graph_profile(g)
        assert prof.s_plus + prof.s_minus == pytest.approx(2 * g.m, abs=1e-7)

    @given(graphs(max_n=10))
    def test_bipartite_graphs_split_evenly(self, g):
        from sqenergy.graphs import stats

        if not stats(g).bipartite:
            return
        prof = graph_profile(g)
        assert prof.s_plus == pytest.approx(prof.s_minus, abs=1e-8)


def _left_to_right_sum(terms):
    """The builtin ``sum`` as Python 3.11 computes it: ``0 + t1 + t2 + ...``."""
    total = 0
    for t in terms:
        total = total + t
    return total


def _reference_profile(spectrum: Spectrum) -> tuple:
    """energy_profile's formula as filtered lists and Python 3.11 sums, with
    every float as its exact hex string."""
    tol = spectrum.zero_tol
    pos = [v for v in spectrum.values if v > tol]
    neg = [v for v in spectrum.values if v < -tol]
    sums = (
        float(_left_to_right_sum(v * v for v in pos)),
        float(_left_to_right_sum(v * v for v in neg)),
        float(_left_to_right_sum(abs(v) for v in spectrum.values)),
    )
    zero = len(spectrum.values) - len(pos) - len(neg)
    return tuple(x.hex() for x in sums) + (len(pos), zero, len(neg))


def _profile_bits(spectrum: Spectrum) -> tuple:
    p = energy_profile(spectrum)
    assert all(type(x) is float for x in (p.s_plus, p.s_minus, p.energy))
    sums = (p.s_plus.hex(), p.s_minus.hex(), p.energy.hex())
    return sums + (p.inertia.positive, p.inertia.zero, p.inertia.negative)


@pytest.fixture(scope="module")
def connected8_spectra() -> list[Spectrum]:
    corpus = [from_graph6(line) for line in CONNECTED8.read_text(encoding="ascii").split()]
    return [spec for spec, _ in spectra_and_ranks(corpus)]


def _seeded_spectra() -> list[Spectrum]:
    """Orders 0-40 mixing ordinary values with exact and signed zeros and
    values on both sides of the zero tolerance."""
    rng = random.Random(20261019)
    pool = (0.0, -0.0, 1e-12, -1e-12, 5e-9, -5e-9)
    return [
        spectrum_from_values(
            rng.choice(pool) if rng.random() < 0.3 else rng.uniform(-8.0, 8.0)
            for _ in range(rng.randint(0, 40))
        )
        for _ in range(2000)
    ]


class TestProfileSummation:
    """energy_profile adds in spectrum order, bit for bit as the
    list-and-sum formula did on Python 3.11, whatever ``sum`` does."""

    def test_connected8_bit_for_bit(self, connected8_spectra):
        assert len(connected8_spectra) == 11117
        for spec in connected8_spectra:
            assert _profile_bits(spec) == _reference_profile(spec), spec

    def test_seeded_spectra_bit_for_bit(self):
        for spec in _seeded_spectra():
            assert _profile_bits(spec) == _reference_profile(spec), spec

    def test_order_zero_and_all_zero(self):
        assert _profile_bits(spectrum_from_values([])) == ("0x0.0p+0",) * 3 + (0, 0, 0)
        assert _profile_bits(spectrum_from_values([0.0] * 7)) == ("0x0.0p+0",) * 3 + (0, 7, 0)

    def test_connected8_unchanged_under_python312_sum(self, connected8_spectra, python312_sum):
        assert compensated_sum([0.1] * 10) == 1.0 != _left_to_right_sum([0.1] * 10)
        for spec in connected8_spectra:
            assert _profile_bits(spec) == _reference_profile(spec), spec


class TestPerron:
    def test_complete_graph(self):
        lam, x = perron_vector(complete_graph(4))
        assert lam == pytest.approx(3.0, abs=1e-10)
        assert x == pytest.approx(np.full(4, 0.5), abs=1e-9)

    def test_star_graph(self):
        lam, x = perron_vector(star_graph(5))
        assert lam == pytest.approx(2.0, abs=1e-10)
        # centre weight = 1/sqrt(2), each leaf 1/(2 sqrt 2)
        assert x[0] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert x[1:] == pytest.approx(np.full(4, 1 / (2 * math.sqrt(2))), abs=1e-9)

    def test_bipartite_convergence(self):
        # the -lambda partner of a bipartite graph's lambda must not be picked
        lam, x = perron_vector(path_graph(2))
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert np.all(x > 0)

    def test_long_path_matches_the_closed_form(self):
        # P_n: lambda = 2 cos(pi / (n + 1)), x_k proportional to sin(k pi / (n + 1))
        lam, x = perron_vector(path_graph(300))
        assert lam == pytest.approx(2 * math.cos(math.pi / 301), abs=1e-12)
        exact = np.sin(np.arange(1, 301) * math.pi / 301)
        assert x == pytest.approx(exact / np.linalg.norm(exact), abs=1e-10)

    def test_residual_contract(self):
        g = cycle_graph(9)
        lam, x = perron_vector(g)
        a = g.adjacency_matrix()
        assert np.linalg.norm(a @ x - lam * x) <= 1e-10 * max(lam, 1.0)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_disconnected_and_empty(self):
        with pytest.raises(ValueError, match="connected"):
            perron_vector(from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="an edge"):
            perron_vector(from_edges(3, []))


class TestIntPolynomial:
    def test_evaluation(self):
        p = IntPolynomial((1, 0, -3, -2))  # x^3 - 3x - 2
        assert p(2) == 0 and p(-1) == 0 and p(0) == -2
        assert p.degree == 3

    def test_zero_root_multiplicity(self):
        assert IntPolynomial((1, 0, -4, 0, 0)).zero_root_multiplicity() == 2
        assert IntPolynomial((1, 1)).zero_root_multiplicity() == 0

    def test_root_multiplicity(self):
        # (x - 1)^2 (x + 2) = x^3 - 3x + 2
        p = IntPolynomial((1, 0, -3, 2))
        assert p.root_multiplicity(1) == 2
        assert p.root_multiplicity(-2) == 1
        assert p.root_multiplicity(3) == 0


class TestCharPolyExact:
    def test_triangle(self):
        assert char_poly_exact(complete_graph(3)).coeffs == (1, 0, -3, -2)

    def test_path4(self):
        # P4: x^4 - 3x^2 + 1
        assert char_poly_exact(path_graph(4)).coeffs == (1, 0, -3, 0, 1)

    def test_star5_zero_multiplicity(self):
        # K_{1,4}: x^5 - 4x^3 = x^3 (x^2 - 4)
        p = char_poly_exact(star_graph(5))
        assert p.coeffs == (1, 0, -4, 0, 0, 0)
        assert p.zero_root_multiplicity() == 3

    def test_complete_graph_minus_one_multiplicity(self):
        p = char_poly_exact(complete_graph(6))
        assert p.root_multiplicity(-1) == 5
        assert p.root_multiplicity(5) == 1

    def test_coefficient_meaning(self):
        # coefficient of x^{n-2} is -m; of x^{n-3} is -2 * (#triangles)
        g = cycle_graph(6)
        p = char_poly_exact(g)
        assert p.coeffs[2] == -6
        assert p.coeffs[3] == 0
        p = char_poly_exact(complete_graph(4))
        assert p.coeffs[2] == -6
        assert p.coeffs[3] == -8  # 4 triangles

    @given(graphs(max_n=9))
    def test_matches_numpy(self, g):
        p = char_poly_exact(g)
        dense = np.poly(g.adjacency_matrix()) if g.n else np.array([1.0])
        assert np.allclose(np.array(p.coeffs, dtype=float), dense, atol=1e-6)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            char_poly_exact(from_edges(EXACT_ORDER_CAP + 1, []))


class TestRank:
    def test_exact_small(self):
        assert rank_exact(star_graph(5)) == 2
        assert rank_exact(complete_graph(4)) == 4
        assert rank_exact(path_graph(5)) == 4
        assert rank_exact(from_edges(3, [])) == 0

    def test_raises_beyond_cap(self):
        with pytest.raises(ValueError, match=r"exact rank capped at n <= 64"):
            rank_exact(path_graph(EXACT_ORDER_CAP + 1))

    @given(graphs(max_n=10))
    def test_rank_agrees_with_inertia(self, g):
        inert = energy_profile(eigenvalues(g)).inertia
        assert rank_exact(g) == inert.positive + inert.negative


def _oracle_corpus() -> list:
    """The empty graph, edgeless and disconnected graphs, and seeded random
    graphs of order <= 12 from sparse to dense."""
    rng = random.Random(20230417)
    corpus = [
        from_edges(0, []),
        from_edges(1, []),
        from_edges(7, []),
        from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)]),
    ]
    for _ in range(60):
        n = rng.randint(2, 12)
        p = rng.choice((0.1, 0.25, 0.5, 0.8))
        corpus.append(
            from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        )
    return corpus


class TestSympyOracle:
    """The exact layer against sympy's exact matrix routines."""

    @staticmethod
    def _matrix(sympy, g):
        return sympy.Matrix(g.n, g.n, lambda i, j: int(g.has_edge(i, j)))

    def test_char_poly_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for g in _oracle_corpus():
            expected = tuple(int(c) for c in self._matrix(sympy, g).charpoly(x).all_coeffs())
            assert char_poly_exact(g).coeffs == expected, g

    def test_rank_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        corpus = _oracle_corpus()
        for g, (_, stacked) in zip(corpus, spectra_and_ranks(corpus)):
            assert rank_exact(g) == self._matrix(sympy, g).rank(), g
            assert stacked == (rank_exact(g) if g.n else None), g


CONNECTED8 = Path(__file__).resolve().parent.parent / "perfbench" / "connected8.g6"


def _random_graph(rng: random.Random, n: int, p: float):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def _solved_one_by_one(graphs) -> list:
    return [(eigenvalues(g), rank_exact(g) if 0 < g.n <= 22 else None) for g in graphs]


class TestSpectraAndRanks:
    """The stacked corpus path against the per-graph eigenvalues and rank_exact."""

    def test_every_connected_order_eight_graph(self):
        corpus = [from_graph6(line) for line in CONNECTED8.read_text(encoding="ascii").split()]
        assert len(corpus) == 11117
        assert spectra_and_ranks(corpus) == _solved_one_by_one(corpus)

    def test_seeded_random_graphs_of_orders_zero_to_thirty(self):
        rng = random.Random(20261019)
        corpus = [
            _random_graph(rng, n, p) for n in range(31) for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(3)
        ]
        # dense graphs on both sides of the int64 cap: near-complete, and
        # complements of sparse graphs, whose ranks are full or nearly so
        for n in (22, 23):
            corpus += [_random_graph(rng, n, 0.97) for _ in range(5)]
            corpus += [complement(_random_graph(rng, n, 0.08)) for _ in range(5)]
            corpus.append(complete_graph(n))
        rng.shuffle(corpus)
        assert spectra_and_ranks(corpus) == _solved_one_by_one(corpus)

    def test_one_graph_stacks_and_orders_changing_inside_a_stack(self):
        rng = random.Random(7)
        corpus = [_random_graph(rng, n, 0.5) for n in (5, 5, 9, 5, 1, 9, 0, 23, 5)]
        expected = _solved_one_by_one(corpus)
        assert spectra_and_ranks(corpus) == expected
        assert [spectra_and_ranks([g])[0] for g in corpus] == expected
        assert spectra_and_ranks([]) == []

    def test_ranks_stop_at_the_int64_cap(self):
        corpus = [complete_graph(n) for n in (21, 22, 23, 64)]
        assert [r for _, r in spectra_and_ranks(corpus)] == [21, 22, None, None]

    def test_order_zero_and_orders_above_the_exact_cap(self):
        big = path_graph(EXACT_ORDER_CAP + 1)
        (s0, r0), (s1, r1) = spectra_and_ranks([from_edges(0, []), big])
        assert (s0, r0) == (Spectrum((), ZERO_TOL_FLOOR), None)
        assert (s1, r1) == (eigenvalues(big), None)


def _bits(spectrum: Spectrum) -> tuple:
    return tuple(v.hex() for v in spectrum.values), spectrum.zero_tol.hex()


def _payloads(corpus: list) -> list[tuple[int, int]]:
    return [_g6_payload(to_graph6(g)) for g in corpus]


class TestSpectra:
    """The stacked paths, from graphs with ranks and from graph6 payloads
    (``energies``), against the per-graph eigenvalues."""

    @staticmethod
    def mixed_orders() -> list:
        rng = random.Random(20261020)
        orders = [0, 1, 2, 65, 70] + [rng.randint(8, 40) for _ in range(300)] + [70, 2, 65, 0]
        rng.shuffle(orders)
        return [_random_graph(rng, n, rng.uniform(0.1, 0.6)) for n in orders]

    def test_bit_for_bit_the_per_graph_spectra(self):
        corpus = self.mixed_orders()
        payloads = _payloads(corpus)
        want = [_bits(eigenvalues(g)) for g in corpus]
        assert [_bits(s) for s in _g6_spectra(payloads)] == want
        assert [_bits(s) for s, _ in spectra_and_ranks(corpus)] == want
        for k in (1, 3, 64, 256):  # the stream cut into windows of k graphs
            windows = range(0, len(corpus), k)
            got = [_bits(s) for lo in windows for s in _g6_spectra(payloads[lo : lo + k])]
            assert got == want, k
            got = [_bits(s) for lo in windows for s, _ in spectra_and_ranks(corpus[lo : lo + k])]
            assert got == want, k
        assert _g6_spectra([]) == spectra_and_ranks([]) == []

    def test_one_eigvalsh_per_order_and_no_stack_above_the_exact_cap(self, monkeypatch):
        corpus = self.mixed_orders()
        payloads = _payloads(corpus)
        big = [g.n for g in corpus if g.n > EXACT_ORDER_CAP]
        small = {g.n for g in corpus if g.n <= EXACT_ORDER_CAP}
        shapes = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        for stacked in (lambda: _g6_spectra(payloads), lambda: spectra_and_ranks(corpus)):
            shapes.clear()
            stacked()
            stacks = [s for s in shapes if len(s) == 3]
            assert sorted(s[1] for s in stacks) == sorted(small)
            assert sum(s[0] for s in stacks) == len(corpus) - len(big)
            assert sorted(s for s in shapes if len(s) == 2) == [(n, n) for n in sorted(big)]

    def test_no_ranks_are_computed(self, monkeypatch):
        def no_ranks(a):
            raise AssertionError("the payload path ranked a stack")

        monkeypatch.setattr(spectral_module, "_bareiss_ranks", no_ranks)
        corpus = [complete_graph(n) for n in (1, 5, 22)]
        assert _g6_spectra(_payloads(corpus)) == [eigenvalues(g) for g in corpus]

    def test_the_dense_cap_is_read_when_called(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "DENSE_ORDER_CAP", 4)
        assert _g6_spectra(_payloads([path_graph(4)])) == [eigenvalues(path_graph(4))]
        corpus = [path_graph(3), path_graph(5)]
        for solve in (lambda: _g6_spectra(_payloads(corpus)), lambda: spectra_and_ranks(corpus)):
            with pytest.raises(ValueError, match="^order 5 exceeds the dense matrix cap of 4 vertices$"):
                solve()


class TestPayloadStacks:
    """graph6 payloads unpacked straight into lower triangles, orders 0 to 70."""

    @staticmethod
    def seeded_groups() -> dict[int, list]:
        rng = random.Random(20261021)
        return {
            n: [_random_graph(rng, n, p) for p in (0.0, 0.2, 0.5, 0.9, 1.0)]
            for n in range(71)
        }

    def test_the_stack_is_the_lower_triangle_of_the_adjacency_stack(self):
        for n, group in self.seeded_groups().items():
            xs = [x for _, x in _payloads(group)]
            a = graphs_module._g6_lower_triangles(xs, n)
            assert a.dtype == np.float64 and a.shape == (len(group), n, n)
            assert np.array_equal(a, np.tril(_unpack_rows(group, n)).astype(float)), n

    def test_the_payload_bit_count_is_the_edge_count(self):
        for n, group in self.seeded_groups().items():
            assert [(m, x.bit_count()) for (m, x), g in zip(_payloads(group), group)] == [
                (n, g.m) for g in group
            ]

    def test_spectra_equal_the_per_graph_eigenvalues_bit_for_bit(self):
        corpus = [g for group in self.seeded_groups().values() for g in group]
        random.Random(7).shuffle(corpus)
        assert [_bits(s) for s in _g6_spectra(_payloads(corpus))] == [
            _bits(eigenvalues(g)) for g in corpus
        ]
