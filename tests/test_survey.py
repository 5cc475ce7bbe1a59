"""Corpus surveys and coverage tallies."""

from __future__ import annotations

import importlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sqenergy.bounds as bounds_module
import sqenergy.spectral as spectral_module
from sqenergy.canon import canonical_form
from sqenergy.enumeration import enumerate_connected
from sqenergy.families import cycle_graph, path_graph, star_graph
from sqenergy.graphs import from_graph6, to_graph6
from sqenergy.lemmas import m0_threshold
from sqenergy.survey import (
    CoverageReport,
    SurveyReport,
    _rounding_flag,
    certify_corpus,
    leaf_increment_profile,
    survey,
)

# the package's ``survey`` attribute is the function, not this module
survey_module = importlib.import_module("sqenergy.survey")


class TestSurvey:
    def test_counts_order_five(self):
        report = survey(enumerate_connected(5))
        assert (report.n, report.total) == (5, 21)
        assert (report.s_plus_gt, report.s_minus_gt, report.equal) == (15, 1, 5)
        assert report.bipartite == 5
        assert report.s_plus_gt + report.s_minus_gt + report.equal == report.total

    def test_minima_and_ties_order_four(self):
        report = survey(enumerate_connected(4))
        # star and path share the minimum s_plus = 3 exactly
        assert report.min_s_plus == pytest.approx(3.0)
        assert len(report.min_s_plus_ties) == 2
        tied = {canonical_form(from_graph6(tag)) for tag in report.min_s_plus_ties}
        expected = {canonical_form(star_graph(4)), canonical_form(path_graph(4))}
        assert tied == expected
        assert report.min_s_plus_g6 in report.min_s_plus_ties
        assert report.min_slack == pytest.approx(0.0, abs=1e-9)

    def test_min_slack_matches_minima(self):
        report = survey(enumerate_connected(6))
        floor = report.n - 1
        assert report.min_slack == pytest.approx(
            min(report.min_s_plus, report.min_s_minus) - floor, abs=1e-12
        )

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="order"):
            survey([star_graph(4), star_graph(5)])

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            survey([])

    def test_record_sink_sees_every_graph_in_order(self):
        seen = []
        survey(enumerate_connected(5), record_sink=seen.append)
        assert len(seen) == 21
        assert [r.graph6 for r in seen] == [to_graph6(g) for g in enumerate_connected(5)]
        rec = seen[0]
        assert rec.n == 5 and rec.positive + rec.zero + rec.negative == 5
        assert rec.conjecture_ok

    def test_threads_do_not_change_the_report(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        single = survey(enumerate_connected(6), threads=1)
        multi = survey(enumerate_connected(6), threads=2)
        assert single == multi

    def test_the_pool_starts_its_workers_without_fork(self, monkeypatch):
        # fork copies a process whose BLAS may already run threads
        def no_fork():
            raise AssertionError("the survey pool forked")

        single = survey(enumerate_connected(6), threads=1)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr("os.fork", no_fork)
        assert survey(enumerate_connected(6), threads=2) == single

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for threads=2")
    def test_a_script_on_stdin_is_rejected_before_the_pool_starts(self):
        # its workers could not re-import "<stdin>"; the error names why, before any starts
        script = (
            "from sqenergy import enumerate_connected, survey\n"
            "survey(enumerate_connected(4), threads=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(survey_module.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-"], input=script, capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ValueError: threads > 1 needs a __main__ that workers can import, not '<stdin>'"
        )

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for threads=2")
    def test_an_unguarded_script_stops_with_a_broken_pool(self, tmp_path):
        # each worker re-runs the survey call while it imports the script and
        # dies; the pool reports that instead of replacing workers without end
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from sqenergy import enumerate_connected, survey\n"
            "survey(enumerate_connected(4), threads=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(survey_module.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode != 0
        assert proc.stderr.splitlines()[-1].startswith(
            "concurrent.futures.process.BrokenProcessPool: "
        )

    @pytest.mark.parametrize("threads", [0, -3, 3])
    def test_threads_outside_the_cpu_count_are_rejected_before_any_graph(
        self, monkeypatch, threads
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        def unread():
            raise AssertionError("a graph was read")
            yield

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(
            ValueError, match=rf"^threads must be between 1 and 2 \(the CPU count\), got {threads}$"
        ):
            survey(unread(), threads=threads)


class TestRoundingFlag:
    def test_midpoint_is_flagged(self):
        flag = _rounding_flag("min_s_plus", 1.0000005)
        assert flag is not None and "midpoint" in flag and "min_s_plus" in flag

    def test_clear_values_pass(self):
        assert _rounding_flag("x", 4.763932) is None
        assert _rounding_flag("x", 3.0) is None

    def test_a_flag_reaches_the_report(self, monkeypatch):
        def flag(label, value):
            return f"{label} flagged" if label == "min_s_minus" else None

        monkeypatch.setattr(survey_module, "_rounding_flag", flag)
        assert survey(enumerate_connected(4)).rounding_flags == ("min_s_minus flagged",)


class TestMinTracker:
    def test_a_lower_minimum_after_many_ties_keeps_only_its_own_band(self):
        tracker = survey_module._MinTracker()
        for i in range(70):
            tracker.offer(5.0, f"a{i:02d}")
        assert tracker.result() == (5.0, "a00", tuple(f"a{i:02d}" for i in range(70)))
        tracker.offer(4.0, "z")
        tracker.offer(4.0 + 1e-10, "y")
        tracker.offer(4.0 + 1e-8, "x")  # outside the tie band
        tracker.offer(4.0, "w")
        assert tracker.result() == (4.0, "z", ("z", "y", "w"))

    def test_the_first_of_two_ties_is_the_minimiser_whichever_float_is_smaller(self):
        # the last bits of the two values depend on the BLAS kernel; stream order does not
        tracker = survey_module._MinTracker()
        tracker.offer(2.0 + 4e-16, "BW")
        tracker.offer(2.0, "Bw")
        assert tracker.result() == (2.0, "BW", ("BW", "Bw"))


@pytest.fixture(scope="module")
def small_corpus():
    return [g for n in (2, 3, 4, 5) for g in enumerate_connected(n)]


class TestCoverage:
    def test_corpus_tally(self, small_corpus):
        report = certify_corpus(small_corpus)
        assert isinstance(report, CoverageReport)
        assert report.total == 1 + 2 + 6 + 21
        assert report.covered_both <= min(report.covered_plus, report.covered_minus)
        assert report.covered_both + len(report.uncertified) == report.total
        assert report.min_slack >= -1e-9

    def test_rule_filter_restricts_firing(self, small_corpus):
        report = certify_corpus(small_corpus, rules=["avg_degree"])
        fired = {rule for rule, cov in report.per_rule.items() if cov.fired}
        assert fired <= {"avg_degree"}
        assert report.per_rule["avg_degree"].conclusive <= report.per_rule["avg_degree"].fired

    def test_unknown_rule_rejected(self, small_corpus):
        with pytest.raises(ValueError, match="unknown rule.*bogus"):
            certify_corpus(small_corpus, rules=["bogus"])

    def test_unknown_rule_rejected_on_an_empty_corpus(self):
        with pytest.raises(ValueError, match="unknown rule.*bogus"):
            certify_corpus([], rules=["bogus"])

    def test_one_shot_rule_iterable_applies_to_every_graph(self, small_corpus):
        once = certify_corpus(small_corpus, rules=iter(["avg_degree"]))
        listed = certify_corpus(small_corpus, rules=["avg_degree"])
        assert once == listed

    def test_every_uncertified_tag_decodes(self, small_corpus):
        report = certify_corpus(small_corpus)
        for tag in report.uncertified:
            g = from_graph6(tag)
            assert 2 <= g.n <= 5


class TestStackedCoverage:
    """certify_corpus solves spectra, and ranks up to order 22, in stacks."""

    def test_report_does_not_depend_on_the_chunking(self, monkeypatch, connected_by_order):
        corpus = [g for n in range(1, 8) for g in connected_by_order[n]]
        random.Random(3).shuffle(corpus)  # orders change inside every chunk
        whole = certify_corpus(corpus)
        for chunk in (1, 5):
            monkeypatch.setattr(survey_module, "_CORPUS_CHUNK", chunk)
            assert certify_corpus(corpus) == whole

    @pytest.mark.parametrize("k", [1, 3, 300])
    def test_an_error_of_the_corpus_itself_is_raised(self, k):
        # k = 300 fails inside the first full window (256-511)
        def corpus():
            for i in range(k):
                yield path_graph(1 + i % 6)
            raise RuntimeError("corpus broke")

        with pytest.raises(RuntimeError, match="^corpus broke$"):
            certify_corpus(corpus())

    def test_no_per_graph_eigensolve_or_rank(self, monkeypatch, small_corpus):
        def refuse(g):
            pytest.fail(f"per-graph call on {to_graph6(g)}")

        expected = certify_corpus(small_corpus)
        monkeypatch.setattr(bounds_module, "eigenvalues", refuse)
        monkeypatch.setattr(bounds_module, "rank_exact", refuse)
        assert certify_corpus(small_corpus) == expected

    def test_ranks_above_the_int64_cap_are_computed_only_when_read(self, monkeypatch):
        def refuse(g):
            pytest.fail("rank_exact called for a rule that never reads the inertia")

        monkeypatch.setattr(bounds_module, "rank_exact", refuse)
        assert certify_corpus([path_graph(30)], rules=["avg_degree"]).total == 1

    @pytest.mark.parametrize(
        "module, kernel, order",
        [(spectral_module, "_bareiss_ranks", 4), (bounds_module, "rank_exact", 30)],
    )
    def test_rank_disagreeing_with_the_inertia_raises(self, monkeypatch, module, kernel, order):
        # paths have rank n or n - 1; one less than the true rank is one
        # zero eigenvalue too many for the tolerance inertia; the stacked
        # rank stops at order 22, past it GraphFacts ranks the graph itself
        true_rank = getattr(module, kernel)
        monkeypatch.setattr(module, kernel, lambda a: true_rank(a) - 1)
        g = path_graph(order)
        zero = order % 2
        with pytest.raises(
            ArithmeticError,
            match=f"tolerance classified {zero} zero eigenvalues, exact rank says {zero + 1}",
        ):
            certify_corpus([g])


def test_coverage_through_order_seven_is_pinned(connected_by_order):
    corpus = [g for n in range(1, 8) for g in connected_by_order[n]]
    report = certify_corpus(corpus)
    assert report.total == 996
    assert (report.covered_plus, report.covered_minus, report.covered_both) == (973, 883, 880)
    assert len(report.uncertified) == 116
    assert {rule: (cov.fired, cov.conclusive) for rule, cov in report.per_rule.items()} == {
        "avg_degree": (860, 860),
        "complete_bipartite_span": (256, 256),
        "clique": (367, 367),
        "self_join": (0, 0),
        "induced_bipartite": (132, 78),
        "odd_cycle": (7, 7),
        "two_positive": (323, 323),
        "rank": (41, 41),
        "energy": (1766, 1766),
    }


class TestProfiles:
    def test_m0_curve_values(self):
        curve = [(n, m0_threshold(n)) for n in (5, 100)]
        assert curve[0][0] == 5
        assert curve[1][1] == pytest.approx(m0_threshold(100))
        assert curve[1][1] == pytest.approx(7.380092, abs=1e-5)

    def test_m0_curve_is_increasing(self):
        values = [m0_threshold(n) for n in range(5, 60, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_leaf_increment_profile(self):
        out = leaf_increment_profile(cycle_graph(5))
        assert len(out) == 5
        # vertex-transitive base: every attachment point gives the same delta
        first = out[0]
        for dp, dm in out[1:]:
            assert dp == pytest.approx(first[0], abs=1e-8)
            assert dm == pytest.approx(first[1], abs=1e-8)
        assert all(dp > 0 and dm > 0 for dp, dm in out)

    def test_leaf_increment_depends_on_the_vertex(self):
        from sqenergy.graphs import add_leaf

        # pendant on a pentagon: the tail tip behaves unlike cycle vertices
        out = leaf_increment_profile(add_leaf(cycle_graph(5), 0))
        assert out[5][0] != pytest.approx(out[1][0], abs=1e-6)

    def test_tree_increments_are_all_unit(self):
        # bipartite graphs put half of 2m on each side, so any new pendant
        # shifts both square energies by exactly one
        for dp, dm in leaf_increment_profile(path_graph(5)):
            assert dp == pytest.approx(1.0, abs=1e-8)
            assert dm == pytest.approx(1.0, abs=1e-8)


class TestReportInvariants:
    def test_report_is_frozen(self):
        report = survey(enumerate_connected(4))
        assert isinstance(report, SurveyReport)
        with pytest.raises(AttributeError):
            report.total = 0

    def test_tie_list_always_contains_the_witness(self):
        for n in (4, 5, 6):
            report = survey(enumerate_connected(n))
            assert report.min_s_plus_g6 in report.min_s_plus_ties
            assert report.min_s_minus_g6 in report.min_s_minus_ties
            assert not math.isinf(report.min_slack)
