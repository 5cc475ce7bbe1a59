"""Tests of the benchmark itself: checks, metric names, tracing and inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

import sqenergy  # noqa: E402
import sqenergy.cli  # noqa: E402,F401

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def failed_frac(results) -> float:
    attempted, failed, _ = run.summarize_checks(results)
    return failed / attempted


def energies_state(seed: int, count: int) -> dict:
    return {"sq": sqenergy, "lines": workload.random_graph6_lines(seed, count)}


def test_scan_check_counts_a_wrong_reference():
    report = sqenergy.survey(sqenergy.enumerate_connected(5))
    table1_n5 = (21, 15, 1, 5, 5)
    assert failed_frac(checks.check_scan(report, table1_n5)) == 0
    assert failed_frac(checks.check_scan(report, (21, 15, 1, 5, 4))) == pytest.approx(1 / 5)


def test_unicyclic_check_compares_at_printed_precision():
    report = sqenergy.survey(sqenergy.enumerate_unicyclic_nonbipartite(5))
    assert failed_frac(checks.check_unicyclic(report, (4, "4.763932", "4.096788"))) == 0
    assert failed_frac(checks.check_unicyclic(report, (4, "4.763933", "4.096788"))) > 0


def test_coverage_check_counts_a_wrong_reference():
    report = sqenergy.certify_corpus(sqenergy.enumerate_connected(5))
    right = {k: getattr(report, k) for k in checks.COVERAGE_N8}
    assert failed_frac(checks.check_coverage(report, report.uncertified, right)) == 0
    wrong = dict(right, covered_both=right["covered_both"] + 1)
    assert failed_frac(checks.check_coverage(report, report.uncertified, wrong)) > 0
    assert failed_frac(checks.check_coverage(report, ["D~{"], right)) > 0


def test_energies_check_counts_tampered_rows():
    state = energies_state(seed=5, count=30)
    texts = workload.timed_phase("energies-random", state, workload.Stamps())
    assert len(texts) == 1
    inputs = state["lines"]
    assert failed_frac(checks.check_energies_csv(inputs, texts[0], random.Random(0), sample=30)) == 0
    header, first, *rest = texts[0].splitlines()
    fields = first.split(",")
    fields[3] = f"{float(fields[3]) + 1e-5:.6f}"  # s_plus off in the 5th decimal
    tampered = "\n".join([header, ",".join(fields), *rest])
    results = checks.check_energies_csv(inputs, tampered, random.Random(0), sample=30)
    assert dict(results)["energies.row0"] is False
    assert dict(results)["energies.oracle0"] is False
    assert failed_frac(checks.check_energies_csv(inputs[1:] + inputs[:1], texts[0], random.Random(0))) > 0


def test_random_inputs_depend_only_on_the_seed():
    nx = pytest.importorskip("networkx")
    lines = workload.random_graph6_lines(seed=11, count=50)
    assert lines == workload.random_graph6_lines(seed=11, count=50)
    assert lines != workload.random_graph6_lines(seed=12, count=50)
    for text in lines:
        g = nx.from_graph6_bytes(text.encode("ascii"))
        assert workload.RANDOM_ORDERS[0] <= g.number_of_nodes() <= workload.RANDOM_ORDERS[1]
        assert nx.is_connected(g)
        assert sqenergy.to_graph6(sqenergy.from_graph6(text)) == text


def test_tracer_spans_enumeration_and_restores_the_package():
    original = sqenergy.enumeration.canonical_pair
    tracer = Tracer()
    stamps = workload.Stamps(tracer.current_graph)
    with tracer.installed():
        assert sqenergy.enumeration.canonical_pair is not original
        report = sqenergy.survey(stamps.wrap(sqenergy.enumerate_connected(6)))
    assert sqenergy.enumeration.canonical_pair is original
    assert report == sqenergy.survey(sqenergy.enumerate_connected(6))
    summary = tracer.summary()
    # every canonical_pair call comes from enumeration: 1 + sum |level_k| (2^k - 1), k = 1..5
    assert summary["enum_children"] == summary["calls"]["canon.canonical_pair"] == 1 + 1 + 3 + 14 + 90 + 651
    assert summary["enum_classes"] == 1 + 1 + 2 + 6 + 21 + 112
    assert summary["calls"]["spectral.eigenvalues"] == summary["calls"]["graphs.adjacency_matrix"] == 112
    assert summary["covered_s"] > 0
    assert all(v >= -1e-6 for v in summary["self_s"].values())
    assert set(tracer.arrays()["graph"]) >= set(range(112))


def _fake_pass(result: dict):
    def run_pass(args, deadline, *flags):
        return dict(result, setup_s=0.5)

    return run_pass


def _printed_metrics(monkeypatch, capsys, trace: int, pass_result: dict) -> dict:
    monkeypatch.setattr(run, "run_pass", _fake_pass(pass_result))
    argv = ["--workload", "coverage8", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result["metrics"]


def test_printed_metric_names_are_listed_in_benchmark_json(monkeypatch, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer()
    with tracer.installed():
        report = sqenergy.certify_corpus(workload.Stamps(tracer.current_graph).wrap(sqenergy.enumerate_connected(4)))
    layer = workload.per_layer(tracer.summary(), 6, 1.0, report)
    base = {
        "wall_s": 1.0, "graphs": 6, "first_result_s": 1.0, "graph_p50_ms": 0.1, "graph_p99_ms": 0.2,
        "latency_samples": 6, "service_p50_ms": 0.1, "service_p99_ms": 0.2, "peak_rss_mb": 40.0,
        "checks": [["a", True]], "digest": "x", "env": {}, "per_layer": layer, "spans": 1,
    }
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        printed = _printed_metrics(monkeypatch, capsys, trace, base)
        listed = {m["name"]: m["unit"] for m in spec[section]}
        assert set(printed) == set(listed)
        for name, metric in printed.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert metric["unit"] == listed[name], name
