"""Reference values and the correctness checks each workload ends with.

Every check is a ``(name, ok)`` pair; a workload's ``failed_frac`` is the
share of its checks that are not ok.  The checks take their reference as
a parameter so a test can feed a wrong one and see the failure counted.
Floats are compared at the 6-decimal precision the CLI prints.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

import numpy as np

Check = tuple[str, bool]

# Table 1 row for n = 8: total, s_plus > s_minus, s_minus > s_plus, ties, bipartite.
TABLE1_N8 = (11117, 10848, 87, 182, 182)
# Table 2 row for n = 13: total, min s_plus, min s_minus (printed to 6 decimals).
TABLE2_N13 = (8417, "12.773512", "12.032012")
# certify_corpus over every connected graph of order 8.
COVERAGE_N8 = {"total": 11117, "covered_plus": 10938, "covered_minus": 10573, "covered_both": 10557}
MIN_SLACK_FLOOR = -1e-9

ORACLE_SAMPLE = 20  # rows per CLI invocation
# Each printed energy is off by at most half a unit in the 6th decimal.
PRINT_TOL = 5e-7 + 1e-9


def check_scan(report, expected: Sequence[int] = TABLE1_N8) -> list[Check]:
    got = (report.total, report.s_plus_gt, report.s_minus_gt, report.equal, report.bipartite)
    names = ("total", "s_plus_gt", "s_minus_gt", "equal", "bipartite")
    return [(f"table1.{k}", g == e) for k, g, e in zip(names, got, expected)]


def check_unicyclic(report, expected: Sequence = TABLE2_N13) -> list[Check]:
    total, min_plus, min_minus = expected
    return [
        ("table2.total", report.total == total),
        ("table2.min_s_plus", f"{report.min_s_plus:.6f}" == min_plus),
        ("table2.min_s_minus", f"{report.min_s_minus:.6f}" == min_minus),
    ]


def check_coverage(
    report,
    uncertified: Iterable[str],
    expected: dict = COVERAGE_N8,
) -> list[Check]:
    checks = [(f"coverage.{k}", getattr(report, k) == v) for k, v in expected.items()]
    checks.append(("coverage.uncertified", set(report.uncertified) == set(uncertified)))
    checks.append(("coverage.min_slack", report.min_slack >= MIN_SLACK_FLOOR))
    return checks


def check_energies_csv(
    inputs: Sequence[str], csv_text: str, rng: random.Random, sample: int = ORACLE_SAMPLE, prefix: str = "energies"
) -> list[Check]:
    """Every row against its input line and the trace identity, a sample against an oracle.

    Row identities: the graph6 echoes the input, positive + zero +
    negative = n, and s_plus + s_minus = 2m (the trace of A squared).
    The oracle is networkx's graph6 decoder plus ``numpy.linalg.eigvalsh``.
    """
    lines = csv_text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    checks: list[Check] = [(f"{prefix}.row_count", len(rows) == len(inputs))]
    for i, (g6, row) in enumerate(zip(inputs, rows)):
        checks.append((f"{prefix}.row{i}", _row_ok(g6, row)))
    paired = min(len(rows), len(inputs))
    for i in sorted(rng.sample(range(paired), min(sample, paired))):
        checks.append((f"{prefix}.oracle{i}", _oracle_ok(inputs[i], rows[i])))
    return checks


def _parse_row(row: list[str]):
    """(graph6, n, m, s_plus, s_minus, energy, positive, zero, negative), or None if malformed."""
    if len(row) != 9:
        return None
    try:
        return (row[0], *map(int, row[1:3]), *map(float, row[3:6]), *map(int, row[6:9]))
    except ValueError:
        return None


def _row_ok(g6: str, row: list[str]) -> bool:
    parsed = _parse_row(row)
    if parsed is None:
        return False
    text, n, m, s_plus, s_minus, _, pos, zero, neg = parsed
    return text == g6 and pos + zero + neg == n and abs(s_plus + s_minus - 2 * m) <= 2 * PRINT_TOL


def _oracle_ok(g6: str, row: list[str]) -> bool:
    import networkx as nx

    parsed = _parse_row(row)
    if parsed is None:
        return False
    g = nx.from_graph6_bytes(g6.encode("ascii"))
    n = g.number_of_nodes()
    vals = np.linalg.eigvalsh(nx.to_numpy_array(g, nodelist=range(n)))
    tol = max(1e-9, n * np.finfo(float).eps * max(1.0, float(np.abs(vals).max(initial=0.0))))
    pos, neg = vals[vals > tol], vals[vals < -tol]
    expect = (float(pos @ pos), float(neg @ neg), float(np.abs(vals).sum()))
    return (
        parsed[1:3] == (n, g.number_of_edges())
        and all(abs(a - b) <= PRINT_TOL for a, b in zip(parsed[3:6], expect))
        and parsed[6:] == (len(pos), n - len(pos) - len(neg), len(neg))
    )
