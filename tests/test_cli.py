"""End-to-end command-line checks through main(argv)."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import random_connected
from test_enumeration import UNICYCLIC_STREAM_SHA256, canonical_unicyclic, g6_stream

import sqenergy.cli as cli_module
import sqenergy.enumeration as enumeration_module
import sqenergy.graphs as graphs_module
import sqenergy.spectral as spectral_module
from sqenergy.bounds import certify
from sqenergy.canon import canonical_pair
from sqenergy.cli import ENERGIES_CSV_HEADER, SURVEY_CSV_HEADER, _build_parser, main
from sqenergy.enumeration import enumerate_connected, enumerate_unicyclic_nonbipartite
from sqenergy.graphs import Graph6Error, from_graph6, to_graph6
from sqenergy.spectral import graph_profile
from sqenergy.survey import certify_corpus, survey

# the package's ``survey`` attribute is the function, not this module
survey_module = importlib.import_module("sqenergy.survey")

TRIANGLE = "Bw"  # K_3
K4 = "C~"
STAR5 = "Ds_"  # hub at vertex 0
C5 = "Dhc"


def _no_search(*args, **kwargs):
    raise AssertionError("an order was enumerated")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestEnergies:
    def test_inline_graph_csv(self, capsys):
        code, out, err = run(capsys, "energies", "--g6", TRIANGLE)
        assert code == 0 and err == ""
        assert out[0] == "graph6,n,m,s_plus,s_minus,energy,positive,zero,negative"
        assert out[1] == "Bw,3,3,4.000000,2.000000,4.000000,1,0,2"

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "energies", "--json", "--g6", TRIANGLE, "--g6", K4)
        assert code == 0 and len(out) == 2
        rec = json.loads(out[0])
        assert rec == {
            "graph6": "Bw", "n": 3, "m": 3, "s_plus": 4.0, "s_minus": 2.0,
            "energy": 4.0, "positive": 1, "zero": 0, "negative": 2,
        }

    def test_file_input(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text(f"{TRIANGLE}\n\n{K4}\n")
        code, out, _ = run(capsys, "energies", str(src))
        assert code == 0
        assert len(out) == 3  # header plus two rows, blank line skipped
        assert out[1].startswith("Bw,") and out[2].startswith("C~,")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{TRIANGLE}\n"))
        code, out, _ = run(capsys, "energies")
        assert code == 0 and out[1].startswith("Bw,")

    def test_file_and_inline_conflict(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text(f"{TRIANGLE}\n")
        code, _, err = run(capsys, "energies", str(src), "--g6", K4)
        assert code == 2 and "usage error" in err

    def test_graph6_column_echoes_the_input(self, capsys):
        code, out, _ = run(capsys, "energies", "--g6", ">>graph6<<Bw", "--g6", "Bw\n")
        assert code == 0 and [row.split(",")[0] for row in out[1:]] == ["Bw", "Bw"]
        code, _, err = run(capsys, "energies", "--g6", "~??Bw")
        assert code == 1 and err == "sqenergy: error: --g6, line 1: non-canonical graph6 order field (byte 0)\n"

    def test_inline_strings_decode_as_stdin_lines(self, capsys, monkeypatch):
        code, inline, err = run(capsys, "energies", "--g6", " Bw", "--g6", "C~\t")
        assert (code, err) == (0, "")
        monkeypatch.setattr("sys.stdin", io.StringIO(" Bw\nC~\t\n"))
        assert (0, inline) == run(capsys, "energies")[:2]
        assert [row.split(",")[0] for row in inline[1:]] == ["Bw", "C~"]

    def test_bad_inline_string_is_located(self, capsys):
        code, _, err = run(capsys, "energies", "--g6", TRIANGLE, "--g6", "B\x07")
        assert code == 1 and err == "sqenergy: error: --g6, line 2: invalid graph6 byte 7 (byte 1)\n"

    @pytest.mark.parametrize("blank", ["", " ", "\n"])
    def test_blank_inline_string_is_an_error(self, capsys, blank):
        code, out, err = run(capsys, "energies", "--g6", TRIANGLE, "--g6", blank)
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: --g6, line 2: blank graph6 string\n"

    def test_bad_graph6_exits_one(self, capsys):
        code, _, err = run(capsys, "energies", "--g6", '"')
        assert code == 1 and err.startswith("sqenergy: error:")

    def test_order_above_the_dense_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs_module, "DENSE_ORDER_CAP", 4)
        code, out, err = run(capsys, "energies", "--g6", STAR5)
        assert code == 1 and out == ["graph6,n,m,s_plus,s_minus,energy,positive,zero,negative"]
        assert err == "sqenergy: error: order 5 exceeds the dense matrix cap of 4 vertices\n"

    def test_bad_line_in_file_is_located(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text(f"{TRIANGLE}\n\x07bad\n")
        code, _, err = run(capsys, "energies", str(src))
        assert code == 1 and "line 2" in err and str(src) in err

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "rows.csv"
        code, out, _ = run(capsys, "energies", "--g6", TRIANGLE, "-o", str(dest))
        assert code == 0 and out == []
        lines = dest.read_text().splitlines()
        assert lines[1] == "Bw,3,3,4.000000,2.000000,4.000000,1,0,2"


class TestBrokenPipe:
    @staticmethod
    def env():
        # block-buffered stdout, as in a user's shell: unbuffered, every write
        # fails at once and the exit-time flush has nothing left to fail on
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def test_reader_closing_early_exits_1_without_a_traceback(self, tmp_path):
        source = tmp_path / "triangles.g6"
        source.write_text(f"{TRIANGLE}\n" * 20000)  # far more output than a pipe buffers
        with source.open() as stdin, subprocess.Popen(
            [sys.executable, "-m", "sqenergy.cli", "energies"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env(),
        ) as proc:
            assert proc.stdout.readline().startswith(b"graph6,n,m,")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == b""  # neither a traceback nor the OSError report

    def test_reader_gone_before_buffered_output_exits_1_without_a_message(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: the output, short enough to stay buffered, cannot go
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sqenergy.cli", "family", "--list"],
                stdout=write_end, stderr=subprocess.PIPE, env=self.env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""  # not the interpreter's "Exception ignored" report


class TestCertify:
    def test_human_lines_and_verdict(self, capsys):
        code, out, _ = run(capsys, "certify", "--g6", K4)
        assert code == 0
        assert "C~ rule=avg_degree target=s_plus bound=9.000000 conclusive" in out
        assert out[-1] == (
            "C~ verdict s_plus=9.000000 s_minus=3.000000 floor=3 certified=both"
        )

    def test_rule_filter(self, capsys):
        code, out, _ = run(capsys, "certify", "--g6", K4, "--rules", "avg_degree")
        assert code == 0
        rule_lines = [line for line in out if " rule=" in line]
        assert len(rule_lines) == 1 and "rule=avg_degree" in rule_lines[0]

    def test_unknown_rule_is_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "--g6", K4, "--rules", "nonsense")
        assert code == 2 and "unknown rule" in err

    @pytest.mark.parametrize("rules", ["", ","])
    def test_rules_naming_no_rule_are_a_usage_error(self, rules, capsys):
        code, out, err = run(capsys, "certify", "--rules", rules, "--g6", TRIANGLE)
        assert (code, out) == (2, [])
        assert err == "sqenergy: usage error: --rules names no rule\n"

    def test_unknown_rules_message_matches_the_library(self, capsys):
        with pytest.raises(ValueError) as exc:
            certify_corpus([], rules=["zz", "avg_degree", "aa"])
        code, out, err = run(capsys, "certify", "--g6", K4, "--rules", "zz,avg_degree,aa")
        assert code == 2 and out == []
        assert err == f"sqenergy: usage error: {exc.value}\n"
        assert "unknown rule(s) aa, zz;" in err

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "certify", "--json", "--g6", K4)
        assert code == 0
        rec = json.loads(out[0])
        assert rec["graph6"] == K4 and rec["floor"] == 3
        rules = {c["rule"] for c in rec["certificates"]}
        assert "avg_degree" in rules
        cert = next(c for c in rec["certificates"] if c["rule"] == "avg_degree")
        assert cert["bound"] == 9.0 and cert["conclusive"] is True


@pytest.fixture(scope="module")
def mixed_orders(tmp_path_factory):
    """300 seeded connected graphs of orders 1-70, as graph6 lines and a file.

    They fill one 256-graph chunk and part of a second, and mix orders
    ranked in the stack (1-22), ranked per graph (23-64) and solved per
    graph (65 and up).
    """
    rng = random.Random(20261019)
    lines = [to_graph6(random_connected(rng, rng.randint(1, 70), 0.2)) for _ in range(300)]
    orders = {from_graph6(line).n for line in lines}
    assert orders & set(range(1, 23)) and orders & set(range(23, 65)) and max(orders) > 64
    path = tmp_path_factory.mktemp("mixed") / "mixed.g6"
    path.write_text("".join(line + "\n" for line in lines))
    return path, lines


@pytest.fixture(scope="module")
def certify_alone(mixed_orders):
    """What ``certify`` prints for each of ``mixed_orders``' lines on its own, by flags."""
    outputs = {}
    for flags in ((), ("--json",)):
        outputs[flags] = []
        for line in mixed_orders[1]:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["certify", *flags, "--g6", line]) == 0
            outputs[flags].append(out.getvalue())
    return outputs


def pipe_blocks(monkeypatch, argv, lines) -> list[tuple[int, str]]:
    """Run ``main(argv)`` on ``lines`` as standard input, with standard output a
    pipe behind a buffered writer; the blocks that reach the pipe's far end."""
    read = [0]

    def stdin():
        for line in lines:
            read[0] += 1
            yield line + "\n"

    class Pipe(io.RawIOBase):
        """A pipe's far end: what arrives, and how many lines had been read by then."""

        def __init__(self):
            self.blocks = []

        def writable(self):
            return True

        def write(self, b):
            self.blocks.append((read[0], bytes(b).decode("ascii")))
            return len(b)

    pipe = Pipe()
    with io.TextIOWrapper(io.BufferedWriter(pipe), encoding="ascii") as out:
        monkeypatch.setattr(sys, "stdin", stdin())
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
    return pipe.blocks


class TestCertifyChunks:
    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_a_chunked_run_prints_what_one_graph_runs_do(
        self, flags, capsys, mixed_orders, certify_alone
    ):
        path, _ = mixed_orders
        assert main(["certify", *flags, str(path)]) == 0
        assert capsys.readouterr().out == "".join(certify_alone[flags])

    def test_certificates_match_the_single_graph_path(self, capsys, mixed_orders):
        path, lines = mixed_orders
        assert main(["certify", "--json", str(path)]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [rec["graph6"] for rec in records] == lines
        for rec in records:
            want = [c.to_json_dict() for c in certify(from_graph6(rec["graph6"]))]
            assert rec["certificates"] == json.loads(json.dumps(want))

    @pytest.mark.parametrize("bad_line", [257, 300])
    def test_a_bad_line_after_the_first_chunk_stops_the_run(
        self, bad_line, capsys, mixed_orders, certify_alone, tmp_path
    ):
        _, lines = mixed_orders
        src = tmp_path / "bad.g6"
        src.write_text("".join(line + "\n" for line in lines[: bad_line - 1]) + "zz\n")
        dest = tmp_path / "out.txt"
        dest.write_bytes(b"kept\n")
        code, out, err = run(capsys, "certify", str(src), "-o", str(dest))
        assert (code, out) == (1, []) and f"{src}, line {bad_line}:" in err
        assert dest.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.g6", "out.txt"]
        # on stdout, every graph before the bad line is printed
        assert main(["certify", str(src)]) == 1
        assert capsys.readouterr().out == "".join(certify_alone[()][: bad_line - 1])

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    @pytest.mark.parametrize("bad_line", [2, 5, 257, 300])
    def test_a_bad_line_prints_every_graph_before_it(
        self, bad_line, flags, capsys, mixed_orders, certify_alone, tmp_path
    ):
        # windows hold lines 1, 2-3, 4-7, ..., 128-255, then 256 lines each
        good = mixed_orders[1][: bad_line - 1]
        src = tmp_path / "bad.g6"
        src.write_text("".join(line + "\n" for line in good) + "zz\n")
        with pytest.raises(Graph6Error) as exc:
            from_graph6("zz")
        assert main(["certify", *flags, str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "".join(certify_alone[flags][: bad_line - 1])
        assert captured.err == f"sqenergy: error: {src}, line {bad_line}: {exc.value}\n"

    def test_the_first_graph_is_out_after_one_graph(
        self, monkeypatch, mixed_orders, certify_alone
    ):
        blocks = pipe_blocks(monkeypatch, ["certify"], mixed_orders[1][:10])
        # one block per window of 1, 2, 4 and the last 3 graphs
        assert [lines_read for lines_read, _ in blocks] == [1, 3, 7, 10]
        assert blocks[0][1] == certify_alone[()][0]
        assert "".join(text for _, text in blocks) == "".join(certify_alone[()][:10])


@pytest.fixture(scope="module")
def energies_lines(tmp_path_factory):
    """640 seeded graph6 lines of orders 0-40, 65 and 70, and a file of them."""
    rng = random.Random(20261020)
    orders = [0, 65, 70, 65, 70] + [rng.randint(1, 40) for _ in range(635)]
    rng.shuffle(orders)
    lines = [to_graph6(random_connected(rng, n, 0.3)) if n else "?" for n in orders]
    path = tmp_path_factory.mktemp("energies") / "mixed.g6"
    path.write_text("".join(line + "\n" for line in lines))
    return path, lines


def per_graph_rows(lines, as_json: bool) -> list[str]:
    """``energies`` output lines, each graph solved on its own by graph_profile."""
    rows = [] if as_json else [ENERGIES_CSV_HEADER]
    for line in lines:
        g = from_graph6(line)
        p = graph_profile(g)
        row = (line, g.n, g.m, p.s_plus, p.s_minus, p.energy, *vars(p.inertia).values())
        rows.append(cli_module._record(ENERGIES_CSV_HEADER, row, as_json))
    return rows


class TestEnergiesWindows:
    """``energies`` solves its input in doubling windows of stacked spectra."""

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_rows_equal_the_per_graph_rows(self, flags, capsys, monkeypatch, energies_lines):
        path, lines = energies_lines
        want = per_graph_rows(lines, bool(flags))
        shapes = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        code, out, err = run(capsys, "energies", *flags, str(path))
        assert (code, err) == (0, "")
        assert out == want
        # a stack per order per window, none above order 64; orders 65 and 70 one by one
        assert all(s[1] <= 64 for s in shapes if len(s) == 3)
        assert sorted(s for s in shapes if len(s) == 2) == [(65, 65)] * 2 + [(70, 70)] * 2
        assert sum(s[0] for s in shapes if len(s) == 3) == len(lines) - 4

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    @pytest.mark.parametrize("bad_line", [2, 5, 300])
    def test_a_bad_line_prints_every_row_before_it(
        self, bad_line, flags, capsys, energies_lines, tmp_path
    ):
        # windows hold lines 1, 2-3, 4-7, ..., 128-255, then 256 lines each: line 5 falls
        # inside the third window, line 300 inside the first 256-line one
        good = energies_lines[1][: bad_line - 1]
        src = tmp_path / "bad.g6"
        src.write_text("".join(line + "\n" for line in good) + "zz\n")
        with pytest.raises(Graph6Error) as exc:
            from_graph6("zz")
        code, out, err = run(capsys, "energies", *flags, str(src))
        assert code == 1 and out == per_graph_rows(good, bool(flags))
        assert err == f"sqenergy: error: {src}, line {bad_line}: {exc.value}\n"

    def test_the_first_row_is_out_after_one_graph(self, monkeypatch, energies_lines):
        lines = energies_lines[1][:10]
        blocks = pipe_blocks(monkeypatch, ["energies"], lines)
        # one block per window of 1, 2, 4 and the last 3 graphs
        assert [lines_read for lines_read, _ in blocks] == [1, 3, 7, 10]
        rows = per_graph_rows(lines, False)
        assert blocks[0][1] == "\n".join(rows[:2]) + "\n"
        assert "".join(text for _, text in blocks) == "\n".join(rows) + "\n"

    def test_no_graph_is_built(self, capsys, monkeypatch, energies_lines):
        path, lines = energies_lines
        want = per_graph_rows(lines, False)

        def unused(*args, **kwargs):
            raise AssertionError("energies built a graph or an adjacency matrix")

        monkeypatch.setattr(graphs_module.Graph, "__init__", unused)
        for module in (graphs_module, spectral_module):
            monkeypatch.setattr(module, "_unpack_rows", unused)
        monkeypatch.setattr(graphs_module, "from_graph6", unused)
        assert run(capsys, "energies", str(path)) == (0, want, "")

    def test_an_order_above_the_dense_cap_stops_its_window(self, capsys, monkeypatch):
        # windows of 1, 2 and 4 graphs: the order-7 graph is in the third window,
        # so the order-3 graph before it in that window prints no row
        monkeypatch.setattr(graphs_module, "DENSE_ORDER_CAP", 6)
        lines = [TRIANGLE, K4, C5, TRIANGLE, "F~~~w", K4]
        code, out, err = run(capsys, "energies", *(a for line in lines for a in ("--g6", line)))
        assert code == 1 and out == per_graph_rows(lines[:3], False)
        assert err == "sqenergy: error: order 7 exceeds the dense matrix cap of 6 vertices\n"


MALFORMED = {
    "empty": ">>graph6<<",
    "bad-header-byte": "#",
    "truncated-order": "~A",
    "non-canonical-order": "~???",
    "truncated-payload": "B",
    "trailing-garbage": "Bww",
    "invalid-payload-byte": "C\x7f",
    "padding-bit": "Bx",
}


class TestOneGraph6Validator:
    """``energies`` reads payloads and ``certify`` reads graphs, through one validator."""

    @pytest.mark.parametrize("source", ["file", "--g6", "stdin"])
    @pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
    def test_energies_and_certify_report_a_bad_line_alike(
        self, capsys, monkeypatch, tmp_path, source, bad
    ):
        with pytest.raises(Graph6Error) as exc:
            from_graph6(bad)
        text = f"{K4}\n{bad}\n"
        path = tmp_path / "bad.g6"
        path.write_text(text, encoding="ascii")
        argv = {"file": [str(path)], "--g6": ["--g6", K4, "--g6", bad], "stdin": []}[source]
        name = {"file": str(path), "--g6": "--g6", "stdin": "<stdin>"}[source]
        for subcommand in ("energies", "certify"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, out, err = run(capsys, subcommand, *argv)
            assert (code, err) == (1, f"sqenergy: error: {name}, line 2: {exc.value}\n")
            assert out[-1].startswith(K4)  # the good line before it is printed


class TestScan:
    def test_table1_row(self, capsys):
        code, out, err = run(capsys, "scan", "--n", "5", "--table1")
        assert code == 0 and err == ""
        assert out[0] == "n,total,s_plus_gt,s_minus_gt,equal,bipartite"
        assert out[1] == "5,21,15,1,5,5"

    def test_range_of_orders(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "4-5", "--table1")
        assert code == 0
        assert out[1].startswith("4,6,") and out[2].startswith("5,21,")

    def test_full_row_has_minima(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "5")
        fields = out[1].split(",")
        # trees attain the order-5 minimum of both square energies
        assert code == 0 and fields[6] == "4.000000" and fields[8] == "4.000000"

    def test_csv_row_shape(self, capsys):
        report = survey(enumerate_connected(5))
        code, out, _ = run(capsys, "scan", "--n", "5")
        assert code == 0 and out[0] == SURVEY_CSV_HEADER
        row = out[1]
        fields = row.split(",")
        assert len(fields) == len(SURVEY_CSV_HEADER.split(","))
        assert fields[:6] == ["5", "21", "15", "1", "5", "5"]
        assert fields[6] == f"{report.min_s_plus:.6f}"
        from_graph6(fields[7])  # the witness is valid graph6
        assert report.rounding_flags == ()

    def test_order_cap_is_checked_before_any_order_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration_module, "canonical_pair", _no_search)
        code, out, err = run(capsys, "scan", "--n", "8-11")
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: connected enumeration supports 1 <= n <= 10, got 11\n"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "scan", "--n", "5", "--json")
        rec = json.loads(out[0])
        assert code == 0 and rec["total"] == 21 and rec["min_slack"] >= 0

    def test_records_stream(self, capsys, tmp_path):
        dest = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "scan", "--n", "5", "--table1", "--records", str(dest))
        assert code == 0
        rows = [json.loads(line) for line in dest.read_text().splitlines()]
        assert len(rows) == 21
        assert all(r["n"] == 5 and r["conjecture_ok"] for r in rows)

    def test_bad_order_text(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "abc")
        assert code == 2 and "bad order" in err

    def test_empty_range(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "5-4")
        assert code == 2 and "empty order range" in err

    def test_bad_range_end(self, capsys):
        code, out, err = run(capsys, "scan", "--n", "2-x")
        assert (code, out) == (2, []) and "bad order range '2-x'" in err

    def test_rounding_flags_are_notes_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(survey_module, "_rounding_flag", lambda label, value: f"{label} flagged")
        code, out, err = run(capsys, "scan", "--n", "4")
        assert code == 0 and out[0] == SURVEY_CSV_HEADER and len(out) == 2
        assert err == "sqenergy: note: min_s_plus flagged\nsqenergy: note: min_s_minus flagged\n"

    def test_order_beyond_cap_exits_one(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "11")
        assert code == 1 and err.startswith("sqenergy: error:")

    def test_a_range_too_long_to_list_stops_at_the_first_order_past_the_cap(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(enumeration_module, "canonical_pair", _no_search)
        code, out, err = run(capsys, "scan", "--n", f"1-{10**20}")
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: connected enumeration supports 1 <= n <= 10, got 11\n"


class TestUnicyclicMin:
    def test_survey_row(self, capsys):
        code, out, _ = run(capsys, "unicyclic-min", "--n", "5")
        assert code == 0
        fields = out[1].split(",")
        assert fields[:6] == ["5", "4", "3", "1", "0", "0"]
        assert fields[6] == "4.763932" and fields[8] == "4.096788"

    def test_order_beyond_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration_module, "canonical_pair", _no_search)
        code, _, err = run(capsys, "unicyclic-min", "--n", "19")
        assert code == 1 and "capped at n <= 18" in err

    def test_order_cap_is_checked_before_any_order_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration_module, "canonical_pair", _no_search)
        code, out, err = run(capsys, "unicyclic-min", "--n", "12-19")
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: unicyclic enumeration capped at n <= 18\n"

    def test_a_range_too_long_to_list_is_checked_up_to_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(enumeration_module, "canonical_pair", _no_search)
        code, out, err = run(capsys, "unicyclic-min", "--n", f"3-{10**20}")
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: unicyclic enumeration capped at n <= 18\n"

    def test_printed_minimisers_are_the_canonical_forms_of_the_survey_witnesses(
        self, capsys, monkeypatch
    ):
        # one canonical labelling per printed witness, ties included, and none elsewhere
        calls = []

        def counted(g, *args, **kwargs):
            calls.append(to_graph6(g))
            return canonical_pair(g, *args, **kwargs)

        monkeypatch.setattr(cli_module, "canonical_pair", counted)
        code, out, _ = run(capsys, "unicyclic-min", "--n", "3-9", "--json")
        assert code == 0 and len(out) == 7
        witnessed = []
        for n, line in zip(range(3, 10), out):
            printed = json.loads(line)
            report = survey(enumerate_unicyclic_nonbipartite(n))
            for field in ("min_s_plus", "min_s_minus"):
                raw = getattr(report, f"{field}_ties")
                canonical = [to_graph6(canonical_pair(from_graph6(g6))[1]) for g6 in raw]
                assert printed[f"{field}_ties"] == canonical
                assert printed[f"{field}_g6"] == canonical[0]
                witnessed += raw
        assert calls == witnessed

    def test_records_hold_the_enumerated_classes_in_bracelet_labelling(self, capsys, tmp_path):
        dest = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "unicyclic-min", "--n", "3-9", "--records", str(dest))
        assert code == 0
        records = [json.loads(line) for line in dest.read_text().splitlines()]
        for n in range(3, 10):
            lines = [rec["graph6"] for rec in records if rec["n"] == n]
            assert lines == [to_graph6(g) for g in enumerate_unicyclic_nonbipartite(n)]
            stream = g6_stream(canonical_unicyclic(from_graph6(g6) for g6 in lines))
            assert hashlib.sha256(stream).hexdigest() == UNICYCLIC_STREAM_SHA256[n]

    def test_unwritable_records_file_prints_nothing(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "records.jsonl"
        code, out, err = run(capsys, "unicyclic-min", "--n", "3", "--records", str(dest))
        assert (code, out) == (1, [])
        assert err == f"sqenergy: error: [Errno 2] No such file or directory: '{dest}'\n"


class TestFamily:
    def test_list_names(self, capsys):
        code, out, _ = run(capsys, "family", "--list")
        assert code == 0
        names = {line.split(" ")[0] for line in out}
        assert {"star", "cycle", "extended_barbell", "h_kn"} <= names

    def test_emit_graph6(self, capsys):
        code, out, _ = run(capsys, "family", "star", "5")
        assert code == 0 and out == [STAR5]

    def test_missing_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "family")
        assert code == 2 and "family name" in err

    def test_bad_arity_exits_one(self, capsys):
        code, _, err = run(capsys, "family", "star")
        assert code == 1 and err.startswith("sqenergy: error:")

    def test_unknown_family_exits_one(self, capsys):
        code, _, err = run(capsys, "family", "mystery", "3")
        assert code == 1


class TestQuotient:
    def test_default_equitable_refinement(self, capsys):
        code, out, _ = run(capsys, "quotient", "--g6", STAR5)
        assert code == 0
        assert out[0] == "blocks: 0; 1,2,3,4"
        assert out[1] == "equitable: yes"
        assert out[2] == "0.000000  4.000000"
        assert out[3] == "1.000000  0.000000"
        assert out[4] == "eigenvalues: 2.000000, -2.000000"

    def test_explicit_partition(self, capsys):
        code, out, _ = run(capsys, "quotient", "--g6", C5, "--partition", "0;1,2,3,4")
        assert code == 0 and out[1] == "equitable: no"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "quotient", "--g6", STAR5, "--json")
        rec = json.loads(out[0])
        assert code == 0
        assert rec["blocks"] == [[0], [1, 2, 3, 4]]
        assert rec["equitable"] is True
        assert rec["matrix"] == [[0.0, 4.0], [1.0, 0.0]]
        assert rec["eigenvalues"] == [2.0, -2.0]

    def test_empty_graph_has_the_empty_quotient(self, capsys):
        code, out, err = run(capsys, "quotient", "--g6", "?")
        assert (code, err) == (0, "")
        assert out == ["blocks: ", "equitable: yes", "eigenvalues: "]
        code, out, err = run(capsys, "quotient", "--g6", "?", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out[0]) == {
            "graph6": "?",
            "blocks": [],
            "equitable": True,
            "matrix": [],
            "eigenvalues": [],
        }

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_blank_partition_of_the_empty_graph_is_the_default(self, capsys, json_flag):
        default = run(capsys, "quotient", "--g6", "?", *json_flag)
        assert run(capsys, "quotient", "--g6", "?", "--partition", "", *json_flag) == default
        assert default[0] == 0

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_trailing_empty_block_is_an_error(self, capsys, json_flag):
        code, out, err = run(capsys, "quotient", "--g6", TRIANGLE, "--partition", "0;1,2;", *json_flag)
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: empty partition block\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_blank_partition_of_a_nonempty_graph_is_an_error(self, capsys, json_flag):
        code, out, err = run(capsys, "quotient", "--g6", STAR5, "--partition", "", *json_flag)
        assert (code, out) == (1, [])
        assert err == "sqenergy: error: partition covers 0 vertices, graph has 5\n"

    def test_needs_exactly_one_graph(self, capsys):
        code, _, err = run(capsys, "quotient", "--g6", STAR5, "--g6", K4)
        assert code == 1 and "exactly one graph" in err

    def test_bad_partition_text(self, capsys):
        code, _, err = run(capsys, "quotient", "--g6", STAR5, "--partition", "0;0")
        assert code == 1

    def test_partition_above_the_dense_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(graphs_module, "DENSE_ORDER_CAP", 4)
        code, out, err = run(capsys, "quotient", "--g6", C5, "--partition", "0;1;2;3;4")
        assert code == 1 and out == []
        assert err == (
            "sqenergy: error: partition of 5 blocks exceeds the dense matrix cap of 4 blocks\n"
        )


class TestLeafProfile:
    def test_triangle_rows(self, capsys):
        code, out, _ = run(capsys, "leaf-profile", "--g6", TRIANGLE)
        assert code == 0
        assert out[0] == "graph6,vertex,delta_s_plus,delta_s_minus"
        assert out[1:] == [
            "Bw,0,0.806063,1.193937",
            "Bw,1,0.806063,1.193937",
            "Bw,2,0.806063,1.193937",
        ]

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "leaf-profile", "--g6", TRIANGLE, "--json")
        rec = json.loads(out[0])
        assert code == 0 and len(rec["increments"]) == 3
        assert rec["increments"][0]["delta_s_plus"] == pytest.approx(0.806063)


class TestM0Curve:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "m0-curve", "--n", "100")
        assert code == 0 and out == ["n,m0", "100,7.380092"]

    def test_json_points(self, capsys):
        code, out, _ = run(capsys, "m0-curve", "--n", "99-100", "--json")
        assert code == 0 and len(out) == 2
        assert json.loads(out[1]) == {"n": 100, "m0": 7.380092}

    def test_too_small_order(self, capsys):
        code, _, err = run(capsys, "m0-curve", "--n", "2")
        assert code == 2 and "n >= 3" in err

    def test_too_small_start_of_a_range_too_long_to_list(self, capsys):
        code, out, err = run(capsys, "m0-curve", "--n", f"2-{10**20}")
        assert (code, out) == (2, [])
        assert err == "sqenergy: usage error: m0 threshold needs n >= 3\n"


class TestParser:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.fixture
    def two_cpus_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)

    @pytest.mark.parametrize("subcommand", ["scan", "unicyclic-min"])
    @pytest.mark.parametrize("threads", ["0", "3", "100000"])
    def test_threads_outside_the_cpu_count_are_usage_errors(
        self, capsys, two_cpus_no_pool, subcommand, threads
    ):
        code, out, err = run(capsys, subcommand, "--n", "5", "--threads", threads)
        assert code == 2 and out == []
        assert err == (
            "sqenergy: usage error: --threads must be between 1 and 2 (the CPU count), "
            f"got {threads}\n"
        )

    @pytest.mark.parametrize("subcommand", ["scan", "unicyclic-min"])
    def test_threads_help_names_the_range_and_the_default(self, capsys, subcommand):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert (
            "--threads THREADS worker processes, from 1 to the CPU count "
            "(default: 1)" in help_text
        )

    def test_threads_must_be_an_integer(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--n", "5", "--threads", "bogus"])
        assert exc.value.code == 2
        assert "argument --threads: invalid int value: 'bogus'" in capsys.readouterr().err

    def test_successive_calls_share_one_parser_and_print_what_fresh_processes_do(self, capsys):
        # no flag or --g6 list is carried from one call to the next
        argvs = [
            ["energies", "--g6", TRIANGLE, "--g6", K4],
            ["certify", "--g6", K4],
            ["energies", "--json", "--g6", TRIANGLE],
            ["energies", "--g6", TRIANGLE],
        ]
        in_process = [run(capsys, *argv) for argv in argvs]
        assert _build_parser() is _build_parser()
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parents[1]))
        for argv, (code, out, err) in zip(argvs, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "sqenergy.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (code, out, err) == (proc.returncode, proc.stdout.splitlines(), proc.stderr)
        assert in_process[3][1] == in_process[0][1][:2]


# The command line's surface: per subcommand, each option by dest as
# (option strings, required, default), each positional by dest as its nargs
# (which sets ``required``, differently across Python versions for "*"), and
# the values the subcommand sets as defaults, functions by name.
_OUTPUT = {"output": (("-o", "--output"), False, None)}
_JSON = {"json": (("--json",), False, False), **_OUTPUT}
_GRAPHS = {"input": "?", "g6": (("--g6",), False, None), **_JSON}
_ORDERS = {"n": (("--n",), True, None), **_JSON}
_SURVEY = {
    **_ORDERS,
    "threads": (("--threads",), False, 1),
    "records": (("--records",), False, None),
}
CLI_SURFACE = {
    "energies": (_GRAPHS, {"func": "_cmd_energies"}),
    "certify": (
        {**_GRAPHS, "rules": (("--rules",), False, None)},
        {"func": "_cmd_certify"},
    ),
    "scan": (
        {**_SURVEY, "table1": (("--table1",), False, False)},
        {
            "func": "_cmd_survey",
            "check_order": "_check_connected_order",
            "enumerate": "enumerate_connected",
        },
    ),
    "unicyclic-min": (
        _SURVEY,
        {
            "func": "_cmd_survey",
            "check_order": "_check_unicyclic_order",
            "enumerate": "enumerate_unicyclic_nonbipartite",
            "table1": False,
        },
    ),
    "family": (
        {"family": "?", "params": "*", "list": (("--list",), False, False), **_OUTPUT},
        {"func": "_cmd_family"},
    ),
    "quotient": (
        {
            **_GRAPHS,
            "partition": (("--partition",), False, None),
            "refine": (("--refine",), False, False),
        },
        {"func": "_cmd_quotient"},
    ),
    "leaf-profile": (_GRAPHS, {"func": "_cmd_leaf_profile"}),
    "m0-curve": (_ORDERS, {"func": "_cmd_m0_curve"}),
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestSurface:
    def test_subcommands(self):
        assert list(_subparsers()) == list(CLI_SURFACE)

    @pytest.mark.parametrize("subcommand", list(CLI_SURFACE))
    def test_arguments_and_defaults(self, subcommand):
        parser = _subparsers()[subcommand]
        arguments = {
            a.dest: (
                (tuple(a.option_strings), a.required, a.default) if a.option_strings else a.nargs
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        defaults = {
            key: value.__name__ if callable(value) else value
            for key, value in parser._defaults.items()
        }
        assert (arguments, defaults) == CLI_SURFACE[subcommand]

    @pytest.mark.parametrize("subcommand", list(CLI_SURFACE))
    def test_help_exits_zero(self, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: sqenergy {subcommand} ")


class TestRejectedRunKeepsOutput:
    CASES = {
        "scan-cap": (
            ("scan", "--n", "11"),
            1,
            "sqenergy: error: connected enumeration supports 1 <= n <= 10, got 11\n",
        ),
        "unicyclic-cap": (
            ("unicyclic-min", "--n", "19"),
            1,
            "sqenergy: error: unicyclic enumeration capped at n <= 18\n",
        ),
        "threads": (
            ("scan", "--n", "5", "--threads", "0"),
            2,
            "sqenergy: usage error: --threads must be between 1 and 2 (the CPU count), got 0\n",
        ),
        "unknown-rule": (
            ("certify", "--g6", TRIANGLE, "--rules", "zz"),
            2,
            "sqenergy: usage error: unknown rule(s) zz; available: avg_degree, "
            "complete_bipartite_span, clique, self_join, induced_bipartite, odd_cycle, "
            "two_positive, rank, energy\n",
        ),
        "file-and-inline": (
            ("energies", "IN", "--g6", TRIANGLE),
            2,
            "sqenergy: usage error: give an input file or --g6 strings, not both\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_existing_output_keeps_its_bytes(self, case, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        argv, want_code, want_err = self.CASES[case]
        src = tmp_path / "in.g6"
        src.write_text(TRIANGLE + "\n")
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"kept\n")
        argv = [str(src) if a == "IN" else a for a in argv]
        code, out, err = run(capsys, *argv, "-o", str(dest))
        assert (code, out, err) == (want_code, [], want_err)
        assert dest.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.g6", "out.csv"]

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_out_of_memory_is_one_line_and_keeps_the_output(
        self, to_file, capsys, monkeypatch, tmp_path
    ):
        def no_memory(a):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "eigvalsh", no_memory)
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"kept\n")
        argv = ["energies", "--g6", TRIANGLE] + (["-o", str(dest)] if to_file else [])
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "sqenergy: error: out of memory\n")
        assert out == ([] if to_file else [ENERGIES_CSV_HEADER])
        assert dest.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("subcommand", ["energies", "leaf-profile"])
    def test_bad_first_line_keeps_the_output(self, subcommand, capsys, tmp_path):
        src = tmp_path / "bad.g6"
        src.write_text("zz\n")
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"kept\n")
        code, out, err = run(capsys, subcommand, str(src), "-o", str(dest))
        assert code == 1 and out == [] and f"{src}, line 1" in err
        assert dest.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.g6", "out.csv"]

    def test_failed_scan_keeps_the_records(self, capsys, monkeypatch, tmp_path):
        written = []

        def failing(graphs, **kwargs):
            # every record reaches the sink before the run fails
            written.append(survey(graphs, **kwargs).total)
            raise RuntimeError("survey failed")

        monkeypatch.setattr("sqenergy.cli.survey", failing)
        records = tmp_path / "records.jsonl"
        records.write_bytes(b"old records\n")
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"kept\n")
        code, out, err = run(
            capsys, "scan", "--n", "5", "--records", str(records), "-o", str(dest)
        )
        assert (code, out, err) == (1, [], "sqenergy: error: survey failed\n")
        assert written == [21]
        assert records.read_bytes() == b"old records\n"
        assert dest.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "records.jsonl"]

    @pytest.mark.parametrize("records", ["x", "link"])
    def test_records_and_output_sharing_a_file_are_a_usage_error(
        self, records, capsys, tmp_path
    ):
        dest = tmp_path / "x"
        dest.write_bytes(b"kept\n")
        (tmp_path / "link").symlink_to("x")
        code, out, err = run(
            capsys, "scan", "--n", "4", "--records", str(tmp_path / records), "-o", str(dest)
        )
        assert (code, out) == (2, [])
        assert err == (
            f"sqenergy: usage error: --records and --output both name '{tmp_path / records}'\n"
        )
        assert dest.read_bytes() == b"kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "x"]

    def test_records_and_output_sharing_a_missing_file_are_a_usage_error(
        self, capsys, tmp_path
    ):
        dest = tmp_path / "x"
        code, out, err = run(capsys, "scan", "--n", "4", "--records", str(dest), "-o", str(dest))
        assert (code, out) == (2, []) and "--records and --output both name" in err
        assert list(tmp_path.iterdir()) == []

    def test_records_and_output_may_share_a_device(self, capsys):
        code, out, err = run(
            capsys, "scan", "--n", "4", "--records", os.devnull, "-o", os.devnull
        )
        assert (code, out, err) == (0, [], "")

    def test_missing_input_file_keeps_the_output(self, capsys, tmp_path):
        dest = tmp_path / "out.csv"
        dest.write_bytes(b"kept\n")
        code, _, err = run(capsys, "energies", str(tmp_path / "missing.g6"), "-o", str(dest))
        assert code == 1 and "No such file" in err
        assert dest.read_bytes() == b"kept\n"

    def test_a_run_that_prints_nothing_empties_the_output(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        dest = tmp_path / "out.json"
        dest.write_bytes(b"stale\n")
        code, _, _ = run(capsys, "energies", "--json", "-o", str(dest))
        assert code == 0 and dest.read_bytes() == b""


class TestOutputFile:
    CASES = {
        "energies": ("energies", "--g6", TRIANGLE, "--g6", K4),
        "certify-json": ("certify", "--json", "--g6", C5),
        "leaf-profile": ("leaf-profile", "--g6", STAR5),
        "scan": ("scan", "--n", "2-5"),
        "unicyclic-min-json": ("unicyclic-min", "--n", "3-7", "--json"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_file_holds_the_stdout_bytes(self, case, capsys, tmp_path):
        argv = list(self.CASES[case])
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        dest = tmp_path / "out.txt"
        dest.write_bytes(b"stale\n")
        assert main(argv + ["-o", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_bytes() == stdout
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_records_replace_an_existing_file(self, capsys, tmp_path):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        second.write_bytes(b"stale\n")
        for dest in (first, second):
            assert main(["scan", "--n", "5", "--records", str(dest)]) == 0
        assert second.read_bytes() == first.read_bytes()
        assert len(first.read_text().splitlines()) == 21

    @pytest.mark.parametrize("flag", ["-o", "--records"])
    def test_a_replaced_file_keeps_its_mode(self, flag, capsys, tmp_path):
        dest = tmp_path / "out.txt"
        dest.write_bytes(b"old\n")
        dest.chmod(0o600)
        assert main(["scan", "--n", "4", flag, str(dest)]) == 0
        assert dest.read_bytes() != b"old\n"
        assert dest.stat().st_mode & 0o777 == 0o600

    def test_a_new_file_gets_the_umask_mode(self, capsys, tmp_path):
        dest = tmp_path / "out.txt"
        old = os.umask(0o027)
        try:
            assert main(["energies", "--g6", TRIANGLE, "-o", str(dest)]) == 0
        finally:
            os.umask(old)
        assert dest.stat().st_mode & 0o777 == 0o640

    def test_a_symlink_is_kept_and_its_target_replaced(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_bytes(b"stale\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target.name)
        assert main(["energies", "--g6", TRIANGLE, "-o", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text().splitlines()[1] == "Bw,3,3,4.000000,2.000000,4.000000,1,0,2"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "rows.csv"]

    def test_a_missing_directory_is_named(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "out.csv"
        code, out, err = run(capsys, "energies", "--g6", TRIANGLE, "-o", str(dest))
        assert (code, out) == (1, [])
        assert err == f"sqenergy: error: [Errno 2] No such file or directory: '{dest}'\n"

    def test_a_pipe_is_written_in_place(self, capsys, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        code = main(["energies", "--g6", TRIANGLE, "-o", str(pipe)])
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0 and got[0].endswith(b"\nBw,3,3,4.000000,2.000000,4.000000,1,0,2\n")
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


# every certify rule, listed: the default sweep prints what this --rules list does
NINE_RULES = (
    "avg_degree,complete_bipartite_span,clique,self_join,induced_bipartite,"
    "odd_cycle,two_positive,rank,energy"
)

# sha256 of whole outputs: RANDOM is 200 seeded random connected graphs of
# orders 8-20, SMALL the 995 connected graphs of orders 2-7, CONNECTED8 the
# 11117 connected graphs of order 8 (read from the benchmark's corpus), and
# a case naming RECORDS pins the --records file instead of stdout.
GOLDEN_SHA256 = {
    "energies-csv": (
        ("energies", "RANDOM"),
        "1cdb432b0ed3782295d36750aad24ae949cd8cdb9ab5d7f50a13332877d027ee",
    ),
    "energies-json": (
        ("energies", "--json", "RANDOM"),
        "6660fbcb6f825ea1b7b6d9da119c32ed4d81d735f8ae6ebe8939ae058ac9c146",
    ),
    "certify-text": (
        ("certify", "SMALL"),
        "d3bdfd2ac90285bee30300f245536c07907b7510091596a9e3845f3d46554d78",
    ),
    "certify-json": (
        ("certify", "--json", "SMALL"),
        "0ef679e36b4b2b8773acb0fc0ac76753ecb9e8bc9f01ff83945365efc6bab099",
    ),
    "certify8-text": (
        ("certify", "CONNECTED8"),
        "1ae7cf4273da2f3b04a7955a7c9d34071dcb4b76d7f91c99b6ec6f480e26914c",
    ),
    "certify8-json": (
        ("certify", "--json", "CONNECTED8"),
        "2b73c612e5edbd59e6a30246defe6d37b586b92473c36fbf74d53eea46f6b379",
    ),
    "certify-nine-text": (
        ("certify", "--rules", NINE_RULES, "SMALL"),
        "d3bdfd2ac90285bee30300f245536c07907b7510091596a9e3845f3d46554d78",
    ),
    "certify-nine-json": (
        ("certify", "--json", "--rules", NINE_RULES, "SMALL"),
        "0ef679e36b4b2b8773acb0fc0ac76753ecb9e8bc9f01ff83945365efc6bab099",
    ),
    "scan-csv": (
        ("scan", "--n", "2-6"),
        "01bdfb5d0b0ac6dd570a21bfe1b071010c786ad6f97e70ae8a7c00e158f3b14f",
    ),
    "scan-table1": (
        ("scan", "--n", "2-6", "--table1"),
        "40ffd0d023d90613a4fc4e540573933dd52ae78064220ae525fb4853626fde8e",
    ),
    "scan-json": (
        ("scan", "--n", "2-6", "--json"),
        "986283de6ba4cdbd0dfacca89064a5a43fee4fb82237e7567024a1bfd4e060b7",
    ),
    "scan-records": (
        ("scan", "--n", "2-6", "--records", "RECORDS"),
        "f943ddb2caef3f8d9c774140065d4e6837ac770b3fed99b51a3a6224c3e96bad",
    ),
    "unicyclic-csv": (
        ("unicyclic-min", "--n", "3-9"),
        "49c1c8b1bfdf86d1bd4f3b77d723a03ccf6312343323c5f577d3e11e3532439d",
    ),
    "unicyclic-json": (
        ("unicyclic-min", "--n", "3-9", "--json"),
        "15fd5fb48fd6ef9f7784378e85a7c60ca40bdd476bc8ccc181c894e58f0f506f",
    ),
    "unicyclic-records": (
        ("unicyclic-min", "--n", "3-9", "--records", "RECORDS"),
        "14f49482aec78ef4563b7327e543a37248d2b46cc310a2ca4a331a08a25a8eaa",
    ),
    "m0-csv": (
        ("m0-curve", "--n", "3-40"),
        "730f8931dfcee6d9267deb38a8e3b32f0d4ce8e4a9c41841e7b3c28e521bfe86",
    ),
    "m0-json": (
        ("m0-curve", "--n", "3-40", "--json"),
        "84217cd6612778830fbd4292cecf38fa8b8d52534b49a83cb5a455a910cbad7d",
    ),
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory, connected_by_order):
    root = tmp_path_factory.mktemp("golden")
    rng = random.Random(20240607)
    corpora = {
        "RANDOM": [to_graph6(random_connected(rng, rng.randint(8, 20))) for _ in range(200)],
        "SMALL": [to_graph6(g) for n in range(2, 8) for g in connected_by_order[n]],
    }
    paths = {"CONNECTED8": Path(__file__).resolve().parent.parent / "perfbench" / "connected8.g6"}
    for name, lines in corpora.items():
        paths[name] = root / f"{name}.g6"
        paths[name].write_text("".join(line + "\n" for line in lines))
    assert len(corpora["SMALL"]) == 995
    return paths


class TestGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
    def test_output_digest(self, case, golden_inputs, tmp_path):
        argv, digest = GOLDEN_SHA256[case]
        paths = dict(golden_inputs, RECORDS=tmp_path / "records.jsonl")
        out = tmp_path / "out.txt"
        assert main([str(paths.get(a, a)) for a in argv] + ["-o", str(out)]) == 0
        pinned = paths["RECORDS"] if "RECORDS" in argv else out
        assert hashlib.sha256(pinned.read_bytes()).hexdigest() == digest

    # the same bytes when every sqenergy module sums as Python 3.12 does;
    # the JSON outputs print energy bounds and survey minima unrounded
    @pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
    def test_output_digest_under_python312_sum(self, case, golden_inputs, tmp_path, python312_sum):
        self.test_output_digest(case, golden_inputs, tmp_path)

    def test_edgeless_energies_json(self, capsys):
        code, out, _ = run(capsys, "energies", "--json", "--g6", "?", "--g6", "@", "--g6", "A?")
        assert code == 0 and out == [
            '{"graph6": "?", "n": 0, "m": 0, "s_plus": 0.0, "s_minus": 0.0, "energy": 0.0, '
            '"positive": 0, "zero": 0, "negative": 0}',
            '{"graph6": "@", "n": 1, "m": 0, "s_plus": 0.0, "s_minus": 0.0, "energy": 0.0, '
            '"positive": 0, "zero": 1, "negative": 0}',
            '{"graph6": "A?", "n": 2, "m": 0, "s_plus": 0.0, "s_minus": 0.0, "energy": 0.0, '
            '"positive": 0, "zero": 2, "negative": 0}',
        ]

    def test_edgeless_certify_json(self, capsys):
        code, out, _ = run(capsys, "certify", "--json", "--g6", "@")
        assert code == 0 and out == [
            '{"graph6": "@", "n": 1, "s_plus": 0.0, "s_minus": 0.0, "floor": 0, "certificates": ['
            '{"rule": "avg_degree", "target": "s_plus", "bound": 0.0, '
            '"witness": {"avg_degree": 0.0}, "conclusive": true}, '
            '{"rule": "induced_bipartite", "target": "both", "bound": 0.0, '
            '"witness": {"deleted": [], "remaining_edges": 0, "coarse_bound": 0}, '
            '"conclusive": true}]}'
        ]

    def test_edgeless_scan_json_and_records(self, capsys, tmp_path):
        dest = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "scan", "--n", "1", "--json", "--records", str(dest))
        assert code == 0 and out == [
            '{"n": 1, "total": 1, "s_plus_gt": 0, "s_minus_gt": 0, "equal": 1, "bipartite": 1, '
            '"min_s_plus": 0.0, "min_s_plus_g6": "@", "min_s_plus_ties": ["@"], '
            '"min_s_minus": 0.0, "min_s_minus_g6": "@", "min_s_minus_ties": ["@"], '
            '"min_slack": 0.0, "rounding_flags": []}'
        ]
        assert dest.read_text().splitlines() == [
            '{"graph6": "@", "n": 1, "m": 0, "s_plus": 0.0, "s_minus": 0.0, "positive": 0, '
            '"zero": 1, "negative": 0, "bipartite": true, "conjecture_ok": true}'
        ]
