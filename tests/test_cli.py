"""End-to-end command-line checks through main(argv)."""

from __future__ import annotations

import io
import json

import pytest

import sqenergy.graphs as graphs_module
from sqenergy.cli import _default_threads, main

TRIANGLE = "Bw"  # K_3
K4 = "C~"
STAR5 = "Ds_"  # hub at vertex 0
C5 = "Dhc"


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

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "certify", "--json", "--g6", K4)
        assert code == 0
        rec = json.loads(out[0])
        assert rec["graph6"] == K4 and rec["floor"] == 3
        rules = {c["rule"] for c in rec["certificates"]}
        assert "avg_degree" in rules
        cert = next(c for c in rec["certificates"] if c["rule"] == "avg_degree")
        assert cert["bound"] == 9.0 and cert["conclusive"] is True


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

    def test_order_beyond_cap_exits_one(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "11")
        assert code == 1 and err.startswith("sqenergy: error:")


class TestUnicyclicMin:
    def test_survey_row(self, capsys):
        code, out, _ = run(capsys, "unicyclic-min", "--n", "5")
        assert code == 0
        fields = out[1].split(",")
        assert fields[:6] == ["5", "4", "3", "1", "0", "0"]
        assert fields[6] == "4.763932" and fields[8] == "4.096788"

    def test_cap_requires_flag(self, capsys):
        code, _, err = run(capsys, "unicyclic-min", "--n", "15")
        assert code == 1 and "allow" in err


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


class TestParser:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_default_threads_env(self, monkeypatch):
        monkeypatch.setenv("SQENERGY_THREADS", "4")
        assert _default_threads() == 4
        monkeypatch.setenv("SQENERGY_THREADS", "bogus")
        assert _default_threads() == 1
        monkeypatch.setenv("SQENERGY_THREADS", "-3")
        assert _default_threads() == 1
        monkeypatch.delenv("SQENERGY_THREADS")
        assert _default_threads() == 1
