"""Command-line front end.

Subcommands: energies, certify, scan, unicyclic-min, family, quotient,
leaf-profile, m0-curve.  Graph input comes from a file argument, inline
``--g6`` strings, or standard input (one graph6 line per graph).  Data
goes to stdout (or ``--output``); diagnostics go to stderr.  Exit codes:
0 success, 1 computation or input-data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import IO, Iterable, Iterator, Optional

from .bounds import CERTIFY_RULES, GraphFacts, certify
from .enumeration import enumerate_connected, enumerate_unicyclic_nonbipartite
from .families import FAMILIES, generate_family
from .graphs import Graph, Graph6Error, from_graph6, to_graph6
from .partitions import (
    Partition,
    coarsest_equitable_refinement,
    parse_partition,
    quotient_eigenvalues,
    quotient_matrix,
)
from .spectral import graph_profile
from .survey import (
    SURVEY_CSV_HEADER,
    SurveyRecord,
    leaf_increment_profile,
    m0_curve,
    survey,
    survey_csv_row,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag combination caught after argparse (exit status 2)."""


def _default_threads() -> int:
    raw = os.environ.get("SQENERGY_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _jreal(x: float) -> float:
    # CSV and JSON both report reals to 6 decimals
    return round(x, 6)


# ---------------------------------------------------------------------------
# graph input


def _decode_lines(lines: Iterable[str], source: str) -> Iterator[Graph]:
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            yield from_graph6(text)
        except Graph6Error as exc:
            raise Graph6Error(f"{source}, line {lineno}: {exc}") from None


def _input_graphs(args: argparse.Namespace) -> Iterator[Graph]:
    inline = getattr(args, "g6", None)
    path = getattr(args, "input", None)
    if inline and path:
        raise UsageError("give an input file or --g6 strings, not both")
    if inline:
        for text in inline:
            yield from_graph6(text)
    elif path:
        with open(path, "r", encoding="ascii") as fh:
            yield from _decode_lines(fh, path)
    else:
        yield from _decode_lines(sys.stdin, "<stdin>")


def _single_graph(args: argparse.Namespace) -> Graph:
    graphs = list(_input_graphs(args))
    if len(graphs) != 1:
        raise ValueError(f"expected exactly one graph, got {len(graphs)}")
    return graphs[0]


def _add_input_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "input",
        nargs="?",
        help="graph6 file, one graph per line (standard input when omitted)",
    )
    p.add_argument(
        "--g6",
        action="append",
        metavar="G6",
        help="inline graph6 string (repeatable)",
    )


def _add_output_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", metavar="PATH", help="write data here instead of stdout")


def _parse_n_range(text: str) -> list[int]:
    """Parse "8", "2-8" or "2..8" into an inclusive list of orders."""
    for sep in ("..", "-"):
        if sep in text.lstrip("-"):
            lo_text, hi_text = text.split(sep, 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"bad order range {text!r}") from None
            if lo > hi:
                raise UsageError(f"empty order range {text!r}")
            return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad order {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands

ENERGIES_CSV_HEADER = "graph6,n,m,s_plus,s_minus,energy,positive,zero,negative"


def _cmd_energies(args: argparse.Namespace, out: IO[str]) -> int:
    if not args.json:
        print(ENERGIES_CSV_HEADER, file=out)
    for g in _input_graphs(args):
        prof = graph_profile(g)
        g6 = to_graph6(g)
        if args.json:
            print(
                json.dumps(
                    {
                        "graph6": g6,
                        "n": g.n,
                        "m": g.m,
                        "s_plus": _jreal(prof.s_plus),
                        "s_minus": _jreal(prof.s_minus),
                        "energy": _jreal(prof.energy),
                        "positive": prof.inertia.positive,
                        "zero": prof.inertia.zero,
                        "negative": prof.inertia.negative,
                    }
                ),
                file=out,
            )
        else:
            print(
                f"{g6},{g.n},{g.m},{_fmt(prof.s_plus)},{_fmt(prof.s_minus)},"
                f"{_fmt(prof.energy)},{prof.inertia.positive},"
                f"{prof.inertia.zero},{prof.inertia.negative}",
                file=out,
            )
    return 0


def _parse_rules(text: Optional[str]) -> Optional[list[str]]:
    if text is None:
        return None
    rules = [tok.strip() for tok in text.split(",") if tok.strip()]
    bad = [r for r in rules if r not in CERTIFY_RULES]
    if bad:
        raise UsageError(
            f"unknown rule(s) {', '.join(bad)}; available: {', '.join(CERTIFY_RULES)}"
        )
    return rules


def _cmd_certify(args: argparse.Namespace, out: IO[str]) -> int:
    rules = _parse_rules(args.rules)
    for g in _input_graphs(args):
        g6 = to_graph6(g)
        facts = GraphFacts(g)
        certs = certify(facts, rules=rules)
        prof = facts.profile
        floor = g.n - 1
        plus_ok = any(c.covers("s_plus") for c in certs)
        minus_ok = any(c.covers("s_minus") for c in certs)
        if args.json:
            print(
                json.dumps(
                    {
                        "graph6": g6,
                        "n": g.n,
                        "s_plus": _jreal(prof.s_plus),
                        "s_minus": _jreal(prof.s_minus),
                        "floor": floor,
                        "certificates": [c.to_json_dict() for c in certs],
                    }
                ),
                file=out,
            )
            continue
        for c in certs:
            status = "conclusive" if c.conclusive else "inconclusive"
            print(
                f"{g6} rule={c.rule} target={c.target} bound={_fmt(c.bound_value)} {status}",
                file=out,
            )
        certified = {
            (True, True): "both",
            (True, False): "s_plus",
            (False, True): "s_minus",
            (False, False): "none",
        }[(plus_ok, minus_ok)]
        print(
            f"{g6} verdict s_plus={_fmt(prof.s_plus)} s_minus={_fmt(prof.s_minus)} "
            f"floor={floor} certified={certified}",
            file=out,
        )
    return 0


def _report_json(report) -> str:
    return json.dumps(
        {
            "n": report.n,
            "total": report.total,
            "s_plus_gt": report.s_plus_gt,
            "s_minus_gt": report.s_minus_gt,
            "equal": report.equal,
            "bipartite": report.bipartite,
            "min_s_plus": _jreal(report.min_s_plus),
            "min_s_plus_g6": report.min_s_plus_g6,
            "min_s_plus_ties": list(report.min_s_plus_ties),
            "min_s_minus": _jreal(report.min_s_minus),
            "min_s_minus_g6": report.min_s_minus_g6,
            "min_s_minus_ties": list(report.min_s_minus_ties),
            "min_slack": _jreal(report.min_slack),
            "rounding_flags": list(report.rounding_flags),
        }
    )


TABLE1_CSV_HEADER = "n,total,s_plus_gt,s_minus_gt,equal,bipartite"


@contextlib.contextmanager
def _record_sink(path: Optional[str]):
    """Optional per-graph JSON record stream (one object per line)."""
    if path is None:
        yield None
        return
    with open(path, "w", encoding="utf-8") as fh:

        def sink(rec: SurveyRecord) -> None:
            fh.write(
                json.dumps(
                    {
                        "graph6": rec.graph6,
                        "n": rec.n,
                        "m": rec.m,
                        "s_plus": _jreal(rec.s_plus),
                        "s_minus": _jreal(rec.s_minus),
                        "positive": rec.positive,
                        "zero": rec.zero,
                        "negative": rec.negative,
                        "bipartite": rec.bipartite,
                        "conjecture_ok": rec.conjecture_ok,
                    }
                )
                + "\n"
            )

        yield sink


def _emit_survey_rows(
    args: argparse.Namespace,
    out: IO[str],
    streams: Iterable[tuple[int, Iterable[Graph]]],
) -> int:
    table1 = getattr(args, "table1", False)
    if not args.json:
        print(TABLE1_CSV_HEADER if table1 else SURVEY_CSV_HEADER, file=out)
    with _record_sink(args.records) as sink:
        for _, graphs in streams:
            report = survey(graphs, threads=args.threads, record_sink=sink)
            for flag in report.rounding_flags:
                print(f"sqenergy: note: {flag}", file=sys.stderr)
            if args.json:
                print(_report_json(report), file=out)
            elif table1:
                print(
                    f"{report.n},{report.total},{report.s_plus_gt},"
                    f"{report.s_minus_gt},{report.equal},{report.bipartite}",
                    file=out,
                )
            else:
                print(survey_csv_row(report), file=out)
            out.flush()
    return 0


def _cmd_scan(args: argparse.Namespace, out: IO[str]) -> int:
    orders = _parse_n_range(args.n)
    streams = ((n, enumerate_connected(n)) for n in orders)
    return _emit_survey_rows(args, out, streams)


def _cmd_unicyclic_min(args: argparse.Namespace, out: IO[str]) -> int:
    orders = _parse_n_range(args.n)
    streams = (
        (n, enumerate_unicyclic_nonbipartite(n, allow_large=args.allow_large))
        for n in orders
    )
    return _emit_survey_rows(args, out, streams)


def _cmd_family(args: argparse.Namespace, out: IO[str]) -> int:
    if args.list:
        for name in sorted(FAMILIES):
            arity = FAMILIES[name][1]
            print(f"{name} ({arity} parameter{'s' if arity != 1 else ''})", file=out)
        return 0
    if not args.family:
        raise UsageError("family name required (or use --list)")
    g = generate_family(args.family, *args.params)
    print(to_graph6(g), file=out)
    return 0


def _cmd_quotient(args: argparse.Namespace, out: IO[str]) -> int:
    g = _single_graph(args)
    if args.partition is not None:
        part = parse_partition(args.partition)
    else:
        part = Partition.of([list(range(g.n))])
    if args.refine or args.partition is None:
        part = coarsest_equitable_refinement(g, part)
    q = quotient_matrix(g, part)
    spec = quotient_eigenvalues(q)
    if args.json:
        print(
            json.dumps(
                {
                    "graph6": to_graph6(g),
                    "blocks": [list(b) for b in part.blocks],
                    "equitable": q.equitable,
                    "matrix": [[_jreal(x) for x in row] for row in q.entries.tolist()],
                    "eigenvalues": [_jreal(v) for v in spec.values],
                }
            ),
            file=out,
        )
        return 0
    print(
        "blocks: " + "; ".join(",".join(str(v) for v in b) for b in part.blocks),
        file=out,
    )
    print(f"equitable: {'yes' if q.equitable else 'no'}", file=out)
    for row in q.entries.tolist():
        print("  ".join(_fmt(x) for x in row), file=out)
    print("eigenvalues: " + ", ".join(_fmt(v) for v in spec.values), file=out)
    return 0


LEAF_CSV_HEADER = "graph6,vertex,delta_s_plus,delta_s_minus"


def _cmd_leaf_profile(args: argparse.Namespace, out: IO[str]) -> int:
    if not args.json:
        print(LEAF_CSV_HEADER, file=out)
    for g in _input_graphs(args):
        g6 = to_graph6(g)
        increments = leaf_increment_profile(g)
        if args.json:
            print(
                json.dumps(
                    {
                        "graph6": g6,
                        "increments": [
                            {"vertex": v, "delta_s_plus": _jreal(dp), "delta_s_minus": _jreal(dm)}
                            for v, (dp, dm) in enumerate(increments)
                        ],
                    }
                ),
                file=out,
            )
        else:
            for v, (dp, dm) in enumerate(increments):
                print(f"{g6},{v},{_fmt(dp)},{_fmt(dm)}", file=out)
    return 0


def _cmd_m0_curve(args: argparse.Namespace, out: IO[str]) -> int:
    orders = _parse_n_range(args.n)
    bad = [n for n in orders if n < 3]
    if bad:
        raise UsageError("m0 threshold needs n >= 3")
    points = m0_curve(orders)
    if args.json:
        for n, m0 in points:
            print(json.dumps({"n": n, "m0": _jreal(m0)}), file=out)
        return 0
    print("n,m0", file=out)
    for n, m0 in points:
        print(f"{n},{_fmt(m0)}", file=out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqenergy",
        description="Square-energy workbench: energies, bound certificates, scans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("energies", help="square energies and inertia per input graph")
    _add_input_arguments(p)
    _add_output_argument(p)
    p.add_argument("--json", action="store_true", help="JSON records instead of CSV")
    p.set_defaults(func=_cmd_energies)

    p = sub.add_parser("certify", help="run lower-bound certificate rules per graph")
    _add_input_arguments(p)
    _add_output_argument(p)
    p.add_argument("--json", action="store_true", help="JSON records instead of text")
    p.add_argument(
        "--rules",
        metavar="R1,R2",
        help="comma-separated rule subset (default: all rules)",
    )
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="survey all connected graphs of given order(s)")
    p.add_argument("--n", required=True, metavar="N|A-B", help="order or inclusive range")
    p.add_argument("--table1", action="store_true", help="counts-only columns")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--json", action="store_true", help="JSON report per order")
    p.add_argument("--records", metavar="PATH", help="also stream per-graph JSON records here")
    _add_output_argument(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "unicyclic-min",
        help="survey connected non-bipartite unicyclic graphs of given order(s)",
    )
    p.add_argument("--n", required=True, metavar="N|A-B", help="order or inclusive range")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--json", action="store_true", help="JSON report per order")
    p.add_argument("--records", metavar="PATH", help="also stream per-graph JSON records here")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help="permit orders above the default cap (slow)",
    )
    _add_output_argument(p)
    p.set_defaults(func=_cmd_unicyclic_min)

    p = sub.add_parser("family", help="emit a named family graph as graph6")
    p.add_argument("family", nargs="?", help="family name (see --list)")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--list", action="store_true", help="list available families")
    _add_output_argument(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("quotient", help="quotient matrix and spectrum of one graph")
    _add_input_arguments(p)
    _add_output_argument(p)
    p.add_argument(
        "--partition",
        metavar="BLOCKS",
        help='vertex blocks like "0,1;2;3,4,5" (default: coarsest equitable)',
    )
    p.add_argument(
        "--refine",
        action="store_true",
        help="refine the given partition to the coarsest equitable one",
    )
    p.add_argument("--json", action="store_true", help="JSON instead of text")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser(
        "leaf-profile", help="per-vertex square-energy increments of adding a pendant"
    )
    _add_input_arguments(p)
    _add_output_argument(p)
    p.add_argument("--json", action="store_true", help="JSON records instead of CSV")
    p.set_defaults(func=_cmd_leaf_profile)

    p = sub.add_parser("m0-curve", help="cycle half-length threshold m0(n)")
    p.add_argument("--n", required=True, metavar="N|A-B", help="order or inclusive range")
    p.add_argument("--json", action="store_true", help="JSON points instead of CSV")
    _add_output_argument(p)
    p.set_defaults(func=_cmd_m0_curve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as out:
                return args.func(args, out)
        return args.func(args, sys.stdout)
    except UsageError as exc:
        print(f"sqenergy: usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except (Graph6Error, ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"sqenergy: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
