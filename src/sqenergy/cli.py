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
import dataclasses
import functools
import json
import os
import stat
import sys
import tempfile
from typing import IO, Iterable, Iterator, Optional

from .bounds import _wanted_rules
from .canon import canonical_pair
from .enumeration import (
    _check_connected_order,
    _check_unicyclic_order,
    enumerate_connected,
    enumerate_unicyclic_nonbipartite,
)
from .families import FAMILIES, generate_family
from .graphs import Graph, Graph6Error, _g6_graph, _read_g6_payloads, from_graph6, to_graph6
from .lemmas import m0_threshold
from .partitions import (
    Partition,
    coarsest_equitable_refinement,
    parse_partition,
    quotient_eigenvalues,
    quotient_matrix,
)
from .spectral import _g6_spectra, energy_profile, spectra_and_ranks
from .survey import (
    SurveyRecord,
    SurveyReport,
    _certified,
    _check_threads,
    _windows,
    leaf_increment_profile,
    survey,
)

__all__ = ["main"]


class UsageError(Exception):
    """Bad flag combination caught after argparse (exit status 2)."""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _jreal(x: float) -> float:
    # CSV and JSON both report reals to 6 decimals
    return round(x, 6)


def _csv(fields: Iterable) -> str:
    """One CSV row: floats to 6 decimals, everything else as ``str``."""
    return ",".join(_fmt(x) if isinstance(x, float) else str(x) for x in fields)


def _json(record: dict) -> str:
    """One JSON object; top-level floats are rounded, nested values kept as they are."""
    return json.dumps({k: _jreal(v) if isinstance(v, float) else v for k, v in record.items()})


def _record(header: str, values: tuple, as_json: bool) -> str:
    """One record: the CSV row under ``header``, or JSON keyed by its names."""
    return _json(dict(zip(header.split(","), values))) if as_json else _csv(values)


# ---------------------------------------------------------------------------
# graph input


def _decode_file(fh: IO[str], path: str) -> Iterator[tuple[str, int, int]]:
    with fh:
        yield from _read_g6_payloads(fh, path)


def _input_payloads(args: argparse.Namespace) -> Iterator[tuple[str, int, int]]:
    """Each input graph's graph6 payload ``(text, n, x)``, with the text
    to echo for it (see ``graphs._read_g6_payloads``).

    The file-or-``--g6`` conflict and a missing input file raise here,
    before the caller writes anything.  A file is read as latin-1, one
    character per byte, so the validator names a non-ASCII byte on its line.
    """
    if args.g6 and args.input:
        raise UsageError("give an input file or --g6 strings, not both")
    if args.g6:
        # each string is one graph, decoded as a file line is ("line k" is
        # the k-th string); a blank one is an error, where a file skips it
        for k, text in enumerate(args.g6, start=1):
            if not text.strip():
                raise Graph6Error(f"--g6, line {k}: blank graph6 string")
        return _read_g6_payloads(args.g6, "--g6")
    if args.input:
        return _decode_file(open(args.input, "r", encoding="latin-1"), args.input)
    return _read_g6_payloads(sys.stdin, "<stdin>")


def _input_graphs(args: argparse.Namespace) -> Iterator[tuple[str, Graph]]:
    """Each input graph with the text to echo for it; errors as ``_input_payloads``."""
    return ((text, _g6_graph(n, x)) for text, n, x in _input_payloads(args))


def _single_graph(args: argparse.Namespace) -> tuple[str, Graph]:
    graphs = list(_input_graphs(args))
    if len(graphs) != 1:
        raise ValueError(f"expected exactly one graph, got {len(graphs)}")
    return graphs[0]


def _parse_n_range(text: str) -> range:
    """Parse "8", "2-8" or "2..8" into an inclusive range of orders."""
    for sep in ("..", "-"):
        if sep in text.lstrip("-"):
            lo_text, hi_text = text.split(sep, 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"bad order range {text!r}") from None
            if lo > hi:
                raise UsageError(f"empty order range {text!r}")
            return range(lo, hi + 1)
    try:
        n = int(text)
    except ValueError:
        raise UsageError(f"bad order {text!r}") from None
    return range(n, n + 1)


# ---------------------------------------------------------------------------
# subcommands

ENERGIES_CSV_HEADER = "graph6,n,m,s_plus,s_minus,energy,positive,zero,negative"


def _cmd_energies(args: argparse.Namespace, out: IO[str]) -> int:
    """One row per input graph, in input order.

    The input is read as graph6 payloads, with no ``Graph`` built, and
    solved in ``survey._windows``, each by one ``spectral._g6_spectra``
    call; ``out`` is flushed after each window: a reader sees the first
    row after one graph.
    """
    payloads = _input_payloads(args)
    if not args.json:
        print(ENERGIES_CSV_HEADER, file=out)
    for window in _windows(payloads):
        for (g6, n, x), spectrum in zip(window, _g6_spectra([(n, x) for _, n, x in window])):
            prof = energy_profile(spectrum)
            counts = (prof.inertia.positive, prof.inertia.zero, prof.inertia.negative)
            row = (g6, n, x.bit_count(), prof.s_plus, prof.s_minus, prof.energy, *counts)
            print(_record(ENERGIES_CSV_HEADER, row, args.json), file=out)
        out.flush()
    return 0


def _parse_rules(text: Optional[str]) -> Optional[list[str]]:
    if text is None:
        return None
    rules = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not rules:
        raise UsageError("--rules names no rule")
    try:
        _wanted_rules(rules)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return rules


def _cmd_certify(args: argparse.Namespace, out: IO[str]) -> int:
    """Certificates and verdict per input graph, in input order; read,
    solved and flushed window by window as ``energies`` is.  A graph
    that ``certify`` rejects is named by its input text."""
    rules = _parse_rules(args.rules)
    for window in _windows(_input_graphs(args)):
        graphs = [g for _, g in window]
        solved = _certified(graphs, spectra_and_ranks(graphs), rules)
        for g6, g in window:
            try:
                facts, certs, plus_ok, minus_ok = next(solved)
            except ValueError as exc:
                raise ValueError(f"{g6}: {exc}") from None
            prof = facts.profile
            floor = g.n - 1
            if args.json:
                record = {
                    "graph6": g6,
                    "n": g.n,
                    "s_plus": prof.s_plus,
                    "s_minus": prof.s_minus,
                    "floor": floor,
                    "certificates": [c.to_json_dict() for c in certs],
                }
                print(_json(record), file=out)
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
        out.flush()
    return 0


# survey report columns, named as the report's attributes
TABLE1_CSV_HEADER = "n,total,s_plus_gt,s_minus_gt,equal,bipartite"
SURVEY_CSV_HEADER = (
    "n,total,s_plus_gt,s_minus_gt,equal,bipartite,"
    "min_s_plus,min_s_plus_g6,min_s_minus,min_s_minus_g6"
)


@contextlib.contextmanager
def _record_sink(path: Optional[str]):
    """Optional per-graph JSON record stream (one object per line)."""
    if path is None:
        yield None
        return
    with _replaced_on_success(path) as fh:

        def sink(rec: SurveyRecord) -> None:
            fh.write(_json(vars(rec)) + "\n")

        yield sink


def _canonical_witnesses(report: SurveyReport) -> SurveyReport:
    """``report`` with each minimiser, ties included, in canonical labelling.

    ``enumerate_unicyclic_nonbipartite`` emits its classes unlabelled, so
    this is where its printed witnesses get their canonical graph6: one
    ``canonical_pair`` call per tie.  A canonically labelled graph is its
    own canonical form, so ``scan``'s witnesses come out as they went in.
    """

    def canonical(ties: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(to_graph6(canonical_pair(from_graph6(g6))[1]) for g6 in ties)

    plus, minus = canonical(report.min_s_plus_ties), canonical(report.min_s_minus_ties)
    # the survey's witness is the first of its ties
    return dataclasses.replace(
        report,
        min_s_plus_g6=plus[0],
        min_s_plus_ties=plus,
        min_s_minus_g6=minus[0],
        min_s_minus_ties=minus,
    )


def _cmd_survey(args: argparse.Namespace, out: IO[str]) -> int:
    """``scan`` and ``unicyclic-min``: one survey row per order, its
    minimisers canonically labelled.  The ``--records`` lines keep the
    enumerator's labelling.

    Every order, the thread count and the records file are checked
    before anything is written to ``out``.  The records and the output
    may not share a regular file, which would keep only the output.
    """
    orders = _parse_n_range(args.n)
    for n in orders:
        args.check_order(n)
    try:
        _check_threads(args.threads)
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None  # name the flag, not the keyword
    if args.records and args.output:
        target = os.path.realpath(args.records)
        if target == os.path.realpath(args.output) and (
            os.path.isfile(target) or not os.path.exists(target)
        ):
            raise UsageError(f"--records and --output both name {args.records!r}")
    header = TABLE1_CSV_HEADER if args.table1 else SURVEY_CSV_HEADER
    with _record_sink(args.records) as sink:
        if not args.json:
            print(header, file=out)
        for n in orders:
            report = survey(args.enumerate(n), threads=args.threads, record_sink=sink)
            report = _canonical_witnesses(report)
            for flag in report.rounding_flags:
                print(f"sqenergy: note: {flag}", file=sys.stderr)
            if args.json:
                print(_json(vars(report)), file=out)
            else:
                print(_csv(getattr(report, name) for name in header.split(",")), file=out)
            out.flush()
    return 0


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
    g6, g = _single_graph(args)
    if args.partition is not None:
        part = parse_partition(args.partition)
    else:
        part = Partition.of([list(range(g.n))] if g.n else [])
    if args.refine or args.partition is None:
        part = coarsest_equitable_refinement(g, part)
    q = quotient_matrix(g, part)
    spec = quotient_eigenvalues(q)
    if args.json:
        record = {
            "graph6": g6,
            "blocks": [list(b) for b in part.blocks],
            "equitable": q.equitable,
            "matrix": [[_jreal(x) for x in row] for row in q.entries.tolist()],
            "eigenvalues": [_jreal(v) for v in spec.values],
        }
        print(_json(record), file=out)
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
    graphs = _input_graphs(args)
    if not args.json:
        print(LEAF_CSV_HEADER, file=out)
    for g6, g in graphs:
        increments = leaf_increment_profile(g)
        if args.json:
            rows = [
                {"vertex": v, "delta_s_plus": _jreal(dp), "delta_s_minus": _jreal(dm)}
                for v, (dp, dm) in enumerate(increments)
            ]
            print(_json({"graph6": g6, "increments": rows}), file=out)
        else:
            for v, (dp, dm) in enumerate(increments):
                print(_csv((g6, v, dp, dm)), file=out)
    return 0


M0_CSV_HEADER = "n,m0"


def _cmd_m0_curve(args: argparse.Namespace, out: IO[str]) -> int:
    orders = _parse_n_range(args.n)
    if orders[0] < 3:
        raise UsageError("m0 threshold needs n >= 3")
    if not args.json:
        print(M0_CSV_HEADER, file=out)
    for n in orders:
        print(_record(M0_CSV_HEADER, (n, m0_threshold(n)), args.json), file=out)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the tree as it was, and
    # --g6's append starts each call from its default of None.
    # The shared arguments, each declared once: every subcommand takes -o,
    # all but ``family`` take --json, and most of those read graphs or orders
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", metavar="PATH", help="write data here instead of stdout")
    with_json = argparse.ArgumentParser(add_help=False, parents=[output])
    with_json.add_argument(
        "--json", action="store_true", help="one JSON object per line instead of CSV or text"
    )
    graphs = argparse.ArgumentParser(add_help=False, parents=[with_json])
    graphs.add_argument(
        "input",
        nargs="?",
        help="graph6 file, one graph per line (standard input when omitted)",
    )
    graphs.add_argument(
        "--g6",
        action="append",
        metavar="G6",
        help="inline graph6 string (repeatable)",
    )
    orders = argparse.ArgumentParser(add_help=False, parents=[with_json])
    orders.add_argument("--n", required=True, metavar="N|A-B", help="order or inclusive range")
    surveys = argparse.ArgumentParser(add_help=False, parents=[orders])
    surveys.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes, from 1 to the CPU count (default: 1)",
    )
    surveys.add_argument(
        "--records", metavar="PATH", help="also stream per-graph JSON records here"
    )

    parser = argparse.ArgumentParser(
        prog="sqenergy",
        description="Square-energy workbench: energies, bound certificates, scans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def command(name, parent, help, func, **defaults):
        p = sub.add_parser(name, parents=[parent], help=help)
        p.set_defaults(func=func, **defaults)
        return p

    command("energies", graphs, "square energies and inertia per input graph", _cmd_energies)
    p = command("certify", graphs, "run lower-bound certificate rules per graph", _cmd_certify)
    p.add_argument(
        "--rules",
        metavar="R1,R2",
        help="comma-separated rule subset (default: all rules)",
    )
    p = command(
        "scan",
        surveys,
        "survey all connected graphs of given order(s)",
        _cmd_survey,
        check_order=_check_connected_order,
        enumerate=enumerate_connected,
    )
    p.add_argument("--table1", action="store_true", help="counts-only columns")
    command(
        "unicyclic-min",
        surveys,
        "survey connected non-bipartite unicyclic graphs of given order(s)",
        _cmd_survey,
        check_order=_check_unicyclic_order,
        enumerate=enumerate_unicyclic_nonbipartite,
        table1=False,  # no --table1: always the full survey columns
    )
    p = command("family", output, "emit a named family graph as graph6", _cmd_family)
    p.add_argument("family", nargs="?", help="family name (see --list)")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--list", action="store_true", help="list available families")
    p = command("quotient", graphs, "quotient matrix and spectrum of one graph", _cmd_quotient)
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
    command(
        "leaf-profile",
        graphs,
        "per-vertex square-energy increments of adding a pendant",
        _cmd_leaf_profile,
    )
    command("m0-curve", orders, "cycle half-length threshold m0(n)", _cmd_m0_curve)
    return parser


@contextlib.contextmanager
def _replaced_on_success(path: str) -> Iterator[IO[str]]:
    """A text file that takes the place of ``path`` only if the block succeeds.

    It is written as a sibling temporary file, renamed over ``path`` at
    the end and removed if the block raises, so a failed run leaves an
    existing file as it was.  The new file keeps the permission bits of
    the file it replaces, or gets the umask's mode when there was none,
    as a plain ``open`` would.  Being a new file, it is not seen through
    a hard link to the old one.  A symbolic link is followed, so the file
    it points to is replaced and the link kept.  A path that exists and
    is not a regular file (``/dev/null``, a pipe) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{tail}.", suffix=".tmp", dir=head)
    except OSError as exc:
        # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            try:
                mode = stat.S_IMODE(os.stat(target).st_mode)
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.chmod(fd, mode)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.output:
            code = args.func(args, sys.stdout)
            sys.stdout.flush()  # a reader that has gone fails here, not at exit
            return code
        with _replaced_on_success(args.output) as out:
            return args.func(args, out)
    except UsageError as exc:
        print(f"sqenergy: usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what stdout still buffers would fail again in the interpreter's
        # final flush, which reports it and exits 120; send it to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"sqenergy: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("sqenergy: error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
