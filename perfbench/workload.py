"""One benchmark pass in a fresh interpreter: set up, run the timed phase, check.

    python3 perfbench/workload.py --workload NAME --seed N [--trace] [--setup-only]

``run.py`` starts this with the environment it fixes (one BLAS thread,
``src`` on the path) and reads the JSON object on the last line of its
standard output.  Set-up ends at the monotonic timestamp ``setup_done``;
the parent, which knows when it started the process, turns that into
``setup_s``.  The timed phase is one closed-loop pass over the
workload's fixed batch, with ``threads=1`` wherever the API has it.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(HERE, "connected8.g6")
CORPUS_LINES = 11117
CORPUS_SHA256 = "1d24629828b996f1389d254529ce13f03e43aefd260f890274ce26b2f840d952"
UNCERTIFIED = os.path.join(HERE, "uncertified8.g6")
UNCERTIFIED_SHA256 = "d83abf3fd19ec8ba1e2e9d8639dfdba158ef0abac6626fbd3033bb08b08ac47e"
RANDOM_GRAPHS = 20000
RANDOM_ORDERS = (8, 40)
RANDOM_DENSITY = (0.1, 0.6)
# energies-random runs the CLI once per batch of this many graphs, like one
# invocation per input file; first_result_s is the median over invocations
CLI_BATCH = 2000

WORKLOADS = ("scan8", "unicyclic13", "coverage8", "energies-random")
EXHAUSTIVE = ("scan8", "unicyclic13")

# certify's rule functions and CERTIFY_RULES, as of the commit that defined this benchmark
BOUND_FUNCTIONS = (
    "check_avg_degree",
    "check_spanning_structures",
    "check_join",
    "check_self_join",
    "induced_bipartite_bound",
    "unicyclic_fractional_bound",
    "majorization_two_positive",
    "rank_bound",
    "energy_count_bound",
)
RULES = (
    "avg_degree",
    "dominating_vertex",
    "complete_bipartite_span",
    "clique",
    "join",
    "self_join",
    "induced_bipartite",
    "odd_cycle",
    "two_positive",
    "rank",
    "energy",
)


class Stamps:
    """Timestamps each item as the workload's input iterator hands it over."""

    def __init__(self, current_graph: list[int] | None = None):
        self.times = array("d")
        self.current = current_graph if current_graph is not None else [-1]

    def wrap(self, items):
        append, clock, current = self.times.append, time.perf_counter, self.current
        for i, item in enumerate(items, start=len(self.times)):
            current[0] = i
            append(clock())
            yield item


class PipeSink(io.BytesIO):
    """Output sink that notes when each buffered block reaches it.

    With the default buffer in front, a block arrives when a reader on the
    other end of a pipe would see the rows in it.
    """

    def __init__(self):
        super().__init__()
        self.blocks: list[tuple[int, float]] = []  # (bytes received so far, time)

    def write(self, b) -> int:
        n = super().write(b)
        self.blocks.append((self.tell(), time.perf_counter()))
        return n

    def row_times(self, since: float) -> list[float]:
        """Seconds from ``since`` until each line after the header arrived."""
        totals = [total for total, _ in self.blocks]
        ends = itertools.accumulate(len(line) + 1 for line in self.getvalue().split(b"\n")[:-1])
        return [self.blocks[bisect.bisect_left(totals, end)][1] - since for end in ends][1:]


def read_checked(path: str, sha256: str) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        raise SystemExit(f"{path}: sha256 {digest}, expected {sha256}")
    return data.decode("ascii").split()


def random_graph6_lines(seed: int, count: int = RANDOM_GRAPHS) -> list[str]:
    """Seeded random connected graphs as graph6 text, encoded here, not by sqenergy.

    Orders are uniform on RANDOM_ORDERS and edge densities on
    RANDOM_DENSITY; a random spanning tree is laid under the random
    edges so every graph is connected.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    weights = np.array([32, 16, 8, 4, 2, 1])
    out = []
    for _ in range(count):
        n = int(rng.integers(RANDOM_ORDERS[0], RANDOM_ORDERS[1] + 1))
        a = rng.random((n, n)) < rng.uniform(*RANDOM_DENSITY)
        order = rng.permutation(n)
        attach = order[(rng.random(n - 1) * np.arange(1, n)).astype(int)]
        a[order[1:], attach] = True
        a = np.tril(a | a.T, -1)
        # graph6 bit order (0,1), (0,2), (1,2), (0,3), ... is the lower triangle row by row
        bits = a[np.tril_indices(n, -1)]
        bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=bool)])
        payload = (bits.reshape(-1, 6) @ weights + 63).astype(np.uint8).tobytes()
        out.append(chr(n + 63) + payload.decode("ascii"))
    return out


def environment() -> dict:
    import numpy as np

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": 1,
    }


def setup(workload: str, seed: int) -> dict:
    """Import the program from this checkout's ``src`` and build and verify the inputs."""
    import sqenergy

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(sqenergy.__file__).startswith(src):
        raise SystemExit(f"sqenergy imported from {sqenergy.__file__}, not from {src}")
    import sqenergy.cli

    state: dict = {"sq": sqenergy}
    if workload == "coverage8":
        lines = read_checked(CORPUS, CORPUS_SHA256)
        if len(lines) != CORPUS_LINES:
            raise SystemExit(f"{CORPUS}: {len(lines)} graphs, expected {CORPUS_LINES}")
        graphs = [sqenergy.from_graph6(s) for s in lines]
        if not all(sqenergy.stats(g).connected for g in graphs):
            raise SystemExit(f"{CORPUS}: holds a disconnected graph")
        if len({sqenergy.canonical_form(g) for g in graphs}) != len(graphs):
            raise SystemExit(f"{CORPUS}: holds two isomorphic graphs")
        random.Random(seed).shuffle(graphs)
        state["graphs"] = graphs
        state["uncertified"] = read_checked(UNCERTIFIED, UNCERTIFIED_SHA256)
    elif workload == "energies-random":
        state["lines"] = random_graph6_lines(seed)
    return state


def timed_phase(workload: str, state: dict, stamps: Stamps):
    """Run the workload once; return the program's output."""
    sq = state["sq"]
    if workload == "scan8":
        return sq.survey(stamps.wrap(sq.enumerate_connected(8)), threads=1)
    if workload == "unicyclic13":
        return sq.survey(stamps.wrap(sq.enumerate_unicyclic_nonbipartite(13)), threads=1)
    if workload == "coverage8":
        return sq.certify_corpus(stamps.wrap(state["graphs"]))
    texts, firsts, visible = [], [], []
    lines = state["lines"]
    saved = sys.stdin
    try:
        for lo in range(0, len(lines), CLI_BATCH):
            sink = PipeSink()
            out = io.TextIOWrapper(io.BufferedWriter(sink, io.DEFAULT_BUFFER_SIZE), encoding="ascii")
            sys.stdin = stamps.wrap(line + "\n" for line in lines[lo : lo + CLI_BATCH])
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = sq.cli.main(["energies"])
            out.flush()
            if code != 0:
                raise SystemExit(f"sqenergy energies exited with {code}")
            rows = sink.row_times(start)
            firsts.append(rows[0])
            visible += rows
            texts.append(sink.getvalue().decode("ascii"))
    finally:
        sys.stdin = saved
    state["first_result_s"] = statistics.median(firsts)
    state["result_times"] = visible
    return texts


def run_checks(workload: str, state: dict, result, seed: int) -> list:
    import checks

    if workload == "scan8":
        return checks.check_scan(result)
    if workload == "unicyclic13":
        return checks.check_unicyclic(result)
    if workload == "coverage8":
        return checks.check_coverage(result, state["uncertified"])
    lines, rng = state["lines"], random.Random(seed)
    out = []
    for k, text in enumerate(result):
        batch = lines[k * CLI_BATCH : (k + 1) * CLI_BATCH]
        out += checks.check_energies_csv(batch, text, rng, prefix=f"energies.{k}")
    return out


def digest(result) -> str:
    """A fingerprint of the program's output, to compare traced and untraced passes."""
    text = "".join(result) if isinstance(result, list) else repr(result)
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def per_layer(summary: dict, graphs: int, wall_s: float, coverage) -> dict:
    calls, self_s, layer = summary["calls"], summary["self_s"], summary["layer_self_s"]
    children = summary["enum_children"]
    cp_calls = calls["canon.canonical_pair"]
    m = {
        "enumeration.self_s": layer["enumeration"],
        "enumeration.children": children,
        "enumeration.unique_ratio": summary["enum_classes"] / children if children else 0.0,
        "canon.self_s": layer["canon"],
        "canon.canonical_pair.calls": cp_calls,
        "canon.canonical_pair.self_s": self_s["canon.canonical_pair"],
        "canon.canonical_pair.us_per_call": 1e6 * self_s["canon.canonical_pair"] / cp_calls if cp_calls else 0.0,
        "graphs.self_s": layer["graphs"],
        "graphs.stats.calls_per_graph": calls["graphs.stats"] / graphs,
        "graphs.stats.self_s": self_s["graphs.stats"],
        "graphs.adjacency_matrix.self_s": self_s["graphs.adjacency_matrix"],
        "graphs.from_graph6.self_s": self_s["graphs.from_graph6"],
        "graphs.to_graph6.self_s": self_s["graphs.to_graph6"],
        "spectral.self_s": layer["spectral"],
        "spectral.eigenvalues.calls_per_graph": calls["spectral.eigenvalues"] / graphs,
        "spectral.eigenvalues.self_s": self_s["spectral.eigenvalues"],
        "spectral.char_poly_exact.calls": calls["spectral.char_poly_exact"],
        "spectral.char_poly_exact.self_s": self_s["spectral.char_poly_exact"],
        "bounds.self_s": layer["bounds"],
        "bounds.certify.self_s": self_s["bounds.certify"],
    }
    for fn in BOUND_FUNCTIONS:
        m[f"bounds.{fn}.calls"] = calls[f"bounds.{fn}"]
        m[f"bounds.{fn}.self_s"] = self_s[f"bounds.{fn}"]
    per_rule = coverage.per_rule if coverage is not None else {}
    for rule in RULES:
        rc = per_rule.get(rule)
        m[f"bounds.{rule}.fired"] = rc.fired if rc else 0
        m[f"bounds.{rule}.conclusive"] = rc.conclusive if rc else 0
    m["survey.self_s"] = layer["survey"]
    m["cli.self_s"] = layer["cli"]
    m["trace.uncovered_frac"] = 1.0 - summary["covered_s"] / wall_s
    return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true", help="record spans and report per-layer metrics")
    p.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = p.parse_args(argv)

    state = setup(args.workload, args.seed)
    out: dict = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    stamps = Stamps(tracer.current_graph if tracer else None)
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = timed_phase(args.workload, state, stamps)
        t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = stamps.times
    graphs = len(times)
    if graphs < 2:
        raise SystemExit(f"{args.workload}: only {graphs} graphs were handed over")
    # service time: from handing a graph over until the program asks for the next
    service = sorted([b - a for a, b in zip(times, times[1:])] + [t1 - times[-1]])
    # result time: from the call until the graph's result is visible to the caller
    if args.workload in EXHAUSTIVE:
        results = [t - t0 for t in times]  # survey records each graph as it arrives
    elif args.workload == "coverage8":
        results = [t1 - t0] * graphs  # certify_corpus returns only its final report
    else:
        results = state["result_times"]  # rows reach a pipe reader block by block
    results.sort()
    # for the CLI, the median over its calls of each call's first result
    first_result_s = state.get("first_result_s", results[0])
    checks = run_checks(args.workload, state, result, args.seed)
    out.update(
        wall_s=t1 - t0,
        graphs=graphs,
        first_result_s=first_result_s,
        graph_p50_ms=1e3 * percentile(results, 50),
        graph_p99_ms=1e3 * percentile(results, 99),
        latency_samples=len(results),
        service_p50_ms=1e3 * percentile(service, 50),
        service_p99_ms=1e3 * percentile(service, 99),
        peak_rss_mb=peak_rss_mb,
        checks=[[name, ok] for name, ok in checks],
        digest=digest(result),
        env=environment(),
    )
    if tracer is not None:
        coverage = result if args.workload == "coverage8" else None
        summary = tracer.summary()
        out["per_layer"] = per_layer(summary, graphs, t1 - t0, coverage)
        out["spans"] = summary["spans"]
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
