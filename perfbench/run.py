"""sqenergy benchmark: four workloads over the graph6 -> canon -> spectrum -> certificate pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass runs ``workload.py`` in a
fresh interpreter with one BLAS/OpenMP thread, ``SQENERGY_THREADS``
unset and ``src`` as the only import path for the program.

``--trace 0`` repeats passes until their timed phases add up to
``--seconds`` (at least MIN_PASSES, at most MAX_PASSES) and prints the
end-to-end metrics as medians over the passes; ``setup_s`` is the
median of at least SETUP_SAMPLES set-ups.  ``--trace 1`` makes one untraced and one traced
pass, fails if their check results differ, and prints the per-layer
metrics of the traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds details (environment, pass times, sample counts, failed
checks).  A pass that crashes or cannot import the program ends the run
with exit status 1 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
# one pass of scan8 or unicyclic13 already outlasts --seconds, but a single
# pass swung by a quarter between runs on a shared 2-vCPU host
MIN_PASSES = 2
MAX_PASSES = 20
RUN_BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
UNIT_SUFFIXES = (
    ("per_s", "1/s"),
    ("per_graph", "1/graph"),
    ("per_call", "us"),
    ("_ms", "ms"),
    ("_mb", "MB"),
    ("_s", "s"),
    ("_frac", "ratio"),
    ("_ratio", "ratio"),
)


def unit(name: str) -> str:
    """A metric's unit, read off its name; bare names are counts."""
    return next((u for suffix, u in UNIT_SUFFIXES if name.endswith(suffix)), "count")


class PassFailed(Exception):
    """A workload pass exited non-zero, timed out or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SQENERGY_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(args: argparse.Namespace, deadline: float, *flags: str) -> dict:
    """Run workload.py once; return its result with ``setup_s`` filled in."""
    script = os.path.join(HERE, "workload.py")
    cmd = [sys.executable, script, "--workload", args.workload, "--seed", str(args.seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{' '.join(cmd)}: no result within the run budget") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{' '.join(cmd)}: exit status {proc.returncode}\n{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - spawned
    return result


def summarize_checks(checks: list) -> tuple[int, int, list]:
    failed = [name for name, ok in checks if not ok]
    return len(checks), len(failed), failed


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, list, dict]:
    passes: list[dict] = []
    while len(passes) < MIN_PASSES or (sum(p["wall_s"] for p in passes) < args.seconds and len(passes) < MAX_PASSES):
        passes.append(run_pass(args, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(args, deadline, "--setup-only")["setup_s"])
    checks = [c for p in passes for c in p["checks"]]
    failed = sum(not ok for _, ok in checks)

    def med(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "graphs_per_s": statistics.median(p["graphs"] / p["wall_s"] for p in passes),
        "first_result_s": med("first_result_s"),
        "graph_p50_ms": med("graph_p50_ms"),
        "graph_p99_ms": med("graph_p99_ms"),
        "peak_rss_mb": med("peak_rss_mb"),
        "passed_frac": 1.0 - failed / len(checks),
    }
    detail = {
        "env": passes[0]["env"],
        "passes": len(passes),
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "graphs": passes[0]["graphs"],
        "latency_samples": [p["latency_samples"] for p in passes],
    }
    return metrics, checks, detail


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, list, dict]:
    plain = run_pass(args, deadline)
    traced = run_pass(args, deadline, "--trace")
    same = plain["checks"] == traced["checks"] and plain["digest"] == traced["digest"]
    checks = traced["checks"] + [["trace.same_results_as_untraced", same]]
    layer = dict(traced["per_layer"])
    layer["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    layer["graph.service_p50_ms"] = plain["service_p50_ms"]
    layer["graph.service_p99_ms"] = plain["service_p99_ms"]
    detail = {
        "env": traced["env"],
        "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
        "spans": traced["spans"],
        "spans_file": os.path.join("perfbench", "out", f"spans-{args.workload}.npz"),
    }
    return layer, checks, detail


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="sqenergy benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        metrics, checks, detail = (per_layer if args.trace else end_to_end)(args, deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failed_names = summarize_checks(checks)
    detail.update(workload=args.workload, seed=args.seed, failed_checks=failed_names[:20])
    print(json.dumps({"detail": detail}))
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
