#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-mix --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout; nothing is built or
installed.  The workload runs in a fresh worker interpreter with
``PYTHONHASHSEED`` and the BLAS/OpenMP thread counts pinned.  With
``--trace 0`` the worker is started several more times for set-up
only, and ``setup_s`` is the median of those set-ups; the last line of
standard output is a JSON object with every end-to-end metric named
in ``BENCHMARK.json``.  With ``--trace 1`` it holds every per-layer
metric instead, and the spans are written to ``perfbench/out/``.

The lines before it are for people: each metric with its unit, the
informational per-request-type figures, failures, and a digest of the
outputs (model values rounded to 1e-6, exact simulator counts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Worker start-ups timed per untraced run (the run's own included).
SETUPS = 4
#: Every run, set-up included, must end within this many seconds.
DEADLINE_S = 170.0

#: Units of the informational figures printed beside the gated ones;
#: the per-type latencies (``sweep_p50_ms``, ...) are in ms.
INFO_UNITS = {"error_rate": "ratio", "sim_speed_x": "x",
              "xput_residual_pct": "%"}


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["CARAT_CACHE_DIR"] = str(OUT / "cache")
    env["MPLCONFIGDIR"] = str(OUT / "mpl")
    env.pop("CARAT_SHAPE_CHECKS", None)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(args, extra: list[str], deadline: float):
    """Run one worker; return (seconds to ready, result record)."""
    command = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    started = monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=pinned_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - started), proc.kill)
    watchdog.start()
    ready_s = result = None
    try:
        for line in proc.stdout:
            record = json.loads(line)
            if record["event"] == "ready":
                ready_s = monotonic() - started
            elif record["event"] == "result":
                result = record
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"worker exited with code {code}")
    return ready_s, result


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.4f} {units.get(name, 'ms')}")


def untraced_metrics(summary: dict, setups: list[float],
                     result: dict) -> dict:
    metrics = dict(summary["metrics"])
    del metrics["samples"]
    metrics.update(setup_s=statistics.median(setups),
                   req_per_s=summary["req_per_s"],
                   peak_rss_mb=result["peak_rss_mb"])
    print(f"set-up: {', '.join(f'{s:.3f}' for s in setups)} s "
          f"(import repro.cli {result['setup']['import_s']:.3f} s, "
          f"{result['setup']['modules_loaded']} modules)")
    return metrics


def traced_metrics(result: dict) -> dict:
    print("self time per layer (ms): " + ", ".join(
        f"{layer} {ms:.1f}" for layer, ms in result["self_ms"].items()))
    print(f"spans kept {result['spans']}, dropped "
          f"{result['spans_dropped']}")
    return result["layers"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0,
                        help="run this many requests per pass instead "
                             "of whole timed cycles (self-test)")
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    extra = ["--requests", str(args.requests)] if args.requests else []

    setups = []
    if args.trace == 0:
        for _ in range(SETUPS - 1):
            setups.append(start_worker(args, ["--setup-only"],
                                       deadline)[0])
    else:
        extra += ["--spans-out", str(OUT / f"spans-{tag}.jsonl")]
    ready_s, result = start_worker(args, extra, deadline)
    setups.append(ready_s)

    untraced = result["untraced"]
    chosen = result["traced"] if args.trace else untraced
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{chosen['attempted']} requests (cycle of {result['cycle']}) "
          f"in {chosen['wall_s']:.2f} s; "
          f"failed {chosen['failed']} {chosen['failures']}; "
          f"samples {chosen['metrics']['samples']}; "
          f"output digest {chosen['digest']}")
    if args.trace:
        metrics, section = traced_metrics(result), "per_layer"
    else:
        metrics = untraced_metrics(untraced, setups, result)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    print_metrics(metrics, {**INFO_UNITS, **units})
    problems = untraced["problems"] + (
        result["traced"]["problems"] if args.trace else [])
    if result["hooks_left"]:
        problems.append(f"hooks left installed: {result['hooks_left']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as out:
        json.dump({"args": vars(args), "setups_s": setups, **result},
                  out, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": chosen["attempted"],
        "failed": chosen["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in contract[section]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
