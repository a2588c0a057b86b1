#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size.

    python3 perfbench/selftest.py

Asserts that

* every metric named in ``BENCHMARK.json`` prints, with its unit, in
  both the untraced and the traced run;
* no run leaves a wrapper installed;
* two same-seed traced runs give identical counts and an identical
  output digest;
* a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files makes the benchmark exit non-zero without a result.

Takes a minute or two; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TINY = {"solve-mix": 2, "compare-low": 1, "compare-high": 1}
SEED = 1


def run(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace",
               str(trace), "--requests", str(TINY[workload])]
    return subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result_file(workload: str, trace: int) -> dict:
    path = OUT / f"result-{workload}-s{SEED}-t{trace}.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_metrics(line: str, expected: list[dict], where: str,
                  failures: list[str]) -> dict:
    printed = json.loads(line)["metrics"]
    for metric in expected:
        got = printed.get(metric["name"])
        if got is None:
            failures.append(f"{where}: {metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(
                got["value"], (int, float)) or not math.isfinite(
                got["value"]):
            failures.append(f"{where}: {metric['name']} printed as {got}")
    return printed


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    failures: list[str] = []
    for workload in TINY:
        done = run(workload, 0)
        if done.returncode != 0:
            failures.append(f"{workload} untraced: exit {done.returncode}"
                            f"\n{done.stderr[-2000:]}")
            continue
        last = done.stdout.strip().splitlines()[-1]
        check_metrics(last, contract["end_to_end"], f"{workload} untraced",
                      failures)
        if result_file(workload, 0)["hooks_left"]:
            failures.append(f"{workload} untraced: hooks left installed")

        traced = []
        for attempt in range(2):
            done = run(workload, 1)
            if done.returncode != 0:
                failures.append(f"{workload} traced: exit "
                                f"{done.returncode}\n{done.stderr[-2000:]}")
                break
            last = done.stdout.strip().splitlines()[-1]
            metrics = check_metrics(last, contract["per_layer"],
                                    f"{workload} traced", failures)
            result = result_file(workload, 1)
            if result["hooks_left"]:
                failures.append(f"{workload} traced: hooks left installed")
            counts = {m["name"]: metrics[m["name"]]["value"]
                      for m in contract["per_layer"]
                      if m["unit"] == "count" and m["name"] in metrics}
            traced.append((counts, result["traced"]["digest"],
                           json.loads(last)["correct"]))
        if len(traced) == 2:
            (counts_a, digest_a, ok_a), (counts_b, digest_b, ok_b) = traced
            if counts_a != counts_b:
                failures.append(f"{workload}: counts differ between "
                                f"same-seed runs: {counts_a} {counts_b}")
            if digest_a != digest_b:
                failures.append(f"{workload}: digests differ between "
                                f"same-seed runs: {digest_a} {digest_b}")
            if not (ok_a and ok_b):
                failures.append(f"{workload}: traced run not correct")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("compare-low", 0, cwd=bare)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        failures.append("bare directory: benchmark did not refuse to run")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
