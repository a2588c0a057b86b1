"""Golden event counts: the simulator's exact work on fixed cases.

Each case runs a short paper-site simulation and pins the number of
kernel steps plus, per site, (commits, aborts, local deadlocks, global
deadlocks, lock waits, disk I/Os).  A change to the event kernel, the
resources or the executor that reorders or adds a single event moves
at least one of these numbers, so a pure speed-up must leave the table
untouched.

The cases run in a child interpreter with a pinned ``PYTHONHASHSEED``,
so the pins hold for any hash seed the test runner itself uses; a run
must not depend on that seed either, which the last test checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs the named cases and prints ``{case: [steps, {site: counts}]}``.
_CHILD = r"""
import json, sys
from repro.model.parameters import paper_sites
from repro.model.types import BaseType
from repro.model.workload import mb4, mb8, ub6
from repro.testbed.system import (CaratSimulation, OpenCaratSimulation,
                                  SimulationConfig)
from repro.testbed.telemetry import Telemetry

def config(workload, **extra):
    return SimulationConfig(workload=workload, sites=paper_sites(),
                            seed=11, warmup_ms=5000.0,
                            duration_ms=30000.0, **extra)

CASES = {
    "mb8-16": lambda: CaratSimulation(config(mb8(16))),
    "ub6-20": lambda: CaratSimulation(config(ub6(20))),
    "mb4-8": lambda: CaratSimulation(config(mb4(8))),
    "mb8-16-parallel": lambda: CaratSimulation(
        config(mb8(16), parallel_remote=True)),
    "mb4-8-telemetry": lambda: CaratSimulation(
        config(mb4(8), telemetry=Telemetry())),
    "open-h2": lambda: OpenCaratSimulation(
        config(mb4(8)),
        arrivals_per_s={"A": {BaseType.LU: 2.0, BaseType.DU: 1.0},
                        "B": {BaseType.LRO: 2.0, BaseType.DRO: 1.0}},
        burstiness=4.0),
}

out = {}
for name in sys.argv[1:]:
    simulation = CASES[name]()
    measurement = simulation.run()
    out[name] = [simulation.sim._steps, {
        site: [sum(m.commits_by_type.values()),
               sum(m.aborts_by_type.values()),
               m.local_deadlocks, m.global_deadlocks, m.lock_waits,
               m.disk_ios]
        for site, m in sorted(measurement.sites.items())}]
print(json.dumps(out))
"""

#: case -> (steps, {site: (commits, aborts, local deadlocks, global
#: deadlocks, lock waits, disk I/Os)})
GOLDEN = {
    "mb8-16": (15316, {"A": (6, 4, 2, 1, 15, 838),
                       "B": (2, 0, 1, 0, 12, 610)}),
    "ub6-20": (15010, {"A": (4, 3, 0, 0, 14, 828),
                       "B": (3, 2, 4, 1, 12, 706)}),
    "mb4-8": (15896, {"A": (18, 0, 0, 0, 6, 860),
                      "B": (16, 0, 0, 0, 3, 747)}),
    "mb8-16-parallel": (15866, {"A": (3, 0, 0, 2, 7, 494),
                                "B": (3, 1, 1, 0, 16, 719)}),
    "mb4-8-telemetry": (15932, {"A": (18, 0, 0, 0, 6, 860),
                                "B": (16, 0, 0, 0, 3, 747)}),
    "open-h2": (20767, {"A": (0, 0, 0, 0, 26, 933),
                        "B": (14, 0, 0, 0, 0, 750)}),
}


def run_cases(cases, hash_seed: int) -> dict:
    """Run *cases* in one child interpreter under *hash_seed*; return
    ``{case: (steps, {site: counts})}`` with tuples, like GOLDEN."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _CHILD, *cases],
                          env=env, capture_output=True, text=True,
                          check=True)
    raw = json.loads(done.stdout)
    return {name: (steps, {site: tuple(c) for site, c in sites.items()})
            for name, (steps, sites) in raw.items()}


@pytest.fixture(scope="module")
def counts():
    return run_cases(GOLDEN, hash_seed=0)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_event_counts_pinned(counts, case):
    assert counts[case] == GOLDEN[case]


def test_counts_do_not_depend_on_hash_seed(counts):
    """The open H2 case probes for global deadlocks, whose edge chase
    once walked a set of txn-id strings in hash order."""
    assert run_cases(["open-h2"], hash_seed=3) == {
        "open-h2": counts["open-h2"]}
