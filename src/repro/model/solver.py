"""Iterative fixed-point solution of the distributed model (paper §6).

The service demands of the LW, RW and CW delay centers depend on the
model's own performance measures, so the full model is solved by damped
successive substitution (paper §6):

1. from the current conflict estimates, build each chain's phase-
   transition matrix, visit counts and center demands;
2. solve each site's closed multi-chain network with MVA;
3. refresh the lock model (``L_h``, ``Pb``, ``Pd``), the remote-wait
   and 2PC delays and the abort probabilities from the new solution;
4. repeat until chain throughputs stabilize.

As in the paper, the TM serialization delay is ignored (§5.5) and the
communication delay ``alpha`` defaults to zero (§6).

This module holds the public facade: :class:`ModelConfig` validation,
the per-chain iterate state with warm starts and snapshots,
:meth:`CaratModel.site_network` and the result assembly.  The iteration
itself runs on the tensor engine of :mod:`repro.model.outer`, which
evaluates the equations of :mod:`repro.model.locking`,
:mod:`repro.model.remote` and :mod:`repro.model.demands`.  The
pre-tensor scalar loop is kept only as a test oracle, in
``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.model import demands as demands_mod
from repro.model import locking
from repro.model.diagnostics import ConvergenceTrace
from repro.model.parameters import SiteParameters
from repro.model.results import ChainResult, ModelSolution, SiteResult
from repro.model.types import ChainType
from repro.model.workload import WorkloadSpec
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["ModelConfig", "CaratModel", "solve_model", "WarmStart"]

#: Iterate fields carried by a warm-start snapshot.  Everything that is
#: a *solution* of the fixed point (conflict estimates, delay-center
#: times, performance measures) transfers between nearby sweep points;
#: structural quantities (populations, ``q``, lock counts, demands) are
#: always rebuilt from the new workload.
_WARM_FIELDS = (
    "pb", "pd", "pra", "abort_prob", "n_submissions",
    "r_lw", "r_rw", "r_cw", "r_tms",
    "locks_held", "blocked_fraction",
    "response_success_ms", "active_success_ms", "cycle_response_ms",
    "throughput_per_ms",
)

#: A converged-iterate snapshot: ``{(site, chain value): {field: value}}``.
WarmStart = dict[tuple[str, str], dict[str, float]]

#: Pseudo-site tag under which :meth:`CaratModel.snapshot` carries the
#: per-site Schweitzer queue iterates (``{(tag, site): {"center|chain":
#: queue length}}``).  Chain *values* can never equal the tag, so these
#: entries are invisible to the per-chain warm-start lookup.
_MVA_QUEUE_SITE = "__mva_queue__"


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of one model solution run.

    Parameters
    ----------
    workload:
        The workload specification (users, transaction size).
    sites:
        Per-site parameters; must cover every workload site.
    alpha_ms:
        One-way inter-site communication delay (paper: ~0 for the
        two-node Ethernet).
    mva:
        ``"exact"``, ``"approx"`` or ``"auto"`` (exact while the
        population lattice stays small).
    damping:
        Weight of the freshly computed iterate in the damped update.
    tolerance:
        Convergence threshold on the max relative throughput change.
    max_iterations:
        Iteration budget; exceeding it raises
        :class:`~repro.errors.ConvergenceError` unless
        ``raise_on_nonconvergence`` is False.
    blocking_ratio_override:
        When set, replaces the ``(2N+1)/(6N)`` blocking ratio of Eq. 19
        (used by the sensitivity ablation).
    model_tm_serialization:
        The paper *ignores* the TM server's serialization delay (§5.5)
        and attributes its model-over-measurement bias at small n to
        that choice (§6).  When True, we model it with the surrogate-
        delay decomposition the paper cites ([JACO83]): the TM is
        treated as an M/G/1-like token whose per-message waiting time
        — driven by the aggregate TM message rate and the message
        service time (CPU burst plus any synchronous log force) — is
        added as a delay-center demand per TM visit.
    """

    workload: WorkloadSpec
    sites: dict[str, SiteParameters]
    alpha_ms: float = 0.0
    mva: str = "auto"
    damping: float = 0.5
    tolerance: float = 1e-6
    max_iterations: int = 400
    raise_on_nonconvergence: bool = True
    blocking_ratio_override: float | None = None
    model_tm_serialization: bool = False

    def __post_init__(self) -> None:
        missing = [s for s in self.workload.sites if s not in self.sites]
        if missing:
            raise ConfigurationError(f"no parameters for sites {missing}")
        if self.mva not in ("exact", "approx", "auto"):
            raise ConfigurationError(f"unknown mva mode {self.mva!r}")
        if not 0.0 < self.damping <= 1.0:
            raise ConfigurationError("damping must be in (0, 1]")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.tolerance > 0.0:
            raise ConfigurationError(
                f"tolerance must be positive, got {self.tolerance}")


@dataclass
class _ChainState:
    """Mutable per-(site, chain) iterate."""

    population: int
    local_requests: int
    remote_requests: int
    q: float
    locks: float
    records: int
    # Conflict estimates.
    pb: float = 0.0
    pd: float = 0.0
    pra: float = 0.0
    abort_prob: float = 0.0
    n_submissions: float = 1.0
    locks_at_abort: float = 0.0
    sigma: float = 0.5
    locks_held: float = 0.0
    blocked_fraction: float = 0.0
    # Delay-center per-visit times (ms).
    r_lw: float = 0.0
    r_rw: float = 0.0
    r_cw: float = 0.0
    # TM serialization surrogate (optional, §5.5).
    r_tms: float = 0.0
    # Performance iterates (ms / per-ms).
    response_success_ms: float = 0.0
    active_success_ms: float = 0.0
    cycle_response_ms: float = 0.0
    throughput_per_ms: float = 0.0
    # Demands of the last rebuild (None until the engine has run).
    demands: demands_mod.ChainDemands | None = None
    tm_messages: float = 0.0
    lw_demand_ms: float = 0.0
    rw_demand_ms: float = 0.0
    cw_demand_ms: float = 0.0
    ut_demand_ms: float = 0.0


def _built(demands: demands_mod.ChainDemands | None) \
        -> demands_mod.ChainDemands:
    """Narrow a state's ``demands`` once the engine has rebuilt them.

    Every read site follows a rebuild, so ``None`` here is a
    solver-internal ordering bug, not a user error.
    """
    if demands is None:
        raise ConfigurationError("chain demands read before rebuild")
    return demands


class CaratModel:
    """The distributed CARAT queueing network model.

    ``warm_start`` optionally seeds the fixed-point iterates from the
    converged state of a *nearby* solve (see :meth:`snapshot`) — e.g.
    the previous transaction size of a sweep — which typically cuts the
    iteration count substantially without changing the fixed point the
    damped substitution converges to.

    ``diagnostics`` optionally attaches a
    :class:`~repro.model.diagnostics.ConvergenceTrace` that records a
    per-iteration convergence report during :meth:`solve`.  Detached
    (the default), the iteration hot path is identical to the
    uninstrumented solver: no timing calls, no extra allocation.
    """

    def __init__(self, config: ModelConfig,
                 warm_start: WarmStart | None = None,
                 diagnostics: ConvergenceTrace | None = None):
        self.config = config
        self.workload = config.workload
        self.sites = {name: config.sites[name]
                      for name in self.workload.sites}
        self._state: dict[tuple[str, ChainType], _ChainState] = {}
        self._warm_start = warm_start
        self._diag = diagnostics
        # Last Schweitzer queue iterate per site — ``(queueing-center
        # names, chain names, (Cq, K) array)`` — carried across outer
        # iterations (and via snapshots, across solves) as the inner
        # fixed point's warm start.
        self._mva_queues: dict[
            str, tuple[tuple[str, ...], tuple[str, ...], np.ndarray]] = {}
        self._queue_seeds: dict[str, dict[str, float]] = {}
        if warm_start:
            self._queue_seeds = {
                site: dict(values)
                for (tag, site), values in warm_start.items()
                if tag == _MVA_QUEUE_SITE
            }
        self._init_state()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_state(self) -> None:
        for site_name, site in self.sites.items():
            pops = self.workload.chain_populations(site_name)
            for chain, population in pops.items():
                if population == 0:
                    continue
                q = demands_mod.ios_per_request(site, self.workload, chain)
                local = self.workload.local_requests(chain)
                remote_reqs = self.workload.remote_requests(chain)
                locks = demands_mod.lock_count(self.workload, chain, q)
                records = (self.workload.records_per_txn(chain)
                           if chain.is_slave
                           else self.workload.requests_per_txn
                           * self.workload.records_per_request)
                state = _ChainState(
                    population=population, local_requests=local,
                    remote_requests=remote_reqs, q=q, locks=locks,
                    records=records,
                )
                self._refresh_abort_state(state)
                self._state[(site_name, chain)] = state
        self._apply_warm_start()

    def _apply_warm_start(self) -> None:
        """Seed iterates from a snapshot."""
        if not self._warm_start:
            return
        for key, state in self._state.items():
            seed = self._warm_start.get((key[0], key[1].value))
            if not seed:
                continue
            for name in _WARM_FIELDS:
                if name in seed:
                    setattr(state, name, float(seed[name]))
            # E[Y] and sigma depend on the *new* lock count; derive
            # them from the seeded conflict estimates.
            self._refresh_abort_state(state)

    def snapshot(self) -> WarmStart:
        """Current iterate values, for warm-starting a nearby solve.

        Besides the per-chain iterate fields, the snapshot carries the
        inner Schweitzer queue iterates of any approximately solved
        sites (under the :data:`_MVA_QUEUE_SITE` pseudo-site tag), so a
        warm-started nearby solve seeds the inner MVA fixed point too,
        not just the outer contention loop.
        """
        snap: WarmStart = {
            (site, chain.value): {name: getattr(state, name)
                                  for name in _WARM_FIELDS}
            for (site, chain), state in self._state.items()
        }
        for site, (qnames, chains, queue) in self._mva_queues.items():
            snap[(_MVA_QUEUE_SITE, site)] = {
                f"{center}|{chain}": float(queue[ci, ki])
                for ci, center in enumerate(qnames)
                for ki, chain in enumerate(chains)
            }
        return snap

    def site_network(self, site_name: str) -> ClosedNetwork:
        """The site's closed network built from the current iterates.

        Right after construction this is the *zero-conflict* network
        (no lock waits, no remote waits, no aborts) — the cheap
        operational-bounds input the capacity planner pre-screens with.
        After :meth:`solve` it reflects the converged iterates, so the
        contention delays appear as delay-center demands and the
        classic product-form bounds apply to the fixed point itself.
        """
        if site_name not in self.sites:
            raise ConfigurationError(
                f"unknown site {site_name!r}; workload sites are "
                f"{list(self.sites)}")
        if any(state.demands is None for state in self._state.values()):
            from repro.model.outer import rebuild_demands

            rebuild_demands(self)
        return self._site_network(site_name)

    def _refresh_abort_state(self, state: _ChainState) -> None:
        """E[Y] and sigma from the current ``Pb * Pd``."""
        state.locks_at_abort, state.sigma = locking.abort_extent(
            state.locks, state.pb * state.pd)

    def _site_network(self, site_name: str) -> ClosedNetwork:
        """Assemble the site's closed network (paper Figure 2)."""
        site = self.sites[site_name]
        chains = {
            chain.value: state.population
            for (s, chain), state in self._state.items() if s == site_name
        }
        cpu: dict[str, float] = {}
        disk: dict[str, float] = {}
        logdisk: dict[str, float] = {}
        lw: dict[str, float] = {}
        rw: dict[str, float] = {}
        cw: dict[str, float] = {}
        ut: dict[str, float] = {}
        for (s, chain), state in self._state.items():
            if s != site_name:
                continue
            d = _built(state.demands)
            cpu[chain.value] = d.cpu_ms
            disk[chain.value] = d.db_disk_ms
            logdisk[chain.value] = d.log_disk_ms
            lw[chain.value] = state.lw_demand_ms
            rw[chain.value] = state.rw_demand_ms
            cw[chain.value] = state.cw_demand_ms
            ut[chain.value] = state.ut_demand_ms
        centers = [
            ServiceCenter("cpu", CenterKind.QUEUEING, cpu),
            ServiceCenter("disk", CenterKind.QUEUEING, disk),
            ServiceCenter("lw", CenterKind.DELAY, lw),
            ServiceCenter("rw", CenterKind.DELAY, rw),
            ServiceCenter("cw", CenterKind.DELAY, cw),
            ServiceCenter("ut", CenterKind.DELAY, ut),
        ]
        if site.log_on_separate_disk:
            centers.insert(2, ServiceCenter("logdisk", CenterKind.QUEUEING,
                                            logdisk))
        if self.config.model_tm_serialization:
            tms = {
                chain.value: state.tm_messages * state.r_tms
                for (s, chain), state in self._state.items()
                if s == site_name
            }
            centers.append(ServiceCenter("tms", CenterKind.DELAY, tms))
        return ClosedNetwork(centers=tuple(centers), populations=chains)

    def solve(self) -> ModelSolution:
        """Run the fixed-point iteration to convergence.

        The iteration runs on the tensorized outer engine
        (:mod:`repro.model.outer`) as a batch of one: every phase —
        demand rebuild, batched site MVA, lock/abort/remote updates —
        is an array operation over the ``(site, chain)`` states, and a
        solve sharing an engine with other grid points converges to
        bit-identical iterates (the engine's operations are
        row-independent).  ``tests/oracles/`` keeps the original scalar
        loop as the oracle the equivalence tests pin this path against.
        """
        from repro.model.outer import solve_outer_batch

        return solve_outer_batch([self])[0]

    def _build_solution(self, solutions: dict[str, NetworkSolution],
                        iterations: int, residual: float) -> ModelSolution:
        sites: dict[str, SiteResult] = {}
        for name in self.workload.sites:
            sol = solutions[name]
            network = self._site_network(name)
            center_names = [c.name for c in network.centers]
            chains: dict[ChainType, ChainResult] = {}
            for (site, chain), state in self._state.items():
                if site != name:
                    continue
                d = _built(state.demands)
                residence = {
                    center: sol.chain_residence(center, chain.value)
                    for center in center_names
                }
                lock_state = locking.LockModelState(
                    chain=chain, locks=state.locks, blocking=state.pb,
                    deadlock_victim=state.pd,
                    lock_wait_probability=locking.lock_wait_probability(
                        state.pb, state.locks),
                    locks_held=state.locks_held,
                    locks_at_abort=state.locks_at_abort,
                    abort_probability=state.abort_prob,
                    lock_wait_ms=state.r_lw,
                )
                chains[chain] = ChainResult(
                    chain=chain, site=name, population=state.population,
                    throughput_per_s=state.throughput_per_ms * 1e3,
                    cycle_response_ms=state.cycle_response_ms,
                    n_submissions=state.n_submissions,
                    abort_probability=state.abort_prob,
                    lock_state=lock_state,
                    cpu_demand_ms=d.cpu_ms,
                    disk_demand_ms=d.db_disk_ms,
                    log_disk_demand_ms=d.log_disk_ms,
                    ios_per_cycle=d.total_ios,
                    lock_wait_ms=state.r_lw,
                    remote_wait_ms=state.r_rw,
                    commit_wait_ms=state.r_cw,
                    records_per_txn=state.records,
                    residence_ms=residence,
                )
            sites[name] = SiteResult(
                site=name,
                chains=chains,
                cpu_utilization=sol.center_utilization("cpu"),
                disk_utilization=sol.center_utilization("disk"),
                log_disk_utilization=(
                    sol.center_utilization("logdisk")
                    if "logdisk" in center_names else 0.0),
            )
        return ModelSolution(
            workload_name=self.workload.name,
            requests_per_txn=self.workload.requests_per_txn,
            sites=sites,
            iterations=iterations,
            residual=residual,
            converged=residual < self.config.tolerance,
            trace=self._diag,
        )


def solve_model(workload: WorkloadSpec, sites: dict[str, SiteParameters],
                warm_start: WarmStart | None = None,
                diagnostics: ConvergenceTrace | None = None,
                **kwargs) -> ModelSolution:
    """Convenience one-call API: configure and solve the model."""
    return CaratModel(ModelConfig(workload=workload, sites=sites,
                                  **kwargs),
                      warm_start=warm_start,
                      diagnostics=diagnostics).solve()
