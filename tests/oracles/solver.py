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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from tests.oracles import demands as demands_mod
from tests.oracles import locking, remote
from tests.oracles.phases import visit_counts
from repro.model.diagnostics import ConvergenceTrace
from repro.model.parameters import SiteParameters
from repro.model.phases import ConflictProbabilities, transition_matrix
from repro.model.results import ChainResult, ModelSolution, SiteResult
from repro.model.types import ChainType, Phase
from repro.model.workload import WorkloadSpec
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.kernels import (NetworkArrays, assemble_solution,
                                    initial_queue, solve_exact_batch,
                                    solve_schweitzer_batch)
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["ModelConfig", "CaratModel", "solve_model", "WarmStart"]

#: Exact-MVA lattice budget before switching to Schweitzer.
_EXACT_LATTICE_BUDGET = 300_000

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
    tm_messages: float = 0.0
    tm_held_ms: float = 0.0
    # Performance iterates (ms / per-ms).
    response_success_ms: float = 0.0
    active_success_ms: float = 0.0
    cycle_response_ms: float = 0.0
    throughput_per_ms: float = 0.0
    # Last-built demands.
    demands: demands_mod.ChainDemands | None = None
    visits: dict[Phase, float] = field(default_factory=dict)
    costs: demands_mod.PhaseCosts | None = None
    lw_demand_ms: float = 0.0
    rw_demand_ms: float = 0.0
    cw_demand_ms: float = 0.0
    ut_demand_ms: float = 0.0


def _built(demands: demands_mod.ChainDemands | None) \
        -> demands_mod.ChainDemands:
    """Narrow a state's ``demands`` after the rebuild phase has run.

    Every read site follows a ``_rebuild_demands`` call, so ``None``
    here is a solver-internal ordering bug, not a user error.
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
        self._populations: dict[str, dict[ChainType, int]] = {}
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
            self._populations[site_name] = pops
            for chain, population in pops.items():
                if population == 0:
                    continue
                q = demands_mod.ios_per_request(site, self.workload, chain)
                local = self.workload.local_requests(chain)
                remote_reqs = self.workload.remote_requests(chain)
                locks = demands_mod.lock_count(self.workload, chain, q)
                state = _ChainState(
                    population=population, local_requests=local,
                    remote_requests=remote_reqs, q=q, locks=locks,
                )
                self._refresh_abort_state(state)
                self._state[(site_name, chain)] = state
        warmed = self._apply_warm_start()
        # Zero-load execution time seeds the lock model for chains the
        # warm-start snapshot did not cover.
        for key, state in self._state.items():
            self._rebuild_demands(key[0], key[1], state)
            if key in warmed:
                continue
            d = _built(state.demands)
            state.response_success_ms = (d.cpu_ms + d.db_disk_ms
                                         + d.log_disk_ms)
            state.active_success_ms = state.response_success_ms
            state.cycle_response_ms = state.response_success_ms

    def _apply_warm_start(self) -> set[tuple[str, ChainType]]:
        """Seed iterates from a snapshot; return the chains seeded."""
        warmed: set[tuple[str, ChainType]] = set()
        if not self._warm_start:
            return warmed
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
            warmed.add(key)
        return warmed

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
        return self._site_network(site_name)

    def _refresh_abort_state(self, state: _ChainState) -> None:
        """E[Y] and sigma from the current ``Pb * Pd``.

        A chain that acquires no locks is degenerate but valid: it can
        never be a deadlock victim, so both quantities are zero (the
        unguarded ratio ``E[Y] / N_lk`` would divide by zero).
        """
        if state.locks <= 0.0:
            state.locks_at_abort = 0.0
            state.sigma = 0.0
            return
        per_lock = min(1.0, state.pb * state.pd)
        state.locks_at_abort = locking.locks_at_abort(state.locks,
                                                      per_lock)
        state.sigma = state.locks_at_abort / state.locks

    # ------------------------------------------------------------------
    # iteration pieces
    # ------------------------------------------------------------------

    def _rebuild_demands(self, site_name: str, chain: ChainType,
                         state: _ChainState) -> None:
        """Steps 1–2 of the iteration: visits, costs, demands."""
        site = self.sites[site_name]
        conflict = ConflictProbabilities(
            blocking=min(1.0, state.pb),
            deadlock_victim=min(1.0, state.pd),
            remote_abort=min(1.0, state.pra),
        )
        matrix = transition_matrix(
            chain, state.local_requests, state.remote_requests, state.q,
            conflict,
        )
        state.visits = visit_counts(matrix)
        state.costs = demands_mod.build_phase_costs(
            site, self.workload, chain,
            aborted_granules=state.locks_at_abort,
        )
        records = (self.workload.requests_per_txn
                   * self.workload.records_per_request)
        if chain.is_slave:
            records = self.workload.records_per_txn(chain)
        state.demands = demands_mod.aggregate_demands(
            chain, state.visits, state.n_submissions, state.costs,
            records_per_execution=records,
        )
        d = state.demands
        state.lw_demand_ms = d.lw_visits * state.r_lw
        state.rw_demand_ms = d.rw_visits * state.r_rw
        state.cw_demand_ms = d.cw_visits * state.r_cw
        state.ut_demand_ms = (state.n_submissions
                              * self.workload.think_time_ms)
        if self.config.model_tm_serialization:
            ns = state.n_submissions
            v = state.visits
            costs = state.costs
            state.tm_messages = ns * (v[Phase.TM] + v[Phase.TC]
                                      + v[Phase.TA])
            held_cpu = (v[Phase.TM] * costs.cpu.get(Phase.TM, 0.0)
                        + v[Phase.TC] * costs.cpu.get(Phase.TC, 0.0)
                        + v[Phase.TA] * costs.cpu.get(Phase.TA, 0.0))
            held_force = v[Phase.TCIO] * (
                costs.db_disk.get(Phase.TCIO, 0.0)
                + costs.log_disk.get(Phase.TCIO, 0.0))
            state.tm_held_ms = ns * (held_cpu + held_force)

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

    def _site_arrays(self, site_name: str) -> NetworkArrays:
        """Dense array form of :meth:`_site_network`.

        Same center order and same (sorted) active chains, built
        straight from the iterate state without the intermediate
        :class:`ClosedNetwork` dict structure.
        """
        site = self.sites[site_name]
        items = sorted(
            ((chain.value, state)
             for (s, chain), state in self._state.items()
             if s == site_name),
            key=lambda item: item[0],
        )
        chains = tuple(name for name, _ in items)
        populations = np.array([state.population for _, state in items],
                               dtype=np.int64)
        rows: list[tuple[str, bool, list[float]]] = [
            ("cpu", False,
             [_built(st.demands).cpu_ms for _, st in items]),
            ("disk", False,
             [_built(st.demands).db_disk_ms for _, st in items]),
            ("lw", True, [st.lw_demand_ms for _, st in items]),
            ("rw", True, [st.rw_demand_ms for _, st in items]),
            ("cw", True, [st.cw_demand_ms for _, st in items]),
            ("ut", True, [st.ut_demand_ms for _, st in items]),
        ]
        if site.log_on_separate_disk:
            rows.insert(2, ("logdisk", False,
                            [_built(st.demands).log_disk_ms
                             for _, st in items]))
        if self.config.model_tm_serialization:
            rows.append(("tms", True,
                         [st.tm_messages * st.r_tms for _, st in items]))
        demands = np.array(
            [r[2] for r in rows], dtype=np.float64,
        ).reshape(len(rows), len(chains))
        return NetworkArrays(
            demands=demands,
            delay=np.array([r[1] for r in rows], dtype=bool),
            populations=populations,
            centers=tuple(r[0] for r in rows),
            chains=chains,
        )

    def _solve_sites(self, mva_stats: dict[str, int] | None = None
                     ) -> dict[str, NetworkSolution]:
        """Step 2 of the iteration, batched: solve every site network.

        Sites sharing a center/chain layout (and, for exact MVA, a
        population vector — symmetric sites always do) are stacked and
        solved in one vectorized kernel call instead of one Python-loop
        solve per site.  Schweitzer solves warm-start from the previous
        outer iteration's queue iterate (or a warm-start snapshot's),
        which typically cuts the inner iteration count: the outer loop
        moves the demands only slightly between iterations, so the old
        inner fixed point is a near-solution of the new one.
        """
        arrays = {name: self._site_arrays(name)
                  for name in self.workload.sites}
        if mva_stats is not None:
            mva_stats["solves"] += len(arrays)
        exact_groups: dict[tuple, list[str]] = {}
        approx_groups: dict[tuple, list[str]] = {}
        for name, a in arrays.items():
            mode = self.config.mva
            if mode == "auto":
                mode = ("exact" if a.lattice_size <= _EXACT_LATTICE_BUDGET
                        else "approx")
            if mode == "exact":
                key = (a.centers, a.chains, tuple(a.delay),
                       tuple(a.populations))
                exact_groups.setdefault(key, []).append(name)
            else:
                key = (a.centers, a.chains, tuple(a.delay))
                approx_groups.setdefault(key, []).append(name)

        solutions: dict[str, NetworkSolution] = {}
        for names in exact_groups.values():
            head = arrays[names[0]]
            stack = np.stack([arrays[n].demands for n in names])
            X, R = solve_exact_batch(stack, head.delay, head.populations)
            if mva_stats is not None:
                mva_stats["lattice"] += head.lattice_size * len(names)
            for i, n in enumerate(names):
                solutions[n] = assemble_solution(arrays[n], X[i], R[i])
        for names in approx_groups.values():
            head = arrays[names[0]]
            stack = np.stack([arrays[n].demands for n in names])
            pops = np.stack([arrays[n].populations for n in names])
            result = solve_schweitzer_batch(
                stack, head.delay, pops,
                q0=self._queue_warm_start(names, arrays, stack, head, pops))
            if mva_stats is not None:
                mva_stats["inner"] += int(result.iterations.sum())
            if not result.converged.all():
                bad = int(np.argmax(~result.converged))
                raise ConvergenceError(
                    f"Schweitzer MVA did not converge for site "
                    f"{names[bad]!r}",
                    iterations=int(result.iterations[bad]),
                    residual=float(result.residual[bad]),
                )
            qnames = tuple(c for c, is_delay
                           in zip(head.centers, head.delay) if not is_delay)
            for i, n in enumerate(names):
                solutions[n] = assemble_solution(
                    arrays[n], result.throughput[i], result.residence[i])
                self._mva_queues[n] = (qnames, arrays[n].chains,
                                       result.queue[i])
        return solutions

    def _queue_warm_start(self, names, arrays, stack, head, pops):
        """The ``q0`` stack for one Schweitzer group, or None.

        Prefers this solve's previous outer-iteration queue iterate;
        falls back to a warm-start snapshot's entries; missing sites
        (or entries whose layout changed) keep the kernel's default
        initialization.  Entries are masked to visited (demand > 0)
        center/chain pairs, so a stale seed can never park customers
        at a center the chain no longer uses.
        """
        if not self._mva_queues and not self._queue_seeds:
            return None
        qnames = tuple(c for c, is_delay
                       in zip(head.centers, head.delay) if not is_delay)
        q0 = initial_queue(stack, head.delay, pops)
        for i, name in enumerate(names):
            prev = self._mva_queues.get(name)
            if (prev is not None and prev[0] == qnames
                    and prev[1] == arrays[name].chains):
                q0[i] = prev[2]
                continue
            seed = self._queue_seeds.get(name)
            if not seed:
                continue
            for ci, center in enumerate(qnames):
                for ki, chain in enumerate(arrays[name].chains):
                    value = seed.get(f"{center}|{chain}")
                    if value is not None:
                        q0[i, ci, ki] = value
        q0[stack[:, ~head.delay, :] <= 0.0] = 0.0
        return q0

    def _chain_items(self, site_name: str):
        for (s, chain), state in self._state.items():
            if s == site_name:
                yield chain, state

    def _update_lock_model(self, site_name: str) -> None:
        """Step 3a: refresh L_h, Pb, Pd and R_LW at one site."""
        site = self.sites[site_name]
        damping = self.config.damping
        think = self.workload.think_time_ms

        populations = {chain: state.population
                       for chain, state in self._chain_items(site_name)}
        # First pass: L_h for every chain from the latest responses.
        locks_held: dict[ChainType, float] = {}
        for chain, state in self._chain_items(site_name):
            new_lh = locking.average_locks_held(
                state.locks, state.abort_prob, state.sigma,
                state.response_success_ms, think,
            )
            state.locks_held = ((1 - damping) * state.locks_held
                                + damping * new_lh)
            locks_held[chain] = state.locks_held

        blocked_fraction = {chain: state.blocked_fraction
                            for chain, state in self._chain_items(site_name)}
        locks_per_chain = {chain: state.locks
                           for chain, state in self._chain_items(site_name)}
        # Eq. 18 uses the blocker's remaining *active* execution time
        # (its own lock waits excluded).  Including them makes the
        # R_LW <-> R_s loop gain exceed one in the thrashing regime
        # (n >= 16) and the fixed point ceases to exist; cutting
        # waits-behind-waiters is the same first-order closure as the
        # paper's two-cycle-only deadlock assumption (DESIGN.md §4).
        responses = {chain: state.active_success_ms
                     for chain, state in self._chain_items(site_name)}

        # Skewed access behaves, to first order, like uniform access to
        # a database shrunk by the collision multiplier (b-c rule).
        effective_granules = max(1, int(round(
            site.granules
            / self.workload.collision_multiplier(site.granules))))
        for chain, state in self._chain_items(site_name):
            new_pb = locking.blocking_probability(
                chain, populations, locks_held, effective_granules)
            new_pd = locking.deadlock_victim_probability(
                chain, populations, locks_held, blocked_fraction)
            new_rlw = self._lock_wait_time(
                chain, populations, locks_held, locks_per_chain, responses)
            state.pb = (1 - damping) * state.pb + damping * new_pb
            state.pd = (1 - damping) * state.pd + damping * new_pd
            state.r_lw = (1 - damping) * state.r_lw + damping * new_rlw
            self._refresh_abort_state(state)

    def _lock_wait_time(self, chain, populations, locks_held,
                        locks_per_chain, responses) -> float:
        override = self.config.blocking_ratio_override
        if override is None:
            return locking.lock_wait_time(
                chain, populations, locks_held, locks_per_chain, responses)
        dist = locking.blocker_distribution(chain, populations, locks_held)
        return sum(p * override * responses.get(holder, 0.0)
                   for holder, p in dist.items() if p > 0.0)

    def _update_abort_probabilities(self) -> None:
        """Step 3b: refresh Pra and P_a, coupling sites."""
        damping = self.config.damping
        # Remote-abort hazards seen by coordinators: one per remote
        # request, caused by the slave chain at the target site.
        for (site_name, chain), state in self._state.items():
            if not chain.is_coordinator:
                continue
            slave_type = chain.counterpart
            hazards = []
            for other in self.workload.sites:
                if other == site_name:
                    continue
                slave = self._state.get((other, slave_type))
                if slave is None:
                    continue
                hazards.append(remote.remote_abort_per_request(
                    slave.pb, slave.pd, slave.q))
            new_pra = sum(hazards) / len(hazards) if hazards else 0.0
            state.pra = (1 - damping) * state.pra + damping * new_pra

        # Abort probabilities.
        for (site_name, chain), state in self._state.items():
            if chain.is_slave:
                continue
            new_pa = demands_mod.abort_probability(
                chain, state.locks, state.pb, state.pd,
                remote_abort=state.pra,
                remote_requests=state.remote_requests,
            )
            state.abort_prob = ((1 - damping) * state.abort_prob
                                + damping * new_pa)
            state.n_submissions = demands_mod.mean_submissions(
                min(state.abort_prob, 0.999))

        # Slaves share the whole transaction's fate: their P_a and N_s
        # equal the (averaged) coordinator's, and their per-wait hazard
        # spreads the "aborted elsewhere" probability over their waits.
        for (site_name, chain), state in self._state.items():
            if not chain.is_slave:
                continue
            coord_type = chain.counterpart
            coord_pa: list[float] = []
            elsewhere: list[float] = []
            for other in self.workload.sites:
                if other == site_name:
                    continue
                coord = self._state.get((other, coord_type))
                if coord is None:
                    continue
                coord_pa.append(coord.abort_prob)
                own_survive = ((1.0 - state.pb * state.pd) ** state.locks)
                p_else = 1.0 - (1.0 - coord.abort_prob) / max(
                    own_survive, 1e-12)
                elsewhere.append(min(max(p_else, 0.0), 1.0))
            if not coord_pa:
                continue
            pa = sum(coord_pa) / len(coord_pa)
            state.abort_prob = ((1 - damping) * state.abort_prob
                                + damping * pa)
            state.n_submissions = demands_mod.mean_submissions(
                min(state.abort_prob, 0.999))
            p_else = sum(elsewhere) / len(elsewhere)
            new_pra = remote.remote_abort_per_wait(
                p_else, state.local_requests)
            state.pra = (1 - damping) * state.pra + damping * new_pra

    def _update_tm_serialization(self) -> None:
        """Surrogate-delay estimate of the TM token's queueing (§5.5).

        The TM is a single server fed by every chain's messages; with
        utilization ``rho`` and mean message service ``S`` the M/G/1
        (exponential) waiting time is ``rho S / (1 - rho)``, charged
        once per TM message as a delay-center demand.
        """
        damping = self.config.damping
        for site_name in self.workload.sites:
            chains_here = list(self._chain_items(site_name))
            if not chains_here:
                continue
            lam = sum(state.throughput_per_ms * state.tm_messages
                      for _c, state in chains_here)
            busy = sum(state.throughput_per_ms * state.tm_held_ms
                       for _c, state in chains_here)
            # Clamp the busy time once and derive both the utilization
            # and the mean service from the clamped value: mixing the
            # clamped rho with a service time computed from the raw
            # busy time overstates the wait near saturation.
            rho = min(busy, 0.95)
            if lam <= 0.0 or rho <= 0.0:
                wait = 0.0
            else:
                service = rho / lam
                wait = rho * service / (1.0 - rho)
            for _chain, state in chains_here:
                state.r_tms = ((1 - damping) * state.r_tms
                               + damping * wait)

    def _commit_processing_ms(self, site_name: str,
                              chain: ChainType) -> float:
        """Commit-path service time (TC + TCIO) for the CW model."""
        state = self._state.get((site_name, chain))
        if state is None or state.costs is None:
            return 0.0
        return (state.costs.cpu.get(Phase.TC, 0.0)
                + state.costs.db_disk.get(Phase.TCIO, 0.0)
                + state.costs.log_disk.get(Phase.TCIO, 0.0))

    def _update_remote_waits(
            self, solutions: dict[str, NetworkSolution]) -> None:
        """Step 3c: refresh R_RW and R_CW from the site solutions."""
        damping = self.config.damping
        alpha = self.config.alpha_ms

        for (site_name, chain), state in self._state.items():
            if chain.is_coordinator:
                slave_type = chain.counterpart
                actives = []
                slave_commits = []
                for other in self.workload.sites:
                    if other == site_name:
                        continue
                    slave = self._state.get((other, slave_type))
                    if slave is None:
                        continue
                    sol = solutions[other]
                    active = (slave.cycle_response_ms
                              - sol.chain_residence("rw", slave_type.value)
                              - sol.chain_residence("cw", slave_type.value)
                              - sol.chain_residence("ut", slave_type.value))
                    actives.append(max(0.0, active))
                    slave_commits.append(
                        self._commit_processing_ms(other, slave_type))
                if not actives:
                    continue
                new_rw = remote.coordinator_remote_wait(
                    actives, state.n_submissions, state.remote_requests,
                    alpha)
                new_cw = remote.coordinator_commit_wait(
                    self._commit_processing_ms(site_name, chain),
                    slave_commits, alpha)
                state.r_rw = (1 - damping) * state.r_rw + damping * new_rw
                state.r_cw = (1 - damping) * state.r_cw + damping * new_cw
            elif chain.is_slave:
                coord_type = chain.counterpart
                waits = []
                commit_waits = []
                for other in self.workload.sites:
                    if other == site_name:
                        continue
                    coord = self._state.get((other, coord_type))
                    if coord is None:
                        continue
                    sol = solutions[other]
                    fraction = self.workload.remote_request_fraction(
                        other, site_name)
                    waits.append(remote.slave_remote_wait(
                        coord.cycle_response_ms,
                        sol.chain_residence("rw", coord_type.value),
                        sol.chain_residence("ut", coord_type.value),
                        fraction, state.n_submissions,
                        state.local_requests,
                    ))
                    commit_waits.append(remote.slave_commit_wait(
                        self._commit_processing_ms(other, coord_type),
                        alpha))
                if not waits:
                    continue
                new_rw = sum(waits) / len(waits)
                new_cw = sum(commit_waits) / len(commit_waits)
                state.r_rw = (1 - damping) * state.r_rw + damping * new_rw
                state.r_cw = (1 - damping) * state.r_cw + damping * new_cw

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def solve(self) -> ModelSolution:
        """Run the fixed-point iteration to convergence.

        The iteration runs on the tensorized outer engine
        (:mod:`repro.model.outer`) as a batch of one: every phase —
        demand rebuild, batched site MVA, lock/abort/remote updates —
        is an array operation over the ``(site, chain)`` states, and a
        solve sharing an engine with other grid points converges to
        bit-identical iterates (the engine's operations are
        row-independent).  :class:`~repro.model.solver_reference.\
ReferenceCaratModel` keeps the original scalar loop as the oracle
        the equivalence tests pin this path against.
        """
        from repro.model.outer import solve_outer_batch

        return solve_outer_batch([self])[0]

    def _absorb_solutions(
            self, solutions: dict[str, NetworkSolution],
            per_chain: dict[str, float] | None = None) -> float:
        """Record per-chain measures; return max relative X change.

        When *per_chain* is given (traced solves only), it is filled
        with each chain's relative throughput change keyed
        ``"site/chain"``, so a stalled solve can be attributed.
        """
        residual = 0.0
        for (site_name, chain), state in self._state.items():
            sol = solutions[site_name]
            x = sol.throughput[chain.value]
            if state.throughput_per_ms > 0:
                change = (abs(x - state.throughput_per_ms)
                          / state.throughput_per_ms)
            elif x > 0:
                change = 1.0
            else:
                change = 0.0
            if change > residual:
                residual = change
            if per_chain is not None:
                per_chain[f"{site_name}/{chain.value}"] = change
            state.throughput_per_ms = x
            state.cycle_response_ms = sol.response_time[chain.value]
            in_execution = (state.cycle_response_ms
                            - sol.chain_residence("ut", chain.value))
            lw_res = sol.chain_residence("lw", chain.value)
            executions = 1.0 + (state.n_submissions - 1.0) * state.sigma
            state.response_success_ms = max(1e-9, in_execution / executions)
            state.active_success_ms = max(
                1e-9, (in_execution - lw_res) / executions)
            state.blocked_fraction = (lw_res / in_execution
                                      if in_execution > 0 else 0.0)
        return residual

    def _build_solution(self, solutions: dict[str, NetworkSolution],
                        iterations: int, residual: float) -> ModelSolution:
        sites: dict[str, SiteResult] = {}
        for name in self.workload.sites:
            sol = solutions[name]
            network = self._site_network(name)
            center_names = [c.name for c in network.centers]
            chains: dict[ChainType, ChainResult] = {}
            for chain, state in self._chain_items(name):
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
                    records_per_txn=d.records_per_cycle,
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
