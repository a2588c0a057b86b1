"""Per-phase service requirements and aggregate service demands.

Implements paper §5.2–5.3: the per-visit CPU/disk requirements of every
phase (from Table 2 plus the protocol-derived constants of
:class:`repro.model.parameters.ProtocolCosts`), the lock count ``N_lk``
(Eq. 2), abort probability ``P_a`` (Eq. 3), mean submissions per commit
``N_s`` (Eq. 4) and the center demands ``D_cpu``/``D_disk`` (Eqs. 5–6).

The same phase costs parameterize the testbed simulator, keeping the
analytical model and the "measurement" substrate comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.model.parameters import SiteParameters
from repro.model.types import ChainType, Phase
from repro.model.workload import WorkloadSpec
from repro.queueing.yao import expected_granules

__all__ = ["PhaseCosts", "ChainDemands", "build_phase_costs",
           "ios_per_request", "lock_count", "abort_probability",
           "mean_submissions", "aggregate_demands"]


@dataclass(frozen=True)
class PhaseCosts:
    """Per-visit resource requirements of each phase for one chain.

    ``cpu``/``db_disk``/``log_disk`` map phases to milliseconds per
    visit; ``db_ios``/``log_ios`` map phases to physical I/O operations
    per visit (used for the Total-DIO metric).
    """

    cpu: dict[Phase, float] = field(default_factory=dict)
    db_disk: dict[Phase, float] = field(default_factory=dict)
    log_disk: dict[Phase, float] = field(default_factory=dict)
    db_ios: dict[Phase, float] = field(default_factory=dict)
    log_ios: dict[Phase, float] = field(default_factory=dict)


def ios_per_request(site: SiteParameters, workload: WorkloadSpec,
                    chain: ChainType) -> float:
    """``q(t)`` — mean granule accesses (disk bursts) per local request.

    Uses Yao's formula over the whole transaction's local record set,
    divided by the number of local requests (paper §5.2:
    ``q(t) = g(t) / n(t)`` restricted to the site's share).
    """
    records = workload.records_per_txn(chain)
    if records == 0:
        raise ConfigurationError(f"chain {chain} accesses no records")
    granules = expected_granules(records, site.granules,
                                 site.records_per_granule)
    return granules / workload.local_requests(chain)


def lock_count(workload: WorkloadSpec, chain: ChainType,
               q: float) -> float:
    """``N_lk(t) = l(t) * q(t)`` (paper Eq. 2) — locks acquired at the
    chain's site per execution."""
    return workload.local_requests(chain) * q


def abort_probability(
    chain: ChainType,
    locks: float,
    blocking: float,
    deadlock_victim: float,
    remote_abort: float = 0.0,
    remote_requests: int = 0,
) -> float:
    """``P_a(t, i)`` — probability an execution aborts (paper Eq. 3).

    For local chains only the local deadlock term applies; coordinator
    chains also survive each of their ``r(t)`` remote requests with
    probability ``1 - Pra``.
    """
    per_lock = blocking * deadlock_victim
    if not 0.0 <= per_lock <= 1.0:
        raise ConfigurationError(f"Pb*Pd={per_lock} is not a probability")
    survive = (1.0 - per_lock) ** locks
    if chain.is_coordinator:
        survive *= (1.0 - remote_abort) ** remote_requests
    return 1.0 - survive


def mean_submissions(abort_prob: float) -> float:
    """``N_s = 1 / (1 - P_a)`` (paper Eq. 4)."""
    if not 0.0 <= abort_prob < 1.0:
        raise ConfigurationError(
            f"abort probability {abort_prob} leaves no commits"
        )
    return 1.0 / (1.0 - abort_prob)


def build_phase_costs(
    site: SiteParameters,
    workload: WorkloadSpec,
    chain: ChainType,
    aborted_granules: float = 0.0,
) -> PhaseCosts:
    """Per-visit phase requirements for one chain at one site.

    Parameters
    ----------
    site, workload, chain:
        The configuration triple.
    aborted_granules:
        Mean number of granules that must be undone when the chain is
        chosen as a deadlock victim (``E[Y]`` from the lock model; only
        update chains pay rollback I/O).
    """
    basic = site.costs_for(chain)
    protocol = site.protocol
    q = ios_per_request(site, workload, chain)
    locks = lock_count(workload, chain, q)
    slave_sites = max(1, len(workload.sites) - 1)

    cpu: dict[Phase, float] = {
        Phase.U: basic.u_cpu,
        Phase.TM: basic.tm_cpu,
        Phase.DM: basic.dm_cpu,
        Phase.LR: basic.lr_cpu,
        Phase.DMIO: basic.dmio_cpu,
        Phase.UL: protocol.unlock_cpu_per_lock * locks,
    }

    # INIT: TBEGIN plus one DBOPEN round per participating site
    # (slaves never visit INIT; their DBOPEN cost is folded into the
    # coordinator's).
    if chain.is_slave:
        cpu[Phase.INIT] = 0.0
    elif chain.is_coordinator:
        cpu[Phase.INIT] = (protocol.tbegin_cpu
                           + protocol.dbopen_cpu_per_site
                           * (1 + slave_sites))
    else:
        cpu[Phase.INIT] = (protocol.tbegin_cpu
                           + protocol.dbopen_cpu_per_site)

    # TC: commit bookkeeping plus 2PC message processing.
    if chain.is_coordinator:
        cpu[Phase.TC] = (protocol.commit_cpu + basic.tm_cpu
                         + protocol.twopc_rounds * slave_sites
                         * basic.tm_cpu)
    elif chain.is_slave:
        cpu[Phase.TC] = (protocol.commit_cpu
                         + protocol.twopc_rounds * basic.tm_cpu)
    else:
        cpu[Phase.TC] = protocol.commit_cpu + basic.tm_cpu

    # TA: abort notification plus per-granule undo CPU.
    undo_cpu = (protocol.undo_cpu_per_granule * aborted_granules
                if chain.is_update else 0.0)
    cpu[Phase.TA] = protocol.abort_message_cpu + undo_cpu

    # Disk requirements. DMIO's Table 2 value encodes the I/Os per
    # granule access (1 for reads, 3 for updates); a shared buffer (the
    # ablation knob) absorbs a fraction of the *read* I/O only.
    ios_per_dmio = basic.dmio_disk / site.block_io_ms
    hit = site.buffer_hit_probability
    effective_ios = (1.0 - hit) + (ios_per_dmio - 1.0)
    db_disk = {Phase.DMIO: effective_ios * site.block_io_ms}
    db_ios = {Phase.DMIO: effective_ios}

    if chain.is_update:
        if chain is ChainType.DUS:
            commit_ios = protocol.slave_commit_ios
        elif chain is ChainType.DUC:
            commit_ios = protocol.coordinator_commit_ios
        else:
            commit_ios = protocol.coordinator_commit_ios
        undo_ios = protocol.undo_ios_per_granule * aborted_granules
    else:
        commit_ios = protocol.readonly_commit_ios
        undo_ios = 0.0

    log_disk: dict[Phase, float] = {}
    log_ios: dict[Phase, float] = {}
    commit_ms = commit_ios * site.block_io_ms
    undo_ms = undo_ios * site.block_io_ms
    if site.log_on_separate_disk:
        log_disk[Phase.TCIO] = commit_ms
        log_disk[Phase.TAIO] = undo_ms
        log_ios[Phase.TCIO] = float(commit_ios)
        log_ios[Phase.TAIO] = undo_ios
    else:
        db_disk[Phase.TCIO] = commit_ms
        db_disk[Phase.TAIO] = undo_ms
        db_ios[Phase.TCIO] = float(commit_ios)
        db_ios[Phase.TAIO] = undo_ios

    return PhaseCosts(cpu=cpu, db_disk=db_disk, log_disk=log_disk,
                      db_ios=db_ios, log_ios=log_ios)


@dataclass(frozen=True)
class ChainDemands:
    """Aggregate per-commit-cycle demands of one chain at one site.

    All times in milliseconds per committed transaction (failed
    submissions included via ``N_s``, paper Eqs. 5–6).
    """

    chain: ChainType
    n_submissions: float
    cpu_ms: float
    db_disk_ms: float
    log_disk_ms: float
    db_ios: float
    log_ios: float
    lw_visits: float
    rw_visits: float
    cw_visits: float
    records_per_cycle: float

    @property
    def total_ios(self) -> float:
        """Physical I/O operations per committed transaction."""
        return self.db_ios + self.log_ios


def aggregate_demands(
    chain: ChainType,
    visits: dict[Phase, float],
    n_submissions: float,
    costs: PhaseCosts,
    records_per_execution: float,
) -> ChainDemands:
    """Fold visit counts and per-visit costs into center demands.

    Implements paper Eqs. 5–6 for the CPU and disk centers and records
    the delay-center visit counts (the delay-center *demands*, Eqs.
    7–10, need the iteratively-computed per-visit delays and are
    assembled by the solver).
    """
    if n_submissions < 1.0:
        raise ConfigurationError("N_s must be >= 1")

    def total(table: dict[Phase, float]) -> float:
        return n_submissions * sum(
            visits.get(phase, 0.0) * value for phase, value in table.items()
        )

    return ChainDemands(
        chain=chain,
        n_submissions=n_submissions,
        cpu_ms=total(costs.cpu),
        db_disk_ms=total(costs.db_disk),
        log_disk_ms=total(costs.log_disk),
        db_ios=total(costs.db_ios),
        log_ios=total(costs.log_ios),
        lw_visits=n_submissions * visits.get(Phase.LW, 0.0),
        rw_visits=n_submissions * visits.get(Phase.RW, 0.0),
        cw_visits=n_submissions * (visits.get(Phase.CWC, 0.0)
                                   + visits.get(Phase.CWA, 0.0)),
        records_per_cycle=records_per_execution,
    )
