"""Remote-request wait and two-phase-commit delay sub-models
(paper §5.6–5.7) plus the remote-abort probabilities feeding Eq. 3.

The coordinator's RW delay per remote request is the slave's
*request response time* — its cycle response with its own RW and UT
residence removed, spread over the remote requests of a commit cycle —
plus a network round trip (Eqs. 21–22).  Symmetrically, a slave's RW
delay is the time its coordinator spends doing everything *except*
waiting for this slave (Eqs. 23–24).  The CW delay of §5.7 is the 2PC
synchronization wait: the commit-processing imbalance between the
slowest slave and the coordinator plus two message round trips.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["coordinator_remote_wait", "slave_remote_wait",
           "coordinator_commit_wait", "slave_commit_wait",
           "remote_abort_per_request", "remote_abort_per_wait"]


def coordinator_remote_wait(
    slave_active_ms_per_cycle: list[float],
    n_submissions: float,
    remote_requests: int,
    alpha_ms: float = 0.0,
) -> float:
    """``R_RW(t, i)`` for a coordinator chain (paper Eqs. 21–22).

    Parameters
    ----------
    slave_active_ms_per_cycle:
        For each slave site ``j``, the slave chain's *active* time per
        commit cycle: ``R(s, j) - D_RW(s, j) - D_UT(s, j)`` — i.e. its
        residence at the CPU, disk and LW centers.
    n_submissions:
        ``N_s(t, i)`` of the coordinator.
    remote_requests:
        ``r(t)`` — remote requests per execution.
    alpha_ms:
        One-way mean communication delay ``alpha``.

    Returns
    -------
    float
        Mean wait per RW visit: one request's worth of slave service
        plus a message round trip.
    """
    if remote_requests < 1:
        raise ConfigurationError("coordinator has >= 1 remote request")
    if n_submissions < 1.0:
        raise ConfigurationError("N_s must be >= 1")
    total_active = sum(slave_active_ms_per_cycle)
    return 2.0 * alpha_ms + total_active / (n_submissions * remote_requests)


def slave_remote_wait(
    coordinator_response_ms: float,
    coordinator_rw_demand_ms: float,
    coordinator_ut_demand_ms: float,
    remote_fraction_to_site: float,
    n_submissions: float,
    slave_local_requests: int,
) -> float:
    """``R_RW(s, j)`` for a slave chain (paper Eqs. 23–24).

    The slave is dormant in RW while its coordinator does anything
    other than wait for *this* slave; that is the coordinator's cycle
    response minus the share ``f(t, i, j)`` of its RW demand spent on
    this site and minus its think time, spread over the slave's
    ``N_s * l(s)`` waits per cycle.
    """
    if slave_local_requests < 1:
        raise ConfigurationError("slave executes >= 1 request")
    if not 0.0 <= remote_fraction_to_site <= 1.0:
        raise ConfigurationError("remote fraction must be in [0, 1]")
    active = (coordinator_response_ms
              - coordinator_rw_demand_ms * remote_fraction_to_site
              - coordinator_ut_demand_ms)
    active = max(0.0, active)
    return active / (n_submissions * slave_local_requests)


def coordinator_commit_wait(
    coordinator_commit_ms: float,
    slave_commit_ms: list[float],
    alpha_ms: float = 0.0,
) -> float:
    """``R_CW`` for a coordinator (paper §5.7).

    The 2PC messages are processed in parallel at the slaves, so the
    coordinator waits for the *slowest* slave's commit processing in
    excess of its own, plus two message round trips (PREPARE/ACK and
    COMMIT/ACK).
    """
    if not slave_commit_ms:
        raise ConfigurationError("a coordinator has >= 1 slave site")
    slowest = max(slave_commit_ms)
    imbalance = max(0.0, slowest - coordinator_commit_ms)
    return imbalance + 4.0 * alpha_ms


def slave_commit_wait(
    coordinator_commit_ms: float,
    alpha_ms: float = 0.0,
) -> float:
    """``R_CW`` for a slave: between acknowledging PREPARE and receiving
    COMMIT it waits out the coordinator's commit processing plus one
    message round trip."""
    return max(0.0, coordinator_commit_ms) + 2.0 * alpha_ms


def remote_abort_per_request(
    slave_blocking: float,
    slave_deadlock_victim: float,
    slave_ios_per_request: float,
) -> float:
    """``Pra(t, i)`` — probability one remote request ends in an abort
    notification, i.e. the slave hits a deadlock while acquiring the
    ``q`` locks that request needs (feeds paper Eq. 3)."""
    per_lock = slave_blocking * slave_deadlock_victim
    if not 0.0 <= per_lock <= 1.0:
        raise ConfigurationError(f"Pb*Pd={per_lock} invalid")
    return 1.0 - (1.0 - per_lock) ** slave_ios_per_request


def remote_abort_per_wait(
    abort_probability_elsewhere: float,
    waits_per_execution: int,
) -> float:
    """Per-RW-wait abort probability for a *slave* chain.

    The rest of the distributed transaction (coordinator plus any other
    slaves) aborts an execution with probability ``P_else``; spreading
    that evenly over the slave's ``l(s)`` RW waits gives the per-wait
    hazard ``1 - (1 - P_else)^(1/l)``.
    """
    if waits_per_execution < 1:
        raise ConfigurationError("a slave waits at least once")
    p = abort_probability_elsewhere
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"P_else={p} invalid")
    if p >= 1.0:
        return 1.0
    return 1.0 - (1.0 - p) ** (1.0 / waits_per_execution)
