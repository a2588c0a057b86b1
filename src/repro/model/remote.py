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

Like :mod:`repro.model.locking`, every function is an array function:
arguments broadcast elementwise (any leading batch shape, ``(B, M)``
in the tensor engine), per-partner arguments carry a trailing partner
axis, and plain floats are the one-chain case returned as floats.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.model.locking import _out, seq_sum_last

__all__ = ["coordinator_remote_wait", "slave_remote_wait",
           "coordinator_commit_wait", "slave_commit_wait",
           "remote_abort_per_request", "abort_elsewhere",
           "remote_abort_per_wait"]


def coordinator_remote_wait(slave_active_ms_per_cycle, n_submissions,
                            remote_requests, alpha_ms=0.0):
    """``R_RW(t, i)`` for a coordinator chain (paper Eqs. 21–22).

    Parameters
    ----------
    slave_active_ms_per_cycle:
        ``(..., S)``: for each slave site ``j`` on the trailing axis,
        the slave chain's *active* time per commit cycle:
        ``R(s, j) - D_RW(s, j) - D_UT(s, j)`` — i.e. its residence at
        the CPU, disk and LW centers.  Absent slaves are zeros.
    n_submissions:
        ``N_s(t, i)`` of the coordinator.
    remote_requests:
        ``r(t)`` — remote requests per execution.
    alpha_ms:
        One-way mean communication delay ``alpha``.

    Returns
    -------
    Mean wait per RW visit: one request's worth of slave service plus
    a message round trip.
    """
    if np.any(np.asarray(remote_requests) < 1):
        raise ConfigurationError("coordinator has >= 1 remote request")
    if np.any(np.asarray(n_submissions) < 1.0):
        raise ConfigurationError("N_s must be >= 1")
    total_active = seq_sum_last(np.asarray(slave_active_ms_per_cycle,
                                           dtype=float))
    return _out(2.0 * alpha_ms
                + total_active / (n_submissions * remote_requests))


def slave_remote_wait(coordinator_response_ms, coordinator_rw_demand_ms,
                      coordinator_ut_demand_ms, remote_fraction_to_site,
                      n_submissions, slave_local_requests):
    """``R_RW(s, j)`` for a slave chain (paper Eqs. 23–24).

    The slave is dormant in RW while its coordinator does anything
    other than wait for *this* slave; that is the coordinator's cycle
    response minus the share ``f(t, i, j)`` of its RW demand spent on
    this site and minus its think time, spread over the slave's
    ``N_s * l(s)`` waits per cycle.
    """
    if np.any(np.asarray(slave_local_requests) < 1):
        raise ConfigurationError("slave executes >= 1 request")
    fraction = np.asarray(remote_fraction_to_site, dtype=float)
    if np.any((fraction < 0.0) | (fraction > 1.0)):
        raise ConfigurationError("remote fraction must be in [0, 1]")
    active = np.maximum(0.0, coordinator_response_ms
                        - coordinator_rw_demand_ms * fraction
                        - coordinator_ut_demand_ms)
    return _out(active / (n_submissions * slave_local_requests))


def coordinator_commit_wait(coordinator_commit_ms, slave_commit_ms,
                            alpha_ms=0.0):
    """``R_CW`` for a coordinator (paper §5.7).

    The 2PC messages are processed in parallel at the slaves, so the
    coordinator waits for the *slowest* slave's commit processing in
    excess of its own, plus two message round trips (PREPARE/ACK and
    COMMIT/ACK).  ``slave_commit_ms`` is ``(..., S)`` over slave sites
    on the trailing axis; absent slaves are ``-inf``.
    """
    slaves = np.asarray(slave_commit_ms, dtype=float)
    if slaves.shape[-1] == 0:
        raise ConfigurationError("a coordinator has >= 1 slave site")
    slowest = slaves.max(axis=-1)
    return _out(np.maximum(0.0, slowest - coordinator_commit_ms)
                + 4.0 * alpha_ms)


def slave_commit_wait(coordinator_commit_ms, alpha_ms=0.0):
    """``R_CW`` for a slave: between acknowledging PREPARE and receiving
    COMMIT it waits out the coordinator's commit processing plus one
    message round trip."""
    return _out(np.maximum(0.0, coordinator_commit_ms) + 2.0 * alpha_ms)


def remote_abort_per_request(slave_blocking, slave_deadlock_victim,
                             slave_ios_per_request):
    """``Pra(t, i)`` — probability one remote request ends in an abort
    notification, i.e. the slave hits a deadlock while acquiring the
    ``q`` locks that request needs (feeds paper Eq. 3)."""
    per_lock = np.asarray(slave_blocking * slave_deadlock_victim,
                          dtype=float)
    if np.any((per_lock < 0.0) | (per_lock > 1.0)):
        raise ConfigurationError(f"Pb*Pd={per_lock} invalid")
    return _out(1.0 - (1.0 - per_lock) ** slave_ios_per_request)


def abort_elsewhere(coordinator_abort, own_commit):
    """``P_else`` for a slave: the probability that the rest of the
    distributed transaction (coordinator plus any other slaves) aborts
    an execution.

    The whole transaction aborts with the coordinator's ``P_a``; the
    slave itself survives its own lock requests with ``own_commit``
    (:func:`repro.model.demands.commit_probability`), so
    ``1 - P_a = own_commit * (1 - P_else)``, clipped into ``[0, 1]``.
    """
    p_else = 1.0 - (1.0 - coordinator_abort) / np.maximum(own_commit,
                                                          1e-12)
    return _out(np.minimum(np.maximum(p_else, 0.0), 1.0))


def remote_abort_per_wait(abort_probability_elsewhere,
                          waits_per_execution):
    """Per-RW-wait abort probability for a *slave* chain.

    The rest of the distributed transaction aborts an execution with
    probability ``P_else`` (:func:`abort_elsewhere`); spreading that
    evenly over the slave's ``l(s)`` RW waits gives the per-wait
    hazard ``1 - (1 - P_else)^(1/l)``.
    """
    if np.any(np.asarray(waits_per_execution) < 1):
        raise ConfigurationError("a slave waits at least once")
    p = np.asarray(abort_probability_elsewhere, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ConfigurationError(f"P_else={p} invalid")
    with np.errstate(invalid="ignore"):
        base = np.where(p < 1.0, 1.0 - p, 0.5)
        return _out(np.where(p >= 1.0, 1.0,
                             1.0 - base ** (1.0 / waits_per_execution)))
