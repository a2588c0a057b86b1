"""Lock contention sub-model (paper §5.4).

Implements:

* the truncated-geometric distribution of locks held at abort and its
  mean ``E[Y]`` (Eq. 11);
* the time-average number of locks held per transaction ``L_h``
  (Eqs. 12–14);
* the blocking probability ``Pb`` (Eq. 15) and the lock-wait
  probability ``P_lw`` (Eq. 16), with share/exclusive compatibility:
  read-only chains hold shared locks (block only exclusive requests),
  update chains hold exclusive locks (block everyone);
* the blocker-type distribution ``PB`` (Eq. 17), restricted to
  compatible holder types;
* the two-cycle deadlock-victim probability ``Pd`` (§5.4.3 — the
  paper defers its derivation to [JENQ86]; our first-order derivation
  is documented on :func:`deadlock_victim_probability`);
* the mean blocking time via the blocking-ratio result
  ``BR = (2N + 1) / (6N) ~= 1/3`` (Eqs. 18–20).

Every function is an array function: per-chain arguments are arrays
over a trailing chain axis ``M`` with any leading batch shape
(``(B, M)`` in the tensor engine), and pairwise quantities carry a
``(..., M, M)`` requester-by-holder pair of axes.  Plain floats are the
one-chain case and come back as floats.  The chain axis may span
several sites: :func:`conflict_matrix` only pairs chains of one site.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.model.types import ChainType

__all__ = ["locks_at_abort", "abort_extent", "average_locks_held",
           "conflict_matrix", "HolderMass", "holder_mass",
           "blocking_probability", "lock_wait_probability", "blocker_distribution",
           "deadlock_victim_probability", "blocking_ratio",
           "lock_wait_time", "LockModelState"]


def _out(value):
    """A 0-d result as a plain float, anything else unchanged."""
    return float(value) if np.ndim(value) == 0 else value


def seq_sum_last(term: np.ndarray) -> np.ndarray:
    """Sum over the last axis by sequential left-to-right accumulation.

    ``term`` is any stack with a trailing reduction axis, e.g. the
    ``(..., M, M)`` holder-mass tensor.  Pairwise summation would round
    differently from the scalar loops the oracle keeps, and the
    batched-vs-scalar equivalence leans on masked (zero) terms being
    exact no-ops.
    """
    out = term[..., 0].copy()
    # caratlint: disable=CL002 -- left-to-right order is the contract
    for j in range(1, term.shape[-1]):
        out = out + term[..., j]
    return out


def locks_at_abort(locks, per_lock_abort):
    """``E[Y]`` — mean locks held when an execution aborts (Eq. 11).

    ``Y`` is truncated-geometric on ``0 .. N_lk - 1`` with per-lock
    abort probability ``p = Pb * Pd``:

    ``E[Y] = (1 - p)/p - N (1 - p)^N / (1 - (1 - p)^N)``

    with the uniform limit ``(N - 1) / 2`` as ``p -> 0``.  ``locks``
    and ``per_lock_abort`` broadcast against each other.
    """
    locks = np.asarray(locks, dtype=float)
    p = np.asarray(per_lock_abort, dtype=float)
    if np.any(locks <= 0.0):
        raise ConfigurationError("a transaction holds at least one lock")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ConfigurationError(f"per-lock abort prob {p} invalid")
    half = (locks - 1.0) / 2.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = 1.0 - p
        xn = x ** locks
        safe_p = np.where(p > 0.0, p, 1.0)
        closed = x / safe_p - (locks * xn) / (1.0 - xn)
        closed = np.minimum(np.maximum(closed, 0.0), half)
    # Below p*N = 1e-4 the closed form suffers catastrophic
    # cancellation; the uniform limit's relative error is O(p * N).
    # Clamped at zero for the fractional lock counts (< 1) Yao's
    # formula can produce.
    return _out(np.where(p * locks < 1e-4, np.maximum(0.0, half),
                         np.where(p >= 1.0 - 1e-12, 0.0, closed)))


def abort_extent(locks, per_lock_abort):
    """``(E[Y], sigma)`` with ``sigma = E[Y] / N_lk`` (Eq. 11).

    A chain that acquires no locks is degenerate but valid: it can
    never be a deadlock victim, so both quantities are zero.
    ``per_lock_abort`` is clipped at one (``Pb * Pd`` of damped
    iterates may overshoot).
    """
    locks = np.asarray(locks, dtype=float)
    per_lock = np.minimum(1.0, per_lock_abort)
    held = locks > 0.0
    safe = np.where(held, locks, 1.0)
    ey = np.where(held, locks_at_abort(safe, per_lock), 0.0)
    return _out(ey), _out(np.where(held, ey / safe, 0.0))


def average_locks_held(locks, abort_probability, sigma,
                       response_success, think_time):
    """``L_h`` — time-average locks held by a transaction (Eq. 14).

    Parameters
    ----------
    locks:
        ``N_lk`` — locks acquired by a full execution.
    abort_probability:
        ``P_a`` — probability an execution aborts.
    sigma:
        ``E[Y] / N_lk`` — fraction of locks held at the abort point.
    response_success:
        ``R_s`` — mean duration of a successful execution.
    think_time:
        ``R_UT`` — user think time between submissions.

    Notes
    -----
    With the uniform-acquisition assumption ``R_f = sigma * R_s`` and

    ``L_h = (N_lk / 2) * [1 - (1 - sigma^2) P_a] * R_s
            / (P_a R_f + (1 - P_a) R_s + R_UT)``

    which reduces to Eq. 12 when ``P_a = 0``.  Zero where
    ``R_s <= 0``; ``P_a`` and ``sigma`` are checked only elsewhere.
    """
    r_s = np.asarray(response_success, dtype=float)
    pa = np.asarray(abort_probability, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    live = r_s > 0.0
    if np.any(live & ((pa < 0.0) | (pa >= 1.0))):
        raise ConfigurationError(f"abort probability {pa} invalid")
    if np.any(live & ((sigma < 0.0) | (sigma > 1.0))):
        raise ConfigurationError(f"sigma {sigma} invalid")
    r_f = sigma * r_s
    numerator = (1.0 - (1.0 - sigma ** 2) * pa) * r_s
    denominator = pa * r_f + (1.0 - pa) * r_s + think_time
    safe = np.where(denominator > 0.0, denominator, 1.0)
    return _out(np.where(live, (locks / 2.0) * numerator / safe, 0.0))


def conflict_matrix(chains: Sequence[ChainType],
                    sites: Sequence[object] | np.ndarray | None = None
                    ) -> np.ndarray:
    """``(M, M)`` mask: can a lock of holder chain ``j`` block chain ``i``?

    Read-only requesters are blocked only by exclusive locks (update
    chains); update requesters by any lock.  The relation is symmetric.
    With *sites* given (one per chain), only chains of one site
    conflict.
    """
    update = np.array([chain.is_update for chain in chains], dtype=bool)
    mask = update[:, None] | update[None, :]
    if sites is not None:
        site = np.asarray(sites)
        mask &= site[:, None] == site[None, :]
    return mask


@dataclass(frozen=True)
class HolderMass:
    """The terms of Eq. 15 with their row sums and the Eq. 17 blocker
    distribution, computed once by :func:`holder_mass` and shared by
    Eqs. 15-20.

    Attributes
    ----------
    mass:
        ``(..., M, M)`` lock mass, per holder chain, that can block
        each requester chain.
    total:
        ``(..., M)`` blocking mass per requester (the row sums of
        ``mass`` in state order).
    dist:
        ``(..., M, M)`` blocker-chain distribution ``PB`` (Eq. 17); all
        zero for a requester nothing can block.
    """

    mass: np.ndarray
    total: np.ndarray
    dist: np.ndarray


def holder_mass(populations, locks_held, conflicts) -> HolderMass:
    """:class:`HolderMass` — the lock mass, per holder chain, that can
    block each requester chain (the terms of Eq. 15).

    ``populations`` and ``locks_held`` are ``(..., M)`` per-chain
    arrays and ``conflicts`` the ``(M, M)`` :func:`conflict_matrix`.
    A transaction never blocks on its own locks, so one ``L_h`` of the
    requester's own chain is removed from its own-chain mass.
    """
    lh = np.asarray(locks_held, dtype=float)
    pop = np.asarray(populations, dtype=float)
    raw = pop[..., None, :] * lh[..., None, :]
    raw = raw - np.eye(lh.shape[-1]) * lh[..., None, :]
    raw = np.maximum(0.0, raw)
    mass = np.where(conflicts, raw, 0.0)
    total = seq_sum_last(mass)
    safe = np.where(total > 0.0, total, 1.0)[..., None]
    dist = np.where(total[..., None] > 0.0, mass / safe, 0.0)
    return HolderMass(mass, total, dist)


def blocking_probability(held: HolderMass, granules):
    """``Pb(t, i)`` — probability one lock request is blocked (Eq. 15).

    ``held`` is the :func:`holder_mass`; ``granules`` broadcasts
    against the ``(..., M)`` result.
    """
    if np.any(np.asarray(granules) <= 0):
        raise ConfigurationError("granules must be positive")
    return _out(np.minimum(1.0, held.total / granules))


def lock_wait_probability(blocking, locks):
    """``P_lw = 1 - (1 - Pb)^N_lk`` (Eq. 16)."""
    pb = np.asarray(blocking, dtype=float)
    if np.any((pb < 0.0) | (pb > 1.0)):
        raise ConfigurationError(f"Pb {pb} invalid")
    return _out(1.0 - (1.0 - pb) ** locks)


def blocker_distribution(held: HolderMass) -> np.ndarray:
    """``PB(t, s, i)`` — ``(..., M, M)`` distribution of the blocker's
    chain (Eq. 17) over the holders of :func:`holder_mass` ``held``;
    all zero for a requester nothing can block."""
    return held.dist


def deadlock_victim_probability(held: HolderMass, locks_held,
                                blocked_fraction):
    """``Pd(t, i)`` — probability a blocked request closes a two-cycle
    deadlock with this transaction as victim (paper §5.4.3).

    ``held`` is the :func:`holder_mass`; ``locks_held`` (``L_h``) and
    ``blocked_fraction`` (``W``) are ``(..., M)``.

    The paper defers the formula to [JENQ86]; our first-order
    derivation (DESIGN.md §4.2): given the requester ``t`` is blocked,
    its blocker is a type-``s`` holder with probability ``PB(t, s)``.
    A two-cycle deadlock exists right now iff that holder is itself
    waiting (probability ``W(s)``, its stationary blocked-time
    fraction) *and* the granule it waits for is one of the requester's
    — probability ``L_h(t) / (total compatible holder mass for s)``.
    CARAT aborts the transaction whose request closed the cycle, i.e.
    the requester, so the product is exactly ``Pd(t)``.

    Mode compatibility is enforced on both edges (the conflict relation
    is symmetric): two read-only transactions can never deadlock with
    each other.
    """
    lh = np.asarray(locks_held, dtype=float)
    dist = held.dist
    wait_h = np.asarray(blocked_fraction, dtype=float)[..., None, :]
    total_h = held.total[..., None, :]
    safe_h = np.where(total_h > 0.0, total_h, 1.0)
    share = np.minimum(1.0, lh[..., :, None] / safe_h)
    term = np.where((dist > 0.0) & (wait_h > 0.0) & (total_h > 0.0),
                    (dist * wait_h) * share, 0.0)
    return _out(np.where(lh > 0.0, np.minimum(1.0, seq_sum_last(term)),
                         0.0))


def blocking_ratio(locks):
    """``BR(t) = (2 N_lk + 1) / (6 N_lk)`` (Eq. 19), ~1/3 for large N."""
    locks = np.asarray(locks, dtype=float)
    if np.any(locks <= 0.0):
        raise ConfigurationError("locks must be positive")
    return _out((2.0 * locks + 1.0) / (6.0 * locks))


def lock_wait_time(held: HolderMass, ratio, response):
    """``R_LW(t, i)`` — mean delay per blocked lock request (Eq. 20).

    ``RLT(s) = BR(s) * R(s)`` is the mean remaining blocking time of a
    type-``s`` holder (Eq. 18), with ``ratio`` its blocking ratio
    (:func:`blocking_ratio`, or an override) and ``response`` its mean
    execution time, both ``(..., M)`` over holders; the wait averages
    over the blocker distribution of ``held`` (:func:`holder_mass`).
    Holders with no ratio or no response time contribute nothing.
    """
    dist = held.dist
    ratio_h = np.asarray(ratio, dtype=float)[..., None, :]
    response_h = np.asarray(response, dtype=float)[..., None, :]
    term = np.where((dist > 0.0) & (ratio_h > 0.0) & (response_h > 0.0),
                    (dist * ratio_h) * response_h, 0.0)
    return _out(seq_sum_last(term))


@dataclass(frozen=True)
class LockModelState:
    """Converged lock-model quantities for one chain at one site.

    A convenience record the solver exposes for reporting and tests.
    """

    chain: ChainType
    locks: float
    blocking: float
    deadlock_victim: float
    lock_wait_probability: float
    locks_held: float
    locks_at_abort: float
    abort_probability: float
    lock_wait_ms: float
