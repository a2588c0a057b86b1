"""Phase-transition probabilities and visit counts (paper §5.1, Table 1).

For each chain type the transaction's execution is a Markov chain over
the phase set ``P``.  Table 1 of the paper gives the transition matrix
for local and coordinator transactions; the slave analogue ("similar
expressions can be obtained for the two slave transaction types",
paper §5.1) is derived here from the slave protocol of §4.2:

* a slave wakes from UT directly into TM when the first REMDO arrives;
* after each completed request it sits in RW waiting for the next
  request or the 2PC PREPARE (so ``p(TM->RW) = l/C`` with
  ``C = 2l + 1``);
* an RW wait can end in an abort notification from the rest of the
  distributed transaction (probability ``Pra`` per wait).

Visit counts per transaction cycle (one UT visit) solve the traffic
equations ``V_c2 = sum_c1 V_c1 * p(c1, c2)`` (paper Eq. 1), normalized
by ``V_UT = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.model.types import ChainType, Phase, PHASE_ORDER

__all__ = ["ConflictProbabilities", "transition_matrix", "visit_array",
           "visit_counts",
           "expected_visits_no_conflict"]

_INDEX = {phase: i for i, phase in enumerate(PHASE_ORDER)}


@dataclass(frozen=True)
class ConflictProbabilities:
    """Per-chain conflict inputs to the phase chain.

    Attributes
    ----------
    blocking:
        ``Pb`` — probability a lock request is not granted immediately.
    deadlock_victim:
        ``Pd`` — probability a *blocked* request ends with this
        transaction chosen as deadlock victim.
    remote_abort:
        ``Pra`` — probability one RW wait ends in an abort caused by a
        deadlock detected at another site (0 for local chains).
    """

    blocking: float = 0.0
    deadlock_victim: float = 0.0
    remote_abort: float = 0.0

    def __post_init__(self) -> None:
        for name in ("blocking", "deadlock_victim", "remote_abort"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name}={p} is not a probability")


NO_CONFLICT = ConflictProbabilities()


def transition_matrix(
    chain: ChainType,
    local_requests: int,
    remote_requests: int,
    ios_per_request: float,
    conflict: ConflictProbabilities = NO_CONFLICT,
) -> np.ndarray:
    """Phase-transition matrix for one chain type (paper Table 1).

    Parameters
    ----------
    chain:
        The model chain type.
    local_requests:
        ``l(t)`` — requests executed by local DM servers.
    remote_requests:
        ``r(t)`` — requests shipped to remote sites (0 unless the chain
        is a coordinator).
    ios_per_request:
        ``q(t)`` — mean disk I/O operations (granule accesses) per
        request, from Yao's formula.
    conflict:
        Blocking/deadlock/remote-abort probabilities.

    Returns
    -------
    numpy.ndarray
        Row-stochastic matrix indexed by
        :data:`repro.model.types.PHASE_ORDER`.
    """
    loc, r, q = local_requests, remote_requests, ios_per_request
    if loc < 0 or r < 0:
        raise ConfigurationError("request counts must be non-negative")
    if q <= 0:
        raise ConfigurationError("ios_per_request must be positive")
    if chain.is_slave and r:
        raise ConfigurationError(f"slave chain {chain} cannot have "
                                 f"remote requests")
    if not chain.is_coordinator and r:
        raise ConfigurationError(f"local chain {chain} cannot have "
                                 f"remote requests")
    if chain.is_coordinator and r < 1:
        raise ConfigurationError("coordinator needs >= 1 remote request")
    if loc + r < 1:
        raise ConfigurationError("a transaction issues >= 1 request")

    pb = conflict.blocking
    pd = conflict.deadlock_victim
    pra = conflict.remote_abort

    p = np.zeros((len(PHASE_ORDER), len(PHASE_ORDER)))

    def set_p(src: Phase, dst: Phase, value: float) -> None:
        p[_INDEX[src], _INDEX[dst]] = value

    if chain.is_slave:
        # Slaves are awakened by the first REMDO; there is no user
        # process or INIT phase at the slave site.
        c = 2 * loc + 1
        set_p(Phase.UT, Phase.TM, 1.0)
        set_p(Phase.TM, Phase.DM, loc / c)
        set_p(Phase.TM, Phase.RW, loc / c)
        set_p(Phase.TM, Phase.TC, 1 / c)
        set_p(Phase.RW, Phase.TM, 1.0 - pra)
        set_p(Phase.RW, Phase.TA, pra)
    else:
        n = loc + r
        c = 2 * n + 1
        set_p(Phase.UT, Phase.INIT, 1.0)
        set_p(Phase.INIT, Phase.U, 1.0)
        set_p(Phase.U, Phase.TM, 1.0)
        set_p(Phase.TM, Phase.U, n / c)
        set_p(Phase.TM, Phase.DM, loc / c)
        if r:
            set_p(Phase.TM, Phase.RW, r / c)
            set_p(Phase.RW, Phase.TM, 1.0 - pra)
            set_p(Phase.RW, Phase.TA, pra)
        set_p(Phase.TM, Phase.TC, 1 / c)

    # Shared DM / locking / commit structure (identical for every
    # chain that executes local requests).
    set_p(Phase.DM, Phase.TM, 1.0 / (q + 1.0))
    set_p(Phase.DM, Phase.LR, q / (q + 1.0))
    set_p(Phase.LR, Phase.DMIO, 1.0 - pb)
    set_p(Phase.LR, Phase.LW, pb)
    set_p(Phase.DMIO, Phase.DM, 1.0)
    set_p(Phase.LW, Phase.DMIO, 1.0 - pd)
    set_p(Phase.LW, Phase.TA, pd)
    set_p(Phase.TC, Phase.CWC, 1.0)
    set_p(Phase.TA, Phase.CWA, 1.0)
    set_p(Phase.CWC, Phase.TCIO, 1.0)
    set_p(Phase.CWA, Phase.TAIO, 1.0)
    set_p(Phase.TCIO, Phase.UL, 1.0)
    set_p(Phase.TAIO, Phase.UL, 1.0)
    set_p(Phase.UL, Phase.UT, 1.0)
    return p


def visit_array(matrix: np.ndarray) -> np.ndarray:
    """Visit counts per transaction cycle (paper Eq. 1), ``V_UT = 1``.

    Solves the traffic equations ``V = V P`` with the UT visit count
    pinned to one, i.e. visits are "per submission cycle".  ``matrix``
    is a ``(..., P, P)`` stack of phase matrices over
    :data:`~repro.model.types.PHASE_ORDER`; the result is the matching
    ``(..., P)`` stack of visit vectors.
    """
    size = len(PHASE_ORDER)
    if matrix.shape[-2:] != (size, size):
        raise ConfigurationError(
            f"expected a {size}x{size} phase matrix, got {matrix.shape}"
        )
    # (I - P)^T V = 0 with the UT row replaced by the normalization.
    a = np.ascontiguousarray(np.swapaxes(np.eye(size) - matrix, -1, -2))
    ut = _INDEX[Phase.UT]
    a[..., ut, :] = 0.0
    a[..., ut, ut] = 1.0
    b = np.zeros(matrix.shape[:-1] + (1,))
    b[..., ut, 0] = 1.0
    v = np.linalg.solve(a, b)[..., 0]
    if np.any(v < -1e-9):
        raise ConfigurationError("negative visit count; matrix is not a "
                                 "valid phase chain")
    return np.maximum(0.0, v)


def visit_counts(matrix: np.ndarray) -> dict[Phase, float]:
    """:func:`visit_array` of one phase matrix, keyed by phase."""
    v = visit_array(matrix)
    return {phase: float(v[_INDEX[phase]]) for phase in PHASE_ORDER}


def expected_visits_no_conflict(
    chain: ChainType, local_requests: int, remote_requests: int,
    ios_per_request: float,
) -> dict[Phase, float]:
    """Closed-form visit counts at zero conflict (test oracle).

    With ``Pb = Pd = Pra = 0`` the transaction always commits and the
    visit counts have the closed form derived in paper §5.1:
    ``V_TM = 2n + 1``, ``V_DM = l (q + 1)``, ``V_LR = V_DMIO = l q``,
    ``V_U = n + 1`` (local/coordinator), ``V_RW = r`` (coordinator) or
    ``l`` (slave), ``V_TC = V_CWC = V_TCIO = V_UL = 1``.
    """
    loc, r, q = local_requests, remote_requests, ios_per_request
    counts = {phase: 0.0 for phase in PHASE_ORDER}
    counts[Phase.UT] = 1.0
    counts[Phase.DM] = loc * (q + 1)
    counts[Phase.LR] = loc * q
    counts[Phase.DMIO] = loc * q
    counts[Phase.TC] = counts[Phase.CWC] = counts[Phase.TCIO] = 1.0
    counts[Phase.UL] = 1.0
    if chain.is_slave:
        counts[Phase.TM] = 2 * loc + 1
        counts[Phase.RW] = loc
    else:
        n = loc + r
        counts[Phase.TM] = 2 * n + 1
        counts[Phase.U] = n + 1
        counts[Phase.INIT] = 1.0
        counts[Phase.RW] = float(r)
    return counts
