"""Exact Mean Value Analysis for closed multi-chain networks.

Implements the classic exact MVA recursion (Reiser & Lavenberg) over the
lattice of population vectors.  For a network with chains
``k = 1..K`` and populations ``N_k``, the recursion visits every vector
``n`` with ``0 <= n_k <= N_k``:

* residence time at a queueing center ``c``:
  ``R_ck(n) = D_ck * (1 + Q_c(n - e_k))``
* residence time at a delay center: ``R_ck(n) = D_ck``
* chain throughput: ``X_k(n) = n_k / sum_c R_ck(n)``
* queue length: ``Q_ck(n) = X_k(n) * R_ck(n)``

Cost is ``O(C * K * prod_k (N_k + 1))``, which is exactly what the
paper's site model needs: six chains with populations of one to four
customers each.

The recursion itself runs in the vectorized NumPy kernel
(:func:`repro.queueing.kernels.solve_exact_batch`): all lattice points
with the same total population update in one whole-array step, and the
lattice traversal order is cached across calls.  This module is the
dict-based adapter around it; the original pure-Python loop survives as
``reference_mva_exact`` in ``tests/oracles/mva_reference.py`` for the
equivalence tests.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.queueing.kernels import (NetworkArrays, assemble_solution,
                                    solve_exact_batch)
from repro.queueing.network import ClosedNetwork, NetworkSolution

__all__ = ["solve_mva_exact", "mva_cost"]

#: Refuse recursions larger than this many population vectors; callers
#: should switch to :func:`repro.queueing.mva_approx.solve_mva_approx`.
MAX_LATTICE_SIZE = 5_000_000


def mva_cost(network: ClosedNetwork) -> int:
    """Number of population vectors the exact recursion must visit."""
    cost = 1
    for chain in network.active_chains:
        cost *= network.populations[chain] + 1
    return cost


def solve_mva_exact(network: ClosedNetwork) -> NetworkSolution:
    """Solve a closed network exactly with multi-chain MVA.

    Parameters
    ----------
    network:
        The closed network to solve.  Chains with zero population are
        ignored (their throughput is reported as 0).

    Returns
    -------
    NetworkSolution
        Steady-state measures at the full population.

    Raises
    ------
    ConfigurationError
        If the population lattice exceeds :data:`MAX_LATTICE_SIZE`.
    """
    lattice = mva_cost(network)
    if lattice > MAX_LATTICE_SIZE:
        raise ConfigurationError(
            f"exact MVA lattice has {lattice} population vectors "
            f"(> {MAX_LATTICE_SIZE}); use approximate MVA instead"
        )
    arrays = NetworkArrays.from_network(network)
    throughput, residence = solve_exact_batch(
        arrays.demands, arrays.delay, arrays.populations)
    return assemble_solution(
        arrays, throughput, residence,
        all_chains=network.chains, all_populations=network.populations)
