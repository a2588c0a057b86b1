"""Open-arrival variant of the CARAT model.

The paper's model is *closed*: a fixed population of terminals, each
with at most one outstanding transaction.  Modern capacity planning
often starts from the other end — transactions arrive at a rate and
the question is whether the system keeps up.  This module solves the
same site model with open multi-class product-form equations:

* utilization: ``rho_c = sum_t lam_t * D_ct``
* residence at a queueing center: ``R_ct = D_ct / (1 - rho_c)``
* residence at a delay center: ``R_ct = D_ct``

and closes the same lock/remote-wait fixed point, with the mean number
of concurrent transactions per chain given by Little's law
(``N_t = lam_t * R_t``) instead of a fixed population.

The closed solver remains the faithful reproduction; this one answers
"at what arrival rate does the paper's system saturate?"
(see ``examples/capacity_planning.py`` and the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.model import demands as demands_mod
from repro.model import locking
from repro.model.parameters import SiteParameters
from repro.model.phases import (ConflictProbabilities, transition_matrix,
                                visit_array)
from repro.model.types import BaseType, ChainType
from repro.model.workload import WorkloadSpec

__all__ = ["OpenWorkload", "OpenChainResult", "OpenSolution",
           "solve_open_model"]


@dataclass(frozen=True)
class OpenWorkload:
    """Arrival-driven workload: transactions/second per site and type.

    Transaction *structure* (requests per transaction, records per
    request, remote split) is borrowed from a closed
    :class:`WorkloadSpec` template whose populations are ignored.
    """

    template: WorkloadSpec
    arrivals_per_s: dict[str, dict[BaseType, float]]

    def __post_init__(self) -> None:
        for site, rates in self.arrivals_per_s.items():
            if site not in self.template.sites:
                raise ConfigurationError(f"unknown site {site!r}")
            for base, rate in rates.items():
                if rate < 0:
                    raise ConfigurationError(
                        f"negative arrival rate for {base} at {site}")

    def rate(self, site: str, base: BaseType) -> float:
        """Arrivals/second of *base* transactions at *site*."""
        return self.arrivals_per_s.get(site, {}).get(base, 0.0)

    def chain_rates(self, site: str) -> dict[ChainType, float]:
        """Per-chain arrival rates at *site* (slaves inherit the rate
        of their remote coordinators, split like the populations)."""
        rates = {chain: 0.0 for chain in ChainType}
        rates[ChainType.LRO] = self.rate(site, BaseType.LRO)
        rates[ChainType.LU] = self.rate(site, BaseType.LU)
        rates[ChainType.DROC] = self.rate(site, BaseType.DRO)
        rates[ChainType.DUC] = self.rate(site, BaseType.DU)
        for other in self.template.sites:
            if other == site:
                continue
            share = self.template.remote_request_fraction(other, site)
            rates[ChainType.DROS] += self.rate(other, BaseType.DRO) \
                * (1.0 if share > 0 else 0.0)
            rates[ChainType.DUS] += self.rate(other, BaseType.DU) \
                * (1.0 if share > 0 else 0.0)
        return rates


@dataclass(frozen=True)
class OpenChainResult:
    """Steady-state measures of one chain at one site."""

    chain: ChainType
    arrival_rate_per_s: float
    response_ms: float
    concurrency: float          #: mean transactions in system (Little)
    abort_probability: float
    n_submissions: float


@dataclass(frozen=True)
class OpenSolution:
    """Solution of the open model."""

    sites: dict[str, dict[ChainType, OpenChainResult]]
    cpu_utilization: dict[str, float]
    disk_utilization: dict[str, float]
    iterations: int

    def bottleneck_utilization(self) -> float:
        """Highest center utilization anywhere in the system."""
        values = list(self.cpu_utilization.values()) \
            + list(self.disk_utilization.values())
        return max(values) if values else 0.0


def solve_open_model(
    workload: OpenWorkload,
    sites: dict[str, SiteParameters],
    tolerance: float = 1e-6,
    max_iterations: int = 300,
    damping: float = 0.5,
) -> OpenSolution:
    """Solve the open model by fixed-point iteration.

    Raises
    ------
    ConfigurationError
        If the offered load saturates a CPU or disk (no steady state).
    ConvergenceError
        If the lock fixed point fails to settle.
    """
    template = workload.template
    # Static per-chain structure, flattened over (site, chain).
    keys: list[tuple[str, ChainType]] = []
    rates: list[float] = []
    qs: list[float] = []
    for site_name in template.sites:
        for chain, rate in workload.chain_rates(site_name).items():
            if rate <= 0.0:
                continue
            keys.append((site_name, chain))
            rates.append(rate / 1e3)
            qs.append(demands_mod.ios_per_request(sites[site_name],
                                                  template, chain))
    if not keys:
        raise ConfigurationError("open workload has no traffic")
    chains = [chain for _, chain in keys]
    rate_ms = np.array(rates)
    locks = np.array([demands_mod.lock_count(template, chain, q)
                      for chain, q in zip(chains, qs)])
    granules = np.array([sites[site].granules for site, _ in keys])
    conflicts = locking.conflict_matrix(chains, [s for s, _ in keys])
    members = {name: [m for m, (site, _) in enumerate(keys)
                      if site == name] for name in template.sites}
    ratio = np.where(locks > 0.0,
                     locking.blocking_ratio(np.where(locks > 0.0, locks,
                                                     1.0)), 0.0)

    M = len(keys)
    pb, pd, pa = np.zeros(M), np.zeros(M), np.zeros(M)
    ns = np.ones(M)
    sigma = np.full(M, 0.5)
    ey = np.asarray(locking.locks_at_abort(locks, 0.0))
    lh, blocked, r_lw = np.zeros(M), np.zeros(M), np.zeros(M)
    response, active = np.zeros(M), np.zeros(M)
    cpu_ms, disk_ms, lw_visits = np.zeros(M), np.zeros(M), np.zeros(M)

    cpu_util: dict[str, float] = {}
    disk_util: dict[str, float] = {}
    iterations = 0
    residual = float("inf")
    for iterations in range(1, max_iterations + 1):
        # Demands from the current conflict iterates.
        visits = visit_array(np.stack([
            transition_matrix(
                chain, template.local_requests(chain),
                template.remote_requests(chain), q,
                ConflictProbabilities(blocking=min(1.0, pb[m]),
                                      deadlock_victim=min(1.0, pd[m])))
            for m, (chain, q) in enumerate(zip(chains, qs))]))
        for m, (site_name, chain) in enumerate(keys):
            costs = demands_mod.build_phase_costs(
                sites[site_name], template, chain,
                aborted_granules=ey[m])
            demands = demands_mod.aggregate_demands(visits[m], ns[m], costs)
            cpu_ms[m] = demands.cpu_ms
            disk_ms[m] = demands.db_disk_ms + demands.log_disk_ms
            lw_visits[m] = demands.lw_visits

        # Open-network utilizations and responses per site.
        new_active = np.zeros(M)
        for site_name, here in members.items():
            if not here:
                continue
            rho_cpu = sum(rate_ms[m] * cpu_ms[m] for m in here)
            rho_disk = sum(rate_ms[m] * disk_ms[m] for m in here)
            if rho_cpu >= 1.0 or rho_disk >= 1.0:
                raise ConfigurationError(
                    f"site {site_name} saturated (cpu {rho_cpu:.2f}, "
                    f"disk {rho_disk:.2f}); reduce arrival rates")
            cpu_util[site_name] = float(rho_cpu)
            disk_util[site_name] = float(rho_disk)
            new_active[here] = (cpu_ms[here] / (1.0 - rho_cpu)
                                + disk_ms[here] / (1.0 - rho_disk))
        lw = lw_visits * r_lw
        new_response = new_active + lw
        safe_prev = np.where(response > 0.0, response, 1.0)
        change = np.where(response > 0.0,
                          np.abs(new_response - response) / safe_prev, 1.0)
        response, active = new_response, new_active
        blocked = np.where(response > 0.0,
                           lw / np.where(response > 0.0, response, 1.0),
                           0.0)

        # Lock model (Little's law concurrency).
        lh = (1 - damping) * lh + damping * locking.average_locks_held(
            locks, pa, sigma, response, think_time=0.0)
        held = locking.holder_mass(rate_ms * response, lh, conflicts)
        new_pb = locking.blocking_probability(held, granules)
        new_pd = locking.deadlock_victim_probability(held, lh, blocked)
        new_rlw = locking.lock_wait_time(held, ratio, active)
        pb = (1 - damping) * pb + damping * new_pb
        pd = (1 - damping) * pd + damping * new_pd
        r_lw = (1 - damping) * r_lw + damping * new_rlw
        pa = (1 - damping) * pa + damping * demands_mod.abort_probability(
            locks, pb, pd)
        ns = demands_mod.mean_submissions(np.minimum(pa, 0.999))
        ey, sigma = locking.abort_extent(locks, pb * pd)

        residual = float(change.max())
        if residual < tolerance:
            break
    else:
        raise ConvergenceError("open model did not converge",
                               iterations=iterations, residual=residual)

    results: dict[str, dict[ChainType, OpenChainResult]] = {}
    for m, (site_name, chain) in enumerate(keys):
        results.setdefault(site_name, {})[chain] = OpenChainResult(
            chain=chain,
            arrival_rate_per_s=float(rate_ms[m] * 1e3),
            response_ms=float(response[m]),
            concurrency=float(rate_ms[m] * response[m]),
            abort_probability=float(pa[m]),
            n_submissions=float(ns[m]),
        )
    return OpenSolution(sites=results, cpu_utilization=cpu_util,
                        disk_utilization=disk_util,
                        iterations=iterations)
