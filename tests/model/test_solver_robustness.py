"""Robustness tests: the solver must handle arbitrary small
configurations, not just the paper's four workloads."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.parameters import paper_sites
from repro.model.solver import solve_model
from repro.model.types import BaseType
from repro.model.workload import WorkloadSpec


@st.composite
def random_workloads(draw):
    """Small random two-site workloads."""
    def pops():
        return {
            BaseType.LRO: draw(st.integers(0, 3)),
            BaseType.LU: draw(st.integers(0, 2)),
            BaseType.DRO: draw(st.integers(0, 2)),
            BaseType.DU: draw(st.integers(0, 2)),
        }
    users = {"A": pops(), "B": pops()}
    if sum(sum(p.values()) for p in users.values()) == 0:
        users["A"][BaseType.LRO] = 1
    distributed = any(p[BaseType.DRO] or p[BaseType.DU]
                      for p in users.values())
    return WorkloadSpec(
        name="RAND",
        users=users,
        requests_per_txn=draw(st.integers(2 if distributed else 1, 12)),
        records_per_request=draw(st.integers(1, 6)),
        remote_fraction=draw(st.floats(0.1, 0.9)),
    )


class TestSolverRobustness:
    @given(random_workloads())
    @settings(max_examples=25, deadline=None)
    def test_random_workloads_solve_physically(self, workload, ):
        sites = paper_sites()
        solution = solve_model(workload, sites, max_iterations=2000,
                               raise_on_nonconvergence=False)
        for name, site in solution.sites.items():
            assert 0.0 <= site.cpu_utilization <= 1.0 + 1e-6
            assert 0.0 <= site.disk_utilization <= 1.0 + 1e-6
            for chain, result in site.chains.items():
                assert result.throughput_per_s >= 0.0
                assert 0.0 <= result.abort_probability < 1.0
                assert result.n_submissions >= 1.0
                assert result.cycle_response_ms > 0.0

    def test_single_user_no_contention(self, sites):
        workload = WorkloadSpec("solo", {"A": {BaseType.LU: 1}},
                                requests_per_txn=8)
        solution = solve_model(workload, sites, max_iterations=500)
        from repro.model.types import ChainType
        chain = solution.site("A").chains[ChainType.LU]
        assert chain.abort_probability == 0.0
        assert chain.lock_state.blocking == 0.0
        # Zero-load response: demands only.
        assert chain.cycle_response_ms == pytest.approx(
            chain.cpu_demand_ms + chain.disk_demand_ms, rel=1e-6)

    def test_minimal_transaction_size(self, sites):
        workload = WorkloadSpec(
            "tiny", {"A": {BaseType.LRO: 2, BaseType.LU: 2},
                     "B": {BaseType.DU: 1}},
            requests_per_txn=2, records_per_request=1)
        solution = solve_model(workload, sites, max_iterations=1000)
        assert solution.converged

    def test_huge_transactions_converge(self, sites):
        workload = WorkloadSpec(
            "huge", {"A": {BaseType.LU: 4}, "B": {BaseType.LU: 4}},
            requests_per_txn=40)
        solution = solve_model(workload, sites, max_iterations=2000,
                               raise_on_nonconvergence=False)
        site = solution.site("A")
        from repro.model.types import ChainType
        assert site.chains[ChainType.LU].abort_probability > 0.1

    def test_asymmetric_population(self, sites):
        """All users on one node; the other only hosts slaves."""
        workload = WorkloadSpec(
            "skewed", {"A": {BaseType.DU: 3}, "B": {}},
            requests_per_txn=6)
        solution = solve_model(workload, sites, max_iterations=1500)
        from repro.model.types import ChainType
        assert solution.site("B").chains[ChainType.DUS] \
            .throughput_per_s > 0.0
        assert solution.site("B").transaction_throughput_per_s == 0.0


class TestZeroLockGuard:
    """A chain that acquires no locks must solve degenerately, not
    raise ``ZeroDivisionError`` from ``sigma = E[Y] / N_lk``."""

    def test_zero_lock_workload_solves(self, sites, monkeypatch):
        from repro.model import demands as demands_mod
        monkeypatch.setattr(demands_mod, "lock_count",
                            lambda workload, chain, q: 0.0)
        workload = WorkloadSpec(
            "nolocks", {"A": {BaseType.LRO: 2, BaseType.LU: 2}},
            requests_per_txn=4)
        solution = solve_model(workload, sites, max_iterations=1000)
        assert solution.converged
        for chain in solution.site("A").chains.values():
            # No locks: no contention, no aborts, no rollback work.
            assert chain.abort_probability == 0.0
            assert chain.lock_state.locks_at_abort == 0.0
            assert chain.throughput_per_s > 0.0

    def test_lock_model_update_with_zeroed_locks(self, sites):
        from repro.model.solver import CaratModel, ModelConfig
        from repro.model.workload import mb8
        model = CaratModel(ModelConfig(workload=mb8(8), sites=sites,
                                       max_iterations=1000))
        state = model._state[("A", next(
            chain for (site, chain) in model._state if site == "A"))]
        state.locks = 0.0
        model.solve()   # the engine's lock update must not raise
        assert state.sigma == 0.0
        assert state.locks_at_abort == 0.0
