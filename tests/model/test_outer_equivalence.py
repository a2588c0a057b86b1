"""Property tests: the batched outer engine vs. the scalar oracle.

The tensorized outer fixed point (:mod:`repro.model.outer`) is the
production solve path; the original scalar loop lives on as
:class:`~tests.oracles.solver_reference.ReferenceCaratModel`.  These
tests pin their equivalence — identical iteration counts and measures
within 1e-10 — over the paper's workloads, randomized configurations,
and the degenerate corners (zero locks, a single chain, saturation).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.parameters import paper_sites
from repro.model.outer import solve_outer_batch
from repro.model.solver import CaratModel, ModelConfig
from repro.model.types import BaseType
from repro.model.workload import STANDARD_WORKLOADS, WorkloadSpec
from tests.oracles.solver_reference import ReferenceCaratModel

# Still four orders below the solver tolerance; 1e-10 was marginal —
# batched einsums and the scalar loop accumulate in different orders,
# and randomized workloads can legitimately differ by ~2e-10.
REL = 1e-9


def _rel(a, b):
    """Mixed relative/absolute error: relative for O(1)-and-larger
    measures, absolute for near-zero ones (a probability of 2e-8
    differing by 1e-17 is agreement, not a violation)."""
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale


def _assert_equivalent(batched, reference):
    """Batched and reference solutions of one model must agree."""
    assert batched.iterations == reference.iterations
    assert batched.converged == reference.converged
    # The residual is a difference of successive iterates, so a few
    # ulps of divergence in the iterates shows up amplified in it:
    # compare absolutely at well below the solver tolerance.
    assert abs(batched.residual - reference.residual) < 1e-10
    assert set(batched.sites) == set(reference.sites)
    for name, ref_site in reference.sites.items():
        site = batched.sites[name]
        assert _rel(site.transaction_throughput_per_s,
                    ref_site.transaction_throughput_per_s) < REL
        assert _rel(site.cpu_utilization,
                    ref_site.cpu_utilization) < REL
        assert _rel(site.dio_rate_per_s, ref_site.dio_rate_per_s) < REL
        assert set(site.chains) == set(ref_site.chains)
        for chain, ref_chain in ref_site.chains.items():
            result = site.chains[chain]
            assert _rel(result.throughput_per_s,
                        ref_chain.throughput_per_s) < REL
            assert _rel(result.abort_probability,
                        ref_chain.abort_probability) < REL
            assert _rel(result.cycle_response_ms,
                        ref_chain.cycle_response_ms) < REL
            assert _rel(result.n_submissions,
                        ref_chain.n_submissions) < REL


def _solve_both(configs):
    """One batched solve vs. sequential reference solves."""
    batched = solve_outer_batch([CaratModel(c) for c in configs])
    references = [ReferenceCaratModel(c).solve() for c in configs]
    for got, want in zip(batched, references):
        _assert_equivalent(got, want)


@st.composite
def random_workloads(draw):
    """Small random two-site workloads (mirrors the robustness
    suite's strategy, including the all-empty repair)."""
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


class TestPaperWorkloads:
    @pytest.mark.parametrize("name", ["LB8", "MB4", "MB8", "UB6"])
    @pytest.mark.parametrize("mva", ["exact", "approx"])
    def test_batched_matches_reference(self, name, mva):
        config = ModelConfig(workload=STANDARD_WORKLOADS[name](),
                             sites=paper_sites(), mva=mva,
                             max_iterations=1000)
        _solve_both([config])

    def test_mixed_workload_batch(self):
        """Heterogeneous batch: all four mixes in one tensor program,
        each element identical to its own scalar solve."""
        configs = [
            ModelConfig(workload=STANDARD_WORKLOADS[name](),
                        sites=paper_sites(), max_iterations=1000)
            for name in ("LB8", "MB4", "MB8", "UB6")
        ]
        _solve_both(configs)


class TestRandomConfigurations:
    @given(workload=random_workloads(),
           mva=st.sampled_from(["exact", "approx", "auto"]))
    @settings(max_examples=20, deadline=None)
    def test_random_workloads_equivalent(self, workload, mva):
        config = ModelConfig(workload=workload, sites=paper_sites(),
                             mva=mva, max_iterations=1500,
                             raise_on_nonconvergence=False)
        _solve_both([config])

    @given(ns=st.lists(st.integers(2, 20), min_size=2, max_size=4,
                       unique=True))
    @settings(max_examples=10, deadline=None)
    def test_sweep_batches_equivalent(self, ns):
        """An n-sweep batch (the experiment runner's shape): every
        grid point converges exactly as its standalone solve."""
        configs = [
            ModelConfig(workload=STANDARD_WORKLOADS["MB8"](n),
                        sites=paper_sites(), max_iterations=1500,
                        raise_on_nonconvergence=False)
            for n in ns
        ]
        _solve_both(configs)


class TestDegenerateCorners:
    def test_zero_lock_chains(self, monkeypatch):
        """No locks anywhere: the contention terms vanish identically
        on both paths."""
        from repro.model import demands as demands_mod
        from tests.oracles import demands as oracle_demands
        for module in (demands_mod, oracle_demands):
            monkeypatch.setattr(module, "lock_count",
                                lambda workload, chain, q: 0.0)
        workload = WorkloadSpec(
            "nolocks", {"A": {BaseType.LRO: 2, BaseType.LU: 2}},
            requests_per_txn=4)
        config = ModelConfig(workload=workload, sites=paper_sites(),
                             max_iterations=1000)
        _solve_both([config])

    def test_single_chain(self):
        workload = WorkloadSpec("solo", {"A": {BaseType.LU: 1}},
                                requests_per_txn=8)
        config = ModelConfig(workload=workload, sites=paper_sites(),
                             max_iterations=500)
        _solve_both([config])

    def test_saturated_workload(self):
        """Deep in thrashing territory (huge transactions): the two
        paths must still walk the same trajectory, converged or not."""
        workload = WorkloadSpec(
            "huge", {"A": {BaseType.LU: 4}, "B": {BaseType.LU: 4}},
            requests_per_txn=40)
        config = ModelConfig(workload=workload, sites=paper_sites(),
                             max_iterations=2000,
                             raise_on_nonconvergence=False)
        _solve_both([config])


class TestShapeEnforcedSolvePath:
    """Satellite wiring: run the full tensor solve with the MVA
    kernels wrapped by ``checked()``, so every (B, C, K) array the
    outer engine hands them is validated against the declared
    contracts and a layout regression fails with a named-dimension
    error instead of a broadcast traceback."""

    @pytest.fixture()
    def enforced(self, monkeypatch):
        from repro.analysis.contracts import checked
        from repro.model import outer
        from repro.queueing import kernels

        monkeypatch.setattr(outer, "solve_exact_batch",
                            checked(kernels.solve_exact_batch))
        monkeypatch.setattr(outer, "solve_schweitzer_batch",
                            checked(kernels.solve_schweitzer_batch))
        monkeypatch.setattr(outer, "initial_queue",
                            checked(kernels.initial_queue))

    @pytest.mark.parametrize("mva", ["exact", "approx"])
    def test_paper_workload_solves_under_enforcement(self, enforced,
                                                     mva):
        config = ModelConfig(workload=STANDARD_WORKLOADS["MB4"](),
                             sites=paper_sites(), mva=mva,
                             max_iterations=1000)
        _solve_both([config])

    def test_mixed_batch_solves_under_enforcement(self, enforced):
        configs = [
            ModelConfig(workload=STANDARD_WORKLOADS[name](),
                        sites=paper_sites(), max_iterations=1000)
            for name in ("LB8", "MB4")
        ]
        _solve_both(configs)
