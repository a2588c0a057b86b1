"""Equivalence and regression tests for the vectorized MVA kernels.

The NumPy kernels (:mod:`repro.queueing.kernels`) must agree with the
retired pure-Python loops (:mod:`tests.oracles.mva_reference`) within
1e-10 across randomized multi-chain networks — including the awkward
shapes: zero-population chains, zero-demand centers, pure-delay
networks — and the batched entry point must match looping the
single-network adapter.  The Schweitzer satellite fixes (upfront
budget validation, iteration accounting on failure, damped-step
convergence) are pinned here too.
"""

import random

import numpy as np
import pytest

from repro.analysis.contracts import ShapeContractError, checked
from repro.errors import ConfigurationError, ConvergenceError
from repro.queueing import kernels, mva_approx, mva_exact
from repro.queueing.kernels import NetworkArrays
from repro.queueing.centers import CenterKind, ServiceCenter
from repro.queueing.mva_approx import (solve_mva_approx,
                                       solve_mva_approx_batch)
from repro.queueing.mva_exact import solve_mva_exact
from repro.queueing.network import ClosedNetwork
from tests.oracles.mva_reference import (reference_mva_approx,
                                         reference_mva_exact)

AGREEMENT = 1e-10


def random_network(rng, max_centers=5, max_chains=4, max_population=4,
                   delay_only=False):
    """A random closed network, biased toward awkward shapes: some
    zero demands, some zero populations, a mix of center kinds."""
    chains = [f"k{i}" for i in range(rng.randint(1, max_chains))]
    centers = []
    for ci in range(rng.randint(1, max_centers)):
        if delay_only or rng.random() < 0.3:
            kind = CenterKind.DELAY
        else:
            kind = CenterKind.QUEUEING
        demands = {
            k: 0.0 if rng.random() < 0.2 else rng.uniform(0.1, 5.0)
            for k in chains
        }
        centers.append(ServiceCenter(f"c{ci}", kind, demands))
    populations = {k: rng.randint(0, max_population) for k in chains}
    return ClosedNetwork(centers=tuple(centers), populations=populations)


def assert_solutions_close(a, b, tol=AGREEMENT):
    for field in ("throughput", "response_time"):
        da, db = getattr(a, field), getattr(b, field)
        assert da.keys() == db.keys(), field
        for key in da:
            assert da[key] == pytest.approx(db[key], abs=tol), \
                (field, key)
    for field in ("residence_time", "queue_length", "utilization"):
        da, db = getattr(a, field), getattr(b, field)
        assert da.keys() == db.keys(), field
        for key in da:
            assert da[key] == pytest.approx(db[key], abs=tol), \
                (field, key)


class TestExactEquivalence:
    def test_randomized_networks_match_reference(self):
        rng = random.Random(2024)
        for _ in range(120):
            net = random_network(rng)
            assert_solutions_close(solve_mva_exact(net),
                                   reference_mva_exact(net))

    def test_pure_delay_networks(self):
        rng = random.Random(7)
        for _ in range(25):
            net = random_network(rng, delay_only=True)
            assert_solutions_close(solve_mva_exact(net),
                                   reference_mva_exact(net))

    def test_all_chains_zero_population(self):
        net = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING,
                                   {"a": 1.0, "b": 2.0}),),
            populations={"a": 0, "b": 0},
        )
        assert_solutions_close(solve_mva_exact(net),
                               reference_mva_exact(net))
        assert solve_mva_exact(net).throughput == {"a": 0.0, "b": 0.0}


class TestApproxEquivalence:
    # A tight tolerance parks both implementations within ~1e-12 of
    # the common fixed point, so 1e-10 agreement does not depend on
    # the two iterations stopping at the same count.
    TOL = 1e-12

    def test_randomized_networks_match_reference(self):
        rng = random.Random(99)
        for _ in range(120):
            net = random_network(rng)
            assert_solutions_close(
                solve_mva_approx(net, tolerance=self.TOL),
                reference_mva_approx(net, tolerance=self.TOL))

    def test_pure_delay_networks(self):
        rng = random.Random(13)
        for _ in range(25):
            net = random_network(rng, delay_only=True)
            assert_solutions_close(
                solve_mva_approx(net, tolerance=self.TOL),
                reference_mva_approx(net, tolerance=self.TOL))

    def test_matches_exact_on_single_chain(self):
        """Schweitzer is exact for one chain and one queueing center."""
        net = ClosedNetwork(
            centers=(
                ServiceCenter("cpu", CenterKind.QUEUEING, {"t": 2.0}),
                ServiceCenter("think", CenterKind.DELAY, {"t": 10.0}),
            ),
            populations={"t": 1},
        )
        assert_solutions_close(solve_mva_approx(net, tolerance=self.TOL),
                               solve_mva_exact(net), tol=1e-8)


class TestBatchedEntryPoint:
    def test_batch_matches_loop(self):
        rng = random.Random(4711)
        chains = [f"k{i}" for i in range(3)]
        nets = []
        for b in range(24):
            centers = (
                ServiceCenter("cpu", CenterKind.QUEUEING,
                              {k: rng.uniform(0.1, 3.0) for k in chains}),
                ServiceCenter("disk", CenterKind.QUEUEING,
                              {k: rng.uniform(0.1, 3.0) for k in chains}),
                ServiceCenter("ut", CenterKind.DELAY,
                              {k: rng.uniform(1.0, 20.0)
                               for k in chains}),
            )
            nets.append(ClosedNetwork(
                centers=centers,
                populations={k: rng.randint(1, 4) for k in chains}))
        batched = solve_mva_approx_batch(nets, tolerance=1e-12)
        for net, sol in zip(nets, batched):
            assert_solutions_close(sol,
                                   solve_mva_approx(net, tolerance=1e-12))

    def test_batch_accumulates_stats(self):
        net = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING,
                                   {"t": 1.0}),),
            populations={"t": 3},
        )
        stats = {"inner": 0}
        solve_mva_approx_batch([net, net, net], stats=stats)
        single = {"inner": 0}
        solve_mva_approx(net, stats=single)
        assert stats["inner"] == 3 * single["inner"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_mva_approx_batch([])

    def test_mismatched_layout_rejected(self):
        a = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING,
                                   {"t": 1.0}),),
            populations={"t": 1},
        )
        b = ClosedNetwork(
            centers=(ServiceCenter("disk", CenterKind.QUEUEING,
                                   {"t": 1.0}),),
            populations={"t": 1},
        )
        with pytest.raises(ConfigurationError):
            solve_mva_approx_batch([a, b])

    def test_nonconvergence_suppressed_returns_iterate(self):
        net = ClosedNetwork(
            centers=(ServiceCenter("cpu", CenterKind.QUEUEING,
                                   {"t": 1.0}),),
            populations={"t": 8},
        )
        sols = solve_mva_approx_batch(
            [net], tolerance=1e-15, max_iterations=2,
            raise_on_nonconvergence=False)
        assert sols[0].throughput["t"] > 0.0


def _contended_network():
    return ClosedNetwork(
        centers=(
            ServiceCenter("cpu", CenterKind.QUEUEING,
                          {"a": 1.0, "b": 0.5}),
            ServiceCenter("disk", CenterKind.QUEUEING,
                          {"a": 2.0, "b": 1.5}),
        ),
        populations={"a": 4, "b": 3},
    )


class TestScheduleBudgetRegression:
    """Satellite 1: a non-positive budget raises ConvergenceError
    (historically an unbound-``delta`` NameError)."""

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize("solver",
                             [solve_mva_approx, reference_mva_approx])
    def test_non_positive_budget(self, solver, budget):
        with pytest.raises(ConvergenceError) as info:
            solver(_contended_network(), max_iterations=budget)
        assert info.value.iterations == 0
        assert info.value.residual is None

    def test_budget_zero_keeps_stats_key(self):
        stats = {}
        with pytest.raises(ConvergenceError):
            solve_mva_approx(_contended_network(), max_iterations=0,
                             stats=stats)
        assert stats.get("inner", 0) == 0


class TestIterationAccountingRegression:
    """Satellite 2: failed solves still record the iterations they
    performed, both in ``stats`` and on the error."""

    @pytest.mark.parametrize("solver",
                             [solve_mva_approx, reference_mva_approx])
    def test_stats_updated_before_raise(self, solver):
        stats = {"inner": 0}
        with pytest.raises(ConvergenceError) as info:
            solver(_contended_network(), tolerance=1e-15,
                   max_iterations=3, stats=stats)
        assert stats["inner"] == 3
        assert info.value.iterations == 3
        assert info.value.residual is not None
        assert info.value.residual > 0.0


class TestDampedStepConvergence:
    """Satellite 3: convergence measures the *applied* step, so heavy
    damping cannot declare victory early — both damping levels land on
    the same fixed point at tight tolerance."""

    @pytest.mark.parametrize("solver",
                             [solve_mva_approx, reference_mva_approx])
    def test_damping_levels_agree(self, solver):
        net = _contended_network()
        heavy = solver(net, tolerance=1e-12, damping=0.1,
                       max_iterations=100_000)
        undamped = solver(net, tolerance=1e-12, damping=1.0,
                          max_iterations=100_000)
        assert_solutions_close(heavy, undamped, tol=1e-9)


class TestPaperWorkloads:
    """Acceptance: vectorized and dict-based MVA agree within 1e-10 on
    the paper's four standard workload site networks."""

    @pytest.mark.parametrize("name", ["LB8", "MB4", "MB8", "UB6"])
    def test_site_networks_agree(self, name):
        from repro.model.parameters import paper_sites
        from repro.model.solver import CaratModel, ModelConfig
        from repro.model.workload import STANDARD_WORKLOADS

        workload = STANDARD_WORKLOADS[name]()
        model = CaratModel(ModelConfig(workload=workload,
                                       sites=paper_sites()))
        for site in workload.sites:
            net = model.site_network(site)
            assert_solutions_close(solve_mva_exact(net),
                                   reference_mva_exact(net))
            assert_solutions_close(
                solve_mva_approx(net, tolerance=1e-12),
                reference_mva_approx(net, tolerance=1e-12))


class TestShapeContracts:
    """The kernels run under *enforced* shape contracts here
    (``checked()`` wraps the ``@shape_contract`` declarations), so a
    layout regression in the facade adapters fails with a
    named-dimension :class:`ShapeContractError` instead of a NumPy
    broadcast traceback three frames deeper."""

    @staticmethod
    def _asymmetric_network():
        """C=3 queueing centers over K=2 chains, so a transposed or
        axis-swapped array can never be shape-coincidentally valid."""
        return ClosedNetwork(
            centers=(
                ServiceCenter("cpu", CenterKind.QUEUEING,
                              {"a": 1.0, "b": 0.5}),
                ServiceCenter("disk", CenterKind.QUEUEING,
                              {"a": 2.0, "b": 1.5}),
                ServiceCenter("log", CenterKind.QUEUEING,
                              {"a": 0.7, "b": 0.9}),
            ),
            populations={"a": 4, "b": 3},
        )

    @pytest.fixture()
    def enforced(self, monkeypatch):
        monkeypatch.setattr(mva_exact, "solve_exact_batch",
                            checked(kernels.solve_exact_batch))
        monkeypatch.setattr(mva_approx, "solve_schweitzer_batch",
                            checked(kernels.solve_schweitzer_batch))

    def test_facades_satisfy_contracts(self, enforced):
        rng = random.Random(314)
        for _ in range(40):
            net = random_network(rng)
            assert_solutions_close(solve_mva_exact(net),
                                   reference_mva_exact(net))
            assert_solutions_close(
                solve_mva_approx(net, tolerance=1e-12),
                reference_mva_approx(net, tolerance=1e-12))

    def test_transposed_demands_fail_with_named_dimension(self):
        arrays = NetworkArrays.from_network(self._asymmetric_network())
        solve = checked(kernels.solve_exact_batch)
        throughput, _ = solve(arrays.demands, arrays.delay,
                              arrays.populations)
        assert throughput.shape == arrays.populations.shape
        with pytest.raises(ShapeContractError) as exc:
            solve(arrays.demands.T, arrays.delay, arrays.populations)
        assert "dimension" in str(exc.value)

    def test_truncated_populations_name_the_bound_argument(self):
        arrays = NetworkArrays.from_network(self._asymmetric_network())
        solve = checked(kernels.solve_schweitzer_batch)
        with pytest.raises(ShapeContractError) as exc:
            solve(arrays.demands[None], arrays.delay,
                  arrays.populations[:1][None])
        message = str(exc.value)
        assert "'K'" in message
        assert "bound by argument 'demands'" in message

    def test_bad_q0_layout_is_rejected(self):
        arrays = NetworkArrays.from_network(self._asymmetric_network())
        queue = checked(kernels.initial_queue)(
            arrays.demands[None], arrays.delay,
            arrays.populations[None])
        solve = checked(kernels.solve_schweitzer_batch)
        solve(arrays.demands[None], arrays.delay,
              arrays.populations[None], q0=queue)
        with pytest.raises(ShapeContractError):
            solve(arrays.demands[None], arrays.delay,
                  arrays.populations[None],
                  q0=np.swapaxes(queue, 1, 2))
