"""Tests for service-demand derivation (paper Eqs. 2-10)."""

import pytest

from repro.errors import ConfigurationError
from repro.model.demands import (abort_probability, aggregate_demands,
                                 build_phase_costs, ios_per_request,
                                 lock_count, mean_submissions)
from repro.model.phases import (ConflictProbabilities, transition_matrix,
                                visit_array, visit_counts)
from repro.model.types import ChainType, Phase
from repro.model.workload import mb8


@pytest.fixture
def site_a(sites):
    return sites["A"]


@pytest.fixture
def workload():
    return mb8(8)


class TestIosPerRequest:
    def test_close_to_records_per_request(self, site_a, workload):
        """Paper §5.2: g(t) ~= N_r(t) for this database geometry, so
        q(t) ~= records_per_request."""
        q = ios_per_request(site_a, workload, ChainType.LRO)
        assert 3.9 < q < 4.0

    def test_slave_uses_its_local_share(self, site_a, workload):
        q_local = ios_per_request(site_a, workload, ChainType.LRO)
        q_slave = ios_per_request(site_a, workload, ChainType.DROS)
        # Fewer records -> slightly less granule sharing, both ~4.
        assert q_slave == pytest.approx(q_local, rel=0.02)


class TestLockCount:
    def test_eq2(self, site_a, workload):
        q = ios_per_request(site_a, workload, ChainType.LU)
        assert lock_count(workload, ChainType.LU, q) == pytest.approx(
            8 * q)

    def test_coordinator_locks_only_local(self, site_a, workload):
        q = ios_per_request(site_a, workload, ChainType.DUC)
        assert lock_count(workload, ChainType.DUC, q) == pytest.approx(
            4 * q)


class TestAbortProbability:
    def test_eq3_local(self):
        pa = abort_probability(locks=10, blocking=0.1,
                               deadlock_victim=0.2)
        assert pa == pytest.approx(1 - (1 - 0.02) ** 10)

    def test_eq3_coordinator_includes_remote_hazard(self):
        base = abort_probability(10, 0.1, 0.2)
        with_remote = abort_probability(10, 0.1, 0.2,
                                        remote_abort=0.05,
                                        remote_requests=4)
        assert with_remote == pytest.approx(
            1 - (1 - base) * (1 - 0.05) ** 4)

    def test_zero_conflict_never_aborts(self):
        assert abort_probability(20, 0.0, 0.0) == 0.0

    def test_eq4_mean_submissions(self):
        assert mean_submissions(0.0) == 1.0
        assert mean_submissions(0.5) == pytest.approx(2.0)
        with pytest.raises(ConfigurationError):
            mean_submissions(1.0)


class TestPhaseCosts:
    def test_basic_costs_flow_through(self, site_a, workload):
        costs = build_phase_costs(site_a, workload, ChainType.LRO)
        assert costs.cpu[Phase.U] == 7.8
        assert costs.cpu[Phase.TM] == 8.0
        assert costs.cpu[Phase.LR] == 2.2
        assert costs.db_disk[Phase.DMIO] == pytest.approx(28.0)
        assert costs.db_ios[Phase.DMIO] == pytest.approx(1.0)

    def test_update_dmio_is_three_ios(self, site_a, workload):
        costs = build_phase_costs(site_a, workload, ChainType.LU)
        assert costs.db_disk[Phase.DMIO] == pytest.approx(84.0)
        assert costs.db_ios[Phase.DMIO] == pytest.approx(3.0)

    def test_readonly_commit_writes_nothing(self, site_a, workload):
        costs = build_phase_costs(site_a, workload, ChainType.LRO)
        assert costs.db_disk[Phase.TCIO] == 0.0

    def test_update_commit_forces_log(self, site_a, workload):
        costs = build_phase_costs(site_a, workload, ChainType.LU)
        assert costs.db_disk[Phase.TCIO] == pytest.approx(28.0)

    def test_slave_commit_forces_two_records(self, site_a, workload):
        """Prepare + commit records at a 2PC slave."""
        costs = build_phase_costs(site_a, workload, ChainType.DUS)
        assert costs.db_ios[Phase.TCIO] == pytest.approx(2.0)

    def test_rollback_scales_with_aborted_granules(self, site_a,
                                                   workload):
        lightly = build_phase_costs(site_a, workload, ChainType.LU,
                                    aborted_granules=2.0)
        heavily = build_phase_costs(site_a, workload, ChainType.LU,
                                    aborted_granules=10.0)
        assert heavily.db_disk[Phase.TAIO] > lightly.db_disk[Phase.TAIO]
        assert heavily.cpu[Phase.TA] > lightly.cpu[Phase.TA]

    def test_readonly_rollback_costs_no_disk(self, site_a, workload):
        costs = build_phase_costs(site_a, workload, ChainType.LRO,
                                  aborted_granules=10.0)
        assert costs.db_disk[Phase.TAIO] == 0.0

    def test_buffer_reduces_read_only(self, workload, sites):
        buffered = sites["A"].with_overrides(buffer_hit_probability=0.5)
        read = build_phase_costs(buffered, workload, ChainType.LRO)
        update = build_phase_costs(buffered, workload, ChainType.LU)
        assert read.db_disk[Phase.DMIO] == pytest.approx(14.0)
        # Update: the read half is halved, the two writes stay.
        assert update.db_disk[Phase.DMIO] == pytest.approx(14.0 + 56.0)

    def test_separate_log_disk_moves_commit_io(self, workload, sites):
        split = sites["A"].with_overrides(log_on_separate_disk=True)
        costs = build_phase_costs(split, workload, ChainType.LU)
        assert Phase.TCIO not in costs.db_disk
        assert costs.log_disk[Phase.TCIO] == pytest.approx(28.0)

    def test_coordinator_init_covers_remote_dbopen(self, site_a,
                                                   workload):
        local = build_phase_costs(site_a, workload, ChainType.LU)
        coord = build_phase_costs(site_a, workload, ChainType.DUC)
        slave = build_phase_costs(site_a, workload, ChainType.DUS)
        assert coord.cpu[Phase.INIT] > local.cpu[Phase.INIT]
        assert slave.cpu[Phase.INIT] == 0.0


class TestAggregateDemands:
    def test_matches_hand_computation(self, site_a, workload):
        chain = ChainType.LRO
        q = ios_per_request(site_a, workload, chain)
        matrix = transition_matrix(chain, 8, 0, q)
        visits = visit_counts(matrix)
        costs = build_phase_costs(site_a, workload, chain)
        demands = aggregate_demands(visit_array(matrix), 1.0, costs)
        expected_cpu = sum(visits[p] * c for p, c in costs.cpu.items())
        assert demands.cpu_ms == pytest.approx(expected_cpu)
        # 8 requests x ~4 granules x 1 I/O each; no commit I/O.
        assert demands.db_ios == pytest.approx(8 * q, rel=1e-6)

    def test_submissions_scale_demands(self, site_a, workload):
        chain = ChainType.LU
        q = ios_per_request(site_a, workload, chain)
        visits = visit_array(transition_matrix(chain, 8, 0, q))
        costs = build_phase_costs(site_a, workload, chain)
        once = aggregate_demands(visits, 1.0, costs)
        twice = aggregate_demands(visits, 2.0, costs)
        assert twice.cpu_ms == pytest.approx(2 * once.cpu_ms)
        assert twice.db_ios == pytest.approx(2 * once.db_ios)

    def test_rejects_bad_submissions(self, site_a, workload):
        chain = ChainType.LU
        q = ios_per_request(site_a, workload, chain)
        visits = visit_array(transition_matrix(chain, 8, 0, q))
        costs = build_phase_costs(site_a, workload, chain)
        with pytest.raises(ConfigurationError):
            aggregate_demands(visits, 0.5, costs)

    def test_delay_visit_counters(self, site_a, workload):
        chain = ChainType.DUC
        q = ios_per_request(site_a, workload, chain)
        conflict = ConflictProbabilities(blocking=0.1)
        matrix = transition_matrix(chain, 4, 4, q, conflict)
        visits = visit_counts(matrix)
        costs = build_phase_costs(site_a, workload, chain)
        demands = aggregate_demands(visit_array(matrix), 1.0, costs)
        assert demands.rw_visits == pytest.approx(visits[Phase.RW])
        assert demands.lw_visits == pytest.approx(visits[Phase.LW])
        assert demands.cw_visits == pytest.approx(
            visits[Phase.CWC] + visits[Phase.CWA])
