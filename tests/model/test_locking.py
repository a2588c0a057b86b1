"""Tests for the lock-contention sub-model (paper §5.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.model.locking import (average_locks_held, blocker_distribution,
                                 blocking_probability, blocking_ratio,
                                 conflict_matrix,
                                 deadlock_victim_probability, holder_mass,
                                 lock_wait_probability, lock_wait_time,
                                 locks_at_abort)
from repro.model.types import ChainType

prob = st.floats(0.0, 0.9, allow_nan=False)


class TestLocksAtAbort:
    def test_uniform_limit(self):
        """p -> 0: aborts uniform over the lock sequence, E[Y] = (N-1)/2."""
        assert locks_at_abort(11, 0.0) == pytest.approx(5.0)

    def test_certain_abort_holds_nothing(self):
        assert locks_at_abort(10, 1.0) == pytest.approx(0.0)

    def test_matches_direct_truncated_geometric(self):
        n, p = 6, 0.2
        x = 1 - p
        weights = [x ** i * p for i in range(n)]
        total = sum(weights)
        direct = sum(i * w for i, w in enumerate(weights)) / total
        assert locks_at_abort(n, p) == pytest.approx(direct, rel=1e-9)

    @given(n=st.integers(1, 200), p=prob)
    @settings(max_examples=80)
    def test_bounds(self, n, p):
        y = locks_at_abort(n, p)
        assert 0.0 <= y <= (n - 1) / 2 + 1e-9

    def test_rejects_zero_locks(self):
        with pytest.raises(ConfigurationError):
            locks_at_abort(0, 0.1)


class TestAverageLocksHeld:
    def test_eq12_reduction_at_zero_aborts(self):
        """P_a = 0: L_h = N/2 * Rs / (Rs + Z) (paper Eq. 12)."""
        lh = average_locks_held(20, 0.0, 0.5, response_success=100.0,
                                think_time=100.0)
        assert lh == pytest.approx(20 / 2 * 0.5)

    def test_zero_think_time_simplification(self):
        """Z = 0, P_a = 0: exactly N/2."""
        assert average_locks_held(16, 0.0, 0.5, 50.0, 0.0) == \
            pytest.approx(8.0)

    def test_aborts_reduce_locks_held(self):
        clean = average_locks_held(16, 0.0, 0.5, 50.0, 0.0)
        dirty = average_locks_held(16, 0.5, 0.5, 50.0, 0.0)
        assert dirty < clean

    def test_zero_response_means_zero(self):
        assert average_locks_held(16, 0.0, 0.5, 0.0, 10.0) == 0.0

    @pytest.mark.parametrize("pa, sigma", [(1.0, 0.5), (-0.1, 0.5),
                                           (0.5, 1.5), (0.5, -0.1)])
    def test_rejects_invalid_inputs(self, pa, sigma):
        with pytest.raises(ConfigurationError):
            average_locks_held(16, pa, sigma, 50.0, 10.0)
        with pytest.raises(ConfigurationError):
            average_locks_held(16, np.array([0.0, pa]),
                               np.array([0.5, sigma]),
                               np.array([50.0, 50.0]), 10.0)

    def test_inputs_unchecked_where_response_is_zero(self):
        """Only an executing chain's P_a and sigma are validated."""
        assert average_locks_held(16, 1.0, 0.5, 0.0, 10.0) == 0.0
        lh = average_locks_held(16, np.array([0.0, 1.0]), 0.5,
                                np.array([50.0, 0.0]), 10.0)
        assert lh[1] == 0.0 and lh[0] > 0.0

    @given(
        locks=st.floats(1.0, 100.0),
        pa=st.floats(0.0, 0.9),
        sigma=st.floats(0.0, 1.0),
        rs=st.floats(1.0, 1e4),
        z=st.floats(0.0, 1e4),
    )
    @settings(max_examples=100)
    def test_bounded_by_half_locks(self, locks, pa, sigma, rs, z):
        lh = average_locks_held(locks, pa, sigma, rs, z)
        assert 0.0 <= lh <= locks / 2 + 1e-9


#: The chain axis of the per-chain arrays below: one site, every type.
CHAINS = tuple(ChainType)
CONFLICTS = conflict_matrix(CHAINS)


def _at(chain):
    return CHAINS.index(chain)


def _per_chain(values):
    """A ``(M,)`` array over :data:`CHAINS` from ``{chain: value}``."""
    return np.array([values.get(chain, 0.0) for chain in CHAINS])


def _held(lro=0.0, lu=0.0, duc=0.0, dus=0.0, droc=0.0, dros=0.0):
    return _per_chain({ChainType.LRO: lro, ChainType.LU: lu,
                       ChainType.DUC: duc, ChainType.DUS: dus,
                       ChainType.DROC: droc, ChainType.DROS: dros})


def _pops(**kwargs):
    return _per_chain({ChainType[name]: count
                       for name, count in kwargs.items()})


def _mass(pops, held):
    return holder_mass(pops, held, CONFLICTS)


def _blocked(values):
    return _per_chain(values)


class TestBlockingProbability:
    def test_reader_only_blocked_by_exclusive_holders(self):
        """Eq. 15 first branch: shared requests conflict only with
        update-held (exclusive) locks."""
        pops = _pops(LRO=4, LU=2)
        held = _held(lro=10.0, lu=5.0)
        pb = blocking_probability(_mass(pops, held), granules=100)
        assert pb[_at(ChainType.LRO)] == pytest.approx(2 * 5.0 / 100)

    def test_writer_blocked_by_everyone_minus_self(self):
        pops = _pops(LRO=4, LU=2)
        held = _held(lro=10.0, lu=5.0)
        pb = blocking_probability(_mass(pops, held), granules=100)
        assert pb[_at(ChainType.LU)] == pytest.approx(
            (4 * 10 + 2 * 5 - 5) / 100)

    def test_reader_never_blocked_in_read_only_system(self):
        pops = _pops(LRO=8)
        held = _held(lro=20.0)
        assert blocking_probability(_mass(pops, held),
                                    100)[_at(ChainType.LRO)] == 0.0

    def test_capped_at_one(self):
        pops = _pops(LU=50)
        held = _held(lu=50.0)
        assert blocking_probability(_mass(pops, held),
                                    10)[_at(ChainType.LU)] == 1.0

    def test_eq16_lock_wait_probability(self):
        assert lock_wait_probability(0.1, 5) == pytest.approx(
            1 - 0.9 ** 5)
        assert lock_wait_probability(0.0, 100) == 0.0


class TestBlockerDistribution:
    def test_normalizes(self):
        pops = _pops(LRO=2, LU=3, DUC=1)
        held = _held(lro=4.0, lu=6.0, duc=2.0)
        dist = blocker_distribution(_mass(pops, held))[_at(ChainType.LU)]
        assert sum(dist) == pytest.approx(1.0)

    def test_reader_distribution_excludes_readers(self):
        pops = _pops(LRO=2, LU=3)
        held = _held(lro=4.0, lu=6.0)
        dist = blocker_distribution(_mass(pops, held))[_at(ChainType.LRO)]
        assert dist[_at(ChainType.LRO)] == 0.0
        assert dist[_at(ChainType.LU)] == pytest.approx(1.0)

    def test_all_zero_when_no_conflicting_mass(self):
        dist = blocker_distribution(_mass(_pops(LRO=4), _held(lro=9.0)))
        assert all(v == 0.0 for v in dist[_at(ChainType.LRO)])


class TestDeadlockVictimProbability:
    def test_two_readers_never_deadlock(self):
        pops = _pops(LRO=5)
        held = _held(lro=10.0)
        blocked = _blocked({chain: 0.5 for chain in ChainType})
        assert deadlock_victim_probability(
            _mass(pops, held), held, blocked)[_at(ChainType.LRO)] == 0.0

    def test_writers_can_deadlock(self):
        pops = _pops(LU=4)
        held = _held(lu=10.0)
        blocked = _blocked({ChainType.LU: 0.4})
        pd = deadlock_victim_probability(_mass(pops, held), held,
                                         blocked)[_at(ChainType.LU)]
        assert 0.0 < pd < 1.0

    def test_reader_writer_deadlock_possible(self):
        """A reader blocked by a writer that waits on the reader's
        shared lock is a legal two-cycle."""
        pops = _pops(LRO=2, LU=2)
        held = _held(lro=8.0, lu=8.0)
        blocked = _blocked({ChainType.LU: 0.5, ChainType.LRO: 0.5})
        pd = deadlock_victim_probability(_mass(pops, held), held,
                                         blocked)[_at(ChainType.LRO)]
        assert pd > 0.0

    def test_zero_when_holders_never_wait(self):
        pops = _pops(LU=4)
        held = _held(lu=10.0)
        blocked = _blocked({ChainType.LU: 0.0})
        assert deadlock_victim_probability(
            _mass(pops, held), held, blocked)[_at(ChainType.LU)] == 0.0

    def test_grows_with_holder_wait_fraction(self):
        pops = _pops(LU=4)
        held = _held(lu=10.0)
        low = deadlock_victim_probability(
            _mass(pops, held), held, _blocked({ChainType.LU: 0.1}))
        high = deadlock_victim_probability(
            _mass(pops, held), held, _blocked({ChainType.LU: 0.6}))
        assert high[_at(ChainType.LU)] > low[_at(ChainType.LU)]

    @given(
        lh=st.floats(0.1, 50.0),
        wait=st.floats(0.0, 1.0),
        pop=st.integers(1, 10),
    )
    @settings(max_examples=80)
    def test_always_a_probability(self, lh, wait, pop):
        pops = _pops(LU=pop, LRO=pop)
        held = _held(lu=lh, lro=lh)
        blocked = _blocked({chain: wait for chain in ChainType})
        pd = deadlock_victim_probability(_mass(pops, held), held,
                                         blocked)[_at(ChainType.LU)]
        assert 0.0 <= pd <= 1.0


class TestBlockingRatioAndWaitTime:
    def test_eq19_values(self):
        assert blocking_ratio(1) == pytest.approx(0.5)
        assert blocking_ratio(10) == pytest.approx(21 / 60)

    def test_limit_is_one_third(self):
        """Paper §5.4.4: BR -> 1/3, measured range 0.23-0.41."""
        assert blocking_ratio(1000) == pytest.approx(1 / 3, rel=1e-2)
        assert 0.23 < blocking_ratio(4) < 0.41

    def test_lock_wait_time_is_blocker_weighted(self):
        pops = _pops(LU=2, DUC=2)
        held = _held(lu=10.0, duc=10.0)
        br = blocking_ratio(30.0)
        ratios = _per_chain({ChainType.LU: br, ChainType.DUC: br})
        responses = _per_chain({ChainType.LU: 600.0,
                                ChainType.DUC: 1200.0})
        wait = lock_wait_time(_mass(pops, held), ratios, responses)
        # Equal blocker mass -> average of the two RLTs.
        assert wait[_at(ChainType.LRO)] == pytest.approx(
            br * (600 + 1200) / 2)

    def test_no_blockers_no_wait(self):
        wait = lock_wait_time(_mass(_pops(LRO=3), _held(lro=5.0)),
                              _per_chain({}), _per_chain({}))
        assert wait[_at(ChainType.LRO)] == 0.0

    def test_rejects_zero_locks(self):
        with pytest.raises(ConfigurationError):
            blocking_ratio(0)
