"""Tests for the phase-transition matrix and visit counts (Table 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.model.phases import (ConflictProbabilities,
                                expected_visits_no_conflict,
                                set_conflict_entries, transition_matrix,
                                visit_counts)
from repro.model.types import ChainType, PHASE_ORDER, Phase

prob = st.floats(0.0, 0.5, allow_nan=False)


def _index(phase):
    return PHASE_ORDER.index(phase)


class TestTransitionMatrix:
    def test_rows_are_stochastic(self):
        m = transition_matrix(ChainType.DUC, 4, 4, 3.9,
                              ConflictProbabilities(0.1, 0.2, 0.05))
        sums = m.sum(axis=1)
        for phase in PHASE_ORDER:
            assert sums[_index(phase)] == pytest.approx(1.0)

    def test_table1_tm_row(self):
        """p(TM->U) = n/C, p(TM->DM) = l/C, p(TM->RW) = r/C,
        p(TM->TC) = 1/C with C = 2n + 1 (paper §5.1)."""
        loc, r = 3, 2
        n = loc + r
        c = 2 * n + 1
        m = transition_matrix(ChainType.DROC, loc, r, 4.0)
        tm = _index(Phase.TM)
        assert m[tm, _index(Phase.U)] == pytest.approx(n / c)
        assert m[tm, _index(Phase.DM)] == pytest.approx(loc / c)
        assert m[tm, _index(Phase.RW)] == pytest.approx(r / c)
        assert m[tm, _index(Phase.TC)] == pytest.approx(1 / c)

    def test_table1_dm_row(self):
        q = 3.5
        m = transition_matrix(ChainType.LRO, 4, 0, q)
        dm = _index(Phase.DM)
        assert m[dm, _index(Phase.TM)] == pytest.approx(1 / (q + 1))
        assert m[dm, _index(Phase.LR)] == pytest.approx(q / (q + 1))

    def test_table1_lock_rows(self):
        conflict = ConflictProbabilities(blocking=0.3,
                                         deadlock_victim=0.2)
        m = transition_matrix(ChainType.LU, 4, 0, 4.0, conflict)
        lr, lw = _index(Phase.LR), _index(Phase.LW)
        assert m[lr, _index(Phase.DMIO)] == pytest.approx(0.7)
        assert m[lr, lw] == pytest.approx(0.3)
        assert m[lw, _index(Phase.DMIO)] == pytest.approx(0.8)
        assert m[lw, _index(Phase.TA)] == pytest.approx(0.2)

    def test_commit_and_abort_paths(self):
        m = transition_matrix(ChainType.LU, 4, 0, 4.0)
        assert m[_index(Phase.TC), _index(Phase.CWC)] == 1.0
        assert m[_index(Phase.CWC), _index(Phase.TCIO)] == 1.0
        assert m[_index(Phase.TCIO), _index(Phase.UL)] == 1.0
        assert m[_index(Phase.TA), _index(Phase.CWA)] == 1.0
        assert m[_index(Phase.CWA), _index(Phase.TAIO)] == 1.0
        assert m[_index(Phase.TAIO), _index(Phase.UL)] == 1.0
        assert m[_index(Phase.UL), _index(Phase.UT)] == 1.0

    def test_slave_skips_user_and_init(self):
        m = transition_matrix(ChainType.DUS, 4, 0, 4.0)
        assert m[_index(Phase.UT), _index(Phase.TM)] == 1.0
        assert m[_index(Phase.UT), _index(Phase.INIT)] == 0.0
        assert m[_index(Phase.TM), _index(Phase.U)] == 0.0

    def test_slave_rw_returns_to_tm(self):
        m = transition_matrix(ChainType.DROS, 3, 0, 4.0,
                              ConflictProbabilities(remote_abort=0.1))
        rw = _index(Phase.RW)
        assert m[rw, _index(Phase.TM)] == pytest.approx(0.9)
        assert m[rw, _index(Phase.TA)] == pytest.approx(0.1)

    def test_local_chain_rw_row_stays_zero(self):
        m = transition_matrix(ChainType.LU, 4, 0, 4.0,
                              ConflictProbabilities(remote_abort=0.1))
        assert not m[_index(Phase.RW)].any()

    def test_stacked_conflict_entries_match_per_chain_matrices(self):
        """The ``(..., P, P)`` form the batched engine writes equals
        each chain's own matrix, bit for bit."""
        cases = [(ChainType.LU, 4, 0), (ChainType.DUC, 3, 2),
                 (ChainType.DUS, 5, 0)]
        conflicts = [ConflictProbabilities(0.3, 0.1, 0.07),
                     ConflictProbabilities(0.05, 0.6, 0.2)]
        stack = np.array([[transition_matrix(c, loc, r, 3.7)
                           for c, loc, r in cases]] * len(conflicts))
        set_conflict_entries(
            stack,
            np.array([[k.blocking] * 3 for k in conflicts]),
            np.array([[k.deadlock_victim] * 3 for k in conflicts]),
            np.array([[k.remote_abort] * 3 for k in conflicts]),
            np.array([False, True, True]))
        for a, k in enumerate(conflicts):
            for m, (c, loc, r) in enumerate(cases):
                expected = transition_matrix(c, loc, r, 3.7, k)
                assert stack[a, m].tobytes() == expected.tobytes()

    def test_rejects_bad_configurations(self):
        with pytest.raises(ConfigurationError):
            transition_matrix(ChainType.LRO, 4, 1, 4.0)  # local w/ remote
        with pytest.raises(ConfigurationError):
            transition_matrix(ChainType.DROC, 4, 0, 4.0)  # coord w/o
        with pytest.raises(ConfigurationError):
            transition_matrix(ChainType.DUS, 2, 1, 4.0)  # slave w/ remote
        with pytest.raises(ConfigurationError):
            transition_matrix(ChainType.LU, 4, 0, 0.0)   # q = 0
        with pytest.raises(ConfigurationError):
            transition_matrix(ChainType.LU, 0, 0, 4.0)   # no requests

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            ConflictProbabilities(blocking=1.5)


class TestVisitCounts:
    @pytest.mark.parametrize("chain,loc,r", [
        (ChainType.LRO, 4, 0),
        (ChainType.LU, 8, 0),
        (ChainType.DROC, 4, 4),
        (ChainType.DUC, 2, 2),
        (ChainType.DROS, 4, 0),
        (ChainType.DUS, 10, 0),
    ])
    def test_no_conflict_closed_forms(self, chain, loc, r):
        """Visit counts at zero conflict match paper §5.1 closed forms."""
        q = 3.8
        m = transition_matrix(chain, loc, r, q)
        v = visit_counts(m)
        expected = expected_visits_no_conflict(chain, loc, r, q)
        for phase in PHASE_ORDER:
            assert v[phase] == pytest.approx(expected[phase], abs=1e-9), \
                phase

    def test_commit_plus_abort_is_one_submission(self):
        """Every submission ends exactly once: V_TC + V_TA = 1."""
        conflict = ConflictProbabilities(0.2, 0.3, 0.0)
        m = transition_matrix(ChainType.LU, 6, 0, 4.0, conflict)
        v = visit_counts(m)
        assert v[Phase.TC] + v[Phase.TA] == pytest.approx(1.0)
        assert v[Phase.UL] == pytest.approx(1.0)

    def test_aborts_reduce_commit_visits(self):
        clean = visit_counts(transition_matrix(ChainType.LU, 6, 0, 4.0))
        risky = visit_counts(transition_matrix(
            ChainType.LU, 6, 0, 4.0,
            ConflictProbabilities(0.3, 0.4, 0.0)))
        assert risky[Phase.TC] < clean[Phase.TC]
        assert risky[Phase.TA] > 0.0

    def test_blocking_adds_lw_visits(self):
        conflict = ConflictProbabilities(blocking=0.25)
        v = visit_counts(transition_matrix(ChainType.LRO, 4, 0, 4.0,
                                           conflict))
        # Without deadlocks every blocked request eventually proceeds:
        # V_LW = Pb * V_LR.
        assert v[Phase.LW] == pytest.approx(0.25 * v[Phase.LR])

    def test_monte_carlo_agreement(self):
        """Visit counts match a direct simulation of the phase chain."""
        rng = np.random.default_rng(42)
        conflict = ConflictProbabilities(0.2, 0.1, 0.0)
        m = transition_matrix(ChainType.LU, 3, 0, 4.0, conflict)
        v = visit_counts(m)
        counts = {phase: 0 for phase in PHASE_ORDER}
        cycles = 4000
        state = PHASE_ORDER.index(Phase.UT)
        ut = PHASE_ORDER.index(Phase.UT)
        done = 0
        while done < cycles:
            counts[PHASE_ORDER[state]] += 1
            state = rng.choice(len(PHASE_ORDER), p=m[state])
            if state == ut:
                done += 1
        for phase in (Phase.TM, Phase.DM, Phase.LR, Phase.TC, Phase.TA):
            assert counts[phase] / cycles == pytest.approx(
                v[phase], rel=0.15), phase

    @given(pb=prob, pd=prob, pra=prob)
    @settings(max_examples=50, deadline=None)
    def test_visits_always_finite_and_nonnegative(self, pb, pd, pra):
        m = transition_matrix(ChainType.DUC, 5, 3, 4.0,
                              ConflictProbabilities(pb, pd, pra))
        v = visit_counts(m)
        for phase, value in v.items():
            assert np.isfinite(value)
            assert value >= 0.0

    @given(pb=prob, pd=prob)
    @settings(max_examples=50, deadline=None)
    def test_submission_conservation_property(self, pb, pd):
        m = transition_matrix(ChainType.LU, 7, 0, 3.5,
                              ConflictProbabilities(pb, pd))
        v = visit_counts(m)
        assert v[Phase.TC] + v[Phase.TA] == pytest.approx(1.0, abs=1e-9)

    def test_matrix_shape_validated(self):
        with pytest.raises(ConfigurationError):
            visit_counts(np.eye(3))
