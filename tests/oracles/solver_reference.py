"""Reference scalar outer fixed point — the tensor engine's oracle.

:class:`ReferenceCaratModel` preserves the original per-chain Python
outer loop of :class:`~repro.model.solver.CaratModel` exactly as it
was before the solve path moved onto the batched tensor engine
(:mod:`repro.model.outer`).  It mirrors the PR 5
``queueing.mva_reference`` pattern: an unvectorized, obviously-faithful
implementation of the paper's §6 iteration kept solely as the test
oracle the equivalence suite pins the production path against (1e-10
on throughputs, identical iteration counts and snapshots).

All phase methods (demand rebuild, site MVA, lock/abort/remote
updates) are *shared* with ``CaratModel`` — only the driving loop
differs — so the two paths visit the same sequence of iterates up to
array-vs-scalar rounding.
"""

from __future__ import annotations

from repro.errors import ConvergenceError
from repro.model.diagnostics import (ConvergenceTrace, IterationRecord,
                                     TRACKED_FIELDS, trace_clock)
from repro.model.results import ModelSolution
from tests.oracles.solver import CaratModel
from repro.queueing.network import NetworkSolution

__all__ = ["ReferenceCaratModel"]


class ReferenceCaratModel(CaratModel):
    """``CaratModel`` with the original scalar fixed-point loop."""

    def solve(self) -> ModelSolution:
        """Run the fixed-point iteration to convergence.

        With diagnostics attached the solve runs an instrumented copy
        of the loop (:meth:`_solve_traced`); the phase methods are
        shared, so both paths visit the same fixed point.  Keeping two
        loops means the common (detached) path performs no timing
        calls and allocates nothing per iteration.
        """
        if self._diag is not None:
            return self._solve_traced(self._diag)
        residual = float("inf")
        iterations = 0
        solutions: dict[str, NetworkSolution] = {}
        for iterations in range(1, self.config.max_iterations + 1):
            for key, state in self._state.items():
                self._rebuild_demands(key[0], key[1], state)

            solutions = self._solve_sites()

            residual = self._absorb_solutions(solutions)
            self._update_abort_probabilities()
            for name in self.workload.sites:
                self._update_lock_model(name)
            self._update_remote_waits(solutions)
            if self.config.model_tm_serialization:
                self._update_tm_serialization()

            if residual < self.config.tolerance:
                break
        else:
            if self.config.raise_on_nonconvergence:
                raise ConvergenceError(
                    f"model did not converge for workload "
                    f"{self.workload.name} (n="
                    f"{self.workload.requests_per_txn})",
                    iterations=iterations, residual=residual,
                )
        return self._build_solution(solutions, iterations, residual)

    def _solve_traced(self, diag: ConvergenceTrace) -> ModelSolution:
        """Instrumented twin of :meth:`solve` (same phases, same fixed
        point) that fills *diag* with one record per outer iteration."""
        clock = trace_clock()
        diag.begin_solve(
            self.workload.name, self.workload.requests_per_txn,
            self.config.tolerance, self.config.damping,
            warm_started=bool(self._warm_start),
        )
        residual = float("inf")
        prev_residual: float | None = None
        iterations = 0
        solutions: dict[str, NetworkSolution] = {}
        for iterations in range(1, self.config.max_iterations + 1):
            t0 = clock()
            for key, state in self._state.items():
                self._rebuild_demands(key[0], key[1], state)
            t1 = clock()

            mva_stats = {"solves": 0, "inner": 0, "lattice": 0}
            solutions = self._solve_sites(mva_stats)
            t2 = clock()

            # The damped iterate fields only move during the update
            # phases below, so snapshot them here for the step sizes.
            before = {
                key: tuple(getattr(state, name) for name in TRACKED_FIELDS)
                for key, state in self._state.items()
            }
            chain_residuals: dict[str, float] = {}
            residual = self._absorb_solutions(solutions, chain_residuals)
            t3 = clock()
            self._update_abort_probabilities()
            t4 = clock()
            for name in self.workload.sites:
                self._update_lock_model(name)
            t5 = clock()
            self._update_remote_waits(solutions)
            t6 = clock()
            if self.config.model_tm_serialization:
                self._update_tm_serialization()
            t7 = clock()

            field_residuals = dict.fromkeys(TRACKED_FIELDS, 0.0)
            for key, state in self._state.items():
                prior = before[key]
                for i, name in enumerate(TRACKED_FIELDS):
                    step = abs(getattr(state, name) - prior[i])
                    if step > field_residuals[name]:
                        field_residuals[name] = step
            contraction = (residual / prev_residual
                           if prev_residual else None)
            diag.append(IterationRecord(
                index=iterations,
                residual=residual,
                chain_residuals=chain_residuals,
                field_residuals=field_residuals,
                phase_ms={
                    "demands": (t1 - t0) * 1e3,
                    "mva": (t2 - t1) * 1e3,
                    "absorb": (t3 - t2) * 1e3,
                    "abort": (t4 - t3) * 1e3,
                    "lock": (t5 - t4) * 1e3,
                    "remote": (t6 - t5) * 1e3,
                    "tms": (t7 - t6) * 1e3,
                },
                mva_solves=mva_stats["solves"],
                mva_inner_iterations=mva_stats["inner"],
                mva_lattice_points=mva_stats["lattice"],
                contraction=contraction,
            ))
            prev_residual = residual
            if residual < self.config.tolerance:
                break
        converged = residual < self.config.tolerance
        diag.finish(converged, iterations, residual)
        if not converged and self.config.raise_on_nonconvergence:
            raise ConvergenceError(
                f"model did not converge for workload "
                f"{self.workload.name} (n="
                f"{self.workload.requests_per_txn})",
                iterations=iterations, residual=residual,
            )
        return self._build_solution(solutions, iterations, residual)
