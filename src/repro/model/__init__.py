"""The paper's analytical model: phases, demands, locking, remote waits
and the fixed-point solver."""

from repro.model.calibration import (CalibrationResult,
                                     CalibrationTarget,
                                     calibrate_protocol)
from repro.model.demands import (ChainDemands, PhaseCosts,
                                 abort_probability, aggregate_demands,
                                 build_phase_costs, ios_per_request,
                                 lock_count, mean_submissions)
from repro.model.locking import (LockModelState, average_locks_held,
                                 blocker_distribution, blocking_probability,
                                 blocking_ratio, conflict_matrix,
                                 deadlock_victim_probability, holder_mass,
                                 lock_wait_probability, lock_wait_time,
                                 locks_at_abort)
from repro.model.open_solver import (OpenChainResult, OpenSolution,
                                     OpenWorkload, solve_open_model)
from repro.model.parameters import (BasicPhaseCosts, ProtocolCosts,
                                    SiteParameters, paper_sites,
                                    paper_table2)
from repro.model.phases import (ConflictProbabilities,
                                expected_visits_no_conflict,
                                transition_matrix, visit_array,
                                visit_counts)
from repro.model.results import ChainResult, ModelSolution, SiteResult
from repro.model.solver import CaratModel, ModelConfig, solve_model
from repro.model.types import BaseType, ChainType, Phase
from repro.model.workload import (STANDARD_WORKLOADS, WorkloadSpec, lb8,
                                  mb4, mb8, ub6)

__all__ = [
    "BaseType", "ChainType", "Phase",
    "WorkloadSpec", "lb8", "mb4", "mb8", "ub6", "STANDARD_WORKLOADS",
    "BasicPhaseCosts", "ProtocolCosts", "SiteParameters",
    "paper_table2", "paper_sites",
    "ConflictProbabilities", "transition_matrix", "visit_array",
    "visit_counts", "expected_visits_no_conflict",
    "PhaseCosts", "ChainDemands", "build_phase_costs", "ios_per_request",
    "lock_count", "abort_probability", "mean_submissions",
    "aggregate_demands",
    "LockModelState", "locks_at_abort", "average_locks_held",
    "conflict_matrix", "holder_mass",
    "blocking_probability", "lock_wait_probability",
    "blocker_distribution", "deadlock_victim_probability",
    "blocking_ratio", "lock_wait_time",
    "ChainResult", "SiteResult", "ModelSolution",
    "CaratModel", "ModelConfig", "solve_model",
    "CalibrationTarget", "CalibrationResult", "calibrate_protocol",
    "OpenWorkload", "OpenChainResult", "OpenSolution",
    "solve_open_model",
]
