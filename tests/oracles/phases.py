"""Visit counts per transaction cycle (paper Eq. 1), scalar form.

The frozen per-matrix solve the scalar oracle in :mod:`.solver` calls;
production solves a stack of phase matrices at once with
:func:`repro.model.phases.visit_array`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.model.types import Phase, PHASE_ORDER

__all__ = ["visit_counts"]

_INDEX = {phase: i for i, phase in enumerate(PHASE_ORDER)}


def visit_counts(matrix: np.ndarray) -> dict[Phase, float]:
    """Visit counts per transaction cycle (paper Eq. 1), ``V_UT = 1``.

    Solves the traffic equations ``V = V P`` with the UT visit count
    pinned to one, i.e. visits are "per submission cycle".
    """
    size = len(PHASE_ORDER)
    if matrix.shape != (size, size):
        raise ConfigurationError(
            f"expected a {size}x{size} phase matrix, got {matrix.shape}"
        )
    # (I - P)^T V = 0 with the UT row replaced by the normalization.
    a = (np.eye(size) - matrix).T
    b = np.zeros(size)
    ut = _INDEX[Phase.UT]
    a[ut, :] = 0.0
    a[ut, ut] = 1.0
    b[ut] = 1.0
    v = np.linalg.solve(a, b)
    if np.any(v < -1e-9):
        raise ConfigurationError("negative visit count; matrix is not a "
                                 "valid phase chain")
    return {phase: max(0.0, float(v[_INDEX[phase]]))
            for phase in PHASE_ORDER}
