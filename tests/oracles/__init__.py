"""Frozen scalar oracles for the equivalence suites.

Production code writes each §5–§6 equation once, as array functions in
:mod:`repro.model.locking`, :mod:`repro.model.remote` and
:mod:`repro.model.demands`, driven by the tensor engine in
:mod:`repro.model.outer`.  This package keeps the pre-tensor scalar
implementation exactly as it was, so the tests can pin production
against it:

* :mod:`.solver_reference` — :class:`ReferenceCaratModel`, the
  original per-chain outer loop, over :mod:`.solver` (the scalar
  ``CaratModel`` phase methods);
* :mod:`.locking`, :mod:`.remote`, :mod:`.demands` — the dict-keyed
  scalar helpers that loop calls, and :mod:`.phases` its per-matrix
  visit-count solve (Eq. 1);
* :mod:`.mva_reference` — the pure-Python MVA loops the vectorized
  kernels in :mod:`repro.queueing.kernels` are pinned against.

The copies differ from the code they were taken from only in their
imports.  Nothing under ``src/`` may import this package.
"""
