"""Batched simulation kernels: the array-native fast path.

The per-access simulator (``MultiCoreChip.access``) is the reference
semantics; it pays Python interpreter overhead for every memory
reference.  This package replays the same models from numpy arrays and
L1-filter records instead — **bit-identical** to the per-access path
(enforced by the differential tests in ``tests/kernels``).

Layers:

* :mod:`repro.kernels.arrays` — vectorised skew-hash slot computation
  and trace-array helpers.
* :mod:`repro.kernels.l1filter` — the L1-filter kernel: simulate the
  mirrored IL1/DL1 pair once per (trace, L1 geometry) and emit a
  compact miss-stream :class:`~repro.kernels.l1filter.L1FilterRecord`
  that every chip variant in a sweep replays (paper section 2.3: "the
  L1 miss frequency is the same as if execution had not migrated", so
  the L1 stage is identical across baseline/migration/ablations).
* :mod:`repro.kernels.specialize` — the fast path: replay kernels
  generated per chip shape (and per baseline L2 associativity).
* :mod:`repro.kernels.batch` — the dispatch behind
  ``MultiCoreChip.run_arrays`` / ``run_filtered`` and
  ``SingleCoreHierarchy.run_arrays`` / ``run_filtered``: ``run_arrays``
  filters the trace through the model's own L1s into a record, and a
  record replays through the specialized kernel when the model is
  eligible, else through a generic replay over the model's own
  methods (probes, prefetchers, non-standard components).
* :mod:`repro.kernels.sweep` — population sweeps sharing one record.

See ``docs/performance.md`` for the architecture and measured numbers.
"""

from repro.kernels.arrays import skew_slot_matrix, trace_to_arrays
from repro.kernels.batch import (
    run_chip_arrays,
    run_chip_filtered,
    run_hierarchy_arrays,
    run_hierarchy_filtered,
)
from repro.kernels.l1filter import (
    L1FilterRecord,
    build_l1_filter,
    ensure_l1_filter,
    l1_filter_job,
    l1_filter_job_for,
)

__all__ = [
    "L1FilterRecord",
    "build_l1_filter",
    "ensure_l1_filter",
    "l1_filter_job",
    "l1_filter_job_for",
    "run_chip_arrays",
    "run_chip_filtered",
    "run_hierarchy_arrays",
    "run_hierarchy_filtered",
    "skew_slot_matrix",
    "trace_to_arrays",
]
