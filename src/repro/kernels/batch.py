"""Chip and hierarchy replay drivers: arrays in, one dispatch out.

Entry points (normally reached via ``MultiCoreChip.run_arrays`` /
``run_filtered`` and their ``SingleCoreHierarchy`` counterparts):

* :func:`run_chip_filtered` / :func:`run_hierarchy_filtered` — replay
  a precomputed :class:`~repro.kernels.l1filter.L1FilterRecord`,
  skipping the L1 stage entirely (the replaying model's own L1 caches
  are left untouched);
* :func:`run_chip_arrays` / :func:`run_hierarchy_arrays` — drive a
  model from ``(addresses, kinds, instructions)`` numpy arrays: the
  trace is filtered through the model's *own* IL1/DL1 into a record,
  which then takes the ``run_*_filtered`` dispatch.  An L1 type the
  miss-stream kernel does not model sends the trace through the
  model's per-access ``run`` instead.

Every path is **bit-identical** to the per-access simulator: same
``ChipStats`` / ``HierarchyStats``, same cache contents and per-cache
``CacheStats``, same controller/affinity state, same update-bus bytes.
The differential tests in ``tests/kernels`` enforce this on synthetic
and Olden traces.

``run_*_filtered`` picks one of two replays:

* the **specialized kernels** (:mod:`repro.kernels.specialize`) when
  the model is built from the exact standard component types with no
  probe and no prefetchers (:func:`_chip_fast_eligible`,
  :func:`_hierarchy_fast_eligible`);
* otherwise the **generic record replay**, which applies each record
  through the model's real ``_l2_access``/``_controller_step`` (or
  ``_l2_read``/``_l2_write``) methods, so probes, prefetchers and
  non-standard components behave exactly as per access.  It keeps
  probe event streams exact by firing ``probe.on_access`` at every
  sample threshold and at each record's access number, counted on
  from the model's running ``stats.accesses``; references that hit in
  the L1s never change the sampled counters (see
  ``docs/performance.md``).
"""

from __future__ import annotations

from repro.caches.skewed import SkewedAssociativeCache
from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.core.controller import MigrationController
from repro.core.mechanism import SplitMechanism
from repro.core.transition_filter import TransitionFilter
from repro.kernels.arrays import as_trace_arrays
from repro.kernels.l1filter import (
    FETCH_MISS,
    STORE_L1_HIT,
    STORE_L1_MISS,
    L1FilterRecord,
    _filter_record,
    _l1_view,
)
from repro.multicore.coherence import CoherentL2s
from repro.multicore.migration import MigrationEngine
from repro.traces.trace import Access, AccessKind

# -- public entry points ------------------------------------------------


def run_chip_arrays(chip, addresses, kinds, instructions):
    """Run a whole trace, given as parallel arrays, through ``chip``."""
    return _run_arrays(
        chip, chip.config.caches, run_chip_filtered,
        addresses, kinds, instructions,
    )


def run_chip_filtered(chip, record: L1FilterRecord):
    """Replay an L1-filter record through ``chip``'s L2 + controller.

    The chip's own L1 caches are bypassed (their contents and stats do
    not change); everything downstream — ``ChipStats`` included —
    matches running the original trace exactly.
    """
    record.require_match(chip.config.caches)
    if _chip_fast_eligible(chip):
        from repro.kernels.specialize import replay_chip_specialized

        replay_chip_specialized(chip, record)
    else:
        _replay_chip_generic(chip, record)
    return chip.stats


def run_hierarchy_arrays(hierarchy, addresses, kinds, instructions):
    """Run a whole trace, given as parallel arrays, through the
    single-core baseline hierarchy."""
    return _run_arrays(
        hierarchy, hierarchy.config, run_hierarchy_filtered,
        addresses, kinds, instructions,
    )


def run_hierarchy_filtered(hierarchy, record: L1FilterRecord):
    """Replay an L1-filter record through the baseline's L2."""
    record.require_match(hierarchy.config)
    if _hierarchy_fast_eligible(hierarchy):
        from repro.kernels.specialize import replay_hierarchy_specialized

        replay_hierarchy_specialized(hierarchy, record)
    else:
        _replay_hierarchy_generic(hierarchy, record)
    return hierarchy.stats


def _run_arrays(model, config, run_filtered, addresses, kinds, instructions):
    """The one ``run_arrays`` body: filter the trace through the model's
    own L1 pair, then replay the resulting record."""
    addresses, kinds, instructions = as_trace_arrays(
        addresses, kinds, instructions
    )
    if _l1_view(model.il1) is None or _l1_view(model.dl1) is None:
        return model.run(
            Access(address, AccessKind(kind), instruction)
            for address, kind, instruction in zip(
                addresses.tolist(), kinds.tolist(), instructions.tolist()
            )
        )
    record = _filter_record(
        model.il1, model.dl1, config, addresses, kinds, instructions
    )
    return run_filtered(model, record)


# -- fast-path eligibility ----------------------------------------------


def _chip_fast_eligible(chip) -> bool:
    """Whether the specialized replay is exact for this chip.

    Exact component types only (a subclass may override any method the
    generated kernel transcribes), no probes anywhere, no prefetchers,
    FIFO R-windows, and the active-core/controller-subset invariant
    intact.
    """
    if chip.probe is not None or chip.prefetchers is not None:
        return False
    engine = chip.engine
    if type(engine) is not MigrationEngine or engine.probe is not None:
        return False
    l2s = chip.l2s
    if type(l2s) is not CoherentL2s or l2s.probe is not None:
        return False
    caches = l2s.caches
    first = caches[0]
    for cache in caches:
        if (
            type(cache) is not SkewedAssociativeCache
            or cache.num_sets != first.num_sets
            or cache.ways != first.ways
        ):
            return False
    if not chip.config.migration_enabled:
        return True
    controller = chip.controller
    if (
        type(controller) is not MigrationController
        or controller.probe is not None
    ):
        return False
    if type(controller.store) not in (AffinityCache, UnboundedAffinityStore):
        return False
    for mechanism in controller.mechanisms():
        if (
            type(mechanism) is not SplitMechanism
            or mechanism.probe is not None
            or mechanism.lru_window
            or mechanism.store is not controller.store
        ):
            return False
    for transition_filter in [
        controller.filter_x,
        *controller.filter_y.values(),
    ]:
        if (
            type(transition_filter) is not TransitionFilter
            or transition_filter.probe is not None
        ):
            return False
    # The kernel skips subset recomputation on steps that cannot change
    # it, which is only sound under this invariant (it holds for any
    # chip driven solely through the public run paths).
    subset = controller.current_subset()
    if controller._previous_subset != subset or engine.active_core != subset:
        return False
    return True


def _hierarchy_fast_eligible(hierarchy) -> bool:
    return (
        hierarchy.probe is None
        and hierarchy.prefetcher is None
        and type(hierarchy.l2) is SkewedAssociativeCache
    )


# -- generic record replay (always exact, any component mix) ------------


def _replay_generic(model, record: L1FilterRecord, apply) -> None:
    """Apply every record of ``record`` through ``apply(line, kind)``,
    keeping ``model``'s probe clock and access/instruction counts."""
    stats = model.stats
    probe = model.probe
    lines = record.lines.tolist()
    rkinds = record.kinds.tolist()
    n = record.accesses
    if probe is None:
        for line, rkind in zip(lines, rkinds):
            apply(line, rkind)
    else:
        # Sample thresholds crossed between two records fall on L1-hit
        # references, which change nothing the probe samples — firing
        # on_access at exactly the threshold reproduces the per-access
        # clock.  Each record then gets on_access at its own access
        # number *before* its effects, as in MultiCoreChip.access.  The
        # clock continues from the accesses the model has already run.
        base = stats.accesses
        on_access = probe.on_access
        for index, line, rkind in zip(record.indices.tolist(), lines, rkinds):
            access_number = base + index + 1
            while probe._next_sample < access_number:
                on_access(probe._next_sample)
            on_access(access_number)
            apply(line, rkind)
        if n:
            end = base + n
            while probe._next_sample <= end:
                on_access(probe._next_sample)
            if probe.now < end:
                on_access(end)
    stats.accesses += n
    if record.max_instruction >= stats.instructions:
        stats.instructions = record.max_instruction + 1


def _replay_chip_generic(chip, record: L1FilterRecord) -> None:
    """Replay a record via real chip methods (probes/prefetchers OK)."""
    stats = chip.stats
    bus = chip.bus_traffic
    l2_access = chip._l2_access
    controller_step = chip._controller_step
    line_size = chip.config.caches.line_size

    def apply(line, rkind):
        if rkind >= STORE_L1_HIT:  # write-through store reached the L2
            bus.record_store()
            l2_miss = l2_access(line, True)
            if rkind == STORE_L1_MISS:
                stats.dl1_misses += 1
                controller_step(line, l2_miss)
            return
        if rkind == FETCH_MISS:
            stats.il1_misses += 1
        else:
            stats.dl1_misses += 1
        bus.record_l1_fill(line_size)
        controller_step(line, l2_access(line, False))

    _replay_generic(chip, record, apply)


def _replay_hierarchy_generic(hierarchy, record: L1FilterRecord) -> None:
    """Replay a record via real hierarchy methods."""
    stats = hierarchy.stats
    l2_read = hierarchy._l2_read
    l2_write = hierarchy._l2_write

    def apply(line, rkind):
        if rkind >= STORE_L1_HIT:
            if rkind == STORE_L1_MISS:
                stats.l1_misses += 1
            l2_write(line)
        else:
            stats.l1_misses += 1
            l2_read(line)

    _replay_generic(hierarchy, record, apply)
