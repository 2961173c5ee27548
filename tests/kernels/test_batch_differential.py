"""Differential tests: the batched paths vs the seed per-access path,
compared on full deep state (see ``helpers.py``).

Hypothesis drives random mixed FETCH/LOAD/STORE traces through three
executions of every model — ``run`` (seed), ``run_arrays`` (the trace
filtered through the model's own L1s, then replayed as a record) and
``run_filtered`` (L1-filter replay, which dispatches to the generated
specialized kernel) — and requires indistinguishable final state.  The
filtered path is compared without the L1 cache objects: the record
*replaces* the model's L1 pair by contract, so the replaying model's
il1/dl1 stay untouched while its ``ChipStats`` (including the L1 miss
counters) must still match exactly.  The fixed cases pin the
configurations the specialized kernel must *bypass* correctly
(prefetchers, probes, L1 types the miss-stream kernel does not model)
or handle structurally (2-way controller, migration disabled,
fully-associative L1s), and a model that runs several traces in a row
must keep its probe clock across the calls.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.caches.hierarchy import CoreCacheConfig, SingleCoreHierarchy
from repro.caches.set_assoc import SetAssociativeCache
from repro.core.controller import ControllerConfig
from repro.kernels.l1filter import build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.obs import SimProbe
from tests.kernels.helpers import (
    chip_state,
    hierarchy_state,
    make_trace,
    trace_accesses,
    without_l1,
)

#: (element, kind index, instruction step) triples; elements span more
#: lines than the small L1s hold so misses, evictions and write-backs
#: all occur.
steps_strategy = st.lists(
    st.tuples(
        st.integers(0, 600), st.integers(0, 2), st.integers(0, 4)
    ),
    max_size=300,
)


def run_three_ways(make_model, accesses, arrays, config=None):
    """Seed loop, batched arrays, and filtered replay; return digests."""
    seed = make_model()
    for access in accesses:
        seed.access(access)
    batched = make_model()
    batched.run_arrays(*arrays)
    filtered = make_model()
    filtered.run_filtered(build_l1_filter(*arrays, config=config))
    return seed, batched, filtered


class TestChipDifferential:
    @given(steps=steps_strategy)
    @settings(max_examples=30, deadline=None)
    def test_four_core_chip(self, steps):
        accesses, arrays = make_trace(steps)
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(ChipConfig()), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_two_way_controller(self, steps):
        accesses, arrays = make_trace(steps)
        config = ChipConfig(
            num_cores=2,
            controller=ControllerConfig(
                num_subsets=2,
                filter_bits=18,
                affinity_cache_entries=1024,
                l2_filtering=True,
            ),
        )
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(config), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_migration_disabled(self, steps):
        accesses, arrays = make_trace(steps)
        config = ChipConfig(migration_enabled=False)
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(config), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_stack_experiment_controller(self, steps):
        # Unbounded store, full sampling, no L2 filtering (section 4.1).
        accesses, arrays = make_trace(steps)
        config = ChipConfig(controller=ControllerConfig.stack_experiment())
        seed, batched, filtered = run_three_ways(
            lambda: MultiCoreChip(config), accesses, arrays
        )
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))

    @given(steps=steps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_with_prefetcher(self, steps):
        # A prefetcher mutates the L2s outside the fast path's model, so
        # the batched entry points must fall back to the generic replay
        # — and still match, including the prefetcher's own counters.
        from repro.caches.prefetch import NextLinePrefetcher

        accesses, arrays = make_trace(steps)
        make_model = lambda: MultiCoreChip(
            ChipConfig(), prefetcher_factory=NextLinePrefetcher
        )
        seed, batched, filtered = run_three_ways(make_model, accesses, arrays)
        assert chip_state(batched) == chip_state(seed)
        assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))
        digests = [
            [vars(p.stats) for p in model.prefetchers]
            for model in (seed, batched, filtered)
        ]
        assert digests[1] == digests[0]
        assert digests[2] == digests[0]

    @given(steps=steps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_with_probe(self, steps):
        # Probe event streams must fire at the same access numbers and
        # in the same order on every path.
        from repro.obs import SimProbe

        accesses, arrays = make_trace(steps)
        reports = []
        for mode in ("seed", "arrays", "filtered"):
            probe = SimProbe(name="diff", sample_interval=7)
            chip = MultiCoreChip(ChipConfig(), probe=probe)
            if mode == "seed":
                for access in accesses:
                    chip.access(access)
            elif mode == "arrays":
                chip.run_arrays(*arrays)
            else:
                chip.run_filtered(build_l1_filter(*arrays))
            reports.append(
                json.dumps(
                    probe.report().to_dict(), sort_keys=True, default=str
                )
            )
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


class TestHierarchyDifferential:
    @given(steps=steps_strategy)
    @settings(max_examples=30, deadline=None)
    def test_single_core(self, steps):
        accesses, arrays = make_trace(steps)
        seed, batched, filtered = run_three_ways(
            SingleCoreHierarchy, accesses, arrays
        )
        assert hierarchy_state(batched) == hierarchy_state(seed)
        assert without_l1(hierarchy_state(filtered)) == without_l1(
            hierarchy_state(seed)
        )

    @given(steps=steps_strategy)
    @settings(max_examples=15, deadline=None)
    def test_fully_associative_l1(self, steps):
        # l1_ways=0 selects fully-associative L1s.
        accesses, arrays = make_trace(steps)
        config = CoreCacheConfig(l1_ways=0)
        seed, batched, filtered = run_three_ways(
            lambda: SingleCoreHierarchy(config),
            accesses,
            arrays,
            config=config,
        )
        assert hierarchy_state(batched) == hierarchy_state(seed)
        assert without_l1(hierarchy_state(filtered)) == without_l1(
            hierarchy_state(seed)
        )

    @given(steps=steps_strategy)
    @settings(max_examples=10, deadline=None)
    def test_with_probe(self, steps):
        from repro.obs import SimProbe

        accesses, arrays = make_trace(steps)
        reports = []
        for mode in ("seed", "arrays", "filtered"):
            probe = SimProbe(name="diff", sample_interval=5)
            hierarchy = SingleCoreHierarchy(probe=probe)
            if mode == "seed":
                for access in accesses:
                    hierarchy.access(access)
            elif mode == "arrays":
                hierarchy.run_arrays(*arrays)
            else:
                hierarchy.run_filtered(build_l1_filter(*arrays))
            reports.append(
                json.dumps(
                    probe.report().to_dict(), sort_keys=True, default=str
                )
            )
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]


def test_olden_workload_differential():
    """One real Olden trace (not just synthetic streams) end to end."""
    from repro.experiments.workloads import workload

    spec = workload("mst", scale=0.05)
    arrays = spec.arrays()
    seed = MultiCoreChip(ChipConfig())
    for access in spec.accesses():
        seed.access(access)
    batched = MultiCoreChip(ChipConfig())
    batched.run_arrays(*arrays)
    filtered = MultiCoreChip(ChipConfig())
    filtered.run_filtered(build_l1_filter(*arrays))
    assert chip_state(batched) == chip_state(seed)
    assert without_l1(chip_state(filtered)) == without_l1(chip_state(seed))


# -- several runs into one model ----------------------------------------

#: the second run starts mid-trace, off any sample threshold
CLOCK_CUT = 17_001


def _clock_arrays(n=30_000, line_size=64):
    """A deterministic mixed trace over more lines than the L1s hold."""
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 4000, size=n, dtype=np.int64)
    kinds = rng.integers(0, 3, size=n).astype(np.int8)
    instructions = np.cumsum(rng.integers(0, 4, size=n, dtype=np.int64))
    return lines * line_size + 4, kinds, instructions


def _split_record(record, instructions, cut):
    """``record`` as the two records the trace's halves would give when
    filtered one after the other through the same L1 pair."""
    first = record.indices < cut
    halves = []
    for mask, offset, part in (
        (first, 0, instructions[:cut]),
        (~first, cut, instructions[cut:]),
    ):
        halves.append(
            replace(
                record,
                accesses=len(part),
                max_instruction=int(part.max()) if len(part) else -1,
                indices=record.indices[mask] - offset,
                lines=record.lines[mask],
                kinds=record.kinds[mask],
            )
        )
    return halves


def _report(probe):
    return json.dumps(probe.report().to_dict(), sort_keys=True, default=str)


@pytest.mark.parametrize("model", ["chip", "hierarchy"])
@pytest.mark.parametrize("mode", ["filtered", "arrays"])
def test_probe_clock_continues_across_runs(mode, model):
    """A second replay into a probed model numbers its accesses after
    the first one's, exactly like the per-access model running the
    whole trace."""
    if model == "chip":
        make = lambda probe: MultiCoreChip(ChipConfig(), probe=probe)
        state = chip_state
    else:
        make = lambda probe: SingleCoreHierarchy(probe=probe)
        state = hierarchy_state
    arrays = _clock_arrays()
    seed_probe = SimProbe(name="clock", sample_interval=1000)
    seed = make(seed_probe)
    seed.run(trace_accesses(arrays))

    probe = SimProbe(name="clock", sample_interval=1000)
    split = make(probe)
    if mode == "arrays":
        for part in (
            tuple(a[:CLOCK_CUT] for a in arrays),
            tuple(a[CLOCK_CUT:] for a in arrays),
        ):
            split.run_arrays(*part)
        assert state(split) == state(seed)
    else:
        record = build_l1_filter(*arrays)
        for part in _split_record(record, arrays[2], CLOCK_CUT):
            split.run_filtered(part)
        assert without_l1(state(split)) == without_l1(state(seed))
    assert probe.now == len(arrays[0])
    assert _report(probe) == _report(seed_probe)


class _UnmodelledL1(SetAssociativeCache):
    """An L1 type the miss-stream kernel does not model (it accepts
    exact types only, since a subclass may override ``access``)."""


def test_unmodelled_l1_type_runs_per_access():
    arrays = _clock_arrays(n=3000)

    def make():
        chip = MultiCoreChip(ChipConfig())
        chip.il1 = _UnmodelledL1(chip.il1.num_sets, chip.il1.ways)
        chip.dl1 = _UnmodelledL1(chip.dl1.num_sets, chip.dl1.ways)
        return chip

    seed = make()
    seed.run(trace_accesses(arrays))
    batched = make()
    batched.run_arrays(*arrays)
    assert chip_state(batched) == chip_state(seed)
