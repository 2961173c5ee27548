"""Deep-state digests and trace builders for the kernel differential
tests.

The batched fast paths claim bit-identity with the seed per-access
path, so the assertions here go far beyond ``ChipStats``: two runs are
"equal" only when every cache's contents, timestamps, clocks, stats and
``last_eviction``, the coherence and bus counters, and the full
controller state (filters, mechanisms, R-windows, affinity store) are
indistinguishable.
"""

from dataclasses import asdict

import numpy as np

from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.skewed import SkewedAssociativeCache
from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.traces.trace import Access, AccessKind

KINDS = (AccessKind.FETCH, AccessKind.LOAD, AccessKind.STORE)


def make_trace(steps, line_size=64):
    """Build a trace from ``(element, kind_index, instruction_step)``
    triples; returns (accesses list, (addresses, kinds, instructions))."""
    accesses = []
    instruction = 0
    for element, kind_index, step in steps:
        accesses.append(
            Access(element * line_size + 4, KINDS[kind_index], instruction)
        )
        instruction += step
    addresses = np.array([a.address for a in accesses], dtype=np.int64)
    kinds = np.array([int(a.kind) for a in accesses], dtype=np.int8)
    instructions = np.array([a.instruction for a in accesses], dtype=np.int64)
    return accesses, (addresses, kinds, instructions)


def trace_accesses(arrays):
    """The ``Access`` list of a trace given as parallel arrays."""
    addresses, kinds, instructions = arrays
    return [
        Access(a, AccessKind(k), i)
        for a, k, i in zip(
            addresses.tolist(), kinds.tolist(), instructions.tolist()
        )
    ]


def cache_state(cache):
    state = {
        "stats": asdict(cache.stats),
        "last_eviction": cache.last_eviction,
    }
    if isinstance(cache, SkewedAssociativeCache):
        state["lines"] = list(cache._lines)
        state["dirty"] = list(cache._dirty)
        state["time"] = list(cache._time)
        state["clock"] = cache._clock
    elif isinstance(cache, SetAssociativeCache):
        state["sets"] = [list(s.items()) for s in cache._sets]
    elif isinstance(cache, FullyAssociativeCache):
        state["lines"] = list(cache._lines.items())
    else:  # pragma: no cover - new cache type
        raise TypeError(type(cache).__name__)
    return state


def store_state(store):
    if isinstance(store, UnboundedAffinityStore):
        return {
            "values": dict(store._values),
            "reads": store.reads,
            "writes": store.writes,
            "misses": store.misses,
        }
    assert isinstance(store, AffinityCache)
    return {
        "lines": list(store._lines),
        "values": list(store._values),
        "time": list(store._time),
        "clock": store._clock,
        "reads": store.reads,
        "writes": store.writes,
        "misses": store.misses,
        "evictions": store.evictions,
    }


def mechanism_state(mechanism):
    return {
        "delta": mechanism.delta.value,
        "window_affinity": mechanism.window_affinity.value,
        "references": mechanism.references,
        "fifo": list(mechanism._fifo),
        "lru": list(mechanism._lru.items()),
    }


def filter_state(transition_filter):
    return {
        "value": transition_filter.value,
        "updates": transition_filter.updates,
        "sign_changes": transition_filter.sign_changes,
        "last_sign": transition_filter._last_sign,
    }


def controller_state(controller):
    return {
        "stats": asdict(controller.stats),
        "previous_subset": controller._previous_subset,
        "store": store_state(controller.store),
        "mechanisms": [mechanism_state(m) for m in controller.mechanisms()],
        "filters": [
            filter_state(f)
            for f in [controller.filter_x, *controller.filter_y.values()]
        ],
    }


def chip_state(chip):
    return {
        "stats": chip.stats.to_dict(),
        "il1": cache_state(chip.il1),
        "dl1": cache_state(chip.dl1),
        "l2s": [cache_state(c) for c in chip.l2s.caches],
        "coherence": asdict(chip.l2s.stats),
        "active_core": chip.engine.active_core,
        "migrations": chip.engine.migrations,
        "controller": controller_state(chip.controller),
        "bus": asdict(chip.bus_traffic),
    }


def hierarchy_state(hierarchy):
    return {
        "stats": asdict(hierarchy.stats),
        "il1": cache_state(hierarchy.il1),
        "dl1": cache_state(hierarchy.dl1),
        "l2": cache_state(hierarchy.l2),
    }


def without_l1(state):
    """A model digest minus the L1 cache objects.

    A filtered replay *replaces* the model's L1 pair with the record
    (the L1 caches are never touched — their stats live in the model
    stats, which stay in the digest), so filtered-vs-seed comparisons
    use this view.
    """
    return {k: v for k, v in state.items() if k not in ("il1", "dl1")}
