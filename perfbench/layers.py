"""The traced run: spans around each layer's public functions, and the
per-layer metrics derived from them.

:func:`install` wraps functions of ``src/repro`` from the outside; no
file under ``src/repro`` knows it is being traced.  Spans nest by call
stack (every workload runs in one process with ``--jobs 1``), are kept
in memory, and the child process writes them out when the run ends.

Where one layer hands a lazy iterator to the next (trace ->
``L1Filter.filter`` -> ``run_stack_experiment``), the wrappers
materialize each stage's output before the next stage's span starts,
so each span holds its own layer's work.  The run's ``trace_overhead``
shows what that, and the wrappers, cost.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

EXPERIMENTS = ("figure3", "table1", "figures45", "table2", "population")
REPLAYS = ("replay.chip", "replay.baseline")


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        #: ``{"name", "parent", "start", "end", "attrs"}``; ``parent`` is
        #: the index of the enclosing span or ``None``
        self.spans: "list[dict[str, object]]" = []
        self.counters: "dict[str, float]" = {}
        self._open: "list[int]" = []
        self._records: "dict[int, tuple[int, object]]" = {}
        self._runtime_stats: "dict[int, dict[str, int]]" = {}
        #: ``(kind, record, config)`` of every replay made with a probe
        self.probe_replays: "list[tuple[str, object, object]]" = []
        #: unwrapped replay entry points, for :func:`fast_replay_seconds`
        self.originals: "dict[str, object]" = {}

    @contextmanager
    def span(self, name: str, **attrs: object):
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
                "attrs": attrs,
            }
        )
        self._open.append(index)
        try:
            yield attrs
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self._open)

    def record_id(self, record: object) -> int:
        """A stable ordinal per record object (the object is kept alive,
        so ``id`` cannot be reused within the run)."""
        entry = self._records.get(id(record))
        if entry is None:
            entry = self._records[id(record)] = (len(self._records), record)
        return entry[0]

    def runtime_closed(self, runtime) -> None:
        stats = runtime.stats
        self._runtime_stats[id(runtime)] = {
            "runtime.jobs": stats.submitted,
            "runtime.cache_hits": stats.cache_hits,
            "runtime.failed": stats.failed,
            "runtime.retried": stats.crash_retries,
        }

    def dump(self) -> "dict[str, object]":
        counters = dict(self.counters)
        for stats in self._runtime_stats.values():
            for name, value in stats.items():
                counters[name] = counters.get(name, 0) + value
        return {"spans": self.spans, "counters": counters}


def _rebind(original, wrapped) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapped`` (modules that imported the function by name included)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _spanned(tracer: Tracer, name: str, original):
    def wrapped(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    return wrapped


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points so calls record spans."""
    import repro.experiments.run_all  # noqa: F401 - binds the CLI's names
    from repro.analysis import stack_profiles
    from repro.caches.hierarchy import SingleCoreHierarchy
    from repro.experiments import figure3, figures45, table1, table2, variants
    from repro.experiments.workloads import WorkloadSpec
    from repro.kernels import l1filter, specialize, sweep
    from repro.multicore.chip import MultiCoreChip
    from repro.obs import aggregate
    from repro.runtime import job as runtime_job
    from repro.runtime.cache import ResultCache
    from repro.runtime.scheduler import ExperimentRuntime
    from repro.traces.filters import L1Filter

    # experiments: one span per experiment call
    for module, function, experiment in (
        (figure3, "run_figure3_with_runtime", "figure3"),
        (table1, "run_table1", "table1"),
        (figures45, "run_figures45", "figures45"),
        (table2, "run_table2", "table2"),
        (variants, "run_population", "population"),
    ):
        original = getattr(module, function)
        _rebind(original, _spanned(tracer, f"experiments.{experiment}", original))

    # traces / olden: generation, materialized
    accesses, arrays = WorkloadSpec.accesses, WorkloadSpec.arrays

    def traced_accesses(self):
        if tracer.inside("traces"):
            return accesses(self)
        with tracer.span("traces", workload=self.name) as attrs:
            items = list(accesses(self))
            attrs["refs"] = len(items)
        return iter(items)

    def traced_arrays(self):
        if tracer.inside("traces"):
            return arrays(self)
        with tracer.span("traces", workload=self.name) as attrs:
            result = arrays(self)
            attrs["refs"] = len(result[0])
        return result

    WorkloadSpec.accesses, WorkloadSpec.arrays = traced_accesses, traced_arrays

    # traces.filters: the seed L1 filter, input and output materialized
    l1_filter = L1Filter.filter

    def traced_filter(self, references):
        items = list(references)
        with tracer.span("filters", refs=len(items)) as attrs:
            out = list(l1_filter(self, items))
            attrs["misses"] = len(out)
        return iter(out)

    L1Filter.filter = traced_filter

    # analysis.stack_profiles: the stack experiment over a materialized input
    stack = stack_profiles.run_stack_experiment

    def traced_stack(references, *args, **kwargs):
        lines = list(references)
        with tracer.span("stack") as attrs:
            result = stack(lines, *args, **kwargs)
            attrs["refs"] = result.references
        return result

    _rebind(stack, traced_stack)

    # kernels.l1filter: record builds and sidecar loads
    build = l1filter.build_l1_filter

    def traced_build(*args, **kwargs):
        with tracer.span("l1filter.build") as attrs:
            record = build(*args, **kwargs)
            attrs["records"] = record.records
        return record

    _rebind(build, traced_build)
    load = l1filter.L1FilterRecord.load.__func__

    def traced_load(cls, path):
        with tracer.span("l1filter.load") as attrs:
            record = load(cls, path)
            attrs["records"] = record.records
        return record

    l1filter.L1FilterRecord.load = classmethod(traced_load)

    # kernels.specialize via run_filtered: both replay kinds
    chip_replay = tracer.originals["chip"] = MultiCoreChip.run_filtered
    hier_replay = tracer.originals["baseline"] = SingleCoreHierarchy.run_filtered

    def traced_chip(self, record):
        with tracer.span(
            "replay.chip",
            fast=specialize.specializable(self),
            probe=self.probe is not None,
            record=tracer.record_id(record),
            refs=record.accesses,
        ) as attrs:
            result = chip_replay(self, record)
        attrs.update(
            l2_accesses=self.stats.l2_accesses,
            l2_misses=self.stats.l2_misses,
            migrations=self.stats.migrations,
        )
        if self.probe is not None:
            tracer.probe_replays.append(("chip", record, self.config))
        return result

    def traced_hierarchy(self, record):
        with tracer.span(
            "replay.baseline",
            fast=specialize.hierarchy_specializable(self),
            probe=self.probe is not None,
            record=tracer.record_id(record),
            refs=record.accesses,
        ) as attrs:
            result = hier_replay(self, record)
        attrs["l2_misses"] = self.stats.l2_misses
        if self.probe is not None:
            tracer.probe_replays.append(("baseline", record, self.config))
        return result

    MultiCoreChip.run_filtered = traced_chip
    SingleCoreHierarchy.run_filtered = traced_hierarchy

    # kernels.sweep: population evaluation
    population = sweep.evaluate_population

    def traced_population(*args, **kwargs):
        with tracer.span("sweep.population") as attrs:
            result = population(*args, **kwargs)
            attrs["record_loads"] = result.shared_record_loads
        return result

    _rebind(population, traced_population)

    # runtime: map, job bodies, cache writes, final counters
    runtime_map, runtime_close = ExperimentRuntime.map, ExperimentRuntime.close

    def traced_map(self, jobs, *args, **kwargs):
        jobs = list(jobs)
        with tracer.span("runtime.map", jobs=len(jobs)):
            return runtime_map(self, jobs, *args, **kwargs)

    def traced_close(self):
        runtime_close(self)
        tracer.runtime_closed(self)

    ExperimentRuntime.map, ExperimentRuntime.close = traced_map, traced_close
    execute = runtime_job.execute_job
    _rebind(execute, _spanned(tracer, "runtime.job", execute))
    ResultCache.put = _spanned(tracer, "runtime.cache_put", ResultCache.put)

    # obs: the artifact aggregation at the end of an --obs run
    write = aggregate.write_aggregate
    _rebind(write, _spanned(tracer, "obs.aggregate", write))


def fast_replay_seconds(tracer: Tracer) -> float:
    """Replay every record a probe watched again, without a probe, on
    the same configuration; the seconds that took."""
    from repro.caches.hierarchy import SingleCoreHierarchy
    from repro.multicore.chip import MultiCoreChip

    models = {"chip": MultiCoreChip, "baseline": SingleCoreHierarchy}
    total = 0.0
    for kind, record, config in tracer.probe_replays:
        model = models[kind](config)
        start = time.perf_counter()
        tracer.originals[kind](model, record)
        total += time.perf_counter() - start
    return total


# -- metrics from spans ------------------------------------------------------


def _duration(span) -> float:
    return span["end"] - span["start"]


def _children(spans) -> "dict[int, list[int]]":
    kids: "dict[int, list[int]]" = defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            kids[span["parent"]].append(index)
    return kids


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> "dict[str, float]":
    """Per span name: duration minus the part its child spans cover."""
    kids = _children(spans)
    totals: "dict[str, float]" = defaultdict(float)
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        inner = [
            (max(start, spans[k]["start"]), min(end, spans[k]["end"]))
            for k in kids.get(index, ())
        ]
        totals[span["name"]] += _duration(span) - _covered(
            [(a, b) for a, b in inner if b > a]
        )
    return dict(totals)


def _outermost(spans, names) -> "list[int]":
    """Spans named in ``names`` with no enclosing span of those names."""
    found = []
    for index, span in enumerate(spans):
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            found.append(index)
    return found


def inclusive(spans, *names: str) -> float:
    return sum(_duration(spans[i]) for i in _outermost(spans, names))


def _within(spans, root: int, names) -> float:
    """Seconds of the outermost ``names`` spans below ``root``."""
    total = 0.0
    for index, span in enumerate(spans):
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and parent != root and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent == root:
            total += _duration(span)
    return total


def layer_metrics(spans, counters) -> "dict[str, float]":
    """Every per-layer metric of BENCHMARK.json but ``trace_overhead``
    and ``obs.artifact_mb``, which the parent measures."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def attr_sum(names, attr):
        return sum(s["attrs"].get(attr, 0) for s in spans if s["name"] in names)

    own = self_times(spans)
    m: "dict[str, float]" = {}
    for experiment in EXPERIMENTS:
        m[f"experiments.{experiment}_s"] = inclusive(spans, f"experiments.{experiment}")

    m["traces.busy_s"] = own.get("traces", 0.0)
    m["traces.refs"] = attr_sum(("traces",), "refs")

    m["filters.busy_s"] = own.get("filters", 0.0)
    m["filters.misses"] = attr_sum(("filters",), "misses")
    filtered = attr_sum(("filters",), "refs")
    m["filters.miss_ratio"] = m["filters.misses"] / filtered if filtered else 0.0

    m["stack.busy_s"] = own.get("stack", 0.0)
    m["stack.refs"] = attr_sum(("stack",), "refs")
    m["stack.refs_per_s"] = m["stack.refs"] / m["stack.busy_s"] if m["stack.busy_s"] else 0.0

    m["l1filter.build_s"] = own.get("l1filter.build", 0.0)
    m["l1filter.builds"] = len(named("l1filter.build"))
    m["l1filter.load_s"] = own.get("l1filter.load", 0.0)
    m["l1filter.loads"] = len(named("l1filter.load"))
    m["l1filter.records"] = attr_sum(("l1filter.build", "l1filter.load"), "records")

    chip, baseline = named("replay.chip"), named("replay.baseline")
    m["replay.chip_s"] = inclusive(spans, "replay.chip")
    m["replay.baseline_s"] = inclusive(spans, "replay.baseline")
    m["replay.refs"] = attr_sum(REPLAYS, "refs")
    replay_s = m["replay.chip_s"] + m["replay.baseline_s"]
    m["replay.refs_per_s"] = m["replay.refs"] / replay_s if replay_s else 0.0
    by_record: "dict[int, list[float]]" = defaultdict(list)
    for span in chip:
        by_record[span["attrs"]["record"]].append(_duration(span))
    m["replay.first_s"] = sum(times[0] for times in by_record.values())
    m["replay.repeat_s"] = sum(
        sum(times[1:]) / len(times[1:]) for times in by_record.values() if len(times) > 1
    )
    replays = chip + baseline
    m["replay.fast_ratio"] = (
        sum(bool(s["attrs"]["fast"]) for s in replays) / len(replays) if replays else 0.0
    )

    m["chip.l2_accesses"] = attr_sum(("replay.chip",), "l2_accesses")
    m["chip.l2_misses"] = attr_sum(("replay.chip",), "l2_misses")
    m["chip.migrations"] = attr_sum(("replay.chip",), "migrations")
    m["baseline.l2_misses"] = attr_sum(("replay.baseline",), "l2_misses")

    m["sweep.record_loads"] = attr_sum(("sweep.population",), "record_loads")
    m["sweep.overhead_s"] = sum(
        _duration(spans[i]) - _within(spans, i, REPLAYS)
        for i in _outermost(spans, ("sweep.population",))
    )

    for name in ("runtime.jobs", "runtime.cache_hits", "runtime.failed", "runtime.retried"):
        m[name] = counters.get(name, 0)
    m["runtime.cache_put_s"] = inclusive(spans, "runtime.cache_put")
    m["runtime.overhead_s"] = sum(
        _duration(spans[i]) - _within(spans, i, ("runtime.job",))
        for i in _outermost(spans, ("runtime.map",))
    )

    m["obs.replay_s"] = sum(_duration(s) for s in replays if s["attrs"]["probe"])
    m["obs.aggregate_s"] = inclusive(spans, "obs.aggregate")
    fast = counters.get("obs.fast_replay_s", 0.0)
    m["obs.slowdown"] = m["obs.replay_s"] / fast if fast else 0.0
    return m
