"""Tests of the benchmark's own logic (no workload is run).

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import re

import pytest

import layers
import rowcheck
import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _metrics():
    benchmark = spec.load_benchmark()
    return benchmark["end_to_end"] + benchmark["per_layer"]


def test_metric_names_and_units():
    metrics = _metrics()
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric.get("unit", "")), metric
        assert metric["better"] in ("lower", "higher")


def test_workloads_match_the_driver():
    benchmark = spec.load_benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(spec.WORKLOADS)
    for metric in benchmark["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def _span(name, parent, start, end, **attrs):
    return {"name": name, "parent": parent, "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_covered_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 0, 3.0, 6.0),  # overlaps a: the union is 1..6
        _span("a", 1, 2.0, 3.0),  # nested a inside a
        _span("c", None, 20.0, 21.5),
    ]
    own = layers.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(1.5)
    # self times add up to the root spans' wall, plus the 1.0 s in which
    # siblings a and b overlap (each is charged its own time)
    assert sum(own.values()) == pytest.approx(10.0 + 1.5 + 1.0)
    assert layers.inclusive(spans, "a") == pytest.approx(3.0)  # nested a not re-counted


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("experiments.table2", None, 0.0, 10.0),
        _span("runtime.map", 0, 0.5, 9.5, jobs=2),
        _span("runtime.job", 1, 1.0, 5.0),
        _span("l1filter.load", 2, 1.0, 1.5, records=100),
        _span("replay.baseline", 2, 1.5, 2.5, fast=True, probe=False, record=0, refs=400, l2_misses=7),
        _span("replay.chip", 2, 2.5, 5.0, fast=True, probe=False, record=0, refs=400,
              l2_accesses=100, l2_misses=6, migrations=2),
        _span("runtime.job", 1, 5.0, 9.0),
        _span("replay.chip", 6, 5.0, 6.0, fast=False, probe=True, record=0, refs=400,
              l2_accesses=100, l2_misses=5, migrations=1),
    ]
    m = layers.layer_metrics(spans, {"runtime.jobs": 2, "obs.fast_replay_s": 0.5})
    assert m["experiments.table2_s"] == pytest.approx(10.0)
    assert m["runtime.overhead_s"] == pytest.approx(9.0 - 8.0)
    assert m["l1filter.load_s"] == pytest.approx(0.5)
    assert m["replay.chip_s"] == pytest.approx(3.5)
    assert m["replay.first_s"] == pytest.approx(2.5)
    assert m["replay.repeat_s"] == pytest.approx(1.0)
    assert m["replay.refs"] == 1200
    assert m["replay.refs_per_s"] == pytest.approx(1200 / 4.5)
    assert m["replay.fast_ratio"] == pytest.approx(2 / 3)
    assert m["chip.l2_misses"] == 11 and m["chip.migrations"] == 3
    assert m["baseline.l2_misses"] == 7
    assert m["obs.replay_s"] == pytest.approx(1.0)
    assert m["obs.slowdown"] == pytest.approx(2.0)
    assert m["runtime.jobs"] == 2


def test_layer_metrics_cover_benchmark_json():
    measured_by_parent = {"trace_overhead", "obs.artifact_mb"}
    names = set(layers.layer_metrics([], {})) | measured_by_parent
    assert names == {m["name"] for m in spec.load_benchmark()["per_layer"]}


STDOUT = """\
Table 2: 4-core / 512-KB L2s — instructions per event (higher is better)
========================================================================
benchmark | L1 miss | L2 miss | 4xL2 miss | ratio | migration | breakeven Pmig
----------+---------+---------+-----------+-------+-----------+---------------
179.art   | 9       | 9       | 11        | 0.84  | 18,363    | 319

Variant sweep over one L1-filter record — 179.art
record loads: 1 (sources: 3× inherited; 2.75s wall)
"""


def test_rows_drop_rules_and_host_time():
    rows = rowcheck.rendered_rows(STDOUT)
    assert rows[-1] == "record loads: 1 (sources: 3× inherited)"
    assert not any(set(row) <= set("=-+| ") for row in rows)
    slower = STDOUT.replace("2.75s wall", "3.10s wall")
    assert rowcheck.rendered_rows(slower) == rows


def test_row_check_rejects_a_one_count_perturbation():
    runlog = [
        {"event": "started", "label": "table2/179.art"},
        {"event": "finished", "label": "table2/179.art", "references": 80000},
    ]
    rows = rowcheck.rendered_rows(STDOUT) + rowcheck.job_rows(runlog)
    expected = [rowcheck.digest(row) for row in rows]
    assert rowcheck.mismatches(rows, expected) == 0
    assert rowcheck.references(rows) == 80000

    perturbed = rowcheck.rendered_rows(STDOUT.replace("18,363", "18,364")) + rowcheck.job_rows(runlog)
    assert rowcheck.mismatches(perturbed, expected) == 1
    runlog[1]["references"] += 1
    recounted = rowcheck.rendered_rows(STDOUT) + rowcheck.job_rows(runlog)
    assert rowcheck.mismatches(recounted, expected) == 1
    assert rowcheck.mismatches(rows[:-1], expected) == 1


def test_recorded_digests_round_trip(tmp_path):
    path = tmp_path / "digests.json"
    rows = ["a", "b"]
    rowcheck.record_digests("paper-cold", 3, rows, path)
    rowcheck.record_digests("paper-cold", 1, rows[:1], path)
    assert list(rowcheck.load_digests(path)["paper-cold"]) == ["1", "3"]
    assert rowcheck.mismatches(rows, rowcheck.expected_digests("paper-cold", 3, path)) == 0
    assert rowcheck.expected_digests("paper-cold", 2, path) is None


def test_scaled_time_excludes_the_probe_and_applies_host_speed():
    import run

    reference = run.REFERENCE_PROBE_S
    at_reference = {"probe_median_s": reference, "probe_total_s": 0.05}
    assert run.scaled(5.05, at_reference) == pytest.approx(5.0)
    half_speed = {"probe_median_s": 2 * reference, "probe_total_s": 0.1}
    assert run.scaled(10.1, half_speed) == pytest.approx(5.0)
    with pytest.raises(run.BenchError):
        run.scaled(1.0, {"probe_median_s": 0.0, "probe_total_s": 0.0})


def test_aa_gap_counts_either_direction():
    import steady

    assert steady.gap(10.0, 13.0) == pytest.approx(0.3)
    assert steady.gap(10.0, 7.0) == pytest.approx(0.3)
    assert steady.gap(10.0, 10.0) == 0.0
