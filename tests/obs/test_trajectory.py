"""The perf-trajectory gate: metric gating rules, the pure comparison
core, and the CLI against a real (temporary) git history — including
the must-fail path on a synthetic regression."""

import json
import subprocess

import pytest

from repro.obs.trajectory import (
    build_report,
    compare_metrics,
    find_baselines,
    flatten_numeric,
    is_gated,
    main,
    render_markdown,
    workload_context,
)


class TestGatingRules:
    def test_throughput_paths_are_gated(self):
        assert is_gated("filtered_speedup")
        assert is_gated("speedup.l2_only")
        assert is_gated("refs_per_sec.filtered")

    def test_specialized_and_population_keys_are_gated(self):
        # The BENCH_throughput.json keys of the specialized replay and
        # population sweep paths must ride the existing gate.
        assert is_gated("specialized_speedup")
        assert is_gated("population_speedup")
        assert is_gated("refs_per_sec.specialized")
        assert is_gated("refs_per_sec.per_access")
        # ...while their cost-accounting side-cars stay ungated noise.
        assert not is_gated("specialized_cold_sec")
        assert not is_gated("l1_filter_build_sec")

    def test_noise_and_context_paths_are_not(self):
        assert not is_gated("elapsed_s")
        assert not is_gated("overhead_pct")
        assert not is_gated("jobs")
        # `refs_per_sec` gates only as the *top* segment.
        assert not is_gated("debug.refs_per_sec")

    def test_flatten_skips_bools_and_strings(self):
        flat = flatten_numeric(
            {"a": {"b": 2, "flag": True}, "workload": "mst", "c": 1.5}
        )
        assert flat == {"a.b": 2.0, "c": 1.5}

    def test_workload_context(self):
        assert workload_context({"workload": "mst, scale=0.5"}) == "mst, scale=0.5"
        assert workload_context({"no": 1}) == ""
        assert workload_context([1]) == ""


class TestCompareMetrics:
    HISTORY = [
        ("c2", {"workload": "w", "refs_per_sec": {"x": 100.0}, "elapsed_s": 7}),
        ("c1", {"workload": "w", "refs_per_sec": {"x": 90.0}}),
    ]

    def test_regression_beyond_threshold_fails_gate(self):
        (entry,) = compare_metrics(
            {"refs_per_sec.x": 79.0}, "w", "BENCH_t.json", self.HISTORY
        )
        assert entry.baseline == 100.0
        assert entry.baseline_commit == "c2"
        assert entry.delta_pct == pytest.approx(-0.21)
        assert entry.regressed

    def test_drop_within_threshold_passes(self):
        (entry,) = compare_metrics(
            {"refs_per_sec.x": 95.0}, "w", "BENCH_t.json", self.HISTORY
        )
        assert not entry.regressed

    def test_ungated_metric_never_regresses(self):
        (entry,) = compare_metrics(
            {"elapsed_s": 700.0}, "w", "BENCH_t.json", self.HISTORY
        )
        assert entry.baseline == 7
        assert not entry.regressed

    def test_context_mismatch_means_no_baseline(self):
        # Same file re-measured at another scale: history exists but
        # must never be compared against.
        (entry,) = compare_metrics(
            {"refs_per_sec.x": 1.0}, "other-scale", "BENCH_t.json", self.HISTORY
        )
        assert entry.baseline is None
        assert not entry.regressed
        assert len(entry.history) == 2  # still reported for the table

    def test_baseline_skips_foreign_context_commits(self):
        history = [
            ("c3", {"workload": "other", "refs_per_sec": {"x": 5.0}}),
            *self.HISTORY,
        ]
        (entry,) = compare_metrics(
            {"refs_per_sec.x": 99.0}, "w", "BENCH_t.json", history
        )
        assert entry.baseline == 100.0

    def test_improvement_is_fine(self):
        (entry,) = compare_metrics(
            {"refs_per_sec.x": 150.0}, "w", "BENCH_t.json", self.HISTORY
        )
        assert entry.delta_pct == pytest.approx(0.5)
        assert not entry.regressed


# -- CLI against a real throwaway git repo --------------------------------


def _run_git(*args, cwd):
    subprocess.run(
        ["git", *args],
        cwd=str(cwd),
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(cwd),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def bench_repo(tmp_path):
    """A git repo with one committed BENCH baseline at 100 refs/s."""
    _run_git("init", "-q", cwd=tmp_path)
    baseline = {
        "workload": "mst, scale=0.5",
        "refs_per_sec": {"filtered": 100.0},
        "filtered_speedup": 5.0,
        "elapsed_s": 60,
    }
    bench = tmp_path / "BENCH_throughput.json"
    bench.write_text(json.dumps(baseline), encoding="utf-8")
    _run_git("add", ".", cwd=tmp_path)
    _run_git("commit", "-q", "-m", "baseline", cwd=tmp_path)
    return tmp_path


class TestCli:
    def test_unchanged_tree_passes_check(self, bench_repo, capsys):
        assert main([str(bench_repo), "--check"]) == 0
        assert "**OK**" in capsys.readouterr().out

    def test_synthetic_regression_fails_check(self, bench_repo, capsys):
        degraded = {
            "workload": "mst, scale=0.5",
            "refs_per_sec": {"filtered": 79.0},  # -21% vs committed 100
            "filtered_speedup": 5.0,
            "elapsed_s": 60,
        }
        (bench_repo / "BENCH_throughput.json").write_text(
            json.dumps(degraded), encoding="utf-8"
        )
        assert main([str(bench_repo), "--check"]) == 1
        out = capsys.readouterr().out
        assert "**REGRESSED**" in out
        assert "refs_per_sec.filtered" in out

    def test_without_check_regression_only_reports(self, bench_repo):
        (bench_repo / "BENCH_throughput.json").write_text(
            json.dumps({"workload": "mst, scale=0.5", "refs_per_sec": {"filtered": 1.0}}),
            encoding="utf-8",
        )
        assert main([str(bench_repo)]) == 0

    def test_threshold_is_configurable(self, bench_repo):
        degraded = {
            "workload": "mst, scale=0.5",
            "refs_per_sec": {"filtered": 95.0},  # -5%
        }
        (bench_repo / "BENCH_throughput.json").write_text(
            json.dumps(degraded), encoding="utf-8"
        )
        assert main([str(bench_repo), "--check"]) == 0
        assert main([str(bench_repo), "--check", "--threshold", "0.02"]) == 1

    def test_measured_overlay_matches_by_basename(self, bench_repo, tmp_path):
        fresh = tmp_path / "fresh" / "BENCH_throughput.json"
        fresh.parent.mkdir()
        fresh.write_text(
            json.dumps(
                {"workload": "mst, scale=0.5", "refs_per_sec": {"filtered": 70.0}}
            ),
            encoding="utf-8",
        )
        assert (
            main([str(bench_repo), "--check", "--measured", str(fresh)]) == 1
        )

    def test_measured_at_other_scale_never_gates(self, bench_repo, tmp_path):
        # CI measures at a smaller scale than the committed baseline:
        # contexts differ, so even a huge drop is report-only.
        fresh = tmp_path / "BENCH_throughput.json"
        fresh.write_text(
            json.dumps(
                {"workload": "mst, scale=0.2", "refs_per_sec": {"filtered": 1.0}}
            ),
            encoding="utf-8",
        )
        assert (
            main([str(bench_repo), "--check", "--measured", str(fresh)]) == 0
        )

    def test_writes_markdown_and_json_reports(self, bench_repo, tmp_path):
        md = tmp_path / "trajectory.md"
        js = tmp_path / "trajectory.json"
        assert (
            main(
                [
                    str(bench_repo),
                    "--markdown",
                    str(md),
                    "--json",
                    str(js),
                ]
            )
            == 0
        )
        assert "Performance trajectory" in md.read_text(encoding="utf-8")
        report = json.loads(js.read_text(encoding="utf-8"))
        assert report["ok"] is True
        assert report["gated_metrics"] == 2
        assert report["compared_metrics"] == 3

    def test_no_baselines_is_a_pass(self, tmp_path, capsys):
        assert main([str(tmp_path), "--check"]) == 0
        assert "no BENCH_" in capsys.readouterr().err


class TestReportAssembly:
    def test_find_baselines_checks_benchmarks_subdir(self, tmp_path):
        (tmp_path / "BENCH_a.json").write_text("{}", encoding="utf-8")
        sub = tmp_path / "benchmarks"
        sub.mkdir()
        (sub / "BENCH_b.json").write_text("{}", encoding="utf-8")
        names = [p.name for p in find_baselines(tmp_path)]
        assert names == ["BENCH_a.json", "BENCH_b.json"]
        # Pointing straight at benchmarks/ must not double-count.
        assert [p.name for p in find_baselines(sub)] == ["BENCH_b.json"]

    def test_markdown_marks_gate_columns(self, tmp_path):
        bench = tmp_path / "BENCH_x.json"
        bench.write_text(
            json.dumps({"workload": "w", "refs_per_sec": {"x": 1.0}, "n": 2}),
            encoding="utf-8",
        )
        report = build_report([bench])  # no git history here
        text = render_markdown(report)
        assert "no baseline" in text
        assert "info" in text
