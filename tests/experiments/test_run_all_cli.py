"""The run_all command-line driver."""

import pytest

from repro.experiments.run_all import main


class TestCli:
    def test_speedups_experiment(self, capsys):
        assert main(
            [
                "--only", "speedups",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Projected speedup" in out
        assert "bisort" in out

    def test_multiple_only_flags(self, capsys):
        assert main(
            [
                "--only", "table1",
                "--only", "speedups",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Projected speedup" in out

    def test_summary_line_on_success(self, capsys):
        assert main(
            [
                "--only", "table1",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "run_all: 1/1 experiments ok" in err
        assert "cache hits" in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--only", "nonsense"])

    def test_unknown_workload_fails_with_nonzero_exit(self, capsys):
        assert main(
            ["--only", "table1", "--workloads", "nope", "--no-cache", "--quiet"]
        ) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err

    def test_profile_flag_dumps_per_job_stats(self, capsys, tmp_path):
        import pstats

        runlog = tmp_path / "events.jsonl"
        assert main(
            [
                "--only", "table2",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
                "--runlog", str(runlog),
                "--profile",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "[profile]" in err
        dumps = list((tmp_path / "profiles").glob("table2-bisort-*.prof"))
        assert len(dumps) == 1
        # the dump is a loadable cProfile stats file
        stats = pstats.Stats(str(dumps[0]))
        assert stats.total_calls > 0

    def test_profile_with_obs_dir(self, capsys, tmp_path):
        obs = tmp_path / "obs"
        assert main(
            [
                "--only", "table2",
                "--workloads", "bisort",
                "--scale", "0.05",
                "--no-cache", "--quiet",
                "--obs", str(obs),
                "--profile",
            ]
        ) == 0
        assert list((obs / "profiles").glob("*.prof"))

    def test_cache_dir_holds_sidecars_and_trace_memos(
        self, capsys, tmp_path, monkeypatch
    ):
        import os

        from repro.runtime.cache import CACHE_DIR_ENV

        work = tmp_path / "work"
        work.mkdir()
        cache = tmp_path / "X"
        monkeypatch.chdir(work)
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert main(
            [
                "--only", "table2",
                "--workloads", "mst",
                "--scale", "0.005",
                "--jobs", "1",
                "--quiet",
                "--cache-dir", str(cache),
            ]
        ) == 0
        # nothing lands in the working directory's default cache root
        assert not (work / ".repro-cache").exists()
        assert list(cache.glob("*/*.l1f.npz"))
        # an in-process call leaves the default cache root as it was
        assert CACHE_DIR_ENV not in os.environ

    def test_each_main_call_gets_its_own_trace(self, capsys, tmp_path):
        import json
        import os

        before = dict(os.environ)
        trace_ids = []
        for run in ("first", "second"):
            runlog = tmp_path / f"{run}.jsonl"
            assert main(
                [
                    "--only", "table1",
                    "--workloads", "bisort",
                    "--scale", "0.05",
                    "--no-cache", "--quiet",
                    "--runlog", str(runlog),
                ]
            ) == 0
            ids = {
                json.loads(line)["trace_id"]
                for line in runlog.read_text().splitlines()
            }
            assert len(ids) == 1
            trace_ids.append(ids.pop())
            # an in-process call leaves the environment as it was
            assert dict(os.environ) == before
        assert trace_ids[0] != trace_ids[1]
