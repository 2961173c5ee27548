"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` from the repository root.

Untraced (``--trace 0``): set up three times (a fresh interpreter
importing the CLI, plus the L1-filter sidecar builds on warm
workloads) and report the median as ``setup_s``; then run the workload
in a fresh interpreter, again and again, until ``--seconds`` have
passed (at least three runs), and report the medians of ``wall_s``,
``refs_per_s`` and ``peak_rss_mb``.

Traced (``--trace 1``): set up once, then alternate an untraced and a
traced run until ``--seconds`` have passed, and report the per-layer
metrics of the traced runs (medians) and ``trace_overhead``.

A shared host's speed swings by tens of percent within seconds and
minutes, so every reported time is scaled to a fixed host speed:
``child.SpeedProbe`` samples the speed while the interval runs, and the
interval (less the probe's own samples) is reported as
``host seconds * REFERENCE_PROBE_S / median probe sample``.  The
unscaled host times are printed beside the result.

Every run's rows are checked: against the previous runs of the same
invocation, traced or not, and against ``digests.json`` where it has
the seed.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero on
any failed job or row.  ``--record`` stores the rows' digests for a
seed that has none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
import rowcheck
import spec

SETUPS = 3
MIN_RUNS = 3
#: the whole command must end within 180 s
BUDGET_S = 170.0
HASH_SEED = "0"
#: median SpeedProbe sample on the reference host: a scaled time is what
#: the interval would take at that speed
REFERENCE_PROBE_S = 0.0002


class BenchError(Exception):
    pass


def scaled(host_s: float, probe: "dict[str, float]") -> float:
    """``host_s`` at the reference host speed, the probe's samples excluded."""
    if not probe["probe_median_s"]:
        raise BenchError("the speed probe took no sample")
    return (host_s - probe["probe_total_s"]) * REFERENCE_PROBE_S / probe["probe_median_s"]


@dataclass
class Run:
    wall_s: float  #: scaled to the reference host speed
    host_wall_s: float
    exit_code: int
    maxrss_kib: int
    rows: "list[str]"
    jobs: int
    failed_jobs: int
    artifact_mb: float = 0.0
    layer: "dict[str, float]" = field(default_factory=dict)


def _dir_mb(path: Path) -> float:
    if not path.is_dir():
        return 0.0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


class Bench:
    def __init__(self, workload: "spec.Workload", seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.cache = None

    def _env(self, cache: Path) -> "dict[str, str]":
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(spec.ROOT / "src"),
            PYTHONHASHSEED=HASH_SEED,
            REPRO_CACHE_DIR=str(cache),
            TMPDIR=str(self.tmp),
        )
        return env

    def _child(self, args: "list[str]", cwd: Path, cache: Path) -> float:
        """Run ``child.py`` to completion; its wall seconds."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        stderr = cwd / "stderr.txt"
        start = time.perf_counter()
        try:
            with open(stderr, "w") as err:
                proc = subprocess.run(
                    [sys.executable, str(spec.HERE / "child.py"), *args],
                    cwd=cwd,
                    env=self._env(cache),
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    timeout=remaining,
                )
        except subprocess.TimeoutExpired:
            raise BenchError("time budget exhausted") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            tail = stderr.read_text()[-2000:]
            raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{tail}")
        return elapsed

    def setup(self, index: int) -> "tuple[float, float]":
        """``(scaled, host)`` seconds of one set-up."""
        directory = self.work / f"setup-{index}"
        cache = directory / "cache"
        cache.mkdir(parents=True)
        out = directory / "result.json"
        elapsed = self._child(
            ["setup", str(out), self.workload.name, str(self.seed)], directory, cache
        )
        if self.workload.warm:
            self.cache = cache
        return scaled(elapsed, json.loads(out.read_text())), elapsed

    def run(self, index: int, trace: bool) -> Run:
        directory = self.work / f"run-{index}"
        directory.mkdir()
        cache = self.cache if self.workload.warm else directory / "cache"
        runlog, obs = directory / "runlog.jsonl", directory / "obs"
        out, stdout = directory / "result.json", directory / "stdout.txt"
        argv = self.workload.argv(self.seed, cache, runlog, obs)
        args = ["run", str(out), str(stdout)] + (["--trace"] if trace else [])
        self._child(args + ["--", *argv], directory, cache)
        result = json.loads(out.read_text())
        events = [json.loads(line) for line in runlog.read_text().splitlines() if line]
        run = Run(
            wall_s=scaled(result["wall_s"], result),
            host_wall_s=result["wall_s"],
            exit_code=result["exit_code"],
            maxrss_kib=result["maxrss_kib"],
            rows=rowcheck.rendered_rows(stdout.read_text()) + rowcheck.job_rows(events),
            jobs=sum(e["event"] == "started" for e in events),
            failed_jobs=sum(e["event"] == "failed" for e in events),
            artifact_mb=_dir_mb(obs),
        )
        if trace:
            run.layer = layers.layer_metrics(result["spans"], result["counters"])
            run.layer["obs.artifact_mb"] = run.artifact_mb
        shutil.rmtree(directory)
        return run


def _check_rows(runs: "list[Run]", expected: "list[str] | None") -> "tuple[int, int]":
    """``(rows checked, rows failed)``: every run against the first, and
    the first against the recorded digests."""
    reference = runs[0].rows
    checked = sum(len(run.rows) for run in runs)
    failed = sum(rowcheck.differing(run.rows, reference) for run in runs[1:])
    if expected is not None:
        checked += len(expected)
        failed += rowcheck.mismatches(reference, expected)
    return checked, failed


def measure(args, work: Path) -> "tuple[dict[str, float], list[Run], list[tuple[float, float]]]":
    workload = spec.WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, work, time.monotonic() + BUDGET_S)
    setups = [bench.setup(i) for i in range(1 if args.trace else SETUPS)]
    runs: "list[Run]" = []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < args.seconds:
        runs.append(bench.run(len(runs), trace=bool(args.trace) and len(runs) % 2 == 1))
    if args.trace:
        untraced, traced = runs[0::2], runs[1::2]
        metrics = {
            name: median([run.layer[name] for run in traced]) for name in traced[0].layer
        }
        metrics["trace_overhead"] = median([r.wall_s for r in traced]) / median(
            [r.wall_s for r in untraced]
        )
        return metrics, runs, setups
    wall = median([run.wall_s for run in runs])
    metrics = {
        "wall_s": wall,
        "refs_per_s": rowcheck.references(runs[0].rows) / wall,
        "setup_s": median([scaled_s for scaled_s, _ in setups]),
        "peak_rss_mb": median([run.maxrss_kib for run in runs]) / 1024,
    }
    return metrics, runs, setups


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this seed's row digests if none are recorded",
    )
    args = parser.parse_args(argv)
    if not (spec.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {spec.ROOT}", file=sys.stderr)
        return 2
    work = spec.ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, runs, setups = measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected = rowcheck.expected_digests(args.workload, args.seed)
    rows_checked, rows_failed = _check_rows(runs, expected)
    attempted = sum(run.jobs for run in runs) + rows_checked
    failed = (
        sum(run.failed_jobs for run in runs)
        + sum(run.exit_code != 0 for run in runs)
        + rows_failed
    )
    record = args.record and expected is None and failed == 0
    if record:
        rowcheck.record_digests(args.workload, args.seed, runs[0].rows)

    units = spec.metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    digest_note = "checked" if expected else ("recorded" if record else "not recorded")
    print(
        f"{args.workload} seed={args.seed} runs={len(runs)} "
        f"setups={len(setups)} digests={digest_note} "
        f"host_wall_s={median([run.host_wall_s for run in runs]):.4g} "
        f"host_setup_s={median([host for _, host in setups]):.4g}"
    )
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} failed_ratio {failed / attempted:.6g} 1")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
