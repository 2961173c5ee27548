"""The benchmark's workloads and metric definitions.

Every workload is one single-process (``--jobs 1``) invocation of the
public CLI ``python -m repro.experiments.run_all`` over the same trace
set.  ``README.md`` in this directory says why each one exists and
which layer it stresses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: splittable SPEC models (nearly every reference misses L1, migrations
#: fire) and Olden programs (low L1 miss ratio, traces made by running
#: the program)
TRACE_SET = ("179.art", "181.mcf", "em3d", "mst")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    traces: "tuple[str, ...]"
    #: run_all flags beyond the shared ones
    flags: "tuple[str, ...]" = ()
    #: build the L1-filter sidecars during set-up (and keep the cache
    #: across repetitions) instead of starting every run from an empty
    #: cache dir
    warm: bool = False
    #: pass a fresh ``--obs DIR`` to every run
    obs: bool = False

    def argv(self, seed: int, cache_dir: Path, runlog: Path, obs_dir: Path) -> "list[str]":
        """run_all's arguments; ``seed`` is the only input that varies."""
        argv = [
            "--scale", repr(self.scale),
            "--jobs", "1",
            "--quiet",
            "--seed", str(seed),
            "--workloads", *self.traces,
            "--cache-dir", str(cache_dir),
            "--runlog", str(runlog),
            *self.flags,
        ]
        if self.obs:
            argv += ["--obs", str(obs_dir)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-cold", 0.005, TRACE_SET),
        Workload(
            "sweep-warm",
            0.025,
            ("179.art", "181.mcf"),
            flags=("--population", "--no-cache"),
            warm=True,
        ),
        Workload(
            "table2-obs",
            0.005,
            TRACE_SET,
            flags=("--only", "table2", "--no-cache"),
            warm=True,
            obs=True,
        ),
    )
}


def load_benchmark() -> "dict[str, object]":
    return json.loads(BENCHMARK_JSON.read_text())


def metric_units(section: str) -> "dict[str, str]":
    """``{name: unit}`` of one BENCHMARK.json metric section."""
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}
