"""One fresh interpreter of the benchmark (started by ``run.py``).

``child.py setup OUT WORKLOAD SEED``
    Import the CLI and, for a warm workload, build its L1-filter
    sidecars into ``$REPRO_CACHE_DIR``.  The parent times the whole
    process: that is the benchmark's set-up.

``child.py run OUT STDOUT [--trace] -- <run_all arguments>``
    Import the CLI, then time ``run_all.main`` with its stdout sent to
    the file STDOUT, and write the wall time, exit code and peak RSS
    (plus spans with ``--trace``) to the JSON file OUT.

Both modes run their work under a :class:`SpeedProbe` and write its
summary to OUT, so the parent can scale each time to a fixed host speed.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stdout

import spec

#: CPU seconds between two probe samples (about 1 % of the run)
PROBE_INTERVAL_S = 0.02
PROBE_STEPS = 2000


class SpeedProbe:
    """Samples how fast the host runs interpreter code *while* a timed
    interval runs.

    On a shared host the speed of a vCPU swings by tens of percent from
    one second to the next, so a calibration before or after the
    interval does not show the speed during it.  Every
    ``PROBE_INTERVAL_S`` of CPU time a ``SIGVTALRM`` handler times a
    fixed piece of arithmetic (about 0.2 ms); the median of those
    samples is the interval's host speed, and their sum is time the
    interval did not spend on its own work.
    """

    def __init__(self) -> None:
        self.samples: "list[float]" = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_STEPS):
            total += i * i % 7
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def summary(self) -> "dict[str, float]":
        return {
            "probe_median_s": statistics.median(self.samples) if self.samples else 0.0,
            "probe_total_s": sum(self.samples),
        }


def _write(out: str, result: "dict[str, object]") -> None:
    with open(out, "w") as handle:
        json.dump(result, handle)


def setup(out: str, workload: str, seed: int) -> None:
    with SpeedProbe() as probe:
        import repro.experiments.run_all  # noqa: F401 - the CLI's imports

        work = spec.WORKLOADS[workload]
        if work.warm:
            from repro.kernels.l1filter import ensure_l1_filter

            for name in work.traces:
                ensure_l1_filter(name, scale=work.scale, seed=seed)
    _write(out, probe.summary())


def run(out: str, stdout: str, trace: bool, argv: "list[str]") -> None:
    from repro.experiments import run_all

    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    with open(stdout, "w") as sink, redirect_stdout(sink), SpeedProbe() as probe:
        start = time.perf_counter()
        code = run_all.main(argv)
        wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "exit_code": code,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **probe.summary(),
    }
    if tracer is not None:
        tracer.counters["obs.fast_replay_s"] = layers.fast_replay_seconds(tracer)
        result.update(tracer.dump())
    _write(out, result)


def main(argv: "list[str]") -> int:
    if argv[0] == "setup":
        setup(argv[1], argv[2], int(argv[3]))
        return 0
    if argv[0] == "run":
        split = argv.index("--")
        run(argv[1], argv[2], "--trace" in argv[3:split], argv[split + 1 :])
        return 0
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
