"""Steadiness harness for the benchmark.

Spread (default): run every workload once per seed, interleaving the
workloads run by run, and print each end-to-end metric's median,
quartiles and spread (interquartile distance over the median) next to
its bound::

    python3 perfbench/steady.py --seeds 1-10

A/A (``--aa``): run two sets of the same code, interleaved and
alternating which set goes first, and print per metric and workload
the gap between the two medians (``|m2 - m1| / m1``, either direction)
next to its bound::

    python3 perfbench/steady.py --aa --seeds 1-10

Layers (``--layers FILE``): run every workload traced once at the first
seed and write the machine, the per-layer metrics and each layer's
share of the traced time to FILE::

    python3 perfbench/steady.py --layers perfbench/machine.json --seeds 1

Children run with a fixed ``PYTHONHASHSEED``; their stdout is discarded
but for the result line.  ``--record`` passes through to ``run.py`` and
stores the row digests of each seed that has none.  The exit code is
non-zero when a run fails or any spread or gap exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

#: layer time metrics whose shares of the traced time the layer table
#: shows; sweep.overhead_s and runtime.overhead_s contain other layers'
#: calls, so the shares need not add up to 1
SHARE_METRICS = (
    "traces.busy_s",
    "filters.busy_s",
    "stack.busy_s",
    "l1filter.build_s",
    "l1filter.load_s",
    "replay.chip_s",
    "replay.baseline_s",
    "sweep.overhead_s",
    "runtime.cache_put_s",
    "runtime.overhead_s",
    "obs.aggregate_s",
)


def shares(values: "dict[str, float]") -> "dict[str, dict[str, float]]":
    """Each experiment's and each layer's share of the traced time (the
    sum of the experiment spans) of one traced run."""
    experiments = {k: v for k, v in values.items() if k.startswith("experiments.") and v}
    traced = sum(experiments.values())
    return {
        "experiment_share": {k: v / traced for k, v in experiments.items()},
        "layer_share": {k: values[k] / traced for k in SHARE_METRICS if values[k]},
    }


def parse_seeds(text: str) -> "list[int]":
    seeds: "list[int]" = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(label: str, workload: str, seed: int, seconds: int, trace: int, record: bool):
    """One ``run.py`` invocation: its result object, or ``None``."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--record"] if record else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=spec.ROOT, env=env, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed={seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  {label}:{workload} seed={seed} ({elapsed:.0f}s) " + " ".join(
        f"{name}={value:.4g}" for name, value in values.items()
    ), flush=True)
    return values


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def gap(first: float, second: float) -> float:
    """How far ``second`` is from ``first``, either way, as a share of it."""
    return abs(second - first) / first


def collect(sets, workloads, seeds, seconds, record):
    """``results[set_index][workload][metric] -> values``, interleaved."""
    results = [{w: {} for w in workloads} for _ in range(sets)]
    failures = 0
    for i, seed in enumerate(seeds):
        order = list(range(sets))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for index in order:
                values = run_once(f"set{index + 1}", workload, seed, seconds, 0, record)
                if values is None:
                    failures += 1
                    continue
                for name, value in values.items():
                    results[index][workload].setdefault(name, []).append(value)
    return results, failures


def main(argv: "list[str] | None" = None) -> int:
    benchmark = spec.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--aa", action="store_true", help="run two sets and compare their medians")
    parser.add_argument("--record", action="store_true", help="store row digests of seeds that have none")
    parser.add_argument("--layers", type=Path, default=None, help="write the traced layer table here")
    args = parser.parse_args(argv)

    if args.layers:
        return write_layers(args)
    sets = 2 if args.aa else 1
    results, failures = collect(sets, args.workloads, args.seeds, args.seconds, args.record)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    bad = failures
    for index in range(sets):
        print(f"\nset {index + 1}: spread over {len(args.seeds)} seeds")
        bad += _print_spreads(results[index], metrics)
    if args.aa:
        print("\nA/A: |second median - first median| / first median vs bound")
        for workload in args.workloads:
            for name, metric in metrics.items():
                first = results[0][workload].get(name)
                second = results[1][workload].get(name)
                if not first or not second:
                    continue
                share = gap(statistics.median(first), statistics.median(second))
                verdict = "ok" if share <= metric["bound"] else "APART"
                bad += verdict != "ok"
                print(f"{workload:12s} {name:12s} {share:8.4f} {metric['bound']:6.3f} {verdict}")
    return 1 if bad else 0


def _print_spreads(table, metrics) -> int:
    bad = 0
    print(f"{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, values_by_metric in table.items():
        for name, metric in metrics.items():
            values = values_by_metric.get(name, [])
            if len(values) < 2:
                continue
            median, q1, q3, share = spread(values)
            bound = metric["bound"]
            verdict = "steady" if share < bound / 3 else "within" if share <= bound else "NOISY"
            bad += verdict == "NOISY"
            print(f"{workload:12s} {name:12s} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bound:6.3f} {verdict}")
    return bad


def write_layers(args) -> int:
    import numpy

    seed = args.seeds[0]
    table = {}
    for workload in args.workloads:
        values = run_once("traced", workload, seed, args.seconds, 1, False)
        if values is None:
            return 1
        table[workload] = {"metrics": values, **shares(values)}
    document = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "seed": seed,
        "run_seconds": args.seconds,
        "traced": table,
    }
    args.layers.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
