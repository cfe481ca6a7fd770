"""Benchmark entry point: one workload per process, one JSON line of results.

Usage, from the repository root::

    python3 perfbench/run.py --workload prune-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports its end-to-end
metrics; ``--trace 1`` makes one untraced and one traced pass and
reports the per-layer metrics of the traced one.  Every metric is
printed as ``<workload>/<metric> <value> <unit> (n=<samples>)``, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is non-zero
when any output differs from the committed digests.  ``--workload all``
runs each workload in its own process and prints all of their lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Layers whose self time counts as leaf work (no child spans of note).
LEAF_TIMES = (
    "libraries.plan", "gpusim.simulate", "runner.measure", "runner.noise",
    "store.lookup", "store.record", "staircase.analyze",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile_90(values: List[float]):
    """The 90th percentile, or ``None`` with fewer than ten samples beyond it."""

    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


class Run:
    """One workload in this process: set-up, timed passes, metrics.

    Every timed region is kept as (start, end) host times, so it can be
    rescaled by the speedometer once the run is over.
    """

    def __init__(self, name: str, seed: int, speed) -> None:
        from workloads import WORKLOADS, Gate

        self.workload = WORKLOADS[name](seed, Gate.load())
        self.gate = self.workload.gate
        self.speed = speed
        self.setups: List[Tuple[float, float]] = []
        self.tmp_dirs: List[Path] = []

    def fresh(self):
        """Set the workload up in a fresh temporary directory, timed."""

        TMP_ROOT.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=self.workload.name + "-", dir=TMP_ROOT))
        self.tmp_dirs.append(tmp)
        start = time.perf_counter()
        state = self.workload.setup(tmp)
        self.setups.append((start, time.perf_counter()))
        return state

    def set_up(self):
        state = self.fresh()
        for _ in range(self.workload.setup_repeats - 1):
            self.workload.close(state)
            state = self.fresh()
        return state

    def timed_pass(self, state, recorder=None) -> Tuple[Tuple[float, float], object]:
        gc.collect()
        start = time.perf_counter()
        result = self.workload.run_pass(state, recorder)
        return (start, time.perf_counter()), result

    def cleanup(self) -> None:
        for tmp in self.tmp_dirs:
            shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone


def measure(run: Run, seconds: float, imports: Tuple[float, float]):
    """Untraced passes for ``seconds``; end-to-end metrics and extra lines."""

    workload = run.workload
    state = run.set_up()
    passes: List[Tuple[float, float]] = []
    samples: Dict[str, List[float]] = defaultdict(list)
    simulations = 0
    try:
        while True:
            region, result = run.timed_pass(state)
            passes.append(region)
            simulations = result.simulations
            for name, values in result.samples.items():
                samples[name].extend(values)
            if region[1] - passes[0][0] >= seconds:
                break
            if workload.fresh_state_per_pass:
                workload.close(state)
                state = run.fresh()
    finally:
        workload.close(state)
    speed = run.speed
    speed.stop()
    walls = [speed.normalise(*region) for region in passes]
    setups = [speed.normalise(*region) for region in run.setups]
    metrics = {
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "setup_s": (speed.normalise(*imports) + statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    # Job latencies are rescaled by the speed over the whole pass.
    scale = statistics.median(
        normalised / (region[1] - region[0]) for normalised, region in zip(walls, passes)
    )
    extra = []
    for kind in ("read", "write"):
        values = [value * scale for value in samples.get(kind, ())]
        if values:
            extra.append((f"{kind}_p50_s", statistics.median(values), "s", len(values)))
            p90 = percentile_90(values)
            if p90 is not None:
                extra.append((f"{kind}_p90_s", p90, "s", len(values)))
    host_walls = [end - start for start, end in passes]
    host_setups = [end - start for start, end in run.setups]
    extra += [
        ("host_wall_s", statistics.median(host_walls), "s", len(host_walls)),
        ("host_setup_s", imports[1] - imports[0] + statistics.median(host_setups), "s",
         len(host_setups)),
        ("host_speed", scale, "ratio", len(speed.samples)),
        ("simulations_per_pass", simulations, "count", len(passes)),
    ]
    return metrics, extra


def trace(run: Run) -> Dict[str, tuple]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""

    from tracing import Recorder, install_layer_wrappers
    from repro.experiments.registry import available_experiments

    workload = run.workload
    state = run.fresh()
    try:
        untraced, _ = run.timed_pass(state)
        if workload.fresh_state_per_pass:
            workload.close(state)
            state = run.fresh()
        recorder = Recorder()
        recorder.job = workload.name
        install_layer_wrappers(recorder)
        try:
            traced, result = run.timed_pass(state, recorder)
        finally:
            recorder.uninstall()
    finally:
        workload.close(state)
    run.speed.stop()
    recorder.write(run.tmp_dirs[-1] / "trace.jsonl")

    counts = recorder.counts
    self_s = recorder.self_times()
    figures = result.figures
    samples = result.samples

    def count(name):
        return (counts.get(name, 0), "count")

    def seconds(span):
        return (self_s.get(span, 0.0), "s")

    def ratio(numerator, denominator):
        return (numerator / denominator if denominator else 0.0, "ratio")

    def summed(name):
        return (sum(samples.get(name, ())), "s")

    tables = len(recorder.tables)
    metrics = {
        "api.steps": count("api.steps"),
        "api.execute_s": seconds("api.execute"),
        "libraries.plan_calls": count("libraries.plan_calls"),
        "libraries.plan_s": seconds("libraries.plan"),
        "libraries.kernels": count("libraries.kernels"),
        "gpusim.simulate_calls": count("gpusim.simulate_calls"),
        "gpusim.configs": count("gpusim.configs"),
        "gpusim.simulate_s": seconds("gpusim.simulate"),
        "runner.measure_calls": count("runner.measure_calls"),
        "runner.simulations": count("runner.simulations"),
        "runner.measure_s": seconds("runner.measure"),
        "runner.noise_s": seconds("runner.noise"),
        "store.lookup_calls": count("store.lookup_calls"),
        "store.requested": count("store.requested"),
        "store.served": count("store.served"),
        "store.hit_ratio": ratio(counts.get("store.served", 0), counts.get("store.requested", 0)),
        "store.lookup_s": seconds("store.lookup"),
        "store.record_calls": count("store.record_calls"),
        "store.record_s": seconds("store.record"),
        "store.bytes": (figures.get("store.bytes", 0), "bytes"),
        "staircase.analyze_calls": count("staircase.analyze_calls"),
        "staircase.tables": (tables, "count"),
        "staircase.analyze_s": seconds("staircase.analyze"),
        "staircase.unique_ratio": ratio(tables, counts.get("staircase.analyze_calls", 0)),
        "perf_aware.snap_s": seconds("perf_aware.snap"),
        "service.submit_s": summed("service.submit"),
        "service.queue_wait_s": summed("service.queue_wait"),
        "service.job_run_s": summed("service.job_run"),
        "service.overhead_s": summed("service.overhead"),
        "service.jobstore_bytes": (figures.get("service.jobstore_bytes", 0), "bytes"),
    }
    for experiment_id in available_experiments():
        metrics[f"experiments.{experiment_id}_s"] = seconds(f"experiments.{experiment_id}")
    leaf = sum(self_s.get(name, 0.0) for name in LEAF_TIMES)
    overhead = run.speed.normalise(*traced) / run.speed.normalise(*untraced) - 1.0
    traced_wall = traced[1] - traced[0]
    metrics["obs.trace_overhead_ratio"] = (overhead, "ratio")
    metrics["obs.unattributed_s"] = (traced_wall - sum(self_s.values()), "s")
    metrics["obs.leaf_share"] = ratio(leaf, traced_wall)
    metrics["obs.traced_wall_s"] = (traced_wall, "s")
    metrics["obs.spans"] = (len(recorder.spans), "count")
    # One sample per metric: the traced pass.
    return {name: (value, unit, 1) for name, (value, unit) in metrics.items()}


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from speed import Speedometer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; available: "
              f"{sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    speed = Speedometer().start()
    started = time.perf_counter()
    import repro.api  # noqa: F401 - timed as part of set-up
    import repro.experiments.cli  # noqa: F401
    import repro.service.server  # noqa: F401

    imports = (started, time.perf_counter())
    spec = load_spec()
    run = Run(args.workload, args.seed, speed)
    try:
        if args.trace:
            values = trace(run)
            wanted = [entry["name"] for entry in spec["per_layer"]]
            extra = []
        else:
            values, extra = measure(run, args.seconds, imports)
            wanted = [entry["name"] for entry in spec["end_to_end"]]
    finally:
        speed.stop()
        run.cleanup()
    if set(values) != set(wanted):
        print(f"BENCHMARK.json lists {sorted(set(wanted) - set(values))} but the run "
              f"computes {sorted(set(values) - set(wanted))}", file=sys.stderr)
        return 2
    gate = run.gate
    fail_ratio = gate.failed / gate.attempted if gate.attempted else 1.0
    lines = [(name,) + values[name] for name in wanted]
    lines += extra
    lines.append(("fail_ratio", fail_ratio, "ratio", gate.attempted))
    for name, value, unit, samples in lines:
        print(f"{args.workload}/{name} {value:.6g} {unit} (n={samples})")
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": values[name][0], "unit": values[name][1]} for name in wanted
        },
    }))
    return 0 if gate.failed == 0 and gate.attempted > 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; every metric line, then one JSON
    result whose metrics are keyed ``<workload>/<metric>``."""

    status = 0
    totals = {"attempted": 0, "failed": 0}
    metrics = {}
    for name in [entry["name"] for entry in load_spec()["workloads"]]:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit status {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        metrics.update(
            (f"{name}/{metric}", entry) for metric, entry in result["metrics"].items()
        )
        status = status or child.returncode
    print(json.dumps({
        "correct": totals["failed"] == 0 and status == 0, **totals, "metrics": metrics,
    }))
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
