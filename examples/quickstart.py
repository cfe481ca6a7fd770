#!/usr/bin/env python
"""Quickstart: profile a layer, see the staircase, prune performance-aware.

This walks through the library's main workflow on a single ResNet-50
layer (the paper's layer 16) using the canonical ``repro.api`` facade:

1. open a :class:`Session` and pick a :class:`Target` — here the Arm
   Compute Library GEMM path on a HiKey 970,
2. profile the layer's latency across channel counts (the session's
   runner memoises the measurements, so repeating it simulates nothing),
3. analyse the staircase and find the step-optimal channel counts,
4. submit a serializable :class:`PruningRequest` and compare the
   performance-aware strategy with the uninstructed baseline,
5. describe the multi-target fan-out as a declarative, JSON-round-trip
   :class:`Plan`, execute it, and replay it from
   an on-disk profile store with zero new simulations.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import Plan, PruningRequest, Session, Target


def main() -> None:
    # 1. One session, one target.  Aliases work: Target("hikey", "acl").
    session = Session()
    target = Target("hikey-970", "acl-gemm", runs=5)
    network = session.network("resnet50")
    layer = network.conv_layer(16).spec
    print(f"Target: {target.label}  ({target.device_spec.board})")
    print(f"Layer: {layer.name}  ({layer.out_channels} filters, "
          f"{layer.kernel_size}x{layer.kernel_size}, {layer.input_hw}x{layer.input_hw} input)")

    # 2. Profile it.  The runner memoises measurements, so the second call
    #    simulates nothing — check the simulation count.
    profile = session.profile_layer(target, layer, layer_index=16)
    simulated = session.simulation_count()
    session.profile_layer(target, layer, layer_index=16)
    print(f"\nSimulated configurations: {simulated} after the first profile, "
          f"{session.simulation_count()} after the second")

    print("\nLatency vs channel count (every 8th point):")
    counts, times = profile.table.as_series()
    for count, time_ms in list(zip(counts, times))[::8]:
        bar = "#" * int(time_ms)
        print(f"  {count:>4} channels  {time_ms:>7.2f} ms  {bar}")

    # 3. Staircase analysis: where are the steps, which counts are optimal?
    analysis = profile.analysis
    print(f"\nDistinct latency levels: {analysis.level_count}")
    print(f"Largest step ratio: {analysis.max_step_ratio:.2f}x")
    print(f"Step-optimal channel counts (top 6): {profile.optimal_channel_counts[-6:]}")

    # 4. Naive vs performance-aware pruning of ~28% of the filters (the
    #    naive target, 92 channels, sits just past a performance step), as a
    #    serializable job.  The request would survive a trip through a
    #    queue: PruningRequest.from_json(request.to_json()) == request.
    request = PruningRequest(
        "resnet50", target, fraction=0.28, layer_indices=(16,), sweep_step=1
    )
    comparison = session.compare(request)
    aware = comparison["performance-aware"]
    naive = comparison["uninstructed"]
    original_time = profile.original_time_ms
    print(f"\nOriginal layer:            128 channels  {original_time:7.2f} ms")
    print(f"Uninstructed pruning:      {naive.channels[16]:>3} channels  "
          f"{naive.latency_ms:7.2f} ms ({naive.speedup:.2f}x vs original)")
    print(f"Performance-aware choice:  {aware.channels[16]:>3} channels  "
          f"{aware.latency_ms:7.2f} ms ({aware.speedup:.2f}x vs original)")
    print(f"Latency advantage: {comparison.latency_advantage:.2f}x")
    print("\nThe naive choice lands on the slow staircase (an extra GPU job is "
          "dispatched for the GEMM remainder); the performance-aware choice keeps "
          "more channels *and* runs faster.")

    # 5. Declarative plans and resumability.  A Plan is a
    #    JSON-serializable job graph (Plan.from_json(plan.to_json()) ==
    #    plan, so it can travel to `repro-experiments run-plan` or a
    #    service queue); Session.execute runs its steps in plan order,
    #    here or inside a service, with bitwise-identical results
    #    either way.  With store=PATH every
    #    measurement checkpoints to disk, so re-executing the same plan
    #    (here: a "new process") simulates nothing.
    plan = Plan()
    fanout = plan.sweep(
        [target, Target("jetson-tx2", "cudnn", runs=5)], layer, sweep_step=8
    )
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "profiles"
        warm = Session(store=store_path)
        warm.execute(plan, executor="serial")
        cold = Session(store=store_path)  # a "new process"
        sweep = cold.execute(plan, executor="serial")[fanout.id]
        print(f"\nPlan step '{fanout.id}' across {len(sweep.targets)} targets "
              f"({len(sweep)} measured points), replayed from the store with "
              f"{cold.simulation_count()} new simulations:")
        for line in sweep.format().splitlines():
            print(f"  {line}")


if __name__ == "__main__":
    main()
