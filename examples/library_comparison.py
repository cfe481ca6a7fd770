#!/usr/bin/env python
"""Compare how each library responds to channel pruning of the same layer.

Section V of the paper concludes that "no optimal library exists to
outperform across all neural network layers".  This example describes
the six-target sweep of one ResNet-50 layer as a declarative
:class:`Plan` and runs it with ``Session.execute`` (each target's sweep
is one vectorized simulator batch) — then reports, for each target:
the latency at the original size, the best achievable speedup, the
worst slowdown risked, and how many distinct latency levels the
staircase has.  (Submitted to a service with ``repro-experiments
submit``, the tables are bitwise identical.)

Run with ``python examples/library_comparison.py [layer_index]``.
"""

from __future__ import annotations

import sys

from repro.api import Plan, Session, Target

TARGETS = (
    Target("jetson-tx2", "cudnn", runs=3),
    Target("jetson-nano", "cudnn", runs=3),
    Target("hikey-970", "acl-gemm", runs=3),
    Target("hikey-970", "acl-direct", runs=3),
    Target("hikey-970", "tvm", runs=3),
    Target("odroid-xu4", "acl-gemm", runs=3),
)


def main() -> None:
    layer_index = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    session = Session()
    network = session.network("resnet50")
    ref = network.conv_layer(layer_index)
    spec = ref.spec
    print(f"Layer {ref.label}: {spec.out_channels} filters, "
          f"{spec.kernel_size}x{spec.kernel_size}, input {spec.input_hw}x{spec.input_hw}\n")
    header = (f"{'target':>24} {'orig ms':>9} {'best ms':>9} {'best x':>7} "
              f"{'worst x':>8} {'levels':>7}")
    print(header)
    print("-" * len(header))

    # One plan step fans the layer across every target; each target's
    # whole sweep goes through one vectorized simulator call before the
    # step assembles the table.
    plan = Plan()
    step = plan.sweep(TARGETS, spec, sweep_step=2)
    sweep = session.execute(plan, executor="serial")[step.id]
    for target in TARGETS:
        profile = sweep.profile(target, spec.name)
        _, times = profile.table.as_series()
        original = profile.original_time_ms
        best, worst = min(times), max(times)
        print(f"{target.label:>24} {original:>9.2f} {best:>9.2f} "
              f"{original / best:>7.2f} {original / worst:>8.2f} "
              f"{profile.analysis.level_count:>7}")

    print("\n'best x' is the speedup of the best pruning level; 'worst x' below 1.0 "
          "means some pruning levels are slower than the unpruned layer "
          "(the hazard the paper warns about).")


if __name__ == "__main__":
    main()
