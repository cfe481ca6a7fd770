#!/usr/bin/env python
"""Drive the plan execution service end to end, in one process.

Boots a :class:`repro.service.ReproServer` on an ephemeral port, ships a
two-step plan (a cross-target sweep feeding a pruning job) to it with
:class:`repro.service.ServiceClient`, streams the NDJSON events as the
worker executes the steps, and fetches the finished job record — the
same flow as::

    repro-experiments serve --port 8765 --profile-store profiles
    repro-experiments submit plan.json --url http://127.0.0.1:8765 --watch

Submitting the identical plan a second time demonstrates the service's
resume path: every measurement is replayed from the profile store, so
the job reports zero new simulations and byte-identical results.
"""

import tempfile
from pathlib import Path

from repro.api import Plan, PruningRequest, Target
from repro.models import ConvLayerSpec
from repro.service import ReproServer, ServiceClient


def build_plan() -> Plan:
    targets = [Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn")]
    layer = ConvLayerSpec(
        name="service.demo.conv", in_channels=32, out_channels=48,
        kernel_size=3, stride=1, padding=1, input_hw=14,
    )
    plan = Plan()
    plan.sweep(targets, layer, sweep_step=4)
    plan.prune(
        PruningRequest("resnet50", targets[0], fraction=0.25,
                       layer_indices=(16,), sweep_step=8),
    )
    return plan


def run_once(client: ServiceClient, plan: Plan) -> dict:
    job = client.submit(plan)
    print(f"submitted {job['id']} ({len(job['steps'])} steps)")
    for event in client.iter_events(job["id"]):
        step = f" {event['step']}" if "step" in event else ""
        status = f" -> {event['status']}" if "status" in event else ""
        print(f"  {event['event']}{step}{status}")
    return client.job(job["id"])


def main() -> None:
    plan = build_plan()
    with tempfile.TemporaryDirectory() as scratch:
        store = Path(scratch) / "profiles"
        with ReproServer(profile_store=store) as server:
            client = ServiceClient(server.url)
            print(f"service {client.version()['version']} at {server.url}")

            first = run_once(client, plan)
            print(
                f"first run:  {first['status']}, "
                f"{first['simulations']} configuration(s) simulated"
            )

            second = run_once(client, plan)
            print(
                f"second run: {second['status']}, "
                f"{second['simulations']} configuration(s) simulated "
                "(measurements replayed from the profile store)"
            )
            assert second["simulations"] == 0
            assert [s["result"] for s in second["steps"]] == [
                s["result"] for s in first["steps"]
            ]
            print("results byte-identical across runs: OK")


if __name__ == "__main__":
    main()
