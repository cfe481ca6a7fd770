"""Regenerate ``digests.json``, the benchmark's correctness reference.

Run from the repository root::

    python3 perfbench/make_digests.py

It records, keyed by request, the digest of every ``PruningReport`` the
workloads can produce — the 12 whole-model requests and the 284
one-layer service requests, each from an in-process ``Session().prune``
— and, keyed by experiment id, the digest of every experiment's
``measured`` dict from ``run_many(available_experiments())``.  Only
regenerate it when a change is meant to alter results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DIGESTS_PATH, canonical, digest, layer_requests, plan_requests  # noqa: E402


def main() -> int:
    from repro.api import Session
    from repro.experiments.cli import run_many
    from repro.experiments.registry import available_experiments

    prune = {}
    for request in plan_requests() + layer_requests():
        report = Session(seed=0).prune(request)
        prune[canonical(request.to_dict())] = digest(report.to_dict())
    ids = available_experiments()
    results = run_many(ids, session=Session(max_cache_entries=None, seed=0))
    experiments = {
        experiment_id: digest(result.measured) for experiment_id, result in zip(ids, results)
    }
    DIGESTS_PATH.write_text(
        json.dumps({"prune": prune, "experiments": experiments}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(prune)} prune and {len(experiments)} experiment digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
