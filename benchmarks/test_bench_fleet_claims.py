"""Fleet lease-claim throughput: threaded pollers hammering the manager.

The distributed fleet's hot path is :meth:`LeaseManager.claim`: every
worker long-polls it, every claim serializes on the manager's lock, and
the claim-wait histogram drives the ``/v1/fleet`` autoscaling signals.
This benchmark floods one manager with ~200 claim/complete poller
threads draining a 1000-lease backlog and reports the sustained
claims-per-second figure (landed in the ``--benchmark-json`` artifact's
``extra_info``, alongside the manager's lifetime counters).

Smoke runs (``--benchmark-disable``) scale down to 20 pollers / 100
leases and check only bookkeeping invariants, not throughput.
"""

import threading
import time

from repro.api import Target
from repro.service.fleet.leases import LeaseManager

#: Synthetic sweep target/spec published on every benchmark lease.
_TARGET = Target("hikey-970", "acl-gemm")
_SPEC = {"name": "bench-claims-layer"}


def _payloads(lease):
    """A valid measurement payload per channel count of a claimed lease.

    It names what a runner for the lease's target would: the board's
    GPU as the device, and the target's run count.
    """

    return [
        {
            "layer_name": lease["spec"]["name"],
            "out_channels": count,
            "device_name": _TARGET.device_spec.name,
            "library_name": _TARGET.library,
            "median_time_ms": 1.0,
            "min_time_ms": 0.5,
            "max_time_ms": 2.0,
            "runs": _TARGET.runs,
            "job_count": 1,
        }
        for count in lease["counts"]
    ]


def _poller(manager, worker_id, stop, claimed):
    """Claim/complete until told to stop; counts claims per worker."""

    while not stop.is_set():
        lease = manager.claim(worker_id, timeout=0.02)
        if lease is None:
            continue
        manager.complete(lease["lease"], worker_id, measurements=_payloads(lease))
        claimed[worker_id] = claimed.get(worker_id, 0) + 1


def test_fleet_claim_throughput(benchmark):
    """~200 pollers drain a 1000-lease backlog; every lease exactly once."""

    n_workers, n_leases = (20, 100) if benchmark.disabled else (200, 1000)
    manager = LeaseManager(lease_ttl=60.0)
    workers = [
        manager.register_worker(f"bench-poller-{index}")["worker"]
        for index in range(n_workers)
    ]
    manager.publish([
        (_TARGET.to_dict(), _SPEC, [index % 32 + 1], 0) for index in range(n_leases)
    ])

    timing = {}

    def drain():
        stop = threading.Event()
        claimed = {}
        threads = [
            threading.Thread(
                target=_poller,
                args=(manager, worker_id, stop, claimed),
                name=f"bench-{worker_id}",
                daemon=True,
            )
            for worker_id in workers
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        deadline = start + 120.0
        while manager.completed < n_leases and time.perf_counter() < deadline:
            time.sleep(0.005)
        timing["seconds"] = time.perf_counter() - start
        stop.set()
        for thread in threads:
            thread.join()
        return claimed

    claimed = benchmark.pedantic(drain, rounds=1, iterations=1)

    # Exactly-once bookkeeping: every published lease completed exactly
    # once, no claim lost to the thread stampede.
    assert manager.published == n_leases
    assert manager.completed == n_leases
    assert sum(claimed.values()) == n_leases

    status = manager.status()
    assert status["leases"].get("completed", 0) == n_leases
    assert status["autoscaling"]["pending_leases"] == 0
    assert status["autoscaling"]["claim_wait_p50_s"] is not None

    claims_per_second = n_leases / max(timing["seconds"], 1e-9)
    benchmark.extra_info["workers"] = n_workers
    benchmark.extra_info["leases"] = n_leases
    benchmark.extra_info["claims_per_second"] = round(claims_per_second, 1)
    benchmark.extra_info["claim_wait_p95_s"] = status["autoscaling"]["claim_wait_p95_s"]

    # Throughput gate only when benchmarking is enabled: smoke runs
    # (--benchmark-disable) verify bookkeeping, not timing.
    if not benchmark.disabled:
        assert claims_per_second >= 200.0, (
            f"fleet claim path sustained only {claims_per_second:.0f} claims/s "
            f"({n_leases} leases across {n_workers} pollers in "
            f"{timing['seconds']:.2f}s)"
        )
