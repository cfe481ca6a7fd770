"""The four benchmark workloads, driven through the public API only.

Each workload is a closed loop with one caller.  ``setup`` builds what a
pass needs (timed as set-up), ``run_pass`` does the workload's fixed
work once (timed as ``wall_s``) and checks every output against the
committed digests, and ``close`` releases the state.  All state lives in
a fresh temporary directory handed in by the runner.  The measurement
noise seed is always 0; the workload seed only orders plan steps and
draws service jobs.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: The ROADMAP's 12-step plan: three models on four targets.
MODELS = ("resnet50", "vgg16", "alexnet")
TARGETS = (
    ("hikey-970", "acl-gemm"),
    ("hikey-970", "acl-direct"),
    ("hikey-970", "tvm"),
    ("jetson-tx2", "cudnn"),
)
FRACTION = 0.25

#: Targets each conv layer is written on per service pass: 71 layers x 2
#: = 142 writes, each followed by a read, so p90 has ten samples beyond
#: it for both kinds and every seed simulates the same configurations.
TARGETS_PER_LAYER = 2

#: A service job that has not finished by then fails the run (a job
#: takes well under a second).
JOB_TIMEOUT_S = 60.0


def canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True)


def digest(payload: Any) -> str:
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


def plan_requests() -> list:
    """The 12 whole-model requests of the plan."""

    from repro.api import PruningRequest, Target

    return [
        PruningRequest(model, Target(*target), fraction=FRACTION, sweep_step=1)
        for model in MODELS
        for target in TARGETS
    ]


def layer_request(model: str, index: int, target: Tuple[str, str]):
    from repro.api import PruningRequest, Target

    return PruningRequest(
        model, Target(*target), fraction=FRACTION, sweep_step=1, layer_indices=(index,)
    )


def conv_layers() -> List[Tuple[str, int]]:
    """(model, layer index) of every conv layer of the three models (71)."""

    from repro.models.zoo import MODELS as ZOO

    return [
        (model, index) for model in MODELS for index in ZOO.create(model).conv_layer_indices
    ]


def layer_requests() -> list:
    """Every one-layer request the service workload can draw (284)."""

    return [
        layer_request(model, index, target)
        for model, index in conv_layers()
        for target in TARGETS
    ]


def build_plan(requests: list):
    from repro.api import Plan

    plan = Plan()
    for request in requests:
        plan.prune(request)
    return plan


@dataclass
class Gate:
    """Compares results against the committed digests and counts failures."""

    digests: Dict[str, Dict[str, str]]
    attempted: int = 0
    failed: int = 0

    @classmethod
    def load(cls) -> "Gate":
        return cls(json.loads(DIGESTS_PATH.read_text(encoding="utf-8")))

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"correctness: {message}", file=sys.stderr)
        return ok

    def check_report(self, request, report_payload: dict) -> bool:
        key = canonical(request.to_dict())
        expected = self.digests["prune"].get(key)
        return self.check(
            expected is not None and digest(report_payload) == expected,
            f"prune report differs from the committed digest for {key}",
        )

    def check_experiment(self, experiment_id: str, measured: dict) -> bool:
        expected = self.digests["experiments"].get(experiment_id)
        return self.check(
            expected is not None and digest(measured) == expected,
            f"experiment {experiment_id} measured values differ from the committed digest",
        )


@dataclass
class PassResult:
    """What one pass produced besides its wall time."""

    simulations: int = 0
    #: Named latency samples in seconds (service workload only).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Extra figures (bytes, counts) observed at the end of the pass.
    figures: Dict[str, float] = field(default_factory=dict)


def _execute_and_check(gate: Gate, session, plan, requests) -> None:
    results = session.execute(plan, "serial")
    for step, request in zip(plan, requests):
        gate.check_report(request, results[step.id].to_dict())


class Workload:
    """A workload's name, how often set-up is timed, and its seed and gate."""

    name = ""
    #: Set-ups timed per run; ``setup_s`` reports their median.
    setup_repeats = 3
    #: Whether every pass needs state no earlier pass has touched.
    fresh_state_per_pass = False

    def __init__(self, seed: int, gate: Gate) -> None:
        self.seed = seed
        self.gate = gate

    def close(self, state) -> None:
        """Release what ``setup`` acquired (the runner deletes its directory)."""


class PruneCold(Workload):
    """The 12-step plan in a fresh store-less Session: planning + analysis."""

    name = "prune-cold"

    def setup(self, tmp: Path):
        from repro.models.zoo import MODELS as ZOO

        requests = plan_requests()
        random.Random(self.seed).shuffle(requests)
        for model in MODELS:
            ZOO.create(model)
        return requests, build_plan(requests)

    def run_pass(self, state, recorder=None) -> PassResult:
        from repro.api import Session

        requests, plan = state
        session = Session(seed=0)
        _execute_and_check(self.gate, session, plan, requests)
        return PassResult(simulations=session.simulation_count())


class PruneReplay(PruneCold):
    """The same plan replayed from a sharded store filled during set-up."""

    name = "prune-replay"
    #: Each set-up is a cold pass that fills a store, so time two, not three.
    setup_repeats = 2

    def setup(self, tmp: Path):
        from repro.api import Session
        from repro.profiling.store import ProfileStore

        requests, plan = super().setup(tmp)
        store_path = tmp / "store"
        session = Session(store=ProfileStore(store_path, layout="sharded"), seed=0)
        _execute_and_check(self.gate, session, plan, requests)
        return requests, plan, store_path

    def run_pass(self, state, recorder=None) -> PassResult:
        from repro.api import Session
        from repro.profiling.store import ProfileStore

        requests, plan, store_path = state
        session = Session(store=ProfileStore(store_path), seed=0)
        _execute_and_check(self.gate, session, plan, requests)
        simulations = session.simulation_count()
        self.gate.check(
            simulations == 0, f"store replay simulated {simulations} configurations"
        )
        return PassResult(
            simulations=simulations,
            figures={"store.bytes": _tree_bytes(store_path)},
        )


def _tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


@dataclass
class _Service:
    server: Any
    client: Any
    jobs: List[Tuple[str, Any]]
    tmp: Path


class ServiceMixed(Workload):
    """One client alternating write and read jobs against a ReproServer."""

    name = "service-mixed"
    fresh_state_per_pass = True

    def draw_jobs(self) -> List[Tuple[str, Any]]:
        """Each conv layer, in model order, written on two drawn targets.

        Every write is followed by a read of a write drawn uniformly from
        those so far.  Writing the layers in a fixed order keeps the
        shards growing alike for every seed, so the cost of the shard
        reloads does not depend on the draw.
        """

        rng = random.Random(self.seed)
        writes = [
            layer_request(model, index, target)
            for model, index in conv_layers()
            for target in rng.sample(TARGETS, TARGETS_PER_LAYER)
        ]
        jobs = []
        for position, request in enumerate(writes):
            jobs.append(("write", request))
            jobs.append(("read", writes[rng.randrange(position + 1)]))
        return jobs

    def setup(self, tmp: Path) -> _Service:
        from repro.profiling.store import ProfileStore
        from repro.service.client import ServiceClient
        from repro.service.server import ReproServer

        jobs = self.draw_jobs()
        store_path = tmp / "store"
        ProfileStore(store_path, layout="sharded")
        server = ReproServer(
            profile_store=store_path, job_store=tmp / "jobs.jsonl", workers=1
        ).start()
        client = ServiceClient(server.url)
        client.health()
        return _Service(server=server, client=client, jobs=jobs, tmp=tmp)

    def run_pass(self, state: _Service, recorder=None) -> PassResult:
        result = PassResult(samples={
            name: [] for name in (
                "read", "write", "service.submit", "service.queue_wait",
                "service.job_run", "service.overhead",
            )
        })
        written: Dict[str, dict] = {}
        for kind, request in state.jobs:
            plan = build_plan([request]).to_dict()
            start = time.perf_counter()
            if recorder is not None:
                record = recorder.span("service.submit", state.client.submit, (plan,), {})
            else:
                record = state.client.submit(plan)
            submitted = time.perf_counter()
            for event in state.client.iter_events(record["id"], timeout=JOB_TIMEOUT_S):
                if event.get("event") == "job-finished":
                    break
            latency = time.perf_counter() - start
            job = state.client.job(record["id"])
            result.samples[kind].append(latency)
            result.samples["service.submit"].append(submitted - start)
            job_run = job["finished_at"] - job["started_at"]
            result.samples["service.queue_wait"].append(
                job["started_at"] - job["submitted_at"]
            )
            result.samples["service.job_run"].append(job_run)
            result.samples["service.overhead"].append(latency - job_run)
            self._check_job(kind, request, job, written)
            result.simulations += job.get("simulations") or 0
        result.figures["service.jobstore_bytes"] = (state.tmp / "jobs.jsonl").stat().st_size
        result.figures["store.bytes"] = _tree_bytes(state.tmp / "store")
        return result

    def _check_job(self, kind: str, request, job: dict, written: Dict[str, dict]) -> None:
        key = canonical(request.to_dict())
        if not self.gate.check(
            job["status"] == "succeeded", f"{kind} job {job['id']} {job['status']}"
        ):
            return
        report = job["steps"][0]["result"]
        simulations = job.get("simulations")
        if kind == "write":
            self.gate.check(
                bool(simulations), f"write job {job['id']} simulated {simulations}"
            )
            self.gate.check_report(request, report)
            written[key] = report
        else:
            self.gate.check(
                simulations == 0, f"read job {job['id']} simulated {simulations}"
            )
            self.gate.check(
                report == written.get(key),
                f"read job {job['id']} differs from its earlier write",
            )

    def close(self, state: _Service) -> None:
        state.server.close()


class PaperAll(Workload):
    """``run_many(available_experiments())``: the CLI's ``all`` in a fresh Session."""

    name = "paper-all"

    def setup(self, tmp: Path):
        from repro.experiments.registry import available_experiments

        return available_experiments()

    def run_pass(self, state, recorder=None) -> PassResult:
        from repro.api import Session
        from repro.experiments.cli import run_many

        session = Session(max_cache_entries=None, seed=0)
        results = run_many(state, session=session)
        for experiment_id, result in zip(state, results):
            self.gate.check_experiment(experiment_id, result.measured)
        return PassResult(simulations=session.simulation_count())


WORKLOADS = {cls.name: cls for cls in (PruneCold, PruneReplay, ServiceMixed, PaperAll)}
