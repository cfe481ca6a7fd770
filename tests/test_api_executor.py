"""Tests for plan execution (in-process, and as a queued service job)
and seeded noise streams."""

import pytest

from repro.api import Plan, PruningRequest, Session, Target, UnknownExecutorError
from repro.models import ConvLayerSpec
from repro.service import step_result_payload

TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))

LAYER = ConvLayerSpec(
    name="test.exec.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

REQUEST = PruningRequest(
    "resnet50", TARGETS[0], fraction=0.25, layer_indices=(16,), sweep_step=8
)


def payloads(plan, seed=0):
    """``{step id: JSON projection}`` of ``plan`` run in this process."""

    results = Session(seed=seed).execute(plan, executor="serial")
    return {step_id: step_result_payload(result) for step_id, result in results.items()}


def run(backend, plan, run_queued, seed=0):
    """Step payloads of ``plan``, run in-process or as a queued service job."""

    if backend == "queued":
        job = run_queued(plan, seed=seed)
        assert job.status == "succeeded", job.error
        return {record.id: record.result for record in job.steps}
    return payloads(plan, seed)


def two_step_plan() -> Plan:
    plan = Plan()
    plan.sweep(TARGETS, LAYER, sweep_step=4)
    plan.prune(REQUEST)
    return plan


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["remote", "process", "Serial", " serial", 5],
        ids=["remote", "process", "capitalised", "padded", "int"],
    )
    def test_serial_is_the_only_backend(self, name):
        plan = two_step_plan()
        with pytest.raises(UnknownExecutorError, match=f"unknown executor {name!r}"):
            Session().execute(plan, name)
        assert Session().execute(Plan(), "serial") == {}

    def test_unknown_backend_rejected(self):
        with pytest.raises(
            KeyError, match=r"unknown executor 'quantum'; the only executor is 'serial'"
        ):
            Session().execute(Plan(), executor="quantum")

    def test_bad_jobs_rejected(self):
        # ``jobs`` bounded the removed process backend; no layer reads it.
        with pytest.raises(TypeError, match="jobs"):
            Session().execute(Plan(), executor="serial", jobs=2)


class TestBitwiseEquality:
    @pytest.mark.parametrize("backend", ["serial", "queued"])
    def test_backend_matches_serial(self, backend, run_queued):
        plan = two_step_plan()
        assert run(backend, plan, run_queued) == payloads(plan)

    def test_equality_holds_on_a_fixed_nonzero_seed(self, run_queued):
        plan = two_step_plan()
        queued = run("queued", plan, run_queued, seed=1234)
        assert queued == payloads(plan, seed=1234)
        assert queued != payloads(plan)

    def test_compare_steps_match_across_backends(self, run_queued):
        plan = Plan()
        plan.compare(REQUEST)
        assert run("queued", plan, run_queued) == payloads(plan)

    def test_plan_routed_sweep_matches_direct_session_sweep(self):
        direct = Session().sweep(TARGETS, LAYER, sweep_step=4)
        plan = Plan()
        step = plan.sweep(TARGETS, LAYER, sweep_step=4)
        routed = Session().execute(plan, executor="serial")[step.id]
        assert direct.rows == routed.rows


class TestResume:
    def test_reexecuting_a_plan_simulates_nothing(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        plan = two_step_plan()
        first = Session(store=path)
        first.execute(plan, executor="serial")
        assert len(first.store) > 0

        resumed = Session(store=path)
        resumed.execute(plan, executor="serial")
        assert resumed.simulation_count() == 0

    @pytest.mark.parametrize("backend", ["serial", "queued"])
    def test_resume_skips_under_every_backend(self, tmp_path, backend, run_queued):
        path = tmp_path / "profiles"
        plan = two_step_plan()
        Session(store=path).execute(plan, executor="serial")

        if backend == "queued":
            job = run_queued(plan, profile_store=path)
            assert job.simulations == 0
            results = {record.id: record.result for record in job.steps}
        else:
            resumed = Session(store=path)
            results = resumed.execute(plan, executor="serial")
            assert resumed.simulation_count() == 0
            results = {key: step_result_payload(value) for key, value in results.items()}
        assert results == payloads(plan)


class TestSeedOverride:
    def test_same_seed_reproduces_without_a_shared_store(self):
        first = Session(seed=7).sweep(TARGETS[0], LAYER, sweep_step=8)
        second = Session(seed=7).sweep(TARGETS[0], LAYER, sweep_step=8)
        assert first.rows == second.rows

    def test_different_seeds_fork_the_stream(self):
        base = Session().sweep(TARGETS[0], LAYER, sweep_step=8)
        forked = Session(seed=99).sweep(TARGETS[0], LAYER, sweep_step=8)
        assert base.rows != forked.rows

    def test_zero_seed_keeps_the_historical_stream(self):
        # Stored profiles written before the seed existed must keep
        # validating: seed=0 produces the exact legacy measurements.
        from repro.profiling import ProfileRunner

        legacy = ProfileRunner.create("hikey-970", "acl-gemm", runs=3)
        seeded = ProfileRunner.create("hikey-970", "acl-gemm", runs=3, seed=0)
        assert legacy.measure(LAYER, 8) == seeded.measure(LAYER, 8)

    def test_seeded_sessions_do_not_share_store_groups(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        Session(store=path, seed=1).sweep(TARGETS[0], LAYER, sweep_step=8)
        other = Session(store=path, seed=2)
        other.sweep(TARGETS[0], LAYER, sweep_step=8)
        # Different seed -> different group -> real simulations happened.
        assert other.simulation_count() > 0

        replay = Session(store=path, seed=2)
        replay.sweep(TARGETS[0], LAYER, sweep_step=8)
        assert replay.simulation_count() == 0

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            Session(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            Session(seed=1.5)

    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1, 2**70])
    def test_seeds_of_64_bits_or_more_rejected(self, seed):
        # The noise stream mixes the seed modulo 2**64: a larger seed
        # would replay a smaller one's measurements under another key.
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            Session(seed=seed)

    def test_largest_seed_is_accepted_and_forks_the_stream(self):
        largest = Session(seed=2**64 - 1).sweep(TARGETS[0], LAYER, sweep_step=8)
        assert largest.rows != Session().sweep(TARGETS[0], LAYER, sweep_step=8).rows


class TestFigureSteps:
    def test_figure_step_runs_an_experiment(self):
        plan = Plan()
        step = plan.figure("table1")
        results = Session().execute(plan, executor="serial")
        assert results[step.id].experiment_id == "table1"

    def test_figure_step_uses_the_plan_sessions_store(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        plan = Plan()
        plan.figure("fig04", runs=3, step=17)
        session = Session(store=path)
        session.execute(plan, executor="serial")
        assert path.exists()
        assert session.simulation_count() > 0
        # The shared convenience session was never touched: figure steps
        # receive the plan session explicitly instead of swapping a
        # process-global one.
        from repro.experiments.base import default_session

        assert default_session().store is None

    def test_figure_step_honours_the_session_seed(self):
        plan = Plan()
        step = plan.figure("fig04", runs=3, step=17)
        base = Session().execute(plan, executor="serial")[step.id]
        forked = Session(seed=5).execute(plan, executor="serial")[step.id]
        assert base.measured != forked.measured

    def test_figure_step_leaves_the_default_session_cold(self):
        from repro.experiments.base import default_session

        session = Session()
        plan = Plan()
        step = plan.figure("fig04", runs=3, step=17)
        before = default_session().simulation_count()
        result = session.execute(plan, executor="serial")[step.id]
        assert result.experiment_id == "fig04"
        assert session.simulation_count() > 0
        assert default_session().simulation_count() == before
