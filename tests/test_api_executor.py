"""Tests for plan execution (serial, and remote through the fleet
prefetch) and seeded noise streams."""

import pytest

from repro.api import Plan, PruningRequest, Session, Target
from repro.api.session import EXECUTOR_NAMES
from repro.models import ConvLayerSpec

TARGETS = (Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn"))

LAYER = ConvLayerSpec(
    name="test.exec.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

REQUEST = PruningRequest(
    "resnet50", TARGETS[0], fraction=0.25, layer_indices=(16,), sweep_step=8
)


def run(backend, session, plan, remote_executor):
    """Execute ``plan`` in ``session``, serially or through the fleet."""

    if backend == "remote":
        return remote_executor.execute(session, plan)
    return session.execute(plan, backend)


def two_step_plan() -> Plan:
    plan = Plan()
    sweep = plan.sweep(TARGETS, LAYER, sweep_step=4)
    plan.prune(REQUEST, depends_on=[sweep.id])
    return plan


class TestRegistry:
    def test_serial_and_remote_are_the_only_backends(self):
        assert EXECUTOR_NAMES == ("remote", "serial")
        with pytest.raises(KeyError, match="unknown executor 'process'"):
            Session().execute(Plan(), executor="process")

    def test_unknown_backend_rejected(self):
        with pytest.raises(
            KeyError, match=r"unknown executor 'quantum'; available: \['remote', 'serial'\]"
        ):
            Session().execute(Plan(), executor="quantum")

    def test_bad_jobs_rejected(self):
        # ``jobs`` bounded the removed process backend; no layer reads it.
        with pytest.raises(TypeError, match="jobs"):
            Session().execute(Plan(), executor="serial", jobs=2)


class TestBitwiseEquality:
    @pytest.mark.parametrize("backend", ["serial", "remote"])
    def test_backend_matches_serial(self, backend, remote_executor):
        plan = two_step_plan()
        serial = Session().execute(plan, executor="serial")
        other = run(backend, Session(), plan, remote_executor)
        for step in plan:
            left, right = serial[step.id], other[step.id]
            if hasattr(left, "rows"):
                assert left.rows == right.rows
            else:
                assert left.to_json() == right.to_json()

    def test_equality_holds_on_a_fixed_nonzero_seed(self, remote_executor):
        plan = two_step_plan()
        serial = Session(seed=1234).execute(plan, executor="serial")
        remote = remote_executor.execute(Session(seed=1234), plan)
        step_ids = [step.id for step in plan]
        assert serial[step_ids[0]].rows == remote[step_ids[0]].rows
        assert serial[step_ids[1]].to_json() == remote[step_ids[1]].to_json()

    def test_compare_steps_match_across_backends(self, remote_executor):
        plan = Plan()
        step = plan.compare(REQUEST)
        serial = Session().execute(plan, executor="serial")
        remote = remote_executor.execute(Session(), plan)
        assert serial[step.id].to_json() == remote[step.id].to_json()

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

    @pytest.mark.parametrize("backend", ["serial", "remote"])
    def test_resume_skips_under_every_backend(self, tmp_path, backend, remote_executor):
        path = tmp_path / "profiles.jsonl"
        plan = two_step_plan()
        Session(store=path).execute(plan, executor="serial")

        resumed = Session(store=path)
        published = remote_executor.manager.published
        results = run(backend, resumed, plan, remote_executor)
        assert resumed.simulation_count() == 0
        # A fully stored plan publishes no lease.
        assert remote_executor.manager.published == published
        assert results[plan.steps[0].id].rows == (
            Session().execute(plan, executor="serial")[plan.steps[0].id].rows
        )

    def test_remote_leases_checkpoint_into_the_store(self, tmp_path, remote_executor):
        path = tmp_path / "profiles.jsonl"
        plan = Plan()
        plan.sweep(TARGETS, LAYER, sweep_step=4)
        session = Session(store=path)
        remote_executor.execute(session, plan)
        # The session itself simulated nothing — the board measured, the
        # session adopted and persisted.
        assert session.simulation_count() == 0
        assert len(session.store) > 0
        assert Session(store=path).sweep(TARGETS, LAYER, sweep_step=4).rows == (
            Session().sweep(TARGETS, LAYER, sweep_step=4).rows
        )


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
