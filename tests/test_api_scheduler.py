"""Tests for the plan loop: ``Session.execute`` runs every step exactly
once, in plan order, after its dependencies (property-tested over random
DAG plans), in-process and as a queued service job, with bitwise-equal
results."""

import random
import threading
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Plan, Session, Target
from repro.models import ConvLayerSpec
from repro.service import step_result_payload

TARGET = Target("hikey-970", "acl-gemm")


def make_spec(index: int) -> ConvLayerSpec:
    return ConvLayerSpec(
        name=f"test.sched.l{index}", in_channels=8, out_channels=12,
        kernel_size=3, stride=1, padding=1, input_hw=7,
    )


def diamond_plan() -> Plan:
    """A -> (B, C) -> D: a fan-out and a fan-in."""

    plan = Plan()
    a = plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="a")
    b = plan.sweep(TARGET, make_spec(1), sweep_step=4, step_id="b", depends_on=["a"])
    c = plan.sweep(TARGET, make_spec(2), sweep_step=4, step_id="c", depends_on=["a"])
    plan.sweep(
        TARGET, make_spec(3), sweep_step=4, step_id="d", depends_on=[b.id, c.id]
    )
    return plan


def random_dag_plan(seed: int, n_steps: int) -> Plan:
    """A random acyclic plan: each step depends on a random subset of
    its predecessors, each sweeping its own (cheap) layer."""

    rng = random.Random(seed)
    plan = Plan()
    ids = []
    for index in range(n_steps):
        deps = [step_id for step_id in ids if rng.random() < 0.4]
        step = plan.sweep(
            TARGET, make_spec(index), sweep_step=rng.choice((3, 4, 5)),
            step_id=f"s{index}", depends_on=deps,
        )
        ids.append(step.id)
    return plan


class RunRecorder:
    """Thread-safe start/end event log wrapped around ``Session._run_step``."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()

    def record(self, *event):
        with self._lock:
            self.events.append(event)

    @contextmanager
    def installed(self):
        """Patch ``Session._run_step`` for the duration of the block.

        By hand rather than through ``monkeypatch``: hypothesis runs
        many examples inside one function-scoped fixture.
        """

        original = Session._run_step

        def recording(session, step):
            self.record("start", step.id)
            result = original(session, step)
            self.record("end", step.id)
            return result

        Session._run_step = recording
        try:
            yield self
        finally:
            Session._run_step = original

    def assert_ran_in_plan_order(self, plan: Plan) -> None:
        runs = [event for event in self.events if event[0] in ("start", "end")]
        assert runs == [
            (kind, step.id) for step in plan for kind in ("start", "end")
        ], "not exactly once each, in plan order"
        position = {event: index for index, event in enumerate(runs)}
        for step in plan:
            for dependency in step.depends_on:
                assert position[("end", dependency)] < position[("start", step.id)], (
                    f"step {step.id!r} started before its dependency "
                    f"{dependency!r} finished: {self.events}"
                )


def assert_job_matches_serial(job, plan: Plan) -> None:
    """A finished queued job's step results equal an in-process run's."""

    assert job.status == "succeeded", job.error
    serial = Session().execute(plan, executor="serial")
    assert {record.id: record.result for record in job.steps} == {
        step.id: step_result_payload(serial[step.id]) for step in plan
    }


class TestExecutorsFollowTheSchedule:
    """Property: both ways of running a plan run every step exactly once,
    in plan order and never before its dependencies, and agree bitwise."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_steps=st.integers(1, 8))
    def test_random_dags_run_exactly_once_in_dependency_order(self, seed, n_steps):
        plan = random_dag_plan(seed, n_steps)
        with RunRecorder().installed() as recorder:
            results = Session().execute(plan, executor="serial")
        recorder.assert_ran_in_plan_order(plan)
        serial = Session().execute(plan, executor="serial")
        assert list(results) == list(serial) == [step.id for step in plan]
        for step in plan:
            assert results[step.id].rows == serial[step.id].rows

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_queued_jobs_schedule_random_dags_correctly(self, run_queued, seed):
        plan = random_dag_plan(seed, 6)
        with RunRecorder().installed() as recorder:
            job = run_queued(plan)
        recorder.assert_ran_in_plan_order(plan)
        assert_job_matches_serial(job, plan)

    def test_diamond_is_bitwise_identical_across_all_backends(self, run_queued):
        plan = diamond_plan()
        job = run_queued(plan)
        assert [record.id for record in job.steps] == ["a", "b", "c", "d"]
        assert_job_matches_serial(job, plan)

    def test_plan_order_not_wave_order(self):
        """D depends only on A, yet runs after C: the loop keeps plan order."""

        plan = Plan()
        a = plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="A")
        b = plan.sweep(TARGET, make_spec(1), sweep_step=4, step_id="B")
        plan.sweep(TARGET, make_spec(2), sweep_step=4, step_id="C", depends_on=[b.id])
        plan.sweep(TARGET, make_spec(3), sweep_step=4, step_id="D", depends_on=[a.id])
        with RunRecorder().installed() as recorder:
            Session().execute(plan)
        assert [step_id for kind, step_id in recorder.events if kind == "start"] == [
            "A", "B", "C", "D",
        ]

    def test_empty_plan_runs_nothing(self):
        with RunRecorder().installed() as recorder:
            assert Session().execute(Plan()) == {}
        assert recorder.events == []
