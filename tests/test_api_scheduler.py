"""Tests for the plan loop: ``Session.execute`` runs every step exactly
once, in plan order (property-tested over random multi-step plans), in
process and as a queued service job, with bitwise-equal results."""

import random
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Plan, Session, Target
from repro.models import ConvLayerSpec
from repro.service import step_result_payload

TARGET = Target("hikey-970", "acl-gemm")
TARGETS = [TARGET, Target("jetson-tx2", "cudnn")]


def make_spec(index: int) -> ConvLayerSpec:
    return ConvLayerSpec(
        name=f"test.sched.l{index}", in_channels=8, out_channels=12,
        kernel_size=3, stride=1, padding=1, input_hw=7,
    )


def random_plan(seed: int, n_steps: int) -> Plan:
    """A random multi-step plan of cheap sweeps.

    Layers, targets and sweep steps repeat across steps, so later steps
    read what earlier ones measured through the session; the step ids
    are shuffled so plan order is not their sort order.
    """

    rng = random.Random(seed)
    plan = Plan()
    ids = rng.sample(range(100), n_steps)
    for step_id in ids:
        plan.sweep(
            rng.sample(TARGETS, rng.choice((1, 2))), make_spec(rng.randrange(3)),
            sweep_step=rng.choice((3, 4, 5)), step_id=f"s{step_id}",
        )
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
        assert self.events == [
            (kind, step.id) for step in plan for kind in ("start", "end")
        ], "not exactly once each, in plan order"


def assert_job_matches_serial(job, plan: Plan) -> None:
    """A finished queued job's step results equal an in-process run's."""

    assert job.status == "succeeded", job.error
    assert [record.id for record in job.steps] == [step.id for step in plan]
    serial = Session().execute(plan, executor="serial")
    assert {record.id: record.result for record in job.steps} == {
        step.id: step_result_payload(serial[step.id]) for step in plan
    }


class TestPlansRunInOrder:
    """Property: both ways of running a plan run every step exactly once,
    in plan order, and agree bitwise."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_steps=st.integers(1, 8))
    def test_random_plans_run_each_step_once_in_plan_order(self, seed, n_steps):
        plan = random_plan(seed, n_steps)
        with RunRecorder().installed() as recorder:
            results = Session().execute(plan, executor="serial")
        recorder.assert_ran_in_plan_order(plan)
        serial = Session().execute(plan, executor="serial")
        assert list(results) == list(serial) == [step.id for step in plan]
        for step in plan:
            assert results[step.id].rows == serial[step.id].rows

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_queued_jobs_run_random_plans_in_plan_order(self, run_queued, seed):
        plan = random_plan(seed, 6)
        with RunRecorder().installed() as recorder:
            job = run_queued(plan)
        recorder.assert_ran_in_plan_order(plan)
        assert_job_matches_serial(job, plan)

    def test_a_repeated_step_reads_what_the_first_measured(self, run_queued):
        plan = Plan()
        plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="first")
        plan.sweep(TARGET, make_spec(1), sweep_step=4, step_id="other")
        plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="again")
        session = Session()
        session.execute(Plan([plan.step("first"), plan.step("other")]))
        simulated = session.simulation_count()
        results = session.execute(Plan([plan.step("again")]))
        assert session.simulation_count() == simulated
        assert results["again"].rows == Session().execute(plan)["first"].rows
        job = run_queued(plan)
        assert job.simulations == simulated
        assert_job_matches_serial(job, plan)

    def test_plan_order_is_insertion_order(self):
        plan = Plan()
        for step_id in ("D", "A", "C", "B"):
            plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id=step_id)
        with RunRecorder().installed() as recorder:
            Session().execute(plan)
        assert [step_id for kind, step_id in recorder.events if kind == "start"] == [
            "D", "A", "C", "B",
        ]

    def test_a_failing_step_stops_the_plan(self):
        plan = Plan()
        plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="before")
        plan.figure("fig04", step=0, step_id="fails")  # refused only when run
        plan.sweep(TARGET, make_spec(1), sweep_step=4, step_id="after")
        with RunRecorder().installed() as recorder:
            with pytest.raises(ValueError):
                Session().execute(plan)
        assert recorder.events == [
            ("start", "before"), ("end", "before"), ("start", "fails"),
        ]

    def test_empty_plan_runs_nothing(self):
        with RunRecorder().installed() as recorder:
            assert Session().execute(Plan()) == {}
        assert recorder.events == []
