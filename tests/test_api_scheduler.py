"""Tests for the dependency-aware scheduler and its use by the executor
backends: wavefront structure, exactly-once dispatch, dependency
ordering (property-tested over random DAG plans) and bitwise equality of
serial and remote execution for multi-wavefront plans."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api.executor as executor_module
from repro.api import Plan, Session, Target
from repro.service.fleet import RemoteExecutor
from repro.api.scheduler import scheduled_order, wavefronts
from repro.models import ConvLayerSpec

TARGET = Target("hikey-970", "acl-gemm")


def make_spec(index: int) -> ConvLayerSpec:
    return ConvLayerSpec(
        name=f"test.sched.l{index}", in_channels=8, out_channels=12,
        kernel_size=3, stride=1, padding=1, input_hw=7,
    )


def diamond_plan() -> Plan:
    """A -> (B, C) -> D: two wavefront barriers around a parallel middle."""

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
    """Thread-safe start/end event log wrapped around executor.run_step."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()
        self._original = executor_module.run_step

    def __call__(self, session, step):
        with self._lock:
            self.events.append(("start", step.id))
        result = self._original(session, step)
        with self._lock:
            self.events.append(("end", step.id))
        return result

    def assert_valid_schedule(self, plan: Plan) -> None:
        starts = [step_id for kind, step_id in self.events if kind == "start"]
        ends = [step_id for kind, step_id in self.events if kind == "end"]
        assert sorted(starts) == sorted(step.id for step in plan), "not exactly once"
        assert sorted(ends) == sorted(step.id for step in plan)
        position = {
            (kind, step_id): index for index, (kind, step_id) in enumerate(self.events)
        }
        for step in plan:
            for dependency in step.depends_on:
                assert position[("end", dependency)] < position[("start", step.id)], (
                    f"step {step.id!r} started before its dependency "
                    f"{dependency!r} finished: {self.events}"
                )


class TestWavefronts:
    def test_diamond_has_three_waves(self):
        waves = wavefronts(diamond_plan())
        assert [[step.id for step in wave] for wave in waves] == [
            ["a"], ["b", "c"], ["d"],
        ]

    def test_scheduled_order_is_flattened_wavefronts(self):
        assert [step.id for step in scheduled_order(diamond_plan())] == [
            "a", "b", "c", "d",
        ]

    def test_independent_steps_form_one_wave(self):
        plan = Plan()
        for index in range(4):
            plan.sweep(TARGET, make_spec(index), sweep_step=4, step_id=f"s{index}")
        waves = wavefronts(plan)
        assert len(waves) == 1 and len(waves[0]) == 4

    def test_waves_keep_plan_order(self):
        """A later step's dependency does not move it ahead in its wave."""

        plan = Plan()
        a = plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="A")
        b = plan.sweep(TARGET, make_spec(1), sweep_step=4, step_id="B")
        plan.sweep(TARGET, make_spec(2), sweep_step=4, step_id="C", depends_on=[b.id])
        plan.sweep(TARGET, make_spec(3), sweep_step=4, step_id="D", depends_on=[a.id])
        assert [[step.id for step in wave] for wave in wavefronts(plan)] == [
            ["A", "B"], ["C", "D"],
        ]

    def test_empty_plan_has_no_waves(self):
        assert wavefronts(Plan()) == ()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_steps=st.integers(1, 12))
    def test_random_dag_wavefronts_respect_dependencies(self, seed, n_steps):
        plan = random_dag_plan(seed, n_steps)
        waves = wavefronts(plan)
        wave_of = {
            step.id: index for index, wave in enumerate(waves) for step in wave
        }
        # Every step appears in exactly one wave...
        assert sorted(wave_of) == sorted(step.id for step in plan)
        for step in plan:
            for dependency in step.depends_on:
                # ...strictly after each of its dependencies' waves...
                assert wave_of[dependency] < wave_of[step.id]
        # ...and as early as possible: each step sits right after its
        # latest dependency (wave 0 for the dependency-free).
        for step in plan:
            earliest = (
                max(wave_of[dep] for dep in step.depends_on) + 1
                if step.depends_on else 0
            )
            assert wave_of[step.id] == earliest


class TestExecutorsFollowTheSchedule:
    """Property: every backend runs every step exactly once, never before
    its dependencies, and matches serial results bitwise."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_steps=st.integers(1, 8))
    def test_random_dags_run_exactly_once_in_dependency_order(self, seed, n_steps):
        plan = random_dag_plan(seed, n_steps)
        recorder = RunRecorder()
        executor_module.run_step, original = recorder, executor_module.run_step
        try:
            results = Session().execute(plan, executor="serial")
        finally:
            executor_module.run_step = original
        recorder.assert_valid_schedule(plan)
        serial = Session().execute(plan, executor="serial")
        assert set(results) == set(serial) == {step.id for step in plan}
        for step in plan:
            assert results[step.id].rows == serial[step.id].rows

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_remote_backend_schedules_random_dags_correctly(self, remote_executor, seed):
        plan = random_dag_plan(seed, 6)
        recorder = RunRecorder()
        executor_module.run_step, original = recorder, executor_module.run_step
        try:
            results = Session().execute(plan, executor=remote_executor)
        finally:
            executor_module.run_step = original
        recorder.assert_valid_schedule(plan)
        serial = Session().execute(plan, executor="serial")
        for step in plan:
            assert results[step.id].rows == serial[step.id].rows

    def test_diamond_is_bitwise_identical_across_all_backends(self, remote_executor):
        plan = diamond_plan()
        serial = Session().execute(plan, executor="serial")
        session = Session()
        remote = session.execute(plan, executor=remote_executor)
        assert session.simulation_count() == 0  # the board measured it all
        for step in plan:
            assert serial[step.id].rows == remote[step.id].rows


class TestWaveScopedFanOut:
    def test_remote_executor_measures_per_wavefront_not_whole_pool(
        self, remote_executor, monkeypatch
    ):
        """Dependent steps start once *their* inputs are ready: the
        remote backend publishes one wavefront's workload at a time, and
        earlier steps run before later waves are even measured."""

        plan = Plan()
        plan.sweep(TARGET, make_spec(0), sweep_step=4, step_id="first")
        plan.sweep(
            TARGET, make_spec(1), sweep_step=4, step_id="second",
            depends_on=["first"],
        )

        original_fan_out = RemoteExecutor._fan_out
        recorder = RunRecorder()

        def recording_fan_out(self, session, tasks):
            with recorder._lock:
                recorder.events.append(
                    ("fan-out", tuple(sorted(spec.name for _, spec, _ in tasks)))
                )
            return original_fan_out(self, session, tasks)

        monkeypatch.setattr(RemoteExecutor, "_fan_out", recording_fan_out)
        monkeypatch.setattr(executor_module, "run_step", recorder)
        session = Session()
        session.execute(plan, executor=remote_executor)
        assert session.simulation_count() == 0

        # One fan-out per wavefront, and the first step ran to completion
        # before the second wave's measurements were even dispatched —
        # the whole-plan measurement pool no longer gates anything.
        assert recorder.events == [
            ("fan-out", ("test.sched.l0",)),
            ("start", "first"),
            ("end", "first"),
            ("fan-out", ("test.sched.l1",)),
            ("start", "second"),
            ("end", "second"),
        ]
