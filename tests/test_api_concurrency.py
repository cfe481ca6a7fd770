"""Thread-safety tests: one Session (cache + ProfileStore) hammered from
concurrent scheduler-style threads must lose no updates, simulate each
configuration exactly once and keep its store statistics consistent."""

from concurrent.futures import ThreadPoolExecutor

from repro.api import Plan, Session, Target
from repro.models import ConvLayerSpec

TARGET = Target("hikey-970", "acl-gemm")

#: Channel counts measured for out_channels=16 at sweep_step=4:
#: {1, 5, 9, 13} plus the unpruned 16.
COUNTS_PER_SPEC = 5


def make_spec(index: int) -> ConvLayerSpec:
    return ConvLayerSpec(
        name=f"test.conc.l{index}", in_channels=8, out_channels=16,
        kernel_size=3, stride=1, padding=1, input_hw=7,
    )


def run_steps_on_threads(session: Session, plan: Plan) -> dict:
    """Each step of ``plan`` as its own one-step plan, one thread each,
    all against ``session``; returns ``{step id: result}``."""

    def run(step):
        single = Plan()
        single.add(step)
        return session.execute(single, "serial")[step.id]

    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {step.id: pool.submit(run, step) for step in plan}
        return {step_id: future.result() for step_id, future in futures.items()}


class TestSessionThreadSafety:
    def test_hammer_one_session_and_store_from_threads(self, tmp_path):
        """Many threads profiling overlapping layers through one session
        sharing one store: every configuration is simulated exactly once,
        recorded exactly once, and every thread sees identical results."""

        session = Session(store=tmp_path / "profiles.jsonl")
        specs = [make_spec(index) for index in range(6)]
        repeats = 4

        def profile(spec):
            return session.profile_layer(TARGET, spec, sweep_step=4)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(profile, spec) for spec in specs for _ in range(repeats)
            ]
            profiles = [future.result() for future in futures]

        # No lost updates: per spec, all threads observed one profile's
        # worth of data (bitwise identical series).
        by_spec = {}
        for spec, profile_result in zip(
            [spec for spec in specs for _ in range(repeats)], profiles
        ):
            by_spec.setdefault(spec.name, []).append(profile_result)
        for name, group in by_spec.items():
            series = {tuple(zip(*p.table.as_series())) for p in group}
            assert len(series) == 1, f"{name} produced divergent profiles"

        # Exactly-once simulation and persistence despite the races: the
        # runner lock makes the losing thread a pure memo hit, so the
        # simulations equal the distinct configurations.
        assert session.simulation_count() == len(specs) * COUNTS_PER_SPEC
        assert session.store.writes == len(specs) * COUNTS_PER_SPEC
        assert len(session.store) == len(specs) * COUNTS_PER_SPEC
        # Every thread analysed its own table to the same levels.
        for name, group in by_spec.items():
            assert len({tuple(p.levels.tolist()) for p in group}) == 1, name

        # A fresh session replays everything from the store.
        replay = Session(store=session.store)
        for spec in specs:
            replay.profile_layer(TARGET, spec, sweep_step=4)
        assert replay.simulation_count() == 0

    def test_concurrent_wavefront_steps_share_one_session(self, tmp_path):
        """Independent sweep steps executed as one-step plans on concurrent
        threads against one session/store (as the job queue's workers do)
        match serial execution bitwise and keep the store exact."""

        specs = [make_spec(index) for index in range(6)]
        plan = Plan()
        for index, spec in enumerate(specs):
            plan.sweep(TARGET, spec, sweep_step=4, step_id=f"s{index}")

        session = Session(store=tmp_path / "profiles.jsonl")
        results = run_steps_on_threads(session, plan)
        # Every configuration simulated once and stored once.
        assert session.simulation_count() == len(specs) * COUNTS_PER_SPEC
        assert session.store.writes == len(specs) * COUNTS_PER_SPEC
        assert len(session.store) == len(specs) * COUNTS_PER_SPEC

        serial = Session().execute(plan, executor="serial")
        for step in plan:
            assert results[step.id].rows == serial[step.id].rows

    def test_concurrent_figure_steps_share_one_session(self):
        """Figure steps run on threads against the same session
        (hammering its network/runner caches) without dropping or
        corrupting results."""

        plan = Plan()
        table_steps = [plan.figure(f"table{index}") for index in (1, 2, 3, 4)]
        session = Session()
        results = run_steps_on_threads(session, plan)
        for index, step in zip((1, 2, 3, 4), table_steps):
            assert results[step.id].experiment_id == f"table{index}"

        serial = Session().execute(plan, executor="serial")
        for step in table_steps:
            assert results[step.id].measured == serial[step.id].measured
