"""Tests for the declarative Plan job graph and its JSON wire format."""

import pytest

from repro.api import Plan, PlanError, PruningRequest, Step, Target
from repro.models import ConvLayerSpec

TARGET = Target("hikey-970", "acl-gemm")
OTHER_TARGET = Target("jetson-tx2", "cudnn")

LAYER = ConvLayerSpec(
    name="test.plan.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)

REQUEST = PruningRequest(
    "resnet50", TARGET, fraction=0.25, layer_indices=(16,), sweep_step=8
)


def build_plan() -> Plan:
    plan = Plan()
    sweep = plan.sweep([TARGET, OTHER_TARGET], LAYER, sweep_step=4)
    profile = plan.profile(TARGET, "resnet50", layer_indices=[16], sweep_step=8)
    plan.prune(REQUEST, depends_on=[sweep.id])
    plan.compare(REQUEST, depends_on=[sweep.id, profile.id])
    plan.figure("fig04", runs=3, step=3)
    return plan


class TestBuilders:
    def test_steps_get_generated_ids_in_order(self):
        plan = build_plan()
        assert [step.id for step in plan] == [
            "sweep-1", "profile-1", "prune-1", "compare-1", "figure-1",
        ]
        assert [step.kind for step in plan] == [
            "sweep", "profile", "prune", "compare", "figure",
        ]

    def test_explicit_step_ids_and_lookup(self):
        plan = Plan()
        step = plan.sweep(TARGET, LAYER, step_id="my-sweep")
        assert plan.step("my-sweep") is step
        assert "my-sweep" in plan
        with pytest.raises(PlanError, match="unknown step id"):
            plan.step("absent")

    def test_builder_normalises_target_spellings(self):
        plan = Plan()
        step = plan.sweep(["acl-gemm@hikey-970"], LAYER)
        assert step.params["targets"][0]["device"] == "hikey-970"

    def test_duplicate_layer_names_rejected(self):
        impostor = ConvLayerSpec(
            name=LAYER.name, in_channels=8, out_channels=16,
            kernel_size=1, stride=1, padding=0, input_hw=7,
        )
        with pytest.raises(PlanError, match="two different layer specs"):
            Plan().sweep(TARGET, [LAYER, impostor])

    def test_figure_options_are_kept(self):
        plan = Plan()
        step = plan.figure("fig04", runs=3, step=5)
        assert step.params["options"] == {"runs": 3, "step": 5}


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError, match="unknown step kind"):
            Plan().add(Step(id="x", kind="teleport"))

    def test_duplicate_id_rejected(self):
        plan = Plan()
        plan.sweep(TARGET, LAYER, step_id="dup")
        with pytest.raises(PlanError, match="duplicate step id"):
            plan.sweep(TARGET, LAYER, step_id="dup")

    def test_forward_dependency_rejected(self):
        plan = Plan()
        with pytest.raises(PlanError, match="unknown step"):
            plan.sweep(TARGET, LAYER, depends_on=["later"])

    def test_unknown_model_rejected_up_front(self):
        with pytest.raises(PlanError, match="unknown model"):
            Plan().profile(TARGET, "resnet-9000")

    def test_unknown_experiment_rejected_up_front(self):
        with pytest.raises(PlanError, match="unknown experiment"):
            Plan().figure("fig99")

    def test_unknown_target_rejected_up_front(self):
        with pytest.raises(ValueError):
            Plan().sweep([("warp-core", "acl-gemm")], LAYER)

    def test_empty_sweep_rejected(self):
        with pytest.raises(PlanError, match="at least one target"):
            Plan().sweep([], LAYER)
        with pytest.raises(PlanError, match="at least one layer"):
            Plan().sweep(TARGET, [])

    def test_bad_sweep_step_rejected(self):
        with pytest.raises(PlanError, match="sweep_step"):
            Plan().sweep(TARGET, LAYER, sweep_step=0)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(PlanError, match="unknown strategy"):
            Plan().compare(REQUEST, strategies=["telepathic"])

    def test_unknown_step_params_rejected(self):
        with pytest.raises(PlanError, match="unknown params"):
            Plan().add(Step(
                id="x", kind="prune",
                params={"request": REQUEST.to_dict(), "surprise": 1},
            ))

    def test_missing_step_params_rejected(self):
        with pytest.raises(PlanError, match="missing required params"):
            Plan().add(Step(id="x", kind="sweep", params={}))

    @pytest.mark.parametrize(
        "depends_on", ["a", 5, [1], ("a", None)],
        ids=["string", "int", "int-list", "none-in-tuple"],
    )
    def test_depends_on_must_be_a_list_of_step_ids(self, depends_on):
        plan = Plan()
        plan.figure("table1", step_id="a")
        with pytest.raises(PlanError, match="depends_on must be a list of step ids"):
            plan.figure("table1", step_id="b", depends_on=depends_on)
        assert "b" not in plan


class TestSerialization:
    def test_json_round_trip_is_identity(self):
        plan = build_plan()
        clone = Plan.from_json(plan.to_json())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    def test_round_trip_preserves_dependencies(self):
        plan = build_plan()
        clone = Plan.from_json(plan.to_json(indent=2))
        assert clone.step("compare-1").depends_on == ("sweep-1", "profile-1")

    def test_invalid_json_rejected(self):
        with pytest.raises(PlanError, match="not valid JSON"):
            Plan.from_json("{nope")

    def test_wrong_version_rejected(self):
        with pytest.raises(PlanError, match="unsupported plan version"):
            Plan.from_dict({"version": 99, "steps": []})

    def test_invalid_step_payload_rejected(self):
        with pytest.raises(PlanError, match="unknown step kind"):
            Plan.from_dict({
                "version": 1,
                "steps": [{"id": "x", "kind": "nope", "params": {}}],
            })

    def test_step_payload_with_bad_dependency_rejected(self):
        payload = {
            "version": 1,
            "steps": [{
                "id": "x", "kind": "prune",
                "params": {"request": REQUEST.to_dict()},
                "depends_on": ["ghost"],
            }],
        }
        with pytest.raises(PlanError, match="unknown step"):
            Plan.from_dict(payload)

    @pytest.mark.parametrize("field, message", [
        # Regression: a string was split into characters, so "aa"
        # became ["a", "a"] and was accepted.
        ({"depends_on": "aa"}, "depends_on must be a list of step ids"),
        # Regression: these raised TypeError, not PlanError.
        ({"depends_on": 5}, "depends_on must be a list of step ids"),
        ({"params": 5}, "params must be a mapping"),
    ], ids=["string-depends-on", "int-depends-on", "int-params"])
    def test_step_payload_with_malformed_field_rejected(self, field, message):
        second = {"id": "b", "kind": "figure", "params": {"experiment": "table1"}}
        second.update(field)
        payload = {"version": 1, "steps": [
            {"id": "a", "kind": "figure", "params": {"experiment": "table1"}}, second,
        ]}
        with pytest.raises(PlanError, match=message):
            Plan.from_dict(payload)

    @pytest.mark.parametrize("field", ["executor", "jobs", "seed"])
    def test_plan_payload_with_unknown_top_level_field_rejected(self, field):
        payload = {**build_plan().to_dict(), field: "remote"}
        with pytest.raises(PlanError, match=f"unknown plan fields: \\['{field}'\\]"):
            Plan.from_dict(payload)

    @pytest.mark.parametrize("counts, message", [
        # Regression: ``int()`` over the items swept "12" as [1, 2] and
        # [64.5, 128] as [64, 128]; a bare number raised TypeError.
        ("12", "must be a list of integers"),
        ([12.5, 24], "must be a list of integers"),
        (5, "must be a list of integers"),
        ([True, 24], "must be a list of integers"),
        # Regression: counts beyond the layer were accepted and failed
        # later, when the step ran.
        ([999], "outside 1..24"),
        ([0, 8], "outside 1..24"),
    ], ids=["string", "float", "int", "bool", "too-many", "zero"])
    def test_sweep_with_malformed_channel_counts_rejected(self, counts, message):
        payload = {"version": 1, "steps": [{"id": "s", "kind": "sweep", "params": {
            "targets": [TARGET.to_dict()], "layers": [LAYER.as_dict()],
            "channel_counts": counts,
        }}]}
        with pytest.raises(PlanError, match=message):
            Plan.from_dict(payload)

    def test_sweep_channel_counts_within_the_layer_are_kept_sorted(self):
        plan = Plan()
        step = plan.sweep(TARGET, LAYER, channel_counts=[24, 1, 8, 8])
        assert step.params["channel_counts"] == [1, 8, 24]

    @pytest.mark.parametrize("indices", ["12", [1.7], 16, [False]])
    def test_profile_with_malformed_layer_indices_rejected(self, indices):
        payload = {"version": 1, "steps": [{"id": "p", "kind": "profile", "params": {
            "target": TARGET.to_dict(), "model": "resnet50", "layer_indices": indices,
        }}]}
        with pytest.raises(PlanError, match="layer_indices must be a list of integers"):
            Plan.from_dict(payload)

    @pytest.mark.parametrize("step", ["4", 4.5, [4], True])
    def test_sweep_with_non_integer_sweep_step_rejected(self, step):
        # Regression: ``int()`` read "4" as 4 and 4.5 as 4, and raised
        # TypeError on a list.
        payload = {"version": 1, "steps": [{"id": "s", "kind": "sweep", "params": {
            "targets": [TARGET.to_dict()], "layers": [LAYER.as_dict()], "sweep_step": step,
        }}]}
        with pytest.raises(PlanError, match="sweep_step must be an integer"):
            Plan.from_dict(payload)

    def test_step_payload_with_unknown_field_rejected(self):
        payload = {
            "version": 1,
            "steps": [{"id": "x", "kind": "prune", "params": {}, "color": "red"}],
        }
        with pytest.raises(PlanError, match="unknown step fields"):
            Plan.from_dict(payload)

    def test_layer_specs_survive_the_round_trip(self):
        plan = Plan()
        plan.sweep(TARGET, LAYER, step_id="s")
        clone = Plan.from_json(plan.to_json())
        rebuilt = ConvLayerSpec.from_dict(clone.step("s").params["layers"][0])
        assert rebuilt == LAYER
