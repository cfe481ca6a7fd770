"""Tests for the serializable request/report pipeline."""

import json

import pytest

from repro.api import (
    ComparisonReport,
    PruningReport,
    PruningRequest,
    RequestError,
    Session,
    Target,
)

TARGET = Target("hikey-970", "acl-gemm")


class TestRequestValidation:
    def test_canonicalises_model_target_and_criterion(self):
        request = PruningRequest("ResNet-50", ("hikey", "ACL"), fraction=0.25)
        assert request.model == "resnet50"
        assert request.target == TARGET
        assert request.criterion == "sequential"

    def test_unknown_model_rejected(self):
        with pytest.raises(RequestError, match="unknown model"):
            PruningRequest("mobilenet", TARGET, fraction=0.25)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(RequestError, match="unknown strategy"):
            PruningRequest("resnet50", TARGET, strategy="magic", fraction=0.25)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(RequestError, match="unknown criterion"):
            PruningRequest("resnet50", TARGET, fraction=0.25, criterion="taylor")

    def test_fraction_required_for_fraction_strategies(self):
        with pytest.raises(RequestError, match="fraction"):
            PruningRequest("resnet50", TARGET)
        with pytest.raises(RequestError, match="fraction"):
            PruningRequest("resnet50", TARGET, strategy="uninstructed")

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
    def test_fraction_range_checked(self, fraction):
        with pytest.raises(RequestError):
            PruningRequest("resnet50", TARGET, fraction=fraction)

    def test_budget_required_for_latency_budget(self):
        with pytest.raises(RequestError, match="latency_budget_ms"):
            PruningRequest("resnet50", TARGET, strategy="latency-budget")
        with pytest.raises(RequestError, match="positive"):
            PruningRequest(
                "resnet50", TARGET, strategy="latency-budget", latency_budget_ms=-1.0
            )

    def test_sweep_step_checked(self):
        with pytest.raises(RequestError, match="sweep_step"):
            PruningRequest("resnet50", TARGET, fraction=0.25, sweep_step=0)

    @pytest.mark.parametrize("indices", ["12", [1.7], 16, [True]])
    def test_malformed_layer_indices_rejected(self, indices):
        # Regression: ``int()`` over the items read "12" as (1, 2) and
        # [1.7] as (1,).
        with pytest.raises(RequestError, match="layer_indices must be a list of integers"):
            PruningRequest("resnet50", TARGET, fraction=0.25, layer_indices=indices)
        with pytest.raises(RequestError, match="layer_indices must be a list of integers"):
            PruningRequest.from_dict({
                "model": "resnet50", "target": TARGET.to_dict(), "fraction": 0.25,
                "layer_indices": indices,
            })

    @pytest.mark.parametrize("step", ["4", [4], 4.5])
    def test_non_integer_sweep_step_rejected(self, step):
        # Regression: a string or list raised TypeError from the range
        # check, and 4.5 was accepted.
        with pytest.raises(RequestError, match="sweep_step must be an integer"):
            PruningRequest("resnet50", TARGET, fraction=0.25, sweep_step=step)

    @pytest.mark.parametrize("field, value", [
        ("model", 5), ("model", ["resnet50"]), ("criterion", 5),
    ])
    def test_non_string_names_rejected(self, field, value):
        # Regression: the registry called ``value.strip()`` and raised
        # AttributeError, which the server did not answer.
        with pytest.raises(RequestError, match=f"{field} must be a string"):
            PruningRequest(**{"model": "resnet50", "target": TARGET, "fraction": 0.25,
                              field: value})

    @pytest.mark.parametrize("field", ["device", "library"])
    def test_non_string_target_names_rejected(self, field):
        target = {**TARGET.to_dict(), field: 5}
        with pytest.raises(RequestError, match=f"{field} must be a string"):
            PruningRequest.from_dict(
                {"model": "resnet50", "target": target, "fraction": 0.25}
            )

    @pytest.mark.parametrize("value", ["0.25", [0.25], True])
    def test_non_number_fraction_rejected(self, value):
        # Regression: a string or list raised TypeError from the range check.
        with pytest.raises(RequestError, match="fraction must be a real number"):
            PruningRequest("resnet50", TARGET, fraction=value)

    @pytest.mark.parametrize("value", ["5", [5.0], False])
    def test_non_number_budget_rejected(self, value):
        with pytest.raises(RequestError, match="latency_budget_ms must be a real number"):
            PruningRequest(
                "resnet50", TARGET, strategy="latency-budget", latency_budget_ms=value
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, value):
        # Regression: a NaN budget returned the unpruned network as if it
        # met the budget.
        with pytest.raises(RequestError, match="finite and positive"):
            PruningRequest(
                "resnet50", TARGET, strategy="latency-budget", latency_budget_ms=value
            )

    @pytest.mark.parametrize("model, indices", [
        ("resnet50", (999,)), ("resnet50", (-1,)), ("resnet50", (16, 53)), ("vgg16", (1,)),
    ])
    def test_layer_indices_outside_the_model_rejected(self, model, indices):
        # Regression: accepted here, then the job failed with NetworkError.
        with pytest.raises(RequestError, match="are not conv layers of"):
            PruningRequest(model, TARGET, fraction=0.25, layer_indices=indices)

    def test_layer_indices_of_the_model_accepted(self):
        request = PruningRequest("vgg16", TARGET, fraction=0.25, layer_indices=[0, 28])
        assert request.layer_indices == (0, 28)

    def test_with_strategy(self):
        request = PruningRequest("resnet50", TARGET, fraction=0.25)
        naive = request.with_strategy("uninstructed")
        assert naive.strategy == "uninstructed"
        assert naive.model == request.model


class TestRequestSerialization:
    def test_json_round_trip(self):
        request = PruningRequest(
            "resnet50", Target("tx2", "cudnn", runs=5),
            fraction=0.3, criterion="l1", sweep_step=2, layer_indices=(14, 15, 16),
        )
        restored = PruningRequest.from_json(request.to_json())
        assert restored == request

    def test_json_is_plain_data(self):
        request = PruningRequest("resnet50", TARGET, fraction=0.25)
        payload = json.loads(request.to_json())
        assert payload["target"] == {
            "device": "hikey-970", "library": "acl-gemm", "runs": 3,
        }
        assert payload["strategy"] == "performance-aware"

    def test_budget_round_trip(self):
        request = PruningRequest(
            "resnet50", TARGET, strategy="latency-budget", latency_budget_ms=12.5
        )
        assert PruningRequest.from_json(request.to_json()) == request

    def test_from_dict_missing_keys(self):
        with pytest.raises(RequestError, match="missing key"):
            PruningRequest.from_dict({"model": "resnet50"})


class TestReportSerialization:
    def _report(self):
        return PruningReport(
            model="resnet50",
            target=TARGET,
            strategy="performance-aware",
            channels={15: 96, 16: 128},
            latency_ms=20.0,
            baseline_latency_ms=30.0,
            predicted_accuracy=0.74,
            baseline_accuracy=0.76,
        )

    def test_derived_metrics(self):
        report = self._report()
        assert report.speedup == pytest.approx(1.5)
        assert report.accuracy_drop == pytest.approx(0.02)

    def test_json_round_trip_restores_int_channel_keys(self):
        report = self._report()
        restored = PruningReport.from_json(report.to_json())
        assert restored == report
        assert restored.channels == {15: 96, 16: 128}

    def test_summary_mentions_target_and_strategy(self):
        summary = self._report().summary()
        assert "acl-gemm@hikey-970" in summary
        assert "performance-aware" in summary


class TestComparisonSerialization:
    def test_round_trip_through_json(self):
        session = Session()
        request = PruningRequest("resnet50", TARGET, fraction=0.28, layer_indices=(16,))
        comparison = session.compare(request)
        restored = ComparisonReport.from_json(comparison.to_json())
        assert restored.request == request
        assert restored["performance-aware"] == comparison["performance-aware"]
        assert restored.latency_advantage == pytest.approx(comparison.latency_advantage)

    def test_end_to_end_report_round_trip_matches_fresh_run(self):
        """A report shipped through JSON equals re-running the request."""

        request_wire = PruningRequest(
            "resnet50", TARGET, fraction=0.28, layer_indices=(16,)
        ).to_json()
        session = Session()
        report = session.prune(PruningRequest.from_json(request_wire))
        rerun = Session().prune(PruningRequest.from_json(request_wire))
        assert PruningReport.from_json(report.to_json()) == rerun
