"""Tests for the experiment CLI."""

import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import available_experiments
from repro.experiments.cli import main, run_many


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(available_experiments())

    def test_run_single_table(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "gemm_mm" in output
        assert "table1" in output

    def test_run_multiple_experiments(self, capsys):
        assert main(["table2", "table5"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "Table V" in output

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["table3", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload[0]["experiment_id"] == "table3"
        assert "measured" in payload[0]

    def test_run_many_helper(self):
        results = run_many(["table1", "table4"])
        assert [result.experiment_id for result in results] == ["table1", "table4"]

    def test_unknown_experiment_exits_2_and_lists_ids(self, capsys):
        assert main(["fig99"]) == 2
        captured = capsys.readouterr()
        assert "fig99" in captured.err
        # The error message enumerates every valid identifier.
        assert "fig01" in captured.err and "table5" in captured.err

    def test_unknown_experiment_in_a_batch_exits_2(self, capsys):
        assert main(["table1", "not-an-id"]) == 2
        assert "not-an-id" in capsys.readouterr().err


def run_cli_into_pipe(args, *, read_first_line):
    """Run ``python -m repro.experiments ARGS`` with stdout on a pipe whose
    reader goes away: before anything is written, or after the first line.

    Returns ``(exit status, first line read, stderr)``.
    """

    read_end, write_end = os.pipe()
    if read_first_line:
        # The smallest pipe: the child's output overflows it, so the
        # child is still writing when the reader closes.
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    else:
        os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *args],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    first = b""
    if read_first_line:
        with os.fdopen(read_end, "rb") as reader:
            first = reader.readline()
    _, stderr = proc.communicate(timeout=300)
    return proc.returncode, first, stderr.decode()


class TestClosedPipe:
    """``repro-experiments VERB | head -1``: a reader that goes away ends
    the run with status 1 and no traceback, for every printing verb."""

    @pytest.mark.parametrize("verb", ["list", "targets"])
    def test_reader_gone_before_the_first_line(self, verb):
        code, _, stderr = run_cli_into_pipe([verb], read_first_line=False)
        assert code == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr

    @pytest.mark.skipif(
        not hasattr(fcntl, "F_SETPIPE_SZ"),
        reason="needs a resizable pipe (Linux)",
    )
    def test_reader_closes_after_the_first_line(self):
        code, first, stderr = run_cli_into_pipe(["all"], read_first_line=True)
        assert first.startswith(b"=" * 72)
        assert code == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


class TestProfileStoreFlag:
    def test_second_invocation_replays_from_the_store(self, tmp_path, capsys):
        """With --profile-store a repeated run simulates nothing new.

        Each ``main`` call builds its own session (there is no shared
        process-global state to reset between "processes"), so the
        printed simulation summary is the observable contract.
        """

        path = tmp_path / "profiles.jsonl"
        assert main(["fig04", "--profile-store", str(path)]) == 0
        first = capsys.readouterr().out
        assert "simulated 0 configuration(s) in-process" not in first
        assert path.exists()

        assert main(["fig04", "--profile-store", str(path)]) == 0
        second = capsys.readouterr().out
        assert "simulated 0 configuration(s) in-process" in second

    def test_cli_sessions_do_not_touch_the_default_session(self, tmp_path, capsys):
        from repro.experiments.base import default_session

        path = tmp_path / "profiles.jsonl"
        before = default_session().simulation_count()
        assert main(["table1", "--profile-store", str(path)]) == 0
        assert main(["table1"]) == 0
        # CLI invocations own their sessions: no store (and no warm-up)
        # leaks into the shared convenience session.
        assert default_session().store is None
        assert default_session().simulation_count() == before
        capsys.readouterr()


class TestRunPlanSubcommand:
    @pytest.fixture()
    def plan_path(self, tmp_path, layer16):
        from repro.api import Plan, PruningRequest, Target

        plan = Plan()
        plan.sweep(
            [Target("hikey-970", "acl-gemm"), Target("jetson-tx2", "cudnn")],
            layer16,
            sweep_step=16,
        )
        plan.prune(
            PruningRequest(
                "resnet50", Target("hikey-970", "acl-gemm"),
                fraction=0.25, layer_indices=(16,), sweep_step=8,
            ),
        )
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(indent=2), encoding="utf-8")
        return path

    def test_run_plan_serial(self, plan_path, capsys):
        assert main(["run-plan", str(plan_path)]) == 0
        output = capsys.readouterr().out
        assert "sweep-1" in output and "prune-1" in output
        assert "executor" not in output

    def test_run_plan_serial_with_store_and_json(self, plan_path, tmp_path, capsys):
        store = tmp_path / "profiles.jsonl"
        out_json = tmp_path / "results.json"
        argv = [
            "run-plan", str(plan_path),
            "--profile-store", str(store), "--json", str(out_json),
        ]
        assert main(argv) == 0
        assert "simulated 0 configuration(s) in-process" not in capsys.readouterr().out
        assert store.exists()
        payload = json.loads(out_json.read_text())
        assert "executor" not in payload[0]
        assert set(payload[0]["steps"]) == {"sweep-1", "prune-1"}

        replay_json = tmp_path / "replay.json"
        argv[-1] = str(replay_json)
        assert main(argv) == 0
        assert "simulated 0 configuration(s) in-process" in capsys.readouterr().out
        assert json.loads(replay_json.read_text()) == payload

    def test_removed_executor_and_jobs_flag_exit_2(self, plan_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-plan", str(plan_path), "--executor", "process"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --executor" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["run-plan", str(plan_path), "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_missing_plan_file_exits_2(self, tmp_path, capsys):
        assert main(["run-plan", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_plan_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "steps": [{"id": "x", "kind": "nope"}]}')
        assert main(["run-plan", str(path)]) == 2
        assert "invalid plan" in capsys.readouterr().err

    def test_a_step_carrying_depends_on_exits_2_naming_the_field(
        self, plan_path, tmp_path, capsys
    ):
        payload = json.loads(plan_path.read_text(encoding="utf-8"))
        payload["steps"][1]["depends_on"] = [payload["steps"][0]["id"]]
        path = tmp_path / "with-deps.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run-plan", str(path)]) == 2
        error = capsys.readouterr().err
        assert "invalid plan" in error and "unknown step fields: ['depends_on']" in error

    def test_unknown_executor_exits_2(self, plan_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-plan", str(plan_path), "--executor", "quantum"])
        assert excinfo.value.code == 2
        assert "quantum" in capsys.readouterr().err

    def test_no_plan_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-plan"])
        assert excinfo.value.code == 2
        assert "required: PLAN" in capsys.readouterr().err

    def test_invalid_seed_exits_2(self, plan_path, capsys):
        assert main(["run-plan", str(plan_path), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err


class TestTraceSubcommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        from repro.obs.trace import TraceWriter, Tracer

        path = tmp_path / "trace.jsonl"
        tracer = Tracer(writer=TraceWriter(path))
        with tracer.span("job", step="sweep-1") as root:
            with tracer.span("executor.step"):
                pass
        self.trace_id = root.trace_id
        return path

    def test_ls_prints_one_row_per_trace(self, trace_path, capsys):
        assert main(["trace", "ls", "--file", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "TRACE" in output and "ROOT" in output
        assert self.trace_id in output
        assert "job" in output

    def test_ls_json_emits_summaries(self, trace_path, capsys):
        assert main(["trace", "ls", "--file", str(trace_path), "--json"]) == 0
        (summary,) = json.loads(capsys.readouterr().out)
        assert summary["trace"] == self.trace_id
        assert summary["spans"] == 2
        assert summary["root"] == "job"

    def test_show_renders_the_indented_tree(self, trace_path, capsys):
        assert main(["trace", "show", self.trace_id, "--file", str(trace_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"trace {self.trace_id}  (2 spans)")
        assert lines[1].startswith("job  ")
        assert lines[2].startswith("  executor.step  ")

    def test_show_cross_references_a_metrics_snapshot(self, trace_path, tmp_path, capsys):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram(
            "repro_step_seconds", "W.", buckets=(5.0,)
        ).observe(4.2, exemplar=self.trace_id)
        snapshot_path = tmp_path / "metrics.json"
        snapshot_path.write_text(json.dumps(registry.snapshot()), encoding="utf-8")
        assert main([
            "trace", "show", self.trace_id, "--file", str(trace_path),
            "--metrics-json", str(snapshot_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "metric exemplars referencing this trace:" in output
        assert "repro_step_seconds le=5.0  value=4.2" in output

    def test_unknown_trace_and_bad_usage_exit_2(self, trace_path, capsys):
        assert main(["trace", "show", "no-such-trace", "--file", str(trace_path)]) == 2
        assert "no spans" in capsys.readouterr().err
        for argv, message in (
            (["trace", "ls"], "--file"),
            (["trace", "prune", "--file", str(trace_path)], "usage"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert message in capsys.readouterr().err
        assert main(["trace", "ls", "--file", str(trace_path / "absent")]) == 2
        assert "not found" in capsys.readouterr().err


class TestTargetsSubcommand:
    def test_targets_lists_every_device_library_pair(self, capsys):
        from repro.gpusim import DEVICES
        from repro.libraries import LIBRARIES

        assert main(["targets"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == len(DEVICES.available()) * len(LIBRARIES.available())

    def test_targets_marks_compatibility(self, capsys):
        assert main(["targets"]) == 0
        output = capsys.readouterr().out
        assert "hikey-970    acl-gemm     ok (opencl)" in output
        assert "jetson-tx2   cudnn        ok (cuda)" in output
        assert "jetson-tx2   acl-gemm     incompatible (api mismatch)" in output


#: The flags each verb's handler reads (``()``: bare experiment ids).
VERB_FLAGS = {
    (): {"--json", "--profile-store", "--markdown", "--version"},
    ("list",): set(),
    ("targets",): set(),
    ("run-plan",): {"--profile-store", "--seed", "--trace", "--json"},
    ("serve",): {"--host", "--port", "--workers", "--profile-store", "--trace"},
    ("submit",): {"--url", "--seed", "--watch"},
    ("metrics",): {"--url", "--grep", "--json"},
    ("trace", "ls"): {"--file", "--json"},
    ("trace", "show"): {"--file", "--metrics-json"},
    ("store",): set(),
    ("lint",): {"--select", "--ignore", "--format", "--list-checks"},
}


class TestVerbParsers:
    @pytest.mark.parametrize("argv, flag", [
        (["fig04", "--seed", "5"], "--seed"),
        (["table1", "--trace", "t.jsonl"], "--trace"),
        (["list", "--port", "9"], "--port"),
        (["store", "stats", "P", "--url", "U"], "--url"),
        (["run-plan", "P", "--watch"], "--watch"),
        (["run-plan", "P", "--executor", "serial"], "--executor"),
    ])
    def test_a_flag_the_verb_does_not_read_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", sorted(VERB_FLAGS), ids=" ".join)
    def test_help_lists_only_the_verbs_own_flags(self, verb, capsys, monkeypatch):
        import re

        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            main([*verb, "--help"])
        assert excinfo.value.code == 0
        # Option rows are indented two spaces; wrapped help text deeper.
        listed = set(re.findall(
            r"^  (?:-h, )?(--[a-z][a-z-]*)", capsys.readouterr().out, re.MULTILINE
        ))
        assert listed - {"--help"} == VERB_FLAGS[verb]

    def test_bare_ids_keep_json_and_markdown(self, tmp_path, capsys):
        out_json, report = tmp_path / "out.json", tmp_path / "r.md"
        assert main([
            "table1", "table5", "--json", str(out_json), "--markdown", str(report),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert [entry["experiment_id"] for entry in payload] == ["table1", "table5"]
        assert report.exists()
