"""Tests for the service/store CLI surface: submit, store compact/stats,
--version."""


import pytest

import repro
from repro.api import Plan, Target
from repro.experiments.cli import main
from repro.models import ConvLayerSpec
from repro.profiling import Sweep
from repro.profiling.store import STORE_MARKER, ProfileStore, shard_id_for
from repro.service import ReproServer

TARGET = Target("hikey-970", "acl-gemm")

LAYER = ConvLayerSpec(
    name="test.cli.conv", in_channels=16, out_channels=24,
    kernel_size=3, stride=1, padding=1, input_hw=14,
)


def flat_copy(store_path, flat_path):
    """A single-file store: the shards of ``store_path``, concatenated."""

    shards = sorted(store_path.glob("*.jsonl"))
    flat_path.write_bytes(b"".join(shard.read_bytes() for shard in shards))
    return flat_path


def write_plan(tmp_path, sweep_step: int = 8):
    plan = Plan()
    plan.sweep(TARGET, LAYER, sweep_step=sweep_step)
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(indent=2), encoding="utf-8")
    return path


class TestVersionFlag:
    def test_version_flag_prints_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestSubmitCommand:
    def test_submit_and_watch_runs_a_plan_to_completion(self, tmp_path, capsys):
        plan_path = write_plan(tmp_path)
        with ReproServer(profile_store=tmp_path / "profiles.jsonl") as server:
            code = main(["submit", str(plan_path), "--url", server.url, "--watch"])
        output = capsys.readouterr().out
        assert code == 0
        assert "submitted" in output
        assert "job-finished" in output
        assert "succeeded" in output

    def test_submit_without_watch_returns_after_queueing(self, tmp_path, capsys):
        plan_path = write_plan(tmp_path)
        with ReproServer(profile_store=tmp_path / "profiles.jsonl") as server:
            assert main(["submit", str(plan_path), "--url", server.url]) == 0
            assert "queued" in capsys.readouterr().out

    def test_submitted_jobs_run_in_the_server_process(self, tmp_path, capsys):
        from repro.service import ServiceClient

        plan_path = write_plan(tmp_path)
        with ReproServer() as server:
            assert main(["submit", str(plan_path), "--url", server.url, "--watch"]) == 0
            record = ServiceClient(server.url).job(server.store.list()[-1].id)
        capsys.readouterr()
        assert record["status"] == "succeeded" and record["simulations"] > 0
        assert "executor" not in record
        assert "executor" not in record["events"][0]

    def test_failed_job_exits_1(self, tmp_path, capsys):
        plan = Plan()
        plan.figure("fig04", step=0)  # explodes at run time
        plan_path = tmp_path / "bad-figure.json"
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        with ReproServer() as server:
            code = main(["submit", str(plan_path), "--url", server.url, "--watch"])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed" in captured.out
        assert "Traceback" in captured.err

    def test_missing_and_invalid_plan_files_exit_2(self, tmp_path, capsys):
        assert main(["submit", str(tmp_path / "none.json"), "--url", "http://x"]) == 2
        assert "not found" in capsys.readouterr().err
        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        assert main(["submit", str(broken), "--url", "http://x"]) == 2
        assert "invalid plan" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--url", "http://x"])
        assert excinfo.value.code == 2
        assert "required: PLAN" in capsys.readouterr().err

    def test_unreachable_service_exits_2(self, tmp_path, capsys):
        plan_path = write_plan(tmp_path)
        code = main([
            "submit", str(plan_path), "--url", "http://127.0.0.1:1",
        ])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestStoreCommand:
    def make_store_with_duplicates(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        store = ProfileStore(path)
        from repro.profiling.runner import ProfileRunner

        runner = ProfileRunner.for_target(TARGET, store=store)
        runner.measure_many(LAYER, [8, 16, 24])
        # Re-record one measurement under its own group key so
        # compaction has a duplicate to drop.
        fresh = ProfileStore(path)
        duplicate = ProfileRunner.for_target(TARGET, store=fresh).measure(LAYER, 16)
        fresh.record(
            duplicate.device_name, duplicate.library_name, duplicate.runs,
            LAYER, Sweep.of([duplicate]),
        )
        return path

    def test_stats_reports_entries_and_compactable(self, tmp_path, capsys):
        path = self.make_store_with_duplicates(tmp_path)
        assert main(["store", "stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert str(path) in output
        assert "3 distinct configuration(s)" in output
        assert "compactable:  1" in output
        # Per-target breakdown: duplicates included in measurements,
        # deduped in entries (hikey-970 resolves to its mali-g72 GPU).
        assert "target acl-gemm@mali-g72: 3 entr(y/ies), 4 measurement(s)" in output

    def test_compact_drops_duplicates_and_reports_sizes(self, tmp_path, capsys):
        path = self.make_store_with_duplicates(tmp_path)
        before = ProfileStore(path).file_stats()["bytes"]
        assert main(["store", "compact", str(path)]) == 0
        output = capsys.readouterr().out
        assert "dropped 1" in output
        assert f"{before} ->" in output
        assert len(ProfileStore(path)) == 3
        # A second compaction finds nothing to drop.
        assert main(["store", "compact", str(path)]) == 0
        assert "dropped 0" in capsys.readouterr().out

    def test_bad_usage_and_missing_path_exit_2(self, tmp_path, capsys):
        for argv in (["store", "defrag", str(tmp_path / "x.jsonl")], ["store", "compact"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "usage:" in capsys.readouterr().err
        assert main(["store", "stats", str(tmp_path / "none.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_init_creates_a_sharded_store(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main(["store", "init", str(path)]) == 0
        assert "initialized profile store" in capsys.readouterr().out
        assert (path / STORE_MARKER).exists()
        # init is idempotent; a flat file at the path is rejected.
        assert main(["store", "init", str(path)]) == 0
        capsys.readouterr()
        flat = flat_copy(self.make_store_with_duplicates(tmp_path), tmp_path / "flat.jsonl")
        assert main(["store", "init", str(flat)]) == 2
        assert f"{flat} is a file, not a store directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["store", "compact"], ["store", "stats"], ["run-plan", "PLAN", "--profile-store"],
    ], ids=["store-compact", "store-stats", "run-plan"])
    def test_a_single_file_store_is_refused_and_left_alone(self, tmp_path, capsys, argv):
        flat = flat_copy(self.make_store_with_duplicates(tmp_path), tmp_path / "flat.jsonl")
        before = flat.read_bytes()
        plan_path = str(write_plan(tmp_path))
        assert main([plan_path if arg == "PLAN" else arg for arg in argv] + [str(flat)]) == 2
        error = capsys.readouterr().err
        assert f"{flat} is a file, not a store directory" in error
        assert "compact" not in error
        assert flat.read_bytes() == before

    def test_stats_on_a_sharded_store_breaks_figures_down_per_shard(
        self, tmp_path, capsys
    ):
        path = self.make_store_with_duplicates(tmp_path)
        assert main(["store", "compact", str(path)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert f"shard {shard_id_for('mali-g72', 'acl-gemm')}: 3 entr(y/ies)" in output
        assert "target acl-gemm@mali-g72: 3 entr(y/ies), 3 measurement(s)" in output


class TestServeCommand:
    def test_a_flat_profile_store_exits_2(self, tmp_path, capsys):
        flat = tmp_path / "flat.jsonl"
        flat.write_text("", encoding="utf-8")
        assert main(["serve", "--port", "0", "--profile-store", str(flat)]) == 2
        error = capsys.readouterr().err
        assert "cannot start service" in error and f"{flat} is a file" in error

    def test_occupied_port_exits_2(self, capsys):
        import socket

        # A live listener on the port forces EADDRINUSE (SO_REUSEADDR
        # only forgives TIME_WAIT, not active listeners).
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--host", "127.0.0.1", "--port", str(port)]) == 2
        assert "cannot start service" in capsys.readouterr().err

    def test_bad_worker_count_exits_2(self, capsys):
        assert main(["serve", "--port", "0", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_unknown_default_executor_exits_2(self, capsys):
        # Every job runs in the server process: serve takes no executor.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--executor", "remote"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --executor remote" in capsys.readouterr().err

    def test_bad_lease_ttl_exits_2(self, capsys):
        # There are no leases left to time out.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--lease-ttl", "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --lease-ttl 5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "0", "--jobs=0"],
        ["serve", "--port", "0", "--autoscale=0:4"],
        ["submit", "plan.json", "--jobs=2"],
        ["metrics", "--fleet"],
        ["submit", "plan.json", "--executor", "serial"],
        ["worker", "--url", "http://127.0.0.1:1"],
    ])
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMetricsCommand:
    def run_a_job(self, server, tmp_path):
        assert main([
            "submit", str(write_plan(tmp_path)), "--url", server.url, "--watch",
        ]) == 0

    def test_plain_verb_is_a_byte_identical_passthrough(self, tmp_path, capsys):
        from repro.service import ServiceClient

        with ReproServer(profile_store=tmp_path / "profiles.jsonl") as server:
            self.run_a_job(server, tmp_path)
            raw = ServiceClient(server.url).metrics_text()
            assert main(["metrics", "--url", server.url]) == 0
        output = capsys.readouterr().out
        # CI diffs this against curl: the verb must not re-render.
        assert raw in output and "repro_jobs_finished_total" in raw

    def test_grep_filters_families_and_series(self, tmp_path, capsys):
        with ReproServer(profile_store=tmp_path / "profiles.jsonl") as server:
            self.run_a_job(server, tmp_path)
            assert main([
                "metrics", "--url", server.url, "--grep", "jobs_finished",
            ]) == 0
        output = capsys.readouterr().out
        assert "repro_jobs_finished_total" in output
        assert "repro_store_" not in output

    def test_bad_grep_pattern_exits_2(self, tmp_path, capsys):
        with ReproServer() as server:
            assert main([
                "metrics", "--url", server.url, "--grep", "[unclosed",
            ]) == 2
        assert "bad --grep pattern" in capsys.readouterr().err

    def test_json_to_stdout_and_to_a_file(self, tmp_path, capsys):
        import json as json_module

        with ReproServer(profile_store=tmp_path / "profiles.jsonl") as server:
            self.run_a_job(server, tmp_path)
            capsys.readouterr()
            assert main(["metrics", "--url", server.url, "--json"]) == 0
            snapshot = json_module.loads(capsys.readouterr().out)
            assert "repro_jobs_finished_total" in snapshot
            path = tmp_path / "metrics.json"
            assert main([
                "metrics", "--url", server.url, "--json", str(path),
                "--grep", "jobs_finished",
            ]) == 0
            assert "wrote" in capsys.readouterr().out
            saved = json_module.loads(path.read_text())
            assert set(saved) == {"repro_jobs_finished_total"}

    def test_unreachable_service_exits_2(self, capsys):
        assert main(["metrics", "--url", "http://127.0.0.1:1", "--grep", "x"]) == 2
        assert "cannot reach" in capsys.readouterr().err
