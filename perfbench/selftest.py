"""Self-test of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    python3 perfbench/selftest.py [workload ...]

It checks, for each named workload (default: all four):

* two traced runs with the same seed report identical exact counts;
* ``prune-replay`` plans and simulates nothing, and the leaf layers
  cover at least 90% of ``prune-cold``'s traced wall-clock;

and, once:

* a wrong committed digest is counted as a failure by the gate;
* ``run.py`` fails without a result when only ``BENCHMARK.json`` and the
  benchmark's own files are present.

Exit status 0 means every check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Counts that must repeat exactly between runs of the same seed.
EXACT_COUNTS = (
    "api.steps", "libraries.plan_calls", "gpusim.configs", "runner.simulations",
    "store.served", "staircase.analyze_calls", "staircase.tables",
)


def traced(workload: str, seed: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    if child.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed the correctness gate")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def check(ok: bool, message: str, failures: list) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def check_gate_counts_a_wrong_digest(failures: list) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import Gate, PaperAll

    gate = Gate.load()
    first = sorted(gate.digests["experiments"])[0]
    gate.digests["experiments"][first] = "0" * 64
    workload = PaperAll(0, gate)
    workload.run_pass(workload.setup(Path(".")))
    check(gate.failed == 1, f"a wrong digest for {first} counts one failure", failures)


def check_fails_without_sources(failures: list) -> None:
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=tmp_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        child = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "prune-cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180, check=False,
        )
        check(child.returncode != 0 and not child.stdout.strip(),
              "run.py fails without a result when the sources are missing", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = argv or [entry["name"] for entry in spec["workloads"]]
    failures: list = []
    for name in names:
        first, second = traced(name, 1), traced(name, 1)
        for count in EXACT_COUNTS:
            check(first[count] == second[count],
                  f"{name}/{count} repeats exactly ({first[count]} vs {second[count]})",
                  failures)
        if name == "prune-replay":
            for count in ("libraries.plan_calls", "gpusim.simulate_calls"):
                check(first[count] == 0, f"{name}/{count} is 0", failures)
        if name == "prune-cold":
            check(first["obs.leaf_share"] >= 0.9,
                  f"{name} leaf layers cover {first['obs.leaf_share']:.1%} of traced wall",
                  failures)
    check_gate_counts_a_wrong_digest(failures)
    check_fails_without_sources(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
