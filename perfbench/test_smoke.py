"""Smoke test of the benchmark itself, at reduced length.

    python3 -m pytest perfbench/test_smoke.py     (from the repository root)

Runs every workload for one second untraced and traced, and checks that the
last line is the result object naming every metric of BENCHMARK.json with its
unit.  Also checks that the benchmark fails, printing no result, in a
directory without the fracspec sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int, env=None) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, env=env)


def check_result(proc: subprocess.CompletedProcess, trace: int):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    check_result(run_bench(ROOT, workload, trace), trace)


def test_traced_mode_solves_on_worker_threads():
    """pde-2d spreads its mode solves over FRACSPEC_THREADS worker threads."""
    env = {**os.environ, "FRACSPEC_THREADS": "2"}
    proc = run_bench(ROOT, "pde-2d", 1, env)
    check_result(proc, 1)
    with open(os.path.join(OUT, "pde-2d-seed1-trace1.json"), encoding="utf-8") as fh:
        notes = json.load(fh)["notes"]
    assert notes["self_time_check"]["ops_threaded"] > 0


def test_fails_without_sources():
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
