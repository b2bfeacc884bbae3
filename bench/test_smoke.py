"""Smoke test of the benchmark itself, at minimal size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload of BENCHMARK.json for one second, untraced and traced
twice, the way the benchmark command is run: from the repository root.
"""
import json
import os
import shutil
import subprocess
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                              "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def lines(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    detail, result = lines(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["oracle"]["decided"] > 0
    assert detail["tail"]["requests"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_verdicts_and_calls(workload):
    first_detail, first = lines(run(workload, 1))
    _, second = lines(run(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["correct"] and first_detail["verdicts_identical_to_untraced"]
    assert first_detail["oracle"]["decided"] > 0

    def calls(result):
        return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}

    assert calls(first) == calls(second)
    assert calls(first)["cli.main.calls"] == first["attempted"]


def test_refuses_to_run_without_the_program():
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
