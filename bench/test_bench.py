"""``python -m pytest bench -q``: the benchmark's own checks.

Outside tier-1 ``testpaths`` on purpose: these spawn real clusters.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for row in SPEC["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in SPEC["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    rows = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names)), "a name is used twice"
    for row in rows:
        assert NAME.match(row["name"]), row["name"]
        if "unit" in row:
            assert UNIT.match(row["unit"]), row
            assert row["better"] in ("lower", "higher")
    setup = [r for r in SPEC["end_to_end"] if r["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    # The driver's 4 + 22 x workloads runs must fit 3420 s; leave 10 s a
    # run for set-up.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) <= 3420


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    done = run_bench("--workload", workload, "--seed", "11", "--smoke",
                     "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {row["name"]: row["unit"] for row in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == expected[name]
        assert cell["value"] > 0, name


def test_traced_smoke_run_reports_every_per_layer_metric():
    done = run_bench("--workload", "wire_stream", "--seed", "11", "--smoke",
                     "--trace", "1")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = {row["name"]: row["unit"] for row in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == expected[name]
    trace = json.loads((ROOT / "bench/results/trace-wire_stream.json").read_text())
    assert {"id", "name", "start", "end", "parent", "workload"} <= set(
        trace["spans"][0])


def test_fails_without_printing_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run_bench("--workload", "sim_fig1", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
