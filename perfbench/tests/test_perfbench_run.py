"""The driver's output contract, exercised in fresh processes.

``run.py`` re-imports ``repro`` to time set-up, so it runs in a
subprocess here rather than inside the test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_sweep_result_line_names_every_metric(trace, section):
    proc = _run("--workload", "sweep", "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for spec in SPEC[section]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    record = json.loads(record_line)
    assert record["seed"] == 5
    assert record["circuits"]["hea-14x3"]
    assert record["determinism_failures"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
