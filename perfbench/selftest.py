"""Fast self-test of the benchmark: tiny runs of every workload.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``
(about a minute; not collected by the tier-1 suite).  Checks that every
metric named in BENCHMARK.json is printed with its unit in the mode that
owns it, that the correctness gate ran and passed, and that a deliberately
altered served answer fails the gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seconds", "2", "--scale", "0.015625"]


def _run(workload: str, trace: int) -> tuple[dict, str]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--trace", str(trace), *TINY],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )  # fmt: skip
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stdout


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    result, stdout = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert "# correctness gate:" in stdout
    assert result["correct"], stdout
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_altered_served_answer_fails_the_gate():
    def alter(served):
        values = list(served.batch_spread)
        values[len(values) // 2] += 1.0
        return replace(served, batch_spread=values)

    result = run.run_benchmark(
        "additive_ingest", seed=3, seconds=2, trace=False, scale=0.015625, tamper=alter
    )
    assert not result["correct"]
    assert result["failed"] >= 1
