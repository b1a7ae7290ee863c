"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints a correct result whose metric names and
units are exactly the ones `BENCHMARK.json` declares, and that the
benchmark refuses to run without the program next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        run.per_layer_names()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, _unit in run.END_TO_END if not trace else ():
        assert result["metrics"][name]["value"] > 0, name
    if workload == "flowers":
        # the nine uniform pairs that fail today are always in the sample
        assert result["failed"] >= len(workloads.KNOWN_RAISING_PAIRS)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def inputs(workload, seed, name):
        d = tmp_path / workload / name
        workloads.make_inputs(workload, seed, "full", d)
        return {p.name: p.read_text().replace(str(d), "")
                for p in sorted(d.iterdir()) if p.name != "plan.json"} | {
            "plan": (d / "plan.json").read_text().replace(str(d), "").replace(
                f'"seed": {seed}', "")}

    for workload in workloads.WORKLOADS:
        assert inputs(workload, 7, "a") == inputs(workload, 7, "b")
        assert inputs(workload, 7, "a") != inputs(workload, 8, "c")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
