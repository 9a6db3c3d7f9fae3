"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The shortest run of every workload, the failure accounting on a planted wrong
verdict, the repeatability of per-layer counts, the metric names against
BENCHMARK.json, and the refusal to run outside a source checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
from fellap import algebra, bundles  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_lists_what_the_runs_report():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.METRICS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_shortest_run_of_each_workload(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_ITEMS
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())
    # Times are busy times at reference speed: each item's wall time less
    # its run-queue wait, over the speed factor probed around it.
    with open(os.path.join(run.RESULTS, f"{workload}-seed3-trace0.json")) as fh:
        record = json.load(fh)
    wall, busy = record["durations_s"], record["busy_s"]
    assert len(wall) == len(busy) == result["attempted"]
    assert all(0 < b <= w for b, w in zip(busy, wall))
    scaled = [b / f for b, f in zip(busy, record["speed_factors"])]
    assert metrics["items_per_s"]["value"] == pytest.approx(len(scaled) / sum(scaled))
    assert record["wall_metrics"]["items_per_s"] == pytest.approx(len(wall) / sum(wall))


def test_wrong_verdict_counts_as_failed_and_fails_the_command(monkeypatch, capsys):
    # A twist validator that accepts everything misses the planted
    # perturbed-phase control, once per round, and nothing else.
    monkeypatch.setattr(bundles, "validate_twist", lambda *a, **k: algebra.ActionReport())
    code = run.main(["--workload", "certify-sweep", "--seed", "4", "--seconds", "0"])
    result = last_json(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    with open(os.path.join(run.RESULTS, "certify-sweep-seed4-trace0.json")) as fh:
        record = json.load(fh)
    assert record["failed_frac"] == result["failed"] / result["attempted"]
    assert len(record["problems"]) == result["failed"]
    assert all("planted/perturbed-phase" in p for p in record["problems"])


@pytest.mark.parametrize("workload", ["kernel-window", "boundary-net"])
def test_layer_counts_repeat_exactly_for_one_seed(workload):
    runs = [command("--workload", workload, "--seed", 9, "--seconds", 1, "--trace", 1) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), [proc.stderr for proc in runs]
    first, second = (last_json(proc.stdout) for proc in runs)
    assert set(first["metrics"]) == {name for name, _, _ in tracing.METRICS}
    counts = {name for name, unit, _ in tracing.METRICS if unit not in ("s", "frac")}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    worked = "kernels.window_rep.builds" if workload == "kernel-window" else "cli.invocations"
    assert first["metrics"][worked]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    proc = command("--workload", "envelope", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
