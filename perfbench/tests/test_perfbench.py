"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

One pass of every workload must pass the gate, the gate must count a
corrupted output and a raising call as failures, the pace must scale wall
times to the reference, and ``run.py`` must print
exactly the metrics ``BENCHMARK.json`` names, or nothing when the library is
missing.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from gate import Gate, load_pins  # noqa: E402
from pace import REFERENCE_S, Pace  # noqa: E402
from run import on_one_cpu, run_pass, tail  # noqa: E402


def build(name, seed, tmp_path):
    return workloads.build(name, workloads.write_spec(name, seed, tmp_path))


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_has_no_failures(name, seed, tmp_path):
    workload = build(name, seed, tmp_path)
    pins = load_pins(name) if seed == workloads.DEFAULT_SEED else {}
    gate = Gate(pins)
    ops = workload.ops() + workload.checks()
    run_pass(ops, gate)
    assert gate.attempted == len(ops)
    assert gate.fail_ratio == 0, gate.failures


def test_gate_counts_corrupted_outputs_and_raising_call(tmp_path):
    workload = build("action_calculus", workloads.DEFAULT_SEED, tmp_path)
    op = next(op for op in workload.ops() if op.name == "action_tables")
    gate = Gate(load_pins("action_calculus"))
    result = op.call()

    corrupted = dataclasses.replace(op, serialize=lambda p: workloads.cli_json(p) + b" ")
    assert not gate.verify(corrupted, result)            # artifact differs from the pin
    assert gate.verify(op, result)

    def one_row_short(tables):
        return {**op.payload(tables), "t_rows": tables.t_rows[:-1]}
    assert not gate.verify(dataclasses.replace(op, payload=one_row_short), result)

    raising = dataclasses.replace(op, call=lambda: 1 / 0)
    run_pass([raising], gate)
    assert (gate.attempted, gate.failed) == (4, 3)
    assert gate.fail_ratio == pytest.approx(3 / 4)


def test_invariants_flag_broken_outputs():
    bars = [SimpleNamespace(birth=0.0, death=1.0), SimpleNamespace(birth=0.0, death=float("inf"))]
    assert workloads.barcode_problems(bars, 3) == []
    assert workloads.barcode_problems(bars[:1], 3)
    res = SimpleNamespace(values=[0.0, 1.0], upper_slack=0.0, lower_slack=-1e-6)
    assert workloads.transfer_problems(res, 2)


def test_tail_leaves_ten_samples_above():
    assert tail([float(v) for v in range(1, 41)]) == (30.0, 75, 40)
    value, pct, n = tail([float(v) for v in range(1, 12)])
    assert (pct, n) == (9, 11) and sum(v > value for v in range(1, 12)) >= 10


def declared(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "barcode_reduce",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared(kind)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_scales_wall_time_to_the_reference():
    pace = Pace("sets")
    ref = REFERENCE_S["sets"]
    assert pace.scale(0.3, ref) == pytest.approx(0.3)
    assert pace.scale(0.3, 1.5 * ref) == pytest.approx(0.2)    # a slowed machine
    assert pace.measure(3) > 0 and len(pace.samples) == 1


def test_children_run_on_one_cpu_and_affinity_comes_back():
    before = os.sched_getaffinity(0)
    with on_one_cpu():
        assert len(os.sched_getaffinity(0)) == 1
    assert os.sched_getaffinity(0) == before
