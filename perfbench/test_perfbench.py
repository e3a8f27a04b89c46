"""The benchmark's own test.

    python3 -m pytest perfbench/test_perfbench.py

Short runs (one pass, no warm-up) of every workload must emit every metric
that BENCHMARK.json names, with its unit, and no failed operation; a traced
pass must give the same outputs as an untraced one; and the correctness
gate must count a corrupted input or a wrong expectation as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

run._import_ternlab()

import spans  # noqa: E402  (needs ternlab on the path)
import workloads  # noqa: E402


def _short_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_and_passes(workload, trace):
    result = _short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # with trace 1 a failure also means a traced output differed from the untraced one
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_times_use_the_gaps_on_both_sides():
    nominal = hostspeed.NOMINAL_CHUNK_S
    scaled = hostspeed.scaled_times([1.0, 1.0], [nominal, 3 * nominal, nominal])
    assert scaled == pytest.approx([0.5, 0.5])


def test_workload_list_matches_benchmark_file():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _, _ in spans.metric_spec()]


def _ops(workload, tmp_path, suffix=""):
    plan = workloads.prepare(workload, SEED)
    return [op for op in workloads.build(workload, SEED, str(tmp_path), plan)
            if op.label.endswith(suffix)]


def test_traced_counts_repeat_and_outputs_match(tmp_path):
    ops = _ops("ideal-lattice", tmp_path)[:8]
    untraced = run.run_pass(ops)
    assert untraced.problems == [None] * len(ops)
    tracer = spans.Tracer()
    summaries = []
    for i in range(2):
        tracer.begin_pass(i)
        tracer.install()
        try:
            traced = run.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        assert traced.problems == [None] * len(ops)
        assert traced.digests == untraced.digests
        summaries.append(tracer.pass_summary(sum(traced.walls)))
    assert spans.counts_repeat(summaries)
    assert summaries[0]["ideals.quotient_norm.evals"] > 0
    assert summaries[0]["embedding.StandardEmbedding.mul_coords.calls"] > 0
    # uninstall restored the program
    from ternlab import ideals, ternary
    assert ideals._triple_coords is ternary._triple_coords
    assert not hasattr(ternary._triple_coords, "__wrapped__")


def test_gate_counts_a_corrupted_structure_tensor(tmp_path):
    ops = _ops("structure-cli", tmp_path, ":diag-2-tro")
    assert run.run_pass(ops).problems == [None] * len(ops)
    path = tmp_path / "diag-2-tro.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    c = np.asarray(data["structure_constants"]["c"])
    c[0, 1, 1, 0, 0] += 0.1
    data["structure_constants"]["c"] = c.tolist()
    path.write_text(json.dumps(data), encoding="utf-8")
    problems = run.run_pass(ops).problems
    assert all(p is not None for p in problems), problems


def test_gate_counts_a_wrong_expected_dim(tmp_path):
    ops = _ops("catalog-cli", tmp_path, ":mixed-2")
    assert run.run_pass(ops).problems == [None] * len(ops)
    decompose = next(op for op in ops if op.label.startswith("decompose:"))
    decompose.check = workloads._cli_check(workloads._expect_split((2, 0)))
    problems = run.run_pass(ops).problems
    assert [op.label for op, p in zip(ops, problems) if p] == [decompose.label]
