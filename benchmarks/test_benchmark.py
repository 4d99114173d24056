"""The benchmark's own tests: traced-run invariants on tiny workloads.

    python3 -m pytest benchmarks/test_benchmark.py

Tiny shapes (d=24, one layer per stage, a few steps) keep each test to a
few seconds while driving the same harness, CLI paths and checks as the
full workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

bench.load_repo()

TINY_EVAL = bench.EvalSpec(seq_len=32, batch_size=1, windows=5)
TINY = {
    "staged": bench.Workload("test_tiny_staged", "test", bench.TrainSpec(
        increments=(1, 1), adapter_rank=2, total_steps=10, batch_size=2,
        eval_batch_size=2, eval_windows=4, seq_len=16, warmup_steps=1,
        hidden_dim=24, head_count=2), TINY_EVAL),
    "vanilla": bench.Workload("test_tiny_vanilla", "test", bench.TrainSpec(
        increments=(2,), adapter_rank=0, total_steps=5, batch_size=2,
        eval_batch_size=2, eval_windows=4, seq_len=16, warmup_steps=1,
        hidden_dim=24, head_count=2), TINY_EVAL),
}


def _result(workload: bench.Workload, trace_on: bool, seed: int = 3) -> dict:
    status = bench.run_workload(workload, seed, 1, trace_on)
    path = bench.OUT / f"{workload.name}-seed{seed}-trace{int(trace_on)}" / "result.json"
    result = json.loads(path.read_text())
    result["status"] = status
    return result


def _failed(result: dict) -> list[str]:
    return [c["check"] + " " + c["detail"] for c in result["checks"] if not c["ok"]]


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_invariants(kind):
    result = _result(TINY[kind], trace_on=True)
    assert _failed(result) == []
    assert result["status"] == 0
    names = {c["check"] for c in result["checks"]}
    assert "traced ledger.json byte-identical to untraced" in names
    assert any("per-role matmul FLOPs sum" in n for n in names)
    assert any("per-layer (and head) matmul FLOPs sum" in n for n in names)
    assert any("analytic count" in n for n in names)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in bench.PER_LAYER}
    # The executed matmul cost per parameter-token the ledger models as 6
    # (trainable) and 2 (frozen): frozen layers still back-propagate input
    # gradients, so they run 4.
    assert metrics["model.trainable_flops_per_param_token"] == 6.0
    frozen = 4.0 if kind == "staged" else 0.0
    assert metrics["model.frozen_flops_per_param_token"] == frozen
    assert metrics["eval.model.forward_ms"] > 0
    assert metrics["checkpoint.load_ms"] > 0
    trace_dir = bench.OUT / f"{TINY[kind].name}-seed3-trace1"
    for command in ("train", "eval"):
        events = json.loads((trace_dir / f"{command}.trace.json").read_text())["traceEvents"]
        assert events and all({"name", "cat", "ts", "dur", "args"} <= set(e) for e in events)
        assert all({"id", "parent", "step"} <= set(e["args"]) for e in events)
        tsv = (trace_dir / f"{command}.modules.tsv").read_text()
        assert tsv.startswith("module\tfunction")


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(kind):
    result = _result(TINY[kind], trace_on=False)
    assert _failed(result) == []
    assert result["status"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in bench.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_definitions():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in bench.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bench.PER_LAYER)
