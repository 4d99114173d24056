import csv
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stagegrow import cli, data
from stagegrow.autodiff import NonFiniteError
from stagegrow.checkpoint import save_checkpoint
from stagegrow.cli import EvalOptions, load_run_config, main
from stagegrow.model import ModelConfig, build_model
from stagegrow.planner import StagePlan
from stagegrow.trainer import GrowthOptions, TrainConfig


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


DROP = object()  # a section value that removes the key from the config


def write_config(tmp_path, corpus, run_dir, **overrides):
    cfg = {
        "version": 1,
        "run_dir": str(run_dir),
        "corpus": str(corpus),
        "validation_fraction": 0.1,
        "model": {"hidden_dim": 48, "head_count": 4, "max_seq_len": 32},
        "plan": {"increments": [2, 2]},
        "growth": {"adapter_rank": 4},
        "train": {"total_steps": 8, "batch_size": 2, "seq_len": 16,
                  "peak_lr": 1e-3, "seed": 0},
        "eval": {"max_windows": 4},
    }
    for key, value in overrides.items():
        # "plan" keys are mutually exclusive, so replace that section whole.
        if key != "plan" and isinstance(value, dict) \
                and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
            cfg[key] = {k: v for k, v in cfg[key].items() if v is not DROP}
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_plan_known_instance(capsys, tmp_path):
    out = tmp_path / "plan"
    status, stdout, _ = run_cli(
        capsys, "plan", "--layers", "24", "--hidden", "1536", "--stages", "2",
        "--rank", "128", "--out", str(out))
    assert status == 0
    assert "14 -> 24" in stdout
    assert "reduction 41.7%" in stdout

    report = json.loads((out / "report.json").read_text())
    assert report["plan"]["increments"] == [14, 10]
    assert report["per_stage_bytes"] == [6_342_475_776, 6_159_912_960]
    assert report["peak_bytes"] == 6_342_475_776
    assert report["vanilla_bytes"] == 10_872_815_616
    assert report["peak_stage"] == 1
    assert report["token_budget"] is None

    with open(out / "stages.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["total_bytes"] == "6342475776"
    assert rows[1]["cumulative_layers"] == "24"

    svg = (out / "memory.svg").read_text()
    assert svg.startswith("<svg ")
    assert "vanilla" in svg


def test_plan_is_reproducible(capsys, tmp_path):
    args = ["plan", "--layers", "12", "--hidden", "1600", "--stages", "2",
            "--rank", "128"]
    run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    for name in ("report.json", "stages.csv", "memory.svg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_plan_single_stage_reduction_is_zero(capsys, tmp_path):
    status, stdout, _ = run_cli(
        capsys, "plan", "--layers", "8", "--hidden", "48", "--stages", "1",
        "--out", str(tmp_path / "p"))
    assert status == 0
    assert "reduction 0.0%" in stdout
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    assert report["peak_bytes"] == report["vanilla_bytes"]


def test_plan_rounded_mode(capsys, tmp_path):
    status, stdout, _ = run_cli(
        capsys, "plan", "--layers", "24", "--hidden", "2048", "--stages", "2",
        "--rank", "128", "--mode", "rounded", "--out", str(tmp_path / "p"))
    assert status == 0
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    assert report["plan"]["increments"] == [14, 10]


def test_plan_gpu_budget_infeasible_still_reports(capsys, tmp_path):
    out = tmp_path / "p"
    status, _, stderr = run_cli(
        capsys, "plan", "--layers", "24", "--hidden", "1536", "--stages", "2",
        "--rank", "128", "--gpu-budget-bytes", "1e9", "--out", str(out))
    assert status == 3
    assert "infeasible" in stderr
    assert (out / "report.json").is_file()


def test_plan_infeasible_stage_count(capsys, tmp_path):
    status, _, stderr = run_cli(
        capsys, "plan", "--layers", "2", "--hidden", "48", "--stages", "5",
        "--out", str(tmp_path / "p"))
    assert status == 3
    assert "infeasible" in stderr


def test_plan_flops_budget_requires_batch_tokens(capsys, tmp_path):
    status, _, stderr = run_cli(
        capsys, "plan", "--layers", "12", "--hidden", "1600", "--stages", "2",
        "--rank", "128", "--flops-budget", "1e19", "--out", str(tmp_path / "p"))
    assert status == 2
    assert "batch-tokens" in stderr


def test_plan_flops_budget_too_small_is_infeasible(capsys, tmp_path):
    # In range, but short of one step per stage: exit 3, not 2.
    status, _, stderr = run_cli(
        capsys, "plan", "--layers", "12", "--hidden", "1600", "--stages", "2",
        "--flops-budget", "1", "--batch-tokens", "1000",
        "--out", str(tmp_path / "p"))
    assert status == 3
    assert "cannot fund one step per stage" in stderr


def test_plan_token_budget_report(capsys, tmp_path):
    out = tmp_path / "p"
    status, stdout, _ = run_cli(
        capsys, "plan", "--layers", "12", "--hidden", "1600", "--stages", "2",
        "--rank", "128", "--flops-budget", "1.63e19", "--batch-tokens",
        "360000", "--out", str(out))
    assert status == 0
    budget = json.loads((out / "report.json").read_text())["token_budget"]
    assert budget["total_steps"] == 33_624
    assert budget["total_tokens"] == 12_104_640_000
    assert [b["steps"] for b in budget["per_stage"]] == [25_218, 8_406]
    assert "33624 steps" in stdout


@pytest.mark.parametrize("flags", [
    ["--flops-budget", "inf", "--batch-tokens", "1000"],
    ["--flops-budget", "nan", "--batch-tokens", "1000"],
    ["--gpu-budget-bytes", "nan"],
    ["--gpu-budget-bytes=-inf"],
    ["--embedding-params=-10000000"],
    ["--gpu-budget-bytes", "0"],
    ["--gpu-budget-bytes=-5"],
    ["--flops-budget=-1", "--batch-tokens", "1000"],
    ["--flops-budget", "0.5", "--batch-tokens", "1000"],
    ["--growth-fraction=-1"],
    ["--batch-tokens", "0"],
])
def test_plan_rejects_out_of_range_flags(capsys, tmp_path, flags):
    out = tmp_path / "p"
    status, _, stderr = run_cli(
        capsys, "plan", "--layers", "24", "--hidden", "1536", "--stages", "2",
        "--rank", "128", *flags, "--out", str(out))
    assert status == 2
    assert flags[0].split("=")[0] in stderr
    assert not out.exists()


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mystery"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_run_directory(capsys, tmp_path, small_corpus_file):
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, small_corpus_file, run_dir)
    status, stdout, _ = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 0
    assert "2 -> 4" in stdout

    snapshot = json.loads((run_dir / "config.json").read_text())
    assert snapshot["plan"] == {"increments": [2, 2]}
    assert len(snapshot["corpus_digest"]) == 64

    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert [s["steps"] for s in ledger["stages"]] == [6, 2]
    assert (run_dir / "log.ndjson").is_file()
    assert (run_dir / "final_eval.json").is_file()
    assert (run_dir / "checkpoints" / "stage_01" / "manifest.json").is_file()
    assert (run_dir / "checkpoints" / "stage_02" / "params.bin").is_file()

    final = json.loads((run_dir / "final_eval.json").read_text())
    assert final["ppl"] == ledger["stages"][-1]["val_ppl"]

    # Same run_dir again: refuse to clobber.
    status, _, stderr = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 2
    assert "already exists" in stderr


def test_train_solves_plan_from_layers_and_stages(capsys, tmp_path,
                                                 small_corpus_file):
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, small_corpus_file, run_dir,
                            plan={"layers": 4, "stages": 2, "mode": "exact"})
    status, _, _ = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 0
    snapshot = json.loads((run_dir / "config.json").read_text())
    assert sum(snapshot["plan"]["increments"]) == 4
    assert len(snapshot["plan"]["increments"]) == 2


def test_train_run_dir_flag_overrides(capsys, tmp_path, small_corpus_file):
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "ignored")
    status, _, _ = run_cli(capsys, "train", "--config", str(cfg_path),
                           "--run-dir", str(tmp_path / "actual"))
    assert status == 0
    assert (tmp_path / "actual" / "ledger.json").is_file()
    assert not (tmp_path / "ignored").exists()


def test_train_missing_corpus_creates_nothing(capsys, tmp_path):
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, tmp_path / "no_such.bin", run_dir)
    status, _, stderr = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 2
    assert "not found" in stderr
    assert not run_dir.exists()


@pytest.mark.parametrize("overrides,fragment", [
    ({"version": 2}, "$.version"),
    ({"train": {"total_stepz": 5}}, "$.train"),
    ({"plan": {"increments": [2, 2], "layers": 4}}, "$.plan"),
    ({"plan": {"layers": 4}}, "$.plan.stages"),
    ({"validation_fraction": 1.5}, "validation_fraction"),
    ({"growth": {"position": "sideways"}}, "position"),
    ({"growth": {"init": "zero"}}, "init"),
    ({"growth": {"adapter_rank": -1}}, "$.growth"),
    ({"model": {"head_count": 0}}, "$.model"),
    ({"model": {"hidden_dim": 48, "layer_count": 3}}, "$.model"),
    ({"train": {"total_steps": DROP}}, "$.train: missing"),
    ({"model": {"head_count": DROP}}, "$.model: missing"),
    ({"eval": {"max_windows": 0}}, "$.eval"),
    # Wrongly typed values: each is rejected with its JSON path.
    ({"train": {"total_steps": "8"}}, "$.train.total_steps"),
    ({"model": {"hidden_dim": "48"}}, "$.model.hidden_dim"),
    ({"train": {"adapter_reset_interval": "3"}},
     "$.train.adapter_reset_interval"),
    ({"eval": {"max_windows": "x"}}, "$.eval.max_windows"),
    ({"eval": {"batch_size": None}}, "$.eval.batch_size"),
    ({"growth": {"adapter_scale": "big"}}, "$.growth.adapter_scale"),
    ({"growth": {"fpi": "no"}}, "$.growth.fpi"),
    ({"growth": {"adapter_rank": 4.7}}, "$.growth.adapter_rank"),
    ({"train": {"seed": True}}, "$.train.seed"),
    ({"train": {"peak_lr": "1e-3"}}, "$.train.peak_lr"),
    ({"train": {"betas": [0.9]}}, "$.train.betas"),
    ({"train": {"betas": [0.9, "0.95"]}}, "$.train.betas"),
    ({"growth": {"fpi": 1}}, "$.growth.fpi"),
    ({"growth": {"adapter_rank": 8.0}}, "$.growth.adapter_rank"),
    ({"model": {"tied_embeddings": None}}, "$.model.tied_embeddings"),
    ({"growth": []}, "$.growth"),
    ({"train": {"peak_lr": float("nan")}}, "$.train.peak_lr"),
    ({"train": {"eps": float("inf")}}, "$.train.eps"),
    ({"growth": {"adapter_scale": 10 ** 400}}, "$.growth.adapter_scale"),
    # The plan section is typed the same way: a bool is not an int.
    ({"plan": {"increments": [True, 2]}}, "$.plan.increments"),
    ({"plan": {"increments": [2.0, 2]}}, "$.plan.increments"),
    ({"plan": {"increments": "2,2"}}, "$.plan.increments"),
    ({"plan": {"increments": []}}, "$.plan"),
    ({"plan": {"increments": [2, 0]}}, "$.plan"),
    ({"plan": {"layers": True, "stages": 1}}, "$.plan.layers"),
    ({"plan": {"layers": 4, "stages": True}}, "$.plan.stages"),
    ({"plan": {"layers": 4.0, "stages": 2}}, "$.plan.layers"),
    ({"version": True}, "$.version"),
    ({"version": 1.0}, "$.version"),
    # Values of the right type that would only diverge later (exit 4).
    ({"model": {"rope_base": 0}}, "$.model: rope_base"),
    ({"model": {"rope_base": -1.0}}, "$.model: rope_base"),
    ({"train": {"betas": [1.0, 0.95]}}, "$.train: betas"),
    ({"train": {"betas": [0.9, -0.1]}}, "$.train: betas"),
    ({"train": {"eps": 0}}, "$.train: eps"),
    # Found before the run directory exists, not at the first forward.
    ({"train": {"seq_len": 33}}, "$.train.seq_len"),
    ({"train": {"min_lr_fraction": 2}}, "$.train: min_lr_fraction"),
    ({"train": {"min_lr_fraction": -0.1}}, "$.train: min_lr_fraction"),
    ({"train": {"weight_decay": -0.1}}, "$.train: weight_decay"),
    ({"train": {"grad_clip": 0}}, "$.train: grad_clip"),
    ({"train": {"grad_clip": -1}}, "$.train: grad_clip"),
    # A mode that is not a string, and a seed numpy would refuse.
    ({"plan": {"layers": 4, "stages": 2, "mode": []}}, "$.plan.mode"),
    ({"plan": {"layers": 4, "stages": 2, "mode": {}}}, "$.plan.mode"),
    ({"train": {"seed": -1}}, "$.train: seed"),
])
def test_train_config_validation(capsys, tmp_path, small_corpus_file,
                                 overrides, fragment):
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "run",
                            **overrides)
    status, _, stderr = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 2
    assert fragment in stderr
    assert not (tmp_path / "run").exists()


def test_config_sections_round_trip_to_dataclasses(tmp_path, small_corpus_file):
    # Every field of every section set away from its default; int literals
    # for float fields, betas as a JSON list.
    path = write_config(
        tmp_path, small_corpus_file, tmp_path / "run",
        plan={"increments": [3, 1]},
        model={"hidden_dim": 48, "head_count": 4, "vocab_size": 200,
               "max_seq_len": 40, "tied_embeddings": True, "rope_base": 500},
        growth={"position": "lower", "init": "copy", "fpi": True,
                "adapter_rank": 2, "adapter_scale": 1},
        train={"total_steps": 9, "peak_lr": 1, "warmup_steps": 2,
               "restart_warmup_steps": 1, "batch_size": 3, "seq_len": 12,
               "growth_fraction": 1, "adapter_reset_interval": 5, "seed": 7,
               "betas": [0, 0.5], "eps": 1, "weight_decay": 0,
               "grad_clip": 2, "min_lr_fraction": 0.5},
        eval={"batch_size": 2, "max_windows": 6}, validation_fraction=0.25)
    _, plan, model, train, growth, evaluation = load_run_config(path)

    assert plan == StagePlan((3, 1))
    expected = [
        ModelConfig(hidden_dim=48, head_count=4, vocab_size=200,
                    max_seq_len=40, tied_embeddings=True, rope_base=500.0),
        GrowthOptions(position="lower", init="copy", fpi=True,
                      adapter_rank=2, adapter_scale=1.0),
        TrainConfig(total_steps=9, peak_lr=1.0, warmup_steps=2,
                    restart_warmup_steps=1, batch_size=3, seq_len=12,
                    growth_fraction=1.0, adapter_reset_interval=5, seed=7,
                    betas=(0.0, 0.5), eps=1.0, weight_decay=0.0,
                    grad_clip=2.0, min_lr_fraction=0.5),
        EvalOptions(validation_fraction=0.25, batch_size=2, max_windows=6),
    ]
    for got, want in zip((model, growth, train, evaluation), expected):
        assert got == want
        for f in fields(want):
            value = getattr(got, f.name)
            assert type(value) is type(getattr(want, f.name)), f.name
            assert value != f.default, f"{f.name} left at its default"
            if isinstance(value, tuple):
                assert all(type(v) is float for v in value), f.name


def test_train_non_finite_validation_exits_diverged(capsys, tmp_path,
                                                   small_corpus_file,
                                                   monkeypatch):
    # A stage's validation pass runs outside the training step; non-finite
    # values there are a divergence too, noted and with the ledger flushed.
    def perplexity(*args, **kwargs):
        raise NonFiniteError("softmax produced non-finite values")

    monkeypatch.setattr(data, "perplexity", perplexity)
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, small_corpus_file, run_dir)
    status, _, stderr = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 4
    assert "diverged: softmax produced non-finite values" in stderr
    ledger = json.loads((run_dir / "ledger.json").read_text())
    assert ledger["stages"][0]["steps"] == 6
    assert not (run_dir / "final_eval.json").exists()
    diverged = {"kind": "event", "event": "diverged", "step": 6, "stage": 1,
                "detail": "softmax produced non-finite values"}
    assert ledger["stages"][0]["events"] == [diverged]
    log = (run_dir / "log.ndjson").read_text().splitlines()
    assert json.loads(log[-1]) == diverged


def test_train_rejects_a_validation_split_too_short_before_training(
        capsys, tmp_path):
    # 30 validation bytes hold no window of 33: found before stage 1 trains.
    corpus = tmp_path / "short.bin"
    corpus.write_bytes(bytes(range(256)) * 11 + bytes(184))
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, corpus, run_dir, validation_fraction=0.01,
                            train={"seq_len": 32},
                            model={"max_seq_len": 32})
    status, _, stderr = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 2
    assert "stream of 30 bytes is too short for seq_len 32" in stderr
    assert not (run_dir / "ledger.json").exists()
    assert not (run_dir / "log.ndjson").exists()


@pytest.mark.parametrize("too_short,message", [
    # 30 validation bytes hold no window of 33.
    ({"validation_fraction": 0.01, "train": {"seq_len": 32}},
     "stream of 30 bytes is too short for seq_len 32"),
    # 2700 train bytes hold 84 windows, not a batch of 200.
    ({"train": {"seq_len": 32, "batch_size": 200}},
     "stream of 2700 bytes is too short for seq_len 32 and batch_size 200"),
], ids=["validation_window", "train_batch"])
def test_train_too_short_creates_nothing(capsys, tmp_path, too_short, message):
    # The corpus check runs before the run directory is made, so a rerun
    # with a corrected config is not refused as "run_dir already exists".
    corpus = tmp_path / "short.bin"
    corpus.write_bytes(bytes(range(256)) * 11 + bytes(184))
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, corpus, run_dir, **too_short)
    status, _, stderr = run_cli(capsys, "train", "--config", str(cfg_path))
    assert status == 2
    assert message in stderr
    assert not run_dir.exists()
    cfg_path = write_config(tmp_path, corpus, run_dir, train={"seq_len": 32})
    assert run_cli(capsys, "train", "--config", str(cfg_path))[0] == 0


def test_train_missing_config_file(capsys, tmp_path):
    status, _, stderr = run_cli(capsys, "train", "--config",
                                str(tmp_path / "none.json"))
    assert status == 2
    assert "not found" in stderr


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_round_trips_training_eval(capsys, tmp_path, small_corpus_file):
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, small_corpus_file, run_dir)
    run_cli(capsys, "train", "--config", str(cfg_path))
    ledger = json.loads((run_dir / "ledger.json").read_text())

    out = tmp_path / "eval.json"
    status, stdout, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(run_dir / "checkpoints" / "stage_02"),
        "--corpus", str(small_corpus_file), "--out", str(out))
    assert status == 0
    assert "ppl=" in stdout
    assert stderr == ""  # same corpus: no digest warning
    payload = json.loads(out.read_text())
    # The manifest carries split settings, so this reproduces the ledger's
    # final eval exactly.
    assert payload["ppl"] == pytest.approx(ledger["stages"][-1]["val_ppl"],
                                           rel=1e-12)
    assert payload["tokens"] == 4 * 16


def test_eval_of_every_stage_repeats_its_validation_pass(capsys, tmp_path,
                                                         small_corpus_file):
    # The run's EvalOptions travel in each checkpoint: eval with no flags
    # scores exactly what the stage's own validation pass scored.
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, small_corpus_file, run_dir,
                            validation_fraction=0.2,
                            eval={"batch_size": 3, "max_windows": 5})
    assert run_cli(capsys, "train", "--config", str(cfg_path))[0] == 0
    ledger = json.loads((run_dir / "ledger.json").read_text())
    for stage in ledger["stages"]:
        out = tmp_path / f"eval_{stage['stage']}.json"
        status, _, _ = run_cli(
            capsys, "eval", "--checkpoint",
            str(run_dir / "checkpoints" / f"stage_{stage['stage']:02d}"),
            "--corpus", str(small_corpus_file), "--out", str(out))
        assert status == 0
        payload = json.loads(out.read_text())
        assert (payload["loss"], payload["ppl"]) == (stage["val_loss"],
                                                     stage["val_ppl"])
        assert payload["tokens"] == 5 * 16
    final = json.loads((run_dir / "final_eval.json").read_text())
    assert final == {key: payload[key] for key in ("split", "tokens", "loss", "ppl")}


def test_eval_warns_on_different_corpus(capsys, tmp_path, small_corpus_file):
    run_dir = tmp_path / "run"
    cfg_path = write_config(tmp_path, small_corpus_file, run_dir)
    run_cli(capsys, "train", "--config", str(cfg_path))
    other = tmp_path / "other.bin"
    other.write_bytes(np.random.default_rng(9).integers(
        0, 256, 50_000, dtype=np.uint8).tobytes())
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(run_dir / "checkpoints" / "stage_02"),
        "--corpus", str(other), "--out", str(tmp_path / "e.json"))
    assert status == 0
    assert "differs" in stderr


def test_eval_zeroed_readout_is_uniform(capsys, tmp_path, small_corpus_file):
    model = build_model(ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32),
                        1, seed=0)
    model.unembed.data[...] = 0.0
    save_checkpoint(model, tmp_path / "ck", extra={"seq_len": 16})
    status, stdout, _ = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), "--max-windows", "8",
        "--out", str(tmp_path / "e.json"))
    assert status == 0
    payload = json.loads((tmp_path / "e.json").read_text())
    assert payload["ppl"] == pytest.approx(256.0, rel=1e-6)


@pytest.mark.parametrize("flag", [["--max-windows", "0"], ["--batch-size", "0"],
                                  ["--seq-len", "0"], ["--seq-len", "-3"]])
def test_eval_rejects_empty_evaluation(capsys, tmp_path, small_corpus_file, flag):
    model = build_model(ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32),
                        1, seed=0)
    save_checkpoint(model, tmp_path / "ck", extra={"seq_len": 16})
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), *flag,
        "--out", str(tmp_path / "e.json"))
    assert status == 2
    assert ">= 1" in stderr
    assert not (tmp_path / "e.json").exists()


def test_eval_non_finite_checkpoint_exits_diverged(capsys, tmp_path,
                                                   small_corpus_file):
    model = build_model(ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32),
                        1, seed=0)
    model.embed.data[:, 0] = np.nan
    save_checkpoint(model, tmp_path / "ck", extra={"seq_len": 16})
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), "--out", str(tmp_path / "e.json"))
    assert status == 4
    assert stderr.startswith("diverged:") and "non-finite" in stderr
    assert not (tmp_path / "e.json").exists()


def test_eval_corrupt_checkpoint(capsys, tmp_path, small_corpus_file):
    model = build_model(ModelConfig(hidden_dim=48, head_count=4), 1, seed=0)
    save_checkpoint(model, tmp_path / "ck")
    blob = tmp_path / "ck" / "params.bin"
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), "--out", str(tmp_path / "e.json"))
    assert status == 2
    assert "sha256" in stderr


def test_eval_malformed_manifest(capsys, tmp_path, small_corpus_file):
    model = build_model(ModelConfig(hidden_dim=48, head_count=4), 1, seed=0)
    save_checkpoint(model, tmp_path / "ck")
    manifest = tmp_path / "ck" / "manifest.json"
    manifest.write_text(json.dumps([json.loads(manifest.read_text())]))
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), "--out", str(tmp_path / "e.json"))
    assert status == 2
    assert "malformed manifest" in stderr
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("key,value,kind", [
    ("hidden_dim", 48.0, "int"), ("head_count", True, "int"),
    ("rope_base", True, "float"), ("max_seq_len", 64.0, "int"),
    ("vocab_size", 256.0, "int"), ("tied_embeddings", 0, "bool")])
def test_eval_rejects_a_mistyped_manifest_config(capsys, tmp_path, small_corpus_file,
                                                 key, value, kind):
    # An input error that names its path, not a traceback or a silently
    # different model (rope_base true would rotate at base 1.0).
    model = build_model(ModelConfig(hidden_dim=48, head_count=4), 1, seed=0)
    save_checkpoint(model, tmp_path / "ck")
    manifest = tmp_path / "ck" / "manifest.json"
    edited = json.loads(manifest.read_text())
    edited["config"][key] = value
    manifest.write_text(json.dumps(edited))
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), "--out", str(tmp_path / "e.json"))
    assert status == 2
    assert (f"malformed manifest: config.{key}: expected {kind}, "
            f"got {json.dumps(value)}") in stderr
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("key,value", [("seq_len", "16"), ("seq_len", 16.0),
                                       ("validation_fraction", "0.1"),
                                       ("batch_size", True),
                                       ("max_windows", [4]),
                                       ("corpus_digest", 5)])
def test_eval_rejects_mistyped_checkpoint_settings(capsys, tmp_path, small_corpus_file,
                                                   key, value):
    # seq_len and corpus_digest are top-level extra keys; the rest are
    # EvalOptions fields under extra.eval.
    model = build_model(ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32),
                        1, seed=0)
    if key in ("seq_len", "corpus_digest"):
        extra, path = {"seq_len": 16, key: value}, key
    else:
        extra, path = {"seq_len": 16, "eval": {key: value}}, f"eval.{key}"
    save_checkpoint(model, tmp_path / "ck", extra=extra)
    status, _, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(tmp_path / "ck"),
        "--corpus", str(small_corpus_file), "--out", str(tmp_path / "e.json"))
    assert status == 2
    assert f"extra.{path}: expected" in stderr
    assert not (tmp_path / "e.json").exists()


def test_eval_flag_out_of_range_is_not_a_manifest_error(capsys, tmp_path,
                                                       small_corpus_file):
    model = build_model(ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32),
                        1, seed=0)
    for name, record in (("bad", {"batch_size": 0}), ("ok", {"batch_size": 2})):
        save_checkpoint(model, tmp_path / name,
                        extra={"seq_len": 16, "eval": record})

    def run_eval(name, *flags):
        return run_cli(capsys, "eval", "--checkpoint", str(tmp_path / name),
                       "--corpus", str(small_corpus_file), *flags,
                       "--out", str(tmp_path / "e.json"))

    status, _, stderr = run_eval("bad")
    assert status == 2
    assert "manifest extra.eval: batch_size and max_windows must be >= 1" in stderr
    # A flag replaces the recorded value; its range error is the flag's own.
    status, _, stderr = run_eval("ok", "--max-windows", "0")
    assert status == 2
    assert ">= 1" in stderr and "manifest" not in stderr
    assert not (tmp_path / "e.json").exists()
    assert run_eval("ok", "--max-windows", "3")[0] == 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_pet_axis(capsys, tmp_path, small_corpus_file):
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "run")
    out = tmp_path / "ablation"
    status, stdout, _ = run_cli(capsys, "ablate", "--axis", "pet",
                                "--config", str(cfg_path), "--out", str(out))
    assert status == 0
    results = json.loads((out / "results.json").read_text())
    assert results["axis"] == "pet"
    assert [c["cell"] for c in results["cells"]] == ["w/ PET", "w/o PET"]
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(float(r["val_ppl"]) > 0 for r in rows)
    adapters = [json.loads((out / "cells" / cell / "ledger.json").read_text())
                ["stages"][1]["adapter_params"]
                for cell in ("with_pet", "without_pet")]
    assert adapters[0] > 0 and adapters[1] == 0
    assert "w/ PET" in stdout


def test_ablate_cells_record_validation_fraction(capsys, tmp_path,
                                                small_corpus_file):
    # Cell checkpoints carry the split, so eval of a cell scores the same
    # validation tokens as the cell's own ledger.
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "run",
                            validation_fraction=0.2)
    out = tmp_path / "ablation"
    status, _, _ = run_cli(capsys, "ablate", "--axis", "pet",
                           "--config", str(cfg_path), "--out", str(out))
    assert status == 0
    for cell in ("with_pet", "without_pet"):
        stage = out / "cells" / cell / "checkpoints" / "stage_02"
        manifest = json.loads((stage / "manifest.json").read_text())
        assert manifest["extra"]["eval"] == {"validation_fraction": 0.2,
                                             "batch_size": 8, "max_windows": 4}
    ledger = json.loads((out / "cells" / "with_pet" / "ledger.json").read_text())
    status, _, _ = run_cli(
        capsys, "eval", "--checkpoint",
        str(out / "cells" / "with_pet" / "checkpoints" / "stage_02"),
        "--corpus", str(small_corpus_file), "--out", str(tmp_path / "e.json"))
    assert status == 0
    payload = json.loads((tmp_path / "e.json").read_text())
    assert payload["ppl"] == pytest.approx(ledger["stages"][-1]["val_ppl"],
                                           rel=1e-12)


def test_ablate_too_short_creates_nothing(capsys, tmp_path):
    corpus = tmp_path / "short.bin"
    corpus.write_bytes(bytes(range(256)) * 11 + bytes(184))
    out = tmp_path / "ablation"
    cfg_path = write_config(tmp_path, corpus, tmp_path / "run",
                            train={"seq_len": 32, "batch_size": 200})
    argv = ["ablate", "--axis", "pet", "--config", str(cfg_path), "--out", str(out)]
    status, _, stderr = run_cli(capsys, *argv)
    assert status == 2
    assert "too short for seq_len 32 and batch_size 200" in stderr
    assert not out.exists()
    write_config(tmp_path, corpus, tmp_path / "run", train={"seq_len": 32})
    assert run_cli(capsys, *argv)[0] == 0


def test_ablate_requires_multi_stage_plan(capsys, tmp_path, small_corpus_file):
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "run",
                            plan={"increments": [4]})
    status, _, stderr = run_cli(capsys, "ablate", "--axis", "pet",
                                "--config", str(cfg_path),
                                "--out", str(tmp_path / "o"))
    assert status == 2
    assert "two stages" in stderr


def test_ablate_pet_needs_adapters_configured(capsys, tmp_path,
                                              small_corpus_file):
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "run",
                            growth={"adapter_rank": 0})
    status, _, stderr = run_cli(capsys, "ablate", "--axis", "pet",
                                "--config", str(cfg_path),
                                "--out", str(tmp_path / "o"))
    assert status == 2
    assert "adapter_rank" in stderr


# ---------------------------------------------------------------------------
# allocator policy
# ---------------------------------------------------------------------------

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator policy is glibc's mallopt")


def run_python(code, *args, cwd=None):
    """Run `code` in a fresh interpreter with this checkout's package; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Allocates forty 1 MiB arrays and frees them all, ten times after a first
# round; prints the minor page faults of those ten rounds.
CHURN = """
import resource, sys
import numpy as np
from stagegrow import cli
if sys.argv[1] == "kept":
    cli.keep_freed_memory()
def churn():
    arrays = [np.ones(1 << 18, np.float32) for _ in range(40)]
    del arrays
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@glibc_only
def test_kept_heap_does_not_refault_freed_arrays():
    default = int(run_python(CHURN, "default"))
    kept = int(run_python(CHURN, "kept"))
    assert default >= 10 * 40 * 128  # at least half of each 1 MiB faults again
    assert kept <= default / 20


def test_main_applies_the_allocator_policy_on_every_subcommand(
        capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "keep_freed_memory", lambda: calls.append(1))
    missing = str(tmp_path / "missing")
    for argv in (["plan", "--layers", "4", "--hidden", "48", "--stages", "2",
                  "--out", str(tmp_path / "p")],
                 ["train", "--config", missing],
                 ["eval", "--checkpoint", missing, "--corpus", missing],
                 ["ablate", "--axis", "pet", "--config", missing]):
        before = len(calls)
        run_cli(capsys, *argv)
        assert len(calls) == before + 1, argv


# A two-stage `stagegrow train` whose last line of output lists the minor
# page faults taken between successive batches.
TRAIN_FAULTS = """
import json, resource, sys
from stagegrow import cli, data
faults, cycle = [], data.batch_cycle
def batch_cycle(*args, **kwargs):
    for batch in cycle(*args, **kwargs):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        yield batch
data.batch_cycle = batch_cycle
assert cli.main(["train", "--config", sys.argv[1]]) == 0
print(json.dumps([b - a for a, b in zip(faults, faults[1:])]))
"""


@glibc_only
def test_training_steps_take_no_page_faults_after_warm_up(tmp_path,
                                                          small_corpus_file):
    # Each stage trains 8 steps.  With glibc's default thresholds the steady
    # steps fault back hundreds of pages each (a median of about 560 here).
    cfg_path = write_config(tmp_path, small_corpus_file, tmp_path / "run",
                            model={"max_seq_len": 64},
                            train={"total_steps": 16, "growth_fraction": 0.5,
                                   "batch_size": 8, "seq_len": 64})
    stdout = run_python(TRAIN_FAULTS, cfg_path, cwd=tmp_path)
    per_step = json.loads(stdout.splitlines()[-1])
    # Step i's faults are per_step[i]; the first two of each stage warm up,
    # and per_step[7] also holds the validation pass and growth.
    steady = per_step[2:7] + per_step[10:]
    assert statistics.median(steady) <= 8, per_step
    assert sum(steady) <= 32 * len(steady), per_step
