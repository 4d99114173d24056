"""Command-line front end: plan, train, eval, ablate.

Exit codes: 0 success, 2 invalid input (bad flags, malformed config,
missing files, corrupt checkpoints), 3 infeasible plan or budget,
4 divergence: a non-finite training loss, or non-finite values in any
forward pass (a validation pass, or `eval` of a checkpoint holding NaN or
inf weights).  `eval` validates as the checkpoint's data.EvalOptions
record says, each flag overriding its one value.

Allocator policy: before any command runs, `main` has glibc's malloc keep
the memory a training step frees, so the next step reuses it.  With
glibc's defaults an array over 128 KiB is mmapped or, once glibc has
raised that threshold to the size of a block it saw freed, taken from the
heap top, which is trimmed back to the kernel whenever more than twice
that size lies free there.  Backward frees a step's activations together,
so each step faults thousands of zeroed pages back in (about 4,400 per
stage-2 step of the benchmark's staged config, some 9 ms of system time).
`keep_freed_memory` sets M_MMAP_THRESHOLD to 32 MiB, so arrays below it
come from the heap, and M_TRIM_THRESHOLD to 1 GiB, so the heap is not
trimmed.  It sets both, never one: setting either switches off glibc's
dynamic thresholds, and either alone faults more than the defaults do.
Off glibc nothing is set.  No value a run computes depends on this.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import io
import json
import math
import platform
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import checkpoint as ckpt
from . import data as data_lib
from . import memory as memory_lib
from .autodiff import NonFiniteError
from .checkpoint import ConfigError, check_keys, read_field, read_record
from .data import EvalOptions
from .growth import POSITIONS, GrowthOptions
from .memory import ModelShape, format_gb
from .model import ModelConfig
from .planner import (BudgetError, PlanInfeasibleError, StagePlan,
                      solve_exact, solve_rounded, token_budget)
from .trainer import TrainConfig, require_data, run_schedule

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4

SOLVERS = {"exact": solve_exact, "rounded": solve_rounded}

# glibc's mallopt parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


# ---------------------------------------------------------------------------
# Config file schema (version 1)
# ---------------------------------------------------------------------------

def read_config_file(path: str | Path):
    """A training config file's JSON object, not yet typed."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_run_config(path: str | Path):
    """Read a training config file and type it by `read_run_config`."""
    return read_run_config(read_config_file(path))


def read_run_config(cfg) -> tuple[
        dict, StagePlan, ModelConfig, TrainConfig, GrowthOptions, EvalOptions]:
    """Validate a run config's JSON object; checks the corpus exists.

    Returns the object as given (with `corpus` made a list) and the typed
    parts.  Nothing is written.
    """
    check_keys(cfg, "$", {"version", "run_dir", "corpus", "corpus_digest",
                          "validation_fraction", "model", "plan", "growth",
                          "train", "eval"},
               {"version", "run_dir", "corpus", "model", "plan", "train"})
    if read_field(int, cfg["version"], "$.version") != 1:
        raise ConfigError(f"$.version: unsupported version {cfg['version']!r}")
    if not read_field(str, cfg["run_dir"], "$.run_dir"):
        raise ConfigError("$.run_dir: expected a non-empty string")
    corpus = [cfg["corpus"]] if isinstance(cfg["corpus"], str) else cfg["corpus"]
    corpus = cfg["corpus"] = list(read_field(tuple[str, ...], corpus, "$.corpus"))
    if not corpus:
        raise ConfigError("$.corpus: expected a path or non-empty list of paths")
    vf = read_field(float, cfg.get("validation_fraction", data_lib.VALIDATION_FRACTION),
                    "$.validation_fraction")
    if not 0.0 < vf < 1.0:
        raise ConfigError("$.validation_fraction: expected a number in (0, 1)")
    read_field(str, cfg.get("corpus_digest", ""), "$.corpus_digest")

    growth = read_record(GrowthOptions, cfg.get("growth", {}), "$.growth")
    train = read_record(TrainConfig, cfg["train"], "$.train")
    evaluation = read_record(EvalOptions, cfg.get("eval", {}), "$.eval",
                             validation_fraction=vf)
    model = read_record(ModelConfig, cfg["model"], "$.model")
    if train.seq_len > model.max_seq_len:
        raise ConfigError(f"$.train.seq_len: {train.seq_len} exceeds "
                          f"$.model.max_seq_len {model.max_seq_len}")

    plan_cfg = cfg["plan"]
    check_keys(plan_cfg, "$.plan", {"increments", "layers", "stages", "mode"}, set())
    if "increments" in plan_cfg:  # then layers, stages and mode are unknown keys
        plan = read_record(StagePlan, plan_cfg, "$.plan")
    else:
        layers = read_field(int, plan_cfg.get("layers"), "$.plan.layers")
        stages = read_field(int, plan_cfg.get("stages"), "$.plan.stages")
        mode = read_field(str, plan_cfg.get("mode", "exact"), "$.plan.mode")
        if mode not in SOLVERS:
            raise ConfigError("$.plan.mode: expected 'exact' or 'rounded'")
        shape = ModelShape(hidden_dim=model.hidden_dim, layer_count=layers,
                           adapter_rank=growth.adapter_rank)
        plan = SOLVERS[mode](layers, stages, shape)

    missing = [p for p in corpus if not Path(p).is_file()]
    if missing:
        raise ConfigError(f"corpus file(s) not found: {missing}")
    return cfg, plan, model, train, growth, evaluation


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

_SVG_COLORS = {
    "new_layer_state_bytes": "#4878cf",
    "frozen_param_bytes": "#9dbbe8",
    "adapter_state_bytes": "#e8a33d",
    "embedding_state_bytes": "#72b37a",
}


def memory_chart_svg(estimate: memory_lib.MemoryEstimate, vanilla_bytes: int) -> str:
    """Deterministic stacked-bar SVG: one bar per stage plus a vanilla bar."""
    bars = [(f"stage {s.stage}", s.total_bytes,
             [(getattr(s, name), color) for name, color in _SVG_COLORS.items()])
            for s in estimate.stages]
    bars.append(("vanilla", vanilla_bytes, [(vanilla_bytes, "#c85a5a")]))
    width, height, pad, gap = 520, 300, 46, 18
    bar_w = (width - 2 * pad - (len(bars) - 1) * gap) / len(bars)
    top = max(vanilla_bytes, estimate.peak_bytes)
    scale = (height - 2 * pad) / top if top else 1.0

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    x = float(pad)
    for label, total, segments in bars:
        y = height - pad
        for value, color in segments:
            if value <= 0:
                continue
            h = value * scale
            y -= h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{h:.1f}" fill="{color}"/>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - pad + 14}" '
            f'font-size="11" text-anchor="middle">{label}</text>')
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 5:.1f}" font-size="10" '
            f'text-anchor="middle">{memory_lib.gigabytes(total):.2f}G</text>')
        x += bar_w + gap
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_csv(path: Path, rows) -> None:
    """Write rows, header first, as CSV by `checkpoint.write_atomic`."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    ckpt.write_atomic(path, [text.getvalue().encode()])


def _write_plan_reports(out_dir: Path, report: dict,
                        estimate: memory_lib.MemoryEstimate,
                        vanilla_bytes: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt.write_json(out_dir / "report.json", report)
    _write_csv(out_dir / "stages.csv", [
        ["stage", "new_layers", "cumulative_layers", "total_bytes",
         "new_layer_state_bytes", "frozen_param_bytes", "adapter_state_bytes",
         "embedding_state_bytes"],
        *([s.stage, s.new_layers, s.prior_layers + s.new_layers, s.total_bytes,
           s.new_layer_state_bytes, s.frozen_param_bytes, s.adapter_state_bytes,
           s.embedding_state_bytes] for s in estimate.stages)])
    ckpt.write_atomic(out_dir / "memory.svg",
                      [memory_chart_svg(estimate, vanilla_bytes).encode()])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    gpu, flops, batch = args.gpu_budget_bytes, args.flops_budget, args.batch_tokens
    # NaN fails every comparison; a budget counts bytes or whole FLOPs.
    for flag, value, ok, expected in (
            ("--gpu-budget-bytes", gpu, gpu is None or 0 < gpu < math.inf,
             "a finite number > 0"),
            ("--flops-budget", flops, flops is None or 1 <= flops < math.inf,
             "a finite number >= 1"),
            ("--batch-tokens", batch, batch is None or batch >= 1, ">= 1"),
            ("--growth-fraction", args.growth_fraction,
             0 < args.growth_fraction <= 1, "a number in (0, 1]"),
            ("--embedding-params", args.embedding_params,
             args.embedding_params >= 0, ">= 0")):
        if not ok:
            raise ConfigError(f"{flag}: expected {expected}, got {value}")
    shape = ModelShape(hidden_dim=args.hidden, layer_count=args.layers,
                       adapter_rank=args.rank)
    plan = SOLVERS[args.mode](args.layers, args.stages, shape)
    estimate = memory_lib.plan_peak_bytes(plan, shape, args.embedding_params)
    vanilla = memory_lib.vanilla_state_bytes(args.layers, args.hidden,
                                             args.embedding_params)
    reduction = 100.0 * (1.0 - estimate.peak_bytes / vanilla)

    print(f"plan ({args.mode}): {plan.describe()}  "
          f"[increments {', '.join(map(str, plan.increments))}]")
    for s in estimate.stages:
        print(f"  stage {s.stage}: +{s.new_layers} layers on {s.prior_layers} "
              f"frozen, {format_gb(s.total_bytes)}")
    print(f"peak {format_gb(estimate.peak_bytes)} (stage {estimate.peak_stage}); "
          f"vanilla {format_gb(vanilla)}; reduction {reduction:.1f}%")

    report = {
        "mode": args.mode,
        "hidden_dim": args.hidden,
        "layer_target": args.layers,
        "stage_count": args.stages,
        "adapter_rank": args.rank,
        "embedding_params": args.embedding_params,
        "plan": {"increments": list(plan.increments),
                 "cumulative": list(plan.cumulative)},
        "per_stage_bytes": list(estimate.per_stage_bytes),
        "peak_bytes": estimate.peak_bytes,
        "peak_stage": estimate.peak_stage,
        "vanilla_bytes": vanilla,
        "reduction_pct": reduction,
        "gpu_budget_bytes": args.gpu_budget_bytes,
        "token_budget": None,
    }

    status = EXIT_OK
    if args.gpu_budget_bytes is not None and estimate.peak_bytes > args.gpu_budget_bytes:
        print(f"infeasible: peak {format_gb(estimate.peak_bytes)} exceeds "
              f"budget {format_gb(int(args.gpu_budget_bytes))}", file=sys.stderr)
        status = EXIT_INFEASIBLE

    if args.flops_budget is not None:
        if args.batch_tokens is None:
            raise ConfigError("--flops-budget requires --batch-tokens")
        budget = token_budget(plan, shape, int(args.flops_budget),
                              args.growth_fraction, args.batch_tokens)
        print(f"compute budget {args.flops_budget:.3e} FLOPs at "
              f"{args.batch_tokens} tokens/step:")
        for b in budget.per_stage:
            print(f"  stage {b.stage}: {b.steps} steps, {b.tokens} tokens, "
                  f"{b.flops:.3e} FLOPs")
        print(f"total {budget.total_steps} steps, {budget.total_tokens} tokens, "
              f"{budget.total_flops:.3e} FLOPs")
        report["token_budget"] = {
            "flops_budget": int(args.flops_budget),
            "batch_tokens": args.batch_tokens,
            "growth_fraction": args.growth_fraction,
            "total_steps": budget.total_steps,
            "total_tokens": budget.total_tokens,
            "total_flops": budget.total_flops,
            "per_stage": [asdict(b) for b in budget.per_stage],
        }

    _write_plan_reports(Path(args.out), report, estimate, vanilla)
    print(f"reports written to {args.out}/")
    return status


def train_run(cfg):
    """Train a run config's JSON object, checked before its `run_dir` is made.

    `train` and every `ablate` cell run here.  The run's `config.json`
    trains again: it is cfg with the solved plan and the corpus digest.
    Returns the typed plan and the run's result.
    """
    cfg, plan, model_cfg, train_cfg, growth, evaluation = read_run_config(cfg)
    run_dir = Path(cfg["run_dir"])
    if run_dir.exists():
        raise ConfigError(f"run_dir already exists: {run_dir}")

    train_stream, val_stream = data_lib.load_corpus(
        cfg["corpus"], evaluation.validation_fraction)
    if cfg.get("corpus_digest", train_stream.digest) != train_stream.digest:
        raise ConfigError(f"$.corpus_digest: {cfg['corpus_digest']} is not the "
                          f"corpus's digest {train_stream.digest}")
    require_data(train_cfg, train_stream, val_stream)

    run_dir.mkdir(parents=True)
    snapshot = dict(cfg)
    snapshot["plan"] = {"increments": list(plan.increments)}
    snapshot["corpus_digest"] = train_stream.digest
    ckpt.write_json(run_dir / "config.json", snapshot)

    result = run_schedule(model_cfg, plan, train_cfg, growth, train_stream,
                          val_stream, evaluation=evaluation, out_dir=run_dir)
    ckpt.write_json(run_dir / "final_eval.json", asdict(result.validation))
    return plan, result


def cmd_train(args) -> int:
    cfg = read_config_file(args.config)
    if args.run_dir is not None:
        cfg["run_dir"] = args.run_dir
    plan, result = train_run(cfg)

    last = result.ledger.stages[-1]
    print(f"trained plan {plan.describe()} for {result.ledger.total_steps} steps")
    print(f"peak simulated bytes {result.ledger.peak_simulated_bytes} "
          f"({format_gb(result.ledger.peak_simulated_bytes)})")
    print(f"final val ppl {last.val_ppl:.4f}" if last.val_ppl is not None
          else "no validation eval")
    print(f"run directory: {Path(cfg['run_dir'])}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, manifest = ckpt.load_checkpoint(args.checkpoint)
    extra = manifest.get("extra", {})
    seq_len = args.seq_len
    if seq_len is None:
        seq_len = read_field(int, extra.get("seq_len", TrainConfig.seq_len),
                             "manifest extra.seq_len")
    # The checkpoint's record; each flag given (named as its field) replaces a value.
    evaluation = read_record(EvalOptions, extra.get("eval", {}), "manifest extra.eval")
    evaluation = replace(evaluation, **{
        f.name: getattr(args, f.name) for f in fields(EvalOptions)
        if getattr(args, f.name) is not None})

    _, val_stream = data_lib.load_corpus(args.corpus,
                                         evaluation.validation_fraction)
    recorded = read_field(str | None, extra.get("corpus_digest"),
                          "manifest extra.corpus_digest")
    if recorded is not None and recorded != val_stream.digest:
        print(f"note: corpus digest {val_stream.digest[:12]} differs from the "
              f"checkpoint's training corpus {recorded[:12]}", file=sys.stderr)

    report = data_lib.perplexity(model, val_stream, seq_len, evaluation)
    payload = {"split": report.split, "tokens": report.tokens,
               "loss": report.loss, "ppl": report.ppl,
               "checkpoint": str(args.checkpoint),
               "corpus_digest": val_stream.digest}
    print(f"split={report.split} tokens={report.tokens} "
          f"loss={report.loss:.6f} ppl={report.ppl:.6f}")
    ckpt.write_json(args.out, payload)
    print(f"report written to {args.out}")
    return EXIT_OK


# Each cell: (label, patch); a patch holds run-config sections, each merged
# key by key over the base config's.
ABLATION_CELLS = {
    "position": [(p, {"growth": {"position": p}}) for p in POSITIONS],
    "init": [(init + "+fpi" * fpi, {"growth": {"init": init, "fpi": fpi}})
             for init in ("copy", "mean") for fpi in (False, True)],
    "timing": [(f"{pct}%", {"train": {"growth_fraction": pct / 100}})
               for pct in (25, 50, 75, 100)],
    "pet": [("w/ PET", {}), ("w/o PET", {"growth": {"adapter_rank": 0}})],
}


def _cell_slug(label: str) -> str:
    return (label.replace("w/ ", "with_").replace("w/o ", "without_")
            .replace("%", "pct").replace("+", "_").lower())


def cmd_ablate(args) -> int:
    cfg, plan, _, _, growth, _ = load_run_config(args.config)
    if len(plan) < 2:
        raise ConfigError("ablations need a plan with at least two stages")
    if args.axis == "pet" and growth.adapter_rank < 1:
        raise ConfigError("pet axis needs growth.adapter_rank >= 1 in the config")
    root = Path(args.out) if args.out else Path(cfg["run_dir"] + f"_ablate_{args.axis}")
    if root.exists():
        raise ConfigError(f"output directory already exists: {root}")

    # Every cell trains the base plan, not one solved for its own adapter_rank.
    cfg["plan"] = {"increments": list(plan.increments)}
    rows = []
    for label, patch in ABLATION_CELLS[args.axis]:
        _, result = train_run({
            **cfg, **{key: {**cfg.get(key, {}), **section}
                      for key, section in patch.items()},
            "run_dir": str(root / "cells" / _cell_slug(label))})
        last = result.ledger.stages[-1]
        rows.append({
            "cell": label,
            "val_loss": last.val_loss,
            "val_ppl": last.val_ppl,
            "peak_simulated_bytes": result.ledger.peak_simulated_bytes,
            "total_flops": result.ledger.total_flops,
            "final_train_loss": last.final_train_loss,
        })
        print(f"[{args.axis}] {label}: val_ppl={last.val_ppl:.4f} "
              f"peak_bytes={result.ledger.peak_simulated_bytes}")

    ckpt.write_json(root / "results.json", {"axis": args.axis, "cells": rows})
    _write_csv(root / "results.csv", [list(rows[0]), *(r.values() for r in rows)])

    width = max(len(r["cell"]) for r in rows)
    print(f"{'cell'.ljust(width)}  {'val_ppl':>10}  {'peak_bytes':>14}")
    for r in rows:
        print(f"{r['cell'].ljust(width)}  {r['val_ppl']:>10.4f}  "
              f"{r['peak_simulated_bytes']:>14}")
    print(f"results written to {root}/")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagegrow",
        description="Plan and run staged decoder training.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve a stage plan and report memory")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--hidden", type=int, required=True)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--mode", choices=sorted(SOLVERS), default="exact")
    p.add_argument("--embedding-params", type=int, default=0)
    p.add_argument("--gpu-budget-bytes", type=float, default=None)
    p.add_argument("--flops-budget", type=float, default=None)
    p.add_argument("--batch-tokens", type=int, default=None)
    p.add_argument("--growth-fraction", type=float, default=0.75)
    p.add_argument("--out", default="plan_out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("train", help="run a staged training from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--run-dir", default=None,
                   help="override the config's run_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--validation-fraction", type=float, default=None)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--max-windows", type=int, default=None)
    p.add_argument("--out", default="eval_report.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation axis from a config file")
    p.add_argument("--axis", choices=sorted(ABLATION_CELLS), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)
    return parser


def keep_freed_memory() -> None:
    """Set glibc's allocator to keep freed memory for reuse; see the module doc."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 0 is a refusal (32-bit glibc caps the mmap threshold at 16 MiB); the
    # trim threshold alone would then be worse than neither.
    if mallopt(M_MMAP_THRESHOLD, 32 << 20):
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanInfeasibleError, BudgetError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonFiniteError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
