"""stagegrow benchmark: staged and vanilla training, each with a long-context eval.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload generates its inputs from the seed (a corpus slice of the
stdlib-source text the tests build and a run config), then drives the real
user paths, each in its own process through ``benchmarks/instrument.py``:
``stagegrow train``, then ``stagegrow eval`` at sequence length 256 on the
checkpoint the training wrote.  Load is a closed loop: one training or eval
loop, each step waiting for the last.  BLAS runs on one thread.

--trace 0 prints the end-to-end metrics: the train-then-eval pair runs, and
again while another pair fits in --seconds (at least once); then a few
probe processes per command stop at the first step or batch to measure
set-up.  --trace 1 runs the pair once untraced and once traced (the eval
over fewer windows), checks that both trainings write byte-identical
ledgers and that matmul FLOPs are fully and exactly attributed, and prints
the per-module metrics.

Every run checks the program's outputs; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, the machine, the trace (Chrome trace-event JSON) and a flat
per-module table go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
CORPUS_CHUNKS = 2048
CORPUS_CHUNK_BYTES = 256
HIDDEN_DIM = 96
HEAD_COUNT = 6
VOCAB = 256


@dataclass(frozen=True)
class TrainSpec:
    """One ``stagegrow train`` config at the reference shape."""

    increments: tuple[int, ...]
    adapter_rank: int
    total_steps: int
    batch_size: int
    eval_batch_size: int
    eval_windows: int
    seq_len: int = 64
    warmup_steps: int = 20
    hidden_dim: int = HIDDEN_DIM
    head_count: int = HEAD_COUNT


@dataclass(frozen=True)
class EvalSpec:
    """One ``stagegrow eval`` call on the train run's last checkpoint."""

    seq_len: int
    batch_size: int
    windows: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train: TrainSpec
    eval: EvalSpec


# The last training stage has 101 steps, so 100 step intervals feed the
# p90.  Validation during training is kept short; the eval metrics come
# from the long-context ``stagegrow eval`` on the final checkpoint, whose
# 120 batch-1 windows at seq 256 give 119 batch intervals over ~10 s.  For
# the staged workload that checkpoint carries 4 frozen layers with live
# rank-8 adapters and 4 trainable layers.
LONG_EVAL = EvalSpec(seq_len=256, batch_size=1, windows=120)
# The traced run evaluates fewer windows: per-batch module figures need
# few batches, and the traced pair must stay well inside the time limit.
TRACE_EVAL_WINDOWS = 40

WORKLOADS = {w.name: w for w in (
    Workload(
        "staged_adapters",
        "the paper's path: growth, frozen layers that still backprop, rank-8 "
        "adapters, AdamW on a small set; then eval at seq 256 with live adapters",
        TrainSpec(increments=(4, 4), adapter_rank=8, total_steps=202,
                  batch_size=8, eval_batch_size=8, eval_windows=64),
        LONG_EVAL),
    Workload(
        "vanilla_full",
        "the baseline: all 8 layers trained at once, no growth, adapters or "
        "freezing; then the same seq-256 eval, so adapter work should not move it",
        TrainSpec(increments=(8,), adapter_rank=0, total_steps=101,
                  batch_size=8, eval_batch_size=8, eval_windows=64),
        LONG_EVAL),
)}

# (name, unit, better) of every end-to-end metric.  failed_ops_fraction is
# printed with its base but travels as attempted/failed in the result line,
# since it is 0 on a healthy run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("train_tokens_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("eval_tokens_per_s", "1/s", "higher"),
    ("eval_batch_ms_p50", "ms", "lower"),
    ("eval_batch_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("final_val_loss", "nats/token", "lower"),
)

OPS = ("matmul", "add", "mul", "scale", "silu", "softmax", "rms_norm",
       "embedding", "cross_entropy", "reshape", "transpose", "rope")
ROLES = ("attn_proj", "attn_core", "ffn", "adapter", "head")
STAGES = (1, 2)


def _per_layer() -> tuple[tuple[str, str], ...]:
    rows = [(f"autodiff.{p}_ms.{op}", "ms") for p in ("fwd", "bwd") for op in OPS]
    rows += [("autodiff.backward_overhead_ms", "ms"),
             ("autodiff.nodes_per_step", "count"),
             ("autodiff.step_peak_mb", "MiB"), ("autodiff.retained_mb", "MiB")]
    rows += [(f"model.matmul_{p}_ms.{r}", "ms") for p in ("fwd", "bwd") for r in ROLES]
    rows += [(f"model.matmul_gflop.{r}", "GFLOP") for r in ROLES]
    rows += [(f"model.layer{i}.{p}_ms", "ms") for i in range(8) for p in ("fwd", "bwd")]
    rows += [("model.forward_ms", "ms"),
             ("model.frozen_flops_per_param_token", "FLOP/param-token"),
             ("model.trainable_flops_per_param_token", "FLOP/param-token")]
    rows += [(f"trainer.stage{k}.step_ms_p50", "ms") for k in STAGES]
    rows += [(f"trainer.{p}_ms", "ms")
             for p in ("loss", "backward", "clip", "adamw", "other", "boundary")]
    rows += [("trainer.skipped_steps", "count")]
    rows += [(f"trainer.ledger_flops_per_step.stage{k}", "FLOP") for k in STAGES]
    rows += [(f"growth.{p}_ms", "ms") for p in ("merge", "grow", "freeze", "attach")]
    rows += [("data.batch_wait_ms", "ms"), ("data.load_corpus_ms", "ms"),
             ("data.perplexity_ms", "ms")]
    rows += [("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms"),
             ("checkpoint.blob_bytes", "count")]
    rows += [(f"memory.simulated_mb.stage{k}", "MiB") for k in STAGES]
    rows += [(f"planner.ledger_gflop.stage{k}", "GFLOP") for k in STAGES]
    rows += [("trace.overhead_s", "s")]
    # The same forward-path figures per batch of the long-context eval.
    rows += [("eval.model.forward_ms", "ms")]
    rows += [(f"eval.model.matmul_fwd_ms.{r}", "ms") for r in ROLES]
    rows += [("eval.autodiff.nodes_per_step", "count"),
             ("eval.autodiff.step_peak_mb", "MiB"), ("eval.autodiff.retained_mb", "MiB"),
             ("eval.data.perplexity_ms", "ms")]
    return tuple(rows)


PER_LAYER = _per_layer()

# Which end-to-end metric each per-module metric should move; first
# matching prefix wins.  Per-step figures are per training step of the last
# stage; ``eval.`` figures are per batch of the long-context eval.
MOVES = (
    ("eval.model.matmul_fwd_ms.attn_core", "eval_batch_ms_p50 most"),
    ("eval.model.matmul_fwd_ms.adapter", "eval_batch_ms_p50 on staged_adapters only"),
    ("eval.autodiff.step_peak_mb", "peak_rss_mb of the eval process, eval_batch_ms_p90"),
    ("eval.autodiff.retained_mb", "peak_rss_mb of the eval process, eval_batch_ms_p90"),
    ("eval.data.perplexity", "eval_tokens_per_s, wall_s"),
    ("eval.", "eval_batch_ms_p50, eval_tokens_per_s"),
    ("model.matmul_fwd_ms.adapter", "step_ms_p50 on staged_adapters only"),
    ("model.matmul_bwd_ms.adapter", "step_ms_p50 on staged_adapters only"),
    ("model.matmul_gflop.adapter", "step_ms_p50 on staged_adapters only"),
    ("model.matmul_fwd_ms.attn_core", "step_ms_p50; see eval.model.matmul_fwd_ms.attn_core"),
    ("model.frozen_flops", "step_ms_p50 on staged_adapters only (ledger models 2)"),
    ("model.trainable_flops", "step_ms_p50 (ledger models 6)"),
    ("autodiff.fwd_ms", "step_ms_p50 on both workloads; eval_batch_ms_p50"),
    ("autodiff.bwd_ms", "step_ms_p50 on both workloads"),
    ("autodiff.backward_overhead", "step_ms_p50"),
    ("autodiff.nodes_per_step", "step_ms_p50 on staged_adapters, eval_batch_ms_p50; "
     "flat on vanilla_full under adapter fusion"),
    ("autodiff.step_peak_mb", "peak_rss_mb, step_ms_p90 on both workloads"),
    ("autodiff.retained_mb", "peak_rss_mb, step_ms_p90 on both workloads"),
    ("model.", "step_ms_p50; its forward part eval_batch_ms_p50"),
    ("trainer.adamw", "step_ms_p50, train_tokens_per_s; weighs most on vanilla_full"),
    ("trainer.", "step_ms_p50, train_tokens_per_s"),
    ("growth.", "wall_s on staged_adapters only"),
    ("data.batch_wait", "step_ms_p50"),
    ("data.load_corpus", "setup_s"),
    ("data.perplexity", "wall_s (validation during training)"),
    ("checkpoint.save", "wall_s"),
    ("checkpoint.load", "setup_s (eval command)"),
    ("checkpoint.blob_bytes", "setup_s (eval command), wall_s"),
    ("memory.", "modeled; compare autodiff.step_peak_mb and peak_rss_mb"),
    ("planner.", "modeled; compare model.matmul_gflop.*"),
    ("trace.", "tracing cost: traced minus untraced wall_s"),
)


def moves(name: str) -> str:
    return next(text for prefix, text in MOVES if name.startswith(prefix))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def load_repo() -> None:
    """Put the checkout's ``src`` first on the path; fail if it is not there."""
    if not (ROOT / "src" / "stagegrow" / "cli.py").is_file():
        raise SystemExit(f"error: no stagegrow sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "conftest.py").is_file():
        raise SystemExit(f"error: {ROOT / 'tests' / 'conftest.py'} is missing")
    sys.path.insert(0, str(ROOT / "src"))


def build_corpus_slice(seed: int) -> bytes:
    """Seeded slice of the tests' stdlib-source corpus.

    The seed picks CORPUS_CHUNKS chunks from across the full text, so the
    training and validation splits both sample many modules.
    """
    import numpy as np
    spec = importlib.util.spec_from_file_location(
        "stagegrow_tests_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    text = conftest.build_text_corpus()
    starts = np.random.default_rng(seed).integers(
        0, len(text) - CORPUS_CHUNK_BYTES, size=CORPUS_CHUNKS)
    return b"".join(text[s:s + CORPUS_CHUNK_BYTES] for s in starts)


def train_config(spec: TrainSpec, corpus: Path, seed: int) -> dict:
    return {
        "version": 1,
        "run_dir": "unused",
        "corpus": [str(corpus)],
        "validation_fraction": 0.1,
        "model": {"hidden_dim": spec.hidden_dim, "head_count": spec.head_count},
        "plan": {"increments": list(spec.increments)},
        "growth": {"position": "upper", "init": "mean", "fpi": True,
                   "adapter_rank": spec.adapter_rank},
        "train": {"total_steps": spec.total_steps, "peak_lr": 1e-3,
                  "warmup_steps": spec.warmup_steps,
                  "restart_warmup_steps": spec.warmup_steps,
                  "batch_size": spec.batch_size, "seq_len": spec.seq_len,
                  "growth_fraction": 0.5, "seed": seed},
        "eval": {"batch_size": spec.eval_batch_size,
                 "max_windows": spec.eval_windows},
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def spawn(mode: str, command: list[str], result: Path,
          trace_dir: Path | None = None, trace_name: str = "run") -> dict:
    """Run one CLI command in its own instrumented process; returns its record."""
    argv = [sys.executable, str(HERE / "instrument.py"), "--mode", mode,
            "--result", str(result)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir), "--trace-name", trace_name]
    argv += ["--", *command]
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stderr = None, f"timed out after {exc.timeout} s"
    end = time.monotonic_ns()
    record = json.loads(result.read_text()) if result.is_file() else {}
    record.update(spawn_ns=start, end_ns=end, returncode=returncode)
    if returncode != 0:
        sys.stderr.write(f"[bench] {' '.join(command[:1])} exited {returncode}: "
                         f"{stderr[-2000:]}\n")
    return record


class Checks:
    """Correctness checks; each one counts as an attempted operation."""

    def __init__(self):
        self.items: list[dict] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            sys.stderr.write(f"[bench] check failed: {name} {detail}\n")
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


def check_train_run(run_dir: Path, record: dict, spec: TrainSpec,
                    checks: Checks) -> dict | None:
    """Exit status, ledger reconciliation, finiteness, eval tokens, digests."""
    from stagegrow import memory, planner
    from stagegrow.memory import ModelShape

    if not checks("train exits 0", record.get("returncode") == 0,
                  f"exit {record.get('returncode')}"):
        return None
    ledger_path = run_dir / "ledger.json"
    ledger = json.loads(ledger_path.read_text())
    plan = planner.StagePlan(spec.increments)
    shape = ModelShape(hidden_dim=spec.hidden_dim, layer_count=sum(spec.increments),
                       adapter_rank=spec.adapter_rank)
    emb = memory.embedding_params(VOCAB, spec.hidden_dim)
    counts = planner.stage_param_counts(plan, shape)
    for k, stage in enumerate(ledger["stages"], start=1):
        expected_bytes = memory.stage_state_bytes(plan, k, shape, emb).total_bytes
        checks(f"stage {k} simulated_bytes equals memory.stage_state_bytes",
               stage["simulated_bytes"] == expected_bytes,
               f"{stage['simulated_bytes']} vs {expected_bytes}")
        trainable, frozen = counts[k - 1]
        expected_flops = planner.stage_flops(trainable + emb, frozen, stage["tokens"])
        checks(f"stage {k} flops equals planner.stage_flops",
               stage["flops"] == expected_flops, f"{stage['flops']} vs {expected_flops}")
        losses = stage["loss_curve"] + [stage["val_loss"]]
        checks(f"stage {k} losses finite",
               all(v is not None and math.isfinite(v) for v in losses))
    final = ledger["stages"][-1]["val_loss"]
    checks("final_val_loss below ln 256", final is not None and final < math.log(VOCAB),
           f"{final}")
    for call in record["stamps"]["evals"]:
        checks("eval tokens equal windows x seq_len",
               call["tokens"] == spec.eval_windows * spec.seq_len, f"{call['tokens']}")
    for manifest_path in sorted(run_dir.glob("checkpoints/*/manifest.json")):
        manifest = json.loads(manifest_path.read_text())
        blob = (manifest_path.parent / "params.bin").read_bytes()
        checks(f"checkpoint {manifest_path.parent.name} digest verifies",
               hashlib.sha256(blob).hexdigest() == manifest["blob_sha256"])
    return ledger


def check_eval_run(record: dict, spec: EvalSpec, checks: Checks) -> bool:
    if not checks("eval exits 0", record.get("returncode") == 0,
                  f"exit {record.get('returncode')}"):
        return False
    calls = record["stamps"]["evals"]
    ok = checks("eval runs one perplexity pass", len(calls) == 1)
    if ok:
        loss = calls[0]["loss"]
        checks("eval loss finite and below ln 256",
               math.isfinite(loss) and loss < math.log(VOCAB), f"{loss}")
        checks("eval tokens equal windows x seq_len",
               calls[0]["tokens"] == spec.windows * spec.seq_len, f"{calls[0]['tokens']}")
    return ok


def check_live_adapters(checkpoint_dir: Path, spec: TrainSpec, checks: Checks) -> None:
    """The eval input must carry trained (non-zero) adapters on frozen layers."""
    import numpy as np
    from stagegrow import checkpoint
    model, _ = checkpoint.load_checkpoint(checkpoint_dir)
    adapted = [layer for layer in model.layers if layer.adapters]
    frozen = sum(spec.increments[:-1])
    checks(f"eval checkpoint has {frozen} adapted frozen layers",
           len(adapted) == frozen and all(layer.frozen for layer in adapted))
    checks("eval checkpoint adapters are non-zero",
           all(np.any(a.a.data != 0) for layer in adapted for a in layer.adapters.values()))


# ---------------------------------------------------------------------------
# Metrics from clock stamps
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def stage_intervals(record: dict, ledger: dict) -> list[list[float]]:
    """Per stage, ms between consecutive ``next()`` calls on batch_cycle.

    Intervals spanning a stage boundary are excluded.
    """
    stamps = record["stamps"]["steps"]
    out, start = [], 0
    for stage in ledger["stages"]:
        s = stamps[start:start + stage["steps"]]
        out.append([(b - a) / 1e6 for a, b in zip(s, s[1:])])
        start += stage["steps"]
    return out


def train_loop_seconds(record: dict, ledger: dict) -> float:
    """Sum over stages of first step start to the stage's validation eval."""
    stamps, evals = record["stamps"]["steps"], record["stamps"]["evals"]
    total, start = 0.0, 0
    for stage, call in zip(ledger["stages"], evals):
        total += (call["enter_ns"] - stamps[start]) / 1e9
        start += stage["steps"]
    return total


def eval_intervals(record: dict) -> list[float]:
    """ms between consecutive model.forward calls of the last perplexity pass."""
    f = record["stamps"]["evals"][-1]["forward_ns"]
    return [(b - a) / 1e6 for a, b in zip(f, f[1:])]


def eval_tokens_per_s(record: dict) -> float:
    call = record["stamps"]["evals"][-1]
    return call["tokens"] / ((call["exit_ns"] - call["enter_ns"]) / 1e9)


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

class Run:
    """Inputs and commands of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.corpus = work / "corpus.bin"
        self.corpus.write_bytes(build_corpus_slice(seed))
        self.config = work / "train.json"
        self.config.write_text(json.dumps(train_config(workload.train, self.corpus, seed)))
        self.count = 0
        self.ledgers: list[Path] = []

    def fresh(self, stem: str) -> Path:
        self.count += 1
        return self.work / f"{stem}{self.count:03d}"

    def train_command(self, run_dir: Path) -> list[str]:
        return ["train", "--config", str(self.config), "--run-dir", str(run_dir)]

    def eval_command(self, checkpoint: Path, spec: EvalSpec, out: Path) -> list[str]:
        return ["eval", "--checkpoint", str(checkpoint), "--corpus", str(self.corpus),
                "--seq-len", str(spec.seq_len), "--batch-size", str(spec.batch_size),
                "--max-windows", str(spec.windows), "--out", str(out)]

    def train(self, mode: str, checks: Checks, trace_dir: Path | None = None):
        run_dir = self.fresh("train")
        record = spawn(mode, self.train_command(run_dir), run_dir.with_suffix(".json"),
                       trace_dir, "train")
        ledger = check_train_run(run_dir, record, self.workload.train, checks)
        if ledger is not None:
            self.ledgers.append(run_dir / "ledger.json")
        return run_dir, record, ledger

    def evaluate(self, mode: str, checkpoint: Path, spec: EvalSpec, checks: Checks,
                 trace_dir: Path | None = None):
        out = self.fresh("eval")
        record = spawn(mode, self.eval_command(checkpoint, spec,
                                               out.with_suffix(".report.json")),
                       out.with_suffix(".json"), trace_dir, "eval")
        ok = check_eval_run(record, spec, checks)
        return record, ok

    def probe(self, checkpoint: Path | None) -> float | None:
        """Set-up seconds of the train command, or of the eval command on checkpoint."""
        target = self.fresh("probe")
        command = (self.eval_command(checkpoint, self.workload.eval,
                                     target.with_suffix(".report.json"))
                   if checkpoint is not None else self.train_command(target))
        record = spawn("probe", command, target.with_suffix(".json"))
        return setup_seconds(record)


def setup_seconds(record: dict) -> float | None:
    first = record.get("first_unit_ns")
    if first is None:
        first = record.get("stamps", {}).get("first_unit_ns")
    return None if first is None else (first - record["spawn_ns"]) / 1e9


def last_checkpoint(run_dir: Path) -> Path:
    return sorted((run_dir / "checkpoints").iterdir())[-1]


def wall_seconds(*records: dict) -> float:
    return sum(r["end_ns"] - r["spawn_ns"] for r in records) / 1e9


def measure(run: Run, seconds: float, checks: Checks) -> tuple[dict, dict, int]:
    """End-to-end metrics; returns (metrics, samples, attempted ops)."""
    w = run.workload
    pairs: list[tuple[dict, dict, dict]] = []   # (train record, ledger, eval record)
    checkpoint = None
    began = time.monotonic()
    while True:
        pair_start = time.monotonic()
        train_dir, train_rec, ledger = run.train("light", checks)
        if ledger is None:
            break
        final = last_checkpoint(train_dir)
        if checkpoint is None:
            checkpoint = final
            if w.train.adapter_rank:
                check_live_adapters(checkpoint, w.train, checks)
        eval_rec, ok = run.evaluate("light", final, w.eval, checks)
        if not ok:
            break
        pairs.append((train_rec, ledger, eval_rec))
        elapsed = time.monotonic() - began
        if elapsed + (time.monotonic() - pair_start) > seconds:
            break
    if not pairs:
        return {}, {}, 0

    # Set-up of each command: the measured processes and SETUP_PROBES
    # probes each, alternating so both commands see the same host.
    setup = {"train": [setup_seconds(t) for t, _, _ in pairs],
             "eval": [setup_seconds(e) for _, _, e in pairs]}
    for _ in range(SETUP_PROBES):
        setup["train"].append(run.probe(None))
        setup["eval"].append(run.probe(checkpoint))
    checks("set-up probes reach the first unit",
           all(v is not None for values in setup.values() for v in values))
    setup = {k: [v for v in values if v is not None] for k, values in setup.items()}
    if not all(setup.values()):
        return {}, {}, 0

    steps = [x for rec, led, _ in pairs for x in stage_intervals(rec, led)[-1]]
    batches = [x for _, _, ev in pairs for x in eval_intervals(ev)]
    walls = [wall_seconds(t, e) for t, _, e in pairs]
    tok_train = [led["total_tokens"] / train_loop_seconds(rec, led) for rec, led, _ in pairs]
    tok_eval = [eval_tokens_per_s(e) for _, _, e in pairs]
    rss = {"train": [t["maxrss_mb"] for t, _, _ in pairs],
           "eval": [e["maxrss_mb"] for _, _, e in pairs]}
    # The long eval's loss: 120 windows of 256 tokens sample the validation
    # split far more widely than the short validation during training.
    losses = [e["stamps"]["evals"][-1]["loss"] for _, _, e in pairs]
    metrics = {
        "setup_s": statistics.median(setup["train"]) + statistics.median(setup["eval"]),
        "wall_s": statistics.median(walls),
        "train_tokens_per_s": statistics.median(tok_train),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "eval_tokens_per_s": statistics.median(tok_eval),
        "eval_batch_ms_p50": percentile(batches, 50),
        "eval_batch_ms_p90": percentile(batches, 90),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
        "final_val_loss": statistics.median(losses),
    }
    samples = {
        "setup_s": (f"median of {len(setup['train'])} train + median of "
                    f"{len(setup['eval'])} eval processes"),
        "wall_s": f"{len(walls)} train+eval pairs",
        "train_tokens_per_s": f"{len(tok_train)} runs",
        "step_ms_p50": f"{len(steps)} steps",
        "step_ms_p90": f"{len(steps)} steps",
        "eval_tokens_per_s": f"{len(tok_eval)} passes",
        "eval_batch_ms_p50": f"{len(batches)} batches",
        "eval_batch_ms_p90": f"{len(batches)} batches",
        "peak_rss_mb": (f"larger of train {statistics.median(rss['train']):.0f} and "
                        f"eval {statistics.median(rss['eval']):.0f} MiB, "
                        f"{len(pairs)} processes each"),
        "final_val_loss": f"{len(losses)} eval passes",
    }
    attempted = (sum(led["total_steps"] for _, led, _ in pairs)
                 + sum(len(c["forward_ns"]) for t, _, e in pairs
                       for c in t["stamps"]["evals"] + e["stamps"]["evals"]))
    skipped = sum(1 for _, led, _ in pairs for s in led["stages"]
                  for e in s["events"] if e["event"] == "skipped_nonfinite_grads")
    checks("no optimizer step skipped for non-finite gradients", skipped == 0, f"{skipped}")
    return metrics, samples, attempted


def trace(run: Run, checks: Checks, trace_dir: Path) -> tuple[dict, int]:
    """Per-module metrics from traced processes; returns (metrics, attempted)."""
    w = run.workload
    plain_dir, plain_rec, plain_ledger = run.train("light", checks)
    traced_dir, traced_rec, traced_ledger = run.train("trace", checks, trace_dir)
    if plain_ledger is None or traced_ledger is None:
        return {}, 0
    checks("traced ledger.json byte-identical to untraced",
           (plain_dir / "ledger.json").read_bytes() == (traced_dir / "ledger.json").read_bytes())
    short_eval = replace(w.eval, windows=TRACE_EVAL_WINDOWS)
    checkpoint = last_checkpoint(plain_dir)
    plain_eval, ok1 = run.evaluate("light", checkpoint, short_eval, checks)
    traced_eval, ok2 = run.evaluate("trace", checkpoint, short_eval, checks, trace_dir)
    if not (ok1 and ok2):
        return {}, 0
    attempted = (plain_ledger["total_steps"] + traced_ledger["total_steps"]
                 + sum(len(c["forward_ns"]) for r in (plain_eval, traced_eval)
                       for c in r["stamps"]["evals"]))

    for label, proc in (("train", traced_rec), ("eval", traced_eval)):
        inv = proc["trace"]["invariants"]
        checks(f"{label}: per-role matmul FLOPs sum to the executed total",
               inv["matmul_flops_by_role"] == inv["matmul_flops_total"],
               f"{inv['matmul_flops_by_role']} vs {inv['matmul_flops_total']}")
        checks(f"{label}: per-layer (and head) matmul FLOPs sum to the executed total",
               inv["matmul_flops_by_scope"] == inv["matmul_flops_total"],
               f"{inv['matmul_flops_by_scope']} vs {inv['matmul_flops_total']}")
        checks(f"{label}: forward matmul FLOPs equal the analytic count",
               inv["mismatched_calls"] == 0
               and inv["executed_flops"] == inv["analytic_flops"],
               f"{inv['executed_flops']} vs {inv['analytic_flops']} over "
               f"{inv['forward_calls']} calls")

    metrics = dict(traced_rec["trace"]["metrics"])
    eval_metrics = traced_eval["trace"]["metrics"]
    metrics["checkpoint.load_ms"] = eval_metrics["checkpoint.load_ms"]
    for name, _ in PER_LAYER:
        if name.startswith("eval."):
            metrics[name] = eval_metrics.get(name[len("eval."):], 0.0)
    call = traced_eval["stamps"]["evals"][-1]
    metrics["eval.data.perplexity_ms"] = (call["exit_ns"] - call["enter_ns"]) / 1e6

    intervals = stage_intervals(traced_rec, traced_ledger)
    for k in STAGES:
        metrics[f"trainer.stage{k}.step_ms_p50"] = (
            percentile(intervals[k - 1], 50) if k <= len(intervals) else 0.0)
    # Mean step of the last stage, its last step ending at the stage's eval.
    stamps = traced_rec["stamps"]["steps"][-traced_ledger["stages"][-1]["steps"]:]
    stage_end = traced_rec["stamps"]["evals"][-1]["enter_ns"]
    mean_step = (stage_end - stamps[0]) / len(stamps) / 1e6
    named = ("model.forward_ms", "trainer.loss_ms", "trainer.backward_ms",
             "trainer.clip_ms", "trainer.adamw_ms", "data.batch_wait_ms")
    metrics["trainer.other_ms"] = mean_step - sum(metrics[n] for n in named)
    metrics["trainer.skipped_steps"] = sum(
        1 for s in traced_ledger["stages"] for e in s["events"]
        if e["event"] == "skipped_nonfinite_grads")
    for k in STAGES:
        stage = traced_ledger["stages"][k - 1] if k <= len(traced_ledger["stages"]) else None
        metrics[f"trainer.ledger_flops_per_step.stage{k}"] = (
            stage["flops"] / stage["steps"] if stage and stage["steps"] else 0)
        metrics[f"memory.simulated_mb.stage{k}"] = (
            stage["simulated_bytes"] / 2**20 if stage else 0.0)
        metrics[f"planner.ledger_gflop.stage{k}"] = stage["flops"] / 1e9 if stage else 0.0
    metrics["trace.overhead_s"] = (wall_seconds(traced_rec, traced_eval)
                                   - wall_seconds(plain_rec, plain_eval))
    for name, _ in PER_LAYER:
        metrics.setdefault(name, 0.0)
    return {name: metrics[name] for name, _ in PER_LAYER}, attempted


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def machine(seed: int) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def emit(workload: Workload, seed: int, trace_on: bool, checks: Checks,
         attempted: int, metrics: dict, samples: dict, ledger: Path | None) -> int:
    attempted += len(checks.items)
    failed = checks.failed
    info = machine(seed)
    if ledger is not None and ledger.is_file():
        info["ledger_sha256"] = hashlib.sha256(ledger.read_bytes()).hexdigest()
    units = dict((n, u) for n, u, _ in END_TO_END) if not trace_on else dict(PER_LAYER)
    complete = set(metrics) == set(units)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace_on)}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name in units:
        if name in metrics:
            extra = f"  [{samples[name]}]" if name in samples else ""
            hint = f"  moves: {moves(name)}" if trace_on else ""
            print(f"  {name:<42} {metrics[name]:>14.6g} {units[name]:<16}{extra}{hint}")
    print(f"  {'failed_ops_fraction':<42} {failed / max(attempted, 1):>14.6g} "
          f"{'fraction':<16}  [{failed} failed of {attempted} attempted: "
          f"optimizer steps, eval batches and checks]")
    OUT.mkdir(exist_ok=True)
    result = {"workload": workload.name, "workload_spec": asdict(workload),
              "trace": int(trace_on), "machine": info, "checks": checks.items,
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n],
                              "samples": samples.get(n),
                              "moves": moves(n) if trace_on else None}
                          for n in metrics}}
    out_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace_on)}"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    if not complete:
        sys.stderr.write("[bench] run incomplete; no result line\n")
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load_repo()
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))


def run_workload(workload: Workload, seed: int, seconds: float, trace_on: bool) -> int:
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    try:
        run = Run(workload, seed, work)
        if trace_on:
            trace_dir = OUT / f"{workload.name}-seed{seed}-trace1"
            metrics, attempted = trace(run, checks, trace_dir)
            samples = {}
        else:
            metrics, samples, attempted = measure(run, seconds, checks)
        return emit(workload, seed, trace_on, checks, attempted, metrics, samples,
                    run.ledgers[0] if run.ledgers else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
