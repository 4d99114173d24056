"""Staged training loop: AdamW, warmup/cosine/rewarm schedule, growth events.

One run executes a whole stage plan from a model plan.increments[0] layers
deep.  Stage boundaries fire after a configured fraction of the steps
remaining at each boundary; at a boundary the loop merges any live
adapters into their dense weights, grows the model per the plan, freezes
every previously trained layer, drops those layers' optimizer state,
attaches fresh adapters to all frozen layers, and linearly rewarms the
learning rate back to its peak before resuming cosine decay.  Embeddings
stay trainable throughout and keep their optimizer moments.

The ledger records, per stage, the exact parameter census, token and FLOPs
spend (planner.stage_flops), and a simulated device-memory figure
(memory.state_bytes) of that census; these reconcile exactly with the
planning formulas in stagegrow.memory / stagegrow.planner for the same shape.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import data as data_lib
from . import model as model_lib
from .autodiff import NonFiniteError, Tensor
from .growth import (GrowthOptions, adapted_layer_indices, attach_adapters,
                     freeze_layers, grow, merge_adapters, reset_adapters)
from .memory import state_bytes
from .model import ModelConfig, ToyModel, build_model, param_counts
from .planner import StagePlan, split_steps, stage_flops


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int
    peak_lr: float = 3e-3
    warmup_steps: int = 0
    restart_warmup_steps: int = 0
    batch_size: int = 8
    seq_len: int = 64
    growth_fraction: float = 0.75
    adapter_reset_interval: int | None = None
    seed: int = 0
    betas: tuple[float, float] = (0.9, 0.95)
    eps: float = 1e-8
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    min_lr_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ValueError(
                f"warmup_steps must be in [0, total_steps], got {self.warmup_steps}")
        if self.restart_warmup_steps < 0:
            raise ValueError("restart_warmup_steps must be >= 0")
        if self.peak_lr <= 0:
            raise ValueError(f"peak_lr must be positive, got {self.peak_lr}")
        if not all(0.0 <= b < 1.0 for b in self.betas):
            raise ValueError(f"betas must lie in [0, 1), got {list(self.betas)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        # 1.0 allowed deliberately: growth fires at the very end and the
        # final stage trains for zero steps (the 100% timing ablation cell).
        if not 0.0 < self.growth_fraction <= 1.0:
            raise ValueError(
                f"growth_fraction must be in (0, 1], got {self.growth_fraction}")
        if self.batch_size < 1 or self.seq_len < 1:
            raise ValueError("batch_size and seq_len must be >= 1")
        if self.adapter_reset_interval is not None and self.adapter_reset_interval < 1:
            raise ValueError("adapter_reset_interval must be >= 1 or None")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.grad_clip <= 0:  # clip_gradients would skip clipping silently
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip}")
        if not 0.0 <= self.min_lr_fraction <= 1.0:
            raise ValueError(
                f"min_lr_fraction must be in [0, 1], got {self.min_lr_fraction}")

    @property
    def batch_tokens(self) -> int:
        return self.batch_size * self.seq_len


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def adamw_step(params: list[tuple[str, Tensor]], state: dict, lr: float,
               betas: tuple[float, float] = (0.9, 0.95), eps: float = 1e-8,
               weight_decay: float = 0.1) -> None:
    """One decoupled-weight-decay Adam update, in place.

    State is keyed by parameter name.  Decay applies to matrices only
    (ndim >= 2); norm gains are left undecayed.  Callers must have checked
    gradients for finiteness; parameters without a gradient are skipped.
    """
    b1, b2 = betas
    for name, t in params:
        g = t.grad
        if g is None:
            continue
        st = state.get(name)
        if st is None:
            st = state[name] = {
                "m": np.zeros_like(t.data), "v": np.zeros_like(t.data), "t": 0}
        st["t"] += 1
        # In place, in the order of m = b1*m + (1-b1)*g, v = b2*v +
        # (1-b2)*g^2, update = m_hat / (sqrt(v_hat) + eps) + wd*w and
        # w -= lr*update: the same roundings as the out-of-place form.
        m, v = st["m"], st["v"]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        g2 = np.square(g)
        g2 *= 1.0 - b2
        v += g2
        update = m / (1.0 - b1 ** st["t"])
        denom = v / (1.0 - b2 ** st["t"])
        np.sqrt(denom, out=denom)
        denom += eps
        update /= denom
        if weight_decay and t.data.ndim >= 2:
            update += weight_decay * t.data
        update *= lr
        t.data -= update.astype(t.data.dtype, copy=False)


def global_grad_norm(params: list[tuple[str, Tensor]]) -> float:
    total = 0.0
    for _, t in params:
        if t.grad is not None:
            total += float(np.sum(np.square(t.grad, dtype=np.float64)))
    return math.sqrt(total)


def clip_gradients(params: list[tuple[str, Tensor]], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; returns the pre-clip norm."""
    norm = global_grad_norm(params)
    if math.isfinite(norm) and norm > max_norm > 0:
        factor = max_norm / norm
        for _, t in params:
            if t.grad is not None:
                t.grad *= factor
    return norm


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------

def lr_at(step: int, growth_steps, config: TrainConfig) -> float:
    """Learning rate for optimizer step `step` (0-based).

    Stage 1: linear warmup to the peak over warmup_steps, then cosine decay
    toward min_lr_fraction * peak at total_steps.  After a growth event at
    step g: linear ramp from the schedule's decayed value at g back to the
    peak over restart_warmup_steps, then a fresh cosine from there to the
    same floor at total_steps.
    """
    events = sorted(g for g in growth_steps if g > 0)
    peak = config.peak_lr
    floor = peak * config.min_lr_fraction
    total = config.total_steps

    def cosine(s: float, anchor: float) -> float:
        if total <= anchor:
            return peak
        progress = min(1.0, max(0.0, (s - anchor) / (total - anchor)))
        return floor + 0.5 * (peak - floor) * (1.0 + math.cos(math.pi * progress))

    def segment_value(j: int, s: float) -> float:
        if j == 0:
            w = config.warmup_steps
            if s < w:
                return peak * s / w
            return cosine(s, w)
        g = events[j - 1]
        r = config.restart_warmup_steps
        if s < g + r:
            start = segment_value(j - 1, g)
            return start + (peak - start) * (s - g) / r
        return cosine(s, g + r)

    return segment_value(bisect_right(events, step), step)


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

@dataclass
class StageRecord:
    stage: int
    layer_increment: int
    cumulative_layers: int
    trainable_params: int
    frozen_params: int
    adapter_params: int
    simulated_bytes: int
    steps: int = 0
    tokens: int = 0
    flops: int = 0
    final_train_loss: float | None = None
    val_loss: float | None = None
    val_ppl: float | None = None
    loss_curve: list[float] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)


@dataclass
class RunLedger:
    stages: list[StageRecord] = field(default_factory=list)

    @property
    def peak_simulated_bytes(self) -> int:
        return max(s.simulated_bytes for s in self.stages)

    @property
    def total_steps(self) -> int:
        return sum(s.steps for s in self.stages)

    @property
    def total_tokens(self) -> int:
        return sum(s.tokens for s in self.stages)

    @property
    def total_flops(self) -> int:
        return sum(s.flops for s in self.stages)

    def to_dict(self) -> dict:
        return {
            "stages": [asdict(s) for s in self.stages],
            "peak_simulated_bytes": self.peak_simulated_bytes,
            "total_steps": self.total_steps,
            "total_tokens": self.total_tokens,
            "total_flops": self.total_flops,
        }


def simulated_bytes(model: ToyModel) -> int:
    """memory.state_bytes of the live census."""
    counts = param_counts(model)
    return state_bytes(counts.trainable, counts.frozen_layer)


@dataclass
class RunResult:
    model: ToyModel
    ledger: RunLedger
    validation: data_lib.PplReport | None  # the last stage's validation pass


class _RunWriter:
    """NDJSON step/event log plus ledger flushing."""

    def __init__(self, out_dir: Path | None):
        self.out_dir = out_dir
        self._log = None
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            self._log = open(out_dir / "log.ndjson", "w")

    def record(self, payload: dict) -> None:
        if self._log is not None:
            self._log.write(
                json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")

    def flush_ledger(self, ledger: RunLedger) -> None:
        if self.out_dir is not None:
            ckpt.write_json(self.out_dir / "ledger.json", ledger.to_dict())
            self._log.flush()

    def close(self) -> None:
        if self._log is not None:
            self._log.close()


def require_data(config: TrainConfig, train_stream: data_lib.TokenStream,
                 val_stream: data_lib.TokenStream | None) -> None:
    """CorpusError unless train_stream holds a batch and val_stream a window."""
    data_lib.require_windows(train_stream, config.seq_len, config.batch_size)
    if val_stream is not None:
        data_lib.require_windows(val_stream, config.seq_len)


def run_schedule(model_config: ModelConfig, plan: StagePlan, config: TrainConfig,
                 growth: GrowthOptions, train_stream: data_lib.TokenStream,
                 val_stream: data_lib.TokenStream | None, *,
                 evaluation: data_lib.EvalOptions = data_lib.EvalOptions(),
                 out_dir: str | Path | None = None) -> RunResult:
    """Train a full stage plan from scratch; returns the model and ledger.

    The float32 model starts plan.increments[0] layers deep; growth events
    supply the rest.  With a single-stage plan this is exactly a plain
    training loop.  Each stage ends with a validation pass over val_stream,
    run as `evaluation` says; `evaluation` is recorded in every checkpoint,
    so `stagegrow eval` repeats the pass.  A non-finite loss or validation
    pass notes a `diverged` event, flushes the ledger and re-raises the
    NonFiniteError; non-finite gradients skip the step.
    """
    plan = StagePlan.of(plan)
    require_data(config, train_stream, val_stream)

    out_path = Path(out_dir) if out_dir is not None else None
    writer = _RunWriter(out_path)
    ledger = RunLedger()

    model = build_model(model_config, plan.increments[0], seed=config.seed)
    batches = data_lib.batch_cycle(
        train_stream, config.seq_len, config.batch_size, seed=config.seed + 1)
    stage_steps = split_steps(config.total_steps, len(plan),
                              config.growth_fraction)
    opt_state: dict = {}
    global_step = 0
    report = None

    def note(event: str, **fields) -> None:  # into the stage's ledger and the log
        entry = {"kind": "event", "event": event, "step": global_step,
                 "stage": stage_i, **fields}
        events.append(entry)
        writer.record(entry)

    try:
        for stage_i, n_steps in enumerate(stage_steps, start=1):
            events: list[dict] = []
            if stage_i > 1:
                # Boundary: merge adapters, grow, freeze old, fresh adapters.
                merge_adapters(model)
                opt_state = {k: v for k, v in opt_state.items()
                             if not k.startswith("layers.")}
                fresh = grow(model, plan.increments[stage_i - 1], growth,
                             seed=config.seed + 100 + stage_i)
                old = [i for i in range(len(model.layers)) if i not in fresh]
                freeze_layers(model, old)
                if growth.adapter_rank:
                    attach_adapters(model, old, growth,
                                    seed=config.seed + 200 + stage_i)
                note("grow", new_layers=fresh, frozen_layers=old)

            counts = param_counts(model)
            record = StageRecord(
                stage=stage_i,
                layer_increment=plan.increments[stage_i - 1],
                cumulative_layers=len(model.layers),
                trainable_params=counts.trainable,
                frozen_params=counts.frozen_layer,
                adapter_params=counts.adapter,
                simulated_bytes=simulated_bytes(model),
                events=events)
            ledger.stages.append(record)

            growth_boundaries = [sum(stage_steps[:j]) for j in range(1, stage_i)]
            for _ in range(n_steps):
                lr = lr_at(global_step, growth_boundaries, config)
                inputs, targets = next(batches)
                trainables = model_lib.trainable_parameters(model)
                # No handle on the logits: backward reads none of them.
                loss = ad.cross_entropy(model_lib.forward(model, inputs), targets)
                loss_value = float(loss.data)
                if not math.isfinite(loss_value):
                    raise NonFiniteError("loss is not finite")
                loss.backward()

                norm = clip_gradients(trainables, config.grad_clip)
                norm_finite = math.isfinite(norm)
                if norm_finite:
                    adamw_step(trainables, opt_state, lr, config.betas,
                               config.eps, config.weight_decay)
                else:
                    note("skipped_nonfinite_grads")
                for _, t in trainables:
                    t.zero_grad()

                record.steps += 1
                record.tokens += targets.size
                record.flops += stage_flops(counts.trainable,
                                            counts.frozen_layer, targets.size)
                record.loss_curve.append(loss_value)
                record.final_train_loss = loss_value
                writer.record({"kind": "step", "step": global_step,
                               "stage": stage_i, "lr": lr, "loss": loss_value,
                               "grad_norm": norm if norm_finite else None,
                               "grad_norm_finite": norm_finite,
                               "tokens": record.tokens})
                global_step += 1

                if (config.adapter_reset_interval is not None
                        and adapted_layer_indices(model)
                        and record.steps % config.adapter_reset_interval == 0):
                    reset_adapters(model, growth,
                                   seed=config.seed + 300 + global_step)
                    opt_state = {k: v for k, v in opt_state.items()
                                 if ".adapters." not in k}
                    note("adapter_reset")

            if val_stream is not None:
                report = data_lib.perplexity(model, val_stream, config.seq_len,
                                             evaluation)
                record.val_loss = report.loss
                record.val_ppl = report.ppl
                writer.record({"kind": "event", "event": "eval",
                               "step": global_step, "stage": stage_i,
                               "val_loss": report.loss, "val_ppl": report.ppl})

            if out_path is not None:
                ckpt.save_checkpoint(
                    model, out_path / "checkpoints" / f"stage_{stage_i:02d}",
                    extra={"stage": stage_i, "seq_len": config.seq_len,
                           "eval": asdict(evaluation),
                           "corpus_digest": train_stream.digest,
                           "val_loss": record.val_loss, "val_ppl": record.val_ppl})
            writer.flush_ledger(ledger)
    except NonFiniteError as exc:
        note("diverged", detail=str(exc))
        raise
    finally:
        writer.flush_ledger(ledger)
        writer.close()

    return RunResult(model=model, ledger=ledger, validation=report)
