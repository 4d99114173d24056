"""Train a byte-level model in two stages and reconcile the ledger.

A 48-dim decoder starts at 2 layers, trains on Python source text, grows to
4 layers at the 75% mark (old layers frozen, rank-4 adapters attached), and
finishes.  The trainer's per-stage ledger reports what a real device would
have held; those figures are checked here against the closed-form byte
accounting, and the peak is compared with training all 4 layers at once.

Takes a few seconds on a laptop CPU.

Run: python3 demos/03_staged_training.py
"""
import sysconfig
import tempfile
from pathlib import Path

from stagegrow.data import EvalOptions, load_corpus
from stagegrow.memory import (ModelShape, embedding_params, stage_state_bytes,
                              vanilla_state_bytes)
from stagegrow.model import ModelConfig
from stagegrow.planner import StagePlan
from stagegrow.trainer import GrowthOptions, TrainConfig, run_schedule


def stdlib_corpus(limit: int = 1_000_000) -> Path:
    """A deterministic public-text corpus: the stdlib's own sources."""
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    chunks, total = [], 0
    for path in sorted(stdlib.rglob("*.py")):
        if "test" in path.parts:
            continue
        try:
            chunks.append(path.read_bytes())
        except OSError:
            continue
        total += len(chunks[-1])
        if total >= limit:
            break
    out = Path(tempfile.mkdtemp(prefix="stagegrow_demo_")) / "corpus.bin"
    out.write_bytes(b"".join(chunks)[:limit])
    return out


corpus = stdlib_corpus()
train_stream, val_stream = load_corpus([corpus], validation_fraction=0.1)
print(f"corpus: {train_stream.ids.size + val_stream.ids.size:,} bytes of "
      f"Python source ({val_stream.ids.size:,} held out)")

plan = StagePlan((2, 2))
config = ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32)
train_config = TrainConfig(total_steps=300, peak_lr=1e-3, warmup_steps=20,
                           restart_warmup_steps=20, batch_size=4, seq_len=32,
                           growth_fraction=0.75, seed=0)
growth = GrowthOptions(position="upper", init="mean", fpi=True,
                       adapter_rank=4)

print(f"plan {plan.increments}: grow at "
      f"{train_config.growth_fraction:.0%} of {train_config.total_steps} steps\n")
result = run_schedule(config, plan, train_config, growth, train_stream,
                      val_stream, evaluation=EvalOptions(max_windows=128))
ledger = result.ledger

shape = ModelShape(48, 4, adapter_rank=4)
emb = embedding_params(256, 48)
print("stage  layers  trainable   frozen  simulated bytes   analytic  val ppl")
for record in ledger.stages:
    analytic = stage_state_bytes(plan, record.stage, shape,
                                 embedding_params=emb).total_bytes
    mark = "ok" if analytic == record.simulated_bytes else "MISMATCH"
    print(f"{record.stage:>5}  {record.cumulative_layers:>6}  "
          f"{record.trainable_params:>9,}  {record.frozen_params:>7,}  "
          f"{record.simulated_bytes:>15,}  {mark:>9}  {record.val_ppl:7.3f}")

vanilla = vanilla_state_bytes(4, 48, embedding_params=emb)
peak = ledger.peak_simulated_bytes
print(f"\npeak simulated state: {peak:,} bytes vs {vanilla:,} all-at-once "
      f"({100 * (1 - peak / vanilla):.1f}% lower)")
print(f"final validation perplexity: {ledger.stages[-1].val_ppl:.3f} "
      f"(uniform over bytes would be 256)")
