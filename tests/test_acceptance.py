"""End-to-end acceptance checks against the reference figures.

Each test covers one numbered criterion and records a single PASS/FAIL
summary line (echoed after the pytest summary by conftest).  Reference
constants are quoted at the precision they were given: byte figures in
decimal GB, token totals in whole billions, step totals in whole thousands.
"""
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from conftest import record_line
from grad_oracle import grad_check
from plan_oracle import brute_force_plan

from stagegrow.autodiff import (Tensor, add, cross_entropy, embedding, matmul,
                                mul, reshape, rms_norm, rope, scale, silu,
                                softmax, sum_all, transpose)
from stagegrow.cli import main as cli_main
from stagegrow.data import EvalOptions, load_corpus
from stagegrow.growth import (GrowthOptions, adapted_layer_indices,
                              attach_adapters, freeze_layers, grow,
                              merge_adapters, reset_adapters)
from stagegrow.memory import (ModelShape, embedding_params, layer_params,
                              plan_peak_bytes, stage_state_bytes,
                              vanilla_state_bytes)
from stagegrow.model import (ModelConfig, build_model, forward,
                             named_parameters, param_counts)
from stagegrow.planner import (StagePlan, flops_staged, flops_vanilla,
                               solve_exact, split_steps, stage_param_counts,
                               token_budget)
from stagegrow.trainer import GrowthOptions, TrainConfig, run_schedule


@contextmanager
def criterion(num: int, name: str):
    """Record one summary line for the criterion; FAIL on any exception."""
    info = {"detail": ""}
    try:
        yield info
    except BaseException as err:
        record_line(f"criterion {num:2d} {name}: FAIL ({err})")
        raise
    suffix = f" - {info['detail']}" if info["detail"] else ""
    record_line(f"criterion {num:2d} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. Stage-plan reproduction, rounded mode, < 1 s per instance
# ---------------------------------------------------------------------------

def test_plan_reproduction(tmp_path):
    rows = [
        (12, 1600, [7, 5]),
        (24, 1536, [14, 10]),
        (24, 2048, [14, 10]),
    ]
    with criterion(1, "plan reproduction") as info:
        times = []
        for layers, hidden, want in rows:
            out = tmp_path / f"plan_{hidden}"
            start = time.perf_counter()
            status = cli_main([
                "plan", "--layers", str(layers), "--hidden", str(hidden),
                "--stages", "2", "--rank", "128", "--mode", "rounded",
                "--out", str(out)])
            elapsed = time.perf_counter() - start
            assert status == 0
            report = json.loads((out / "report.json").read_text())
            assert report["plan"]["increments"] == want, (hidden, report["plan"])
            assert elapsed < 1.0, f"d={hidden} took {elapsed:.2f}s"
            times.append(elapsed)
        info["detail"] = ("(7,5)/(14,10)/(14,10) in "
                          + "/".join(f"{t * 1000:.0f}ms" for t in times))


# ---------------------------------------------------------------------------
# 2. Byte figures within 2% of the reference GB values
# ---------------------------------------------------------------------------

def test_peak_memory_figures():
    # (plan, hidden_dim, reference peak GB); adapters rank 128 throughout.
    # The 1.2B two-stage reference (10.6 GB) is not derivable from this byte
    # model and is deliberately excluded.
    staged_rows = [
        ((7, 5), 1600, 3.44),
        ((14, 10), 1536, 6.34),
        ((11, 8, 5), 2048, 8.86),
    ]
    vanilla_rows = [(12, 1600, 5.9), (24, 1536, 10.9), (24, 2048, 19.3)]
    with criterion(2, "byte-figure reproduction") as info:
        worst = 0.0
        for plan, hidden, ref_gb in staged_rows:
            shape = ModelShape(hidden, sum(plan), adapter_rank=128)
            got = plan_peak_bytes(plan, shape).peak_bytes
            rel = abs(got - ref_gb * 1e9) / (ref_gb * 1e9)
            assert rel < 0.02, (plan, hidden, got, ref_gb)
            worst = max(worst, rel)
        for layers, hidden, ref_gb in vanilla_rows:
            got = vanilla_state_bytes(layers, hidden)
            rel = abs(got - ref_gb * 1e9) / (ref_gb * 1e9)
            assert rel < 0.02, (layers, hidden, got, ref_gb)
            worst = max(worst, rel)
        info["detail"] = f"6 figures, worst deviation {worst * 100:.2f}%"


# ---------------------------------------------------------------------------
# 3. Memory reductions within 1 point of the reference percentages
# ---------------------------------------------------------------------------

def test_memory_reductions():
    rows = [
        ((7, 5), 1600, 12, 42.3),
        ((14, 10), 1536, 24, 42.2),
        ((11, 8, 5), 2048, 24, 53.9),
    ]
    with criterion(3, "memory reductions") as info:
        pairs = []
        for plan, hidden, layers, ref_pct in rows:
            shape = ModelShape(hidden, layers, adapter_rank=128)
            peak = plan_peak_bytes(plan, shape).peak_bytes
            vanilla = vanilla_state_bytes(layers, hidden)
            got_pct = 100.0 * (1.0 - peak / vanilla)
            assert abs(got_pct - ref_pct) <= 1.0, (plan, got_pct, ref_pct)
            pairs.append(f"{got_pct:.2f} vs {ref_pct}")
        info["detail"] = "; ".join(pairs)


# ---------------------------------------------------------------------------
# 4. Exact solver equals brute force on the full grid, < 10 s
# ---------------------------------------------------------------------------

def test_planner_optimality_grid():
    with criterion(4, "planner optimality") as info:
        start = time.perf_counter()
        cells = 0
        for hidden in (3, 512, 1536, 2048):
            for rank in (0, 8, 128):
                for stages in range(1, 5):
                    for layers in range(stages, 33):
                        shape = ModelShape(hidden, layers, adapter_rank=rank)
                        plan = solve_exact(layers, stages, shape)
                        _, brute_peak = brute_force_plan(layers, stages, shape)
                        peak = plan_peak_bytes(plan, shape).peak_bytes
                        assert peak == brute_peak, (hidden, rank, stages,
                                                    layers, plan)
                        cells += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"grid took {elapsed:.1f}s"
        info["detail"] = f"{cells} cells equal in {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. FLOPs totals within 5%, token budgets within 10%
# ---------------------------------------------------------------------------

def _within_of_quantized(value: float, ref: float, quantum: float,
                         rel: float) -> bool:
    """True when `value` is within rel*ref of some figure that rounds to
    `ref` at the given display quantum (reference tables quote token totals
    in whole billions, so the underlying figure is only known to +-q/2)."""
    nearest = min(max(value, ref - quantum / 2), ref + quantum / 2)
    return abs(value - nearest) <= rel * ref


def test_flops_and_token_budgets():
    vanilla_rows = [
        (368_000_000, 20_000 * 360_000, 1.63e19),
        (680_000_000, 20_000 * 688_000, 5.55e19),
        (1_200_000_000, 20_000 * 1_179_000, 1.73e20),
    ]
    with criterion(5, "flops and token budgets") as info:
        for params, tokens, ref in vanilla_rows:
            got = flops_vanilla(params, tokens)
            assert abs(got - ref) / ref < 0.05, (params, got, ref)

        b368 = token_budget(StagePlan((7, 5)),
                            ModelShape(1600, 12, adapter_rank=128),
                            16_300_000_000_000_000_000, 0.75, 360_000)
        b680 = token_budget(StagePlan((14, 10)),
                            ModelShape(1536, 24, adapter_rank=128),
                            55_500_000_000_000_000_000, 0.75, 688_000)
        for budget, ref_steps, ref_tokens in ((b368, 33_000, 11e9),
                                              (b680, 33_000, 21e9)):
            assert abs(budget.total_steps - ref_steps) / ref_steps < 0.10
            assert _within_of_quantized(budget.total_tokens, ref_tokens,
                                        1e9, 0.10), (budget.total_tokens,
                                                     ref_tokens)
        info["detail"] = (
            f"steps {b368.total_steps}/{b680.total_steps} vs 33K/33K; tokens "
            f"{b368.total_tokens / 1e9:.2f}B/{b680.total_tokens / 1e9:.2f}B "
            "vs 11B/21B; vanilla flops within 5%")


# ---------------------------------------------------------------------------
# 6. Function-preserving growth on 20 random models
# ---------------------------------------------------------------------------

def test_function_preserving_growth():
    positions = ("upper", "lower", "intermediate", "random")
    with criterion(6, "function-preserving growth") as info:
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(900 + seed)
            hidden = (12, 24, 36, 48)[seed % 4]
            config = ModelConfig(hidden_dim=hidden, head_count=2,
                                 vocab_size=64, max_seq_len=16)
            ids = rng.integers(0, 64, size=(2, 12))
            for init in ("copy", "mean"):
                model = build_model(config, 1 + seed % 3, seed=seed)
                before = forward(model, ids).data.copy()
                options = GrowthOptions(position=positions[seed % 4],
                                        init=init, fpi=True)
                grow(model, 1 + (seed // 4) % 3, options, seed=seed + 40)
                after = forward(model, ids).data
                rel = float(np.max(np.abs(after - before))
                            / np.max(np.abs(before)))
                assert rel < 1e-5, (seed, init, rel)
                worst = max(worst, rel)
        info["detail"] = f"max relative logit change {worst:.1e}"


# ---------------------------------------------------------------------------
# 7. Adapter algebra over 50 seeds
# ---------------------------------------------------------------------------

def test_adapter_algebra():
    config = ModelConfig(hidden_dim=24, head_count=2,
                         vocab_size=64, max_seq_len=16)
    options = GrowthOptions(adapter_rank=4)

    def randomize(model, rng):
        for i in adapted_layer_indices(model):
            for adapter in model.layers[i].adapters.values():
                adapter.a.data[...] = rng.normal(
                    0, 0.05, adapter.a.data.shape).astype(np.float32)
                adapter.b.data[...] = rng.normal(
                    0, 0.05, adapter.b.data.shape).astype(np.float32)

    with criterion(7, "adapter algebra") as info:
        worst_merge = worst_reset = 0.0
        for seed in range(50):
            rng = np.random.default_rng(3000 + seed)
            ids = rng.integers(0, 64, size=(2, 12))

            model = build_model(config, 3, seed=seed)
            base = forward(model, ids).data.copy()
            freeze_layers(model, [0, 1])
            attach_adapters(model, [0, 1], options, seed=seed + 500)
            assert np.array_equal(base, forward(model, ids).data)

            randomize(model, rng)
            adapted = forward(model, ids).data.copy()
            merge_adapters(model)
            merged = forward(model, ids).data
            rel = float(np.max(np.abs(merged - adapted))
                        / np.max(np.abs(adapted)))
            assert rel < 1e-5, (seed, rel)
            worst_merge = max(worst_merge, rel)

            attach_adapters(model, [0, 1], options, seed=seed + 600)
            randomize(model, rng)
            before_reset = forward(model, ids).data.copy()
            trainable_before = param_counts(model).trainable
            reset_adapters(model, options, seed=seed + 700)
            after_reset = forward(model, ids).data
            rel = float(np.max(np.abs(after_reset - before_reset))
                        / np.max(np.abs(before_reset)))
            assert rel < 1e-5, (seed, rel)
            worst_reset = max(worst_reset, rel)
            assert param_counts(model).trainable == trainable_before
            assert adapted_layer_indices(model) == [0, 1]
        info["detail"] = (f"50 seeds; worst merge dev {worst_merge:.1e}, "
                          f"worst reset dev {worst_reset:.1e}")


# ---------------------------------------------------------------------------
# 8. Gradient correctness: per-op finite differences plus model spot check
# ---------------------------------------------------------------------------

def _weighter(rng, shape):
    w = Tensor(rng.normal(size=shape))

    def weighted_sum(t):
        return sum_all(mul(t, w))
    return weighted_sum


def _op_cases(seed):
    """(name, f, x) triples covering every differentiable operator."""
    rng = np.random.default_rng(10_000 + seed)
    t23 = lambda: Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    cases = []

    w = _weighter(rng, (2, 3))
    c23 = Tensor(rng.normal(size=(2, 3)))
    c3 = Tensor(rng.normal(size=(3,)))
    cases.append(("add", lambda t: w(add(t, c23)), t23()))
    cases.append(("add-broadcast", lambda t: w(add(t, c3)), t23()))
    cases.append(("mul", lambda t: w(mul(t, c23)), t23()))
    cases.append(("scale", lambda t: w(scale(t, -1.7)), t23()))
    cases.append(("sum", sum_all, t23()))

    m32 = Tensor(rng.normal(size=(3, 2)))
    w22 = _weighter(rng, (2, 2))
    cases.append(("matmul-left", lambda t: w22(matmul(t, m32)), t23()))
    m23 = Tensor(rng.normal(size=(2, 3)))
    cases.append(("matmul-right", lambda t: w22(matmul(m23, t)),
                  Tensor(rng.normal(size=(3, 2)), requires_grad=True)))

    cases.append(("silu", lambda t: w(silu(t)), t23()))
    w24 = _weighter(rng, (2, 4))
    cases.append(("softmax", lambda t: w24(softmax(t)),
                  Tensor(rng.normal(size=(2, 4)), requires_grad=True)))

    gain = Tensor(rng.normal(size=(3,)))
    cases.append(("rms_norm-x", lambda t: w(rms_norm(t, gain)), t23()))
    fixed = Tensor(rng.normal(size=(2, 3)))
    w3 = _weighter(rng, (2, 3))
    cases.append(("rms_norm-gain", lambda g: w3(rms_norm(fixed, g)),
                  Tensor(rng.normal(size=(3,)), requires_grad=True)))

    ids = rng.integers(0, 5, size=(2, 4))
    w243 = _weighter(rng, (2, 4, 3))
    cases.append(("embedding", lambda t: w243(embedding(t, ids)),
                  Tensor(rng.normal(size=(5, 3)), requires_grad=True)))

    targets = rng.integers(0, 8, size=(1, 4))
    cases.append(("cross_entropy", lambda t: cross_entropy(t, targets),
                  Tensor(rng.normal(size=(1, 4, 8)), requires_grad=True)))

    w32 = _weighter(rng, (3, 2))
    cases.append(("reshape-transpose",
                  lambda t: w32(transpose(reshape(t, (2, 3)), (1, 0))),
                  Tensor(rng.normal(size=(6,)), requires_grad=True)))

    half = rng.uniform(0, 2 * np.pi, size=(3, 2))
    theta = np.concatenate([half, half], axis=-1)
    cos, sin = np.cos(theta), np.sin(theta)
    w_rope = _weighter(rng, (1, 2, 3, 4))
    cases.append(("rope", lambda t: w_rope(rope(t, cos, sin)),
                  Tensor(rng.normal(size=(1, 2, 3, 4)), requires_grad=True)))

    # The fused forms the model calls: SwiGLU's silu(gate, up) and the
    # adapter path's add(out, product, scale).
    up = Tensor(rng.normal(size=(2, 3)))
    cases.append(("silu-up-x", lambda t: w(silu(t, up)), t23()))
    cases.append(("silu-up-up", lambda t: w(silu(c23, t)), t23()))
    cases.append(("add-scaled", lambda t: w(add(c23, t, scale=-1.7)), t23()))
    cases.append(("add-scaled-broadcast",
                  lambda t: w(add(c23, t, scale=0.3)),
                  Tensor(rng.normal(size=(3,)), requires_grad=True)))
    return cases


def test_gradient_correctness():
    with criterion(8, "gradient correctness") as info:
        worst = 0.0
        for seed in range(100):
            cases = _op_cases(seed)
            for name, f, x in cases:
                report = grad_check(f, x, tolerance=1e-3)
                assert report.passed, (name, seed, report)
                worst = max(worst, report.max_rel_error)

        # Full-model spot check: float64 copy of a tiny model, ten random
        # parameter coordinates against central differences.
        config = ModelConfig(hidden_dim=12, head_count=2,
                             vocab_size=32, max_seq_len=8)
        model = build_model(config, 2, seed=11)
        params = named_parameters(model)
        for _, tensor in params:
            tensor.data = tensor.data.astype(np.float64)
        rng = np.random.default_rng(77)
        ids = rng.integers(0, 32, size=(2, 8))
        targets = rng.integers(0, 32, size=(2, 8))

        loss = cross_entropy(forward(model, ids), targets)
        loss.backward()

        def loss_value():
            return float(cross_entropy(forward(model, ids), targets).data)

        step = 1e-3
        worst_model = 0.0
        for _ in range(10):
            name, tensor = params[int(rng.integers(len(params)))]
            idx = int(rng.integers(tensor.data.size))
            analytic = float(tensor.grad.flat[idx])
            original = float(tensor.data.flat[idx])
            tensor.data.flat[idx] = original + step
            upper = loss_value()
            tensor.data.flat[idx] = original - step
            lower = loss_value()
            tensor.data.flat[idx] = original
            fd = (upper - lower) / (2 * step)
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-12)
            assert rel < 1e-3, (name, idx, fd, analytic)
            worst_model = max(worst_model, rel)
        info["detail"] = (f"{len(cases)} op cases x 100 seeds, worst rel {worst:.1e}; "
                          f"model spot check worst rel {worst_model:.1e}")


# ---------------------------------------------------------------------------
# 9. Ledger reconciliation against the analytic byte and FLOPs formulas
# ---------------------------------------------------------------------------

def test_ledger_reconciliation(small_corpus_file):
    train, val = load_corpus([small_corpus_file], validation_fraction=0.1)
    with criterion(9, "ledger reconciliation") as info:
        emb = embedding_params(256, 96)
        for increments in ((4, 4), (3, 3, 2)):
            plan = StagePlan(increments)
            shape = ModelShape(96, sum(increments), adapter_rank=8)
            config = ModelConfig(hidden_dim=96, head_count=6, max_seq_len=32)
            tc = TrainConfig(total_steps=20, peak_lr=1e-3, warmup_steps=2,
                             restart_warmup_steps=2, batch_size=2, seq_len=16,
                             growth_fraction=0.75, seed=3)
            growth = GrowthOptions(position="upper", init="mean", fpi=True,
                                   adapter_rank=8)
            result = run_schedule(config, plan, tc, growth, train, val,
                                  evaluation=EvalOptions(max_windows=4))
            ledger = result.ledger

            counts = stage_param_counts(plan, shape)
            steps = split_steps(tc.total_steps, len(plan),
                                tc.growth_fraction)
            tokens_per_step = tc.batch_size * tc.seq_len
            for i, record in enumerate(ledger.stages):
                expected = stage_state_bytes(plan, i + 1, shape,
                                             embedding_params=emb)
                assert record.simulated_bytes == expected.total_bytes
                assert record.trainable_params == counts[i][0] + emb
                assert record.frozen_params == counts[i][1]
                assert record.tokens == steps[i] * tokens_per_step
            triples = [(t + emb, f, s * tokens_per_step)
                       for (t, f), s in zip(counts, steps)]
            assert ledger.total_flops == flops_staged(triples)
        info["detail"] = "plans (4,4) and (3,3,2) at d=96 r=8, exact"


# ---------------------------------------------------------------------------
# 10. Staged run matches vanilla quality at equal flops with lower peak bytes
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_staged_vs_vanilla_desk_run(text_corpus_file):
    BATCH, SEQ, STEPS = 8, 64, 600
    with criterion(10, "staged vs vanilla desk run") as info:
        train, val = load_corpus([text_corpus_file], validation_fraction=0.1)
        assert train.ids.size + val.ids.size >= 5_000_000

        plan = StagePlan((4, 4))
        shape = ModelShape(96, 8, adapter_rank=8)
        emb = embedding_params(256, 96)
        counts = stage_param_counts(plan, shape)
        stage_steps = split_steps(STEPS, 2, 0.75)
        tokens_per_step = BATCH * SEQ
        budget = flops_staged([(t + emb, f, s * tokens_per_step)
                               for (t, f), s in zip(counts, stage_steps)])
        vanilla_step_flops = 6 * (8 * layer_params(96) + emb) * tokens_per_step
        vanilla_steps = round(budget / vanilla_step_flops)

        def run(run_plan, total_steps, seed):
            config = ModelConfig(hidden_dim=96, head_count=6, max_seq_len=SEQ)
            tc = TrainConfig(total_steps=total_steps, peak_lr=1e-3,
                             warmup_steps=30, restart_warmup_steps=30,
                             batch_size=BATCH, seq_len=SEQ,
                             growth_fraction=0.75, seed=seed)
            growth = GrowthOptions(position="upper", init="mean", fpi=True,
                                   adapter_rank=8)
            start = time.perf_counter()
            result = run_schedule(config, run_plan, tc, growth, train, val,
                                  evaluation=EvalOptions(max_windows=256))
            return result.ledger, time.perf_counter() - start

        ratios, lines = [], []
        for seed in (0, 1, 2):
            staged, staged_secs = run(plan, STEPS, seed)
            vanilla, vanilla_secs = run(StagePlan((8,)), vanilla_steps, seed)
            # Budgets match up to the one-step rounding of vanilla_steps.
            assert abs(staged.total_flops
                       - vanilla.total_flops) <= vanilla_step_flops
            peak_ratio = (staged.peak_simulated_bytes
                          / vanilla.peak_simulated_bytes)
            assert peak_ratio <= 0.70, peak_ratio
            ratio = staged.stages[-1].val_ppl / vanilla.stages[-1].val_ppl
            ratios.append(ratio)
            lines.append(
                f"    seed {seed}: staged ppl {staged.stages[-1].val_ppl:.3f}"
                f" ({staged_secs:.0f}s, {STEPS} steps) vs vanilla "
                f"{vanilla.stages[-1].val_ppl:.3f} ({vanilla_secs:.0f}s, "
                f"{vanilla_steps} steps), ratio {ratio:.3f}, "
                f"peak bytes ratio {peak_ratio:.3f}")
        passing = sum(r <= 1.05 for r in ratios)
        for line in lines:
            record_line(line)
        assert passing >= 2, ratios
        info["detail"] = (f"{passing}/3 seeds within 5% "
                          f"(ratios {', '.join(f'{r:.3f}' for r in ratios)})")


# ---------------------------------------------------------------------------
# 11. Ablation harness: complete grids, orderings reported, PET hard gate
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_ablation_harness(tmp_path, text_corpus_file):
    expected_cells = {
        "position": ["upper", "intermediate", "lower", "random"],
        "init": ["copy", "copy+fpi", "mean", "mean+fpi"],
        "timing": ["25%", "50%", "75%", "100%"],
        "pet": ["w/ PET", "w/o PET"],
    }
    config = {
        "version": 1,
        "run_dir": str(tmp_path / "run"),
        "corpus": str(text_corpus_file),
        "validation_fraction": 0.1,
        "model": {"hidden_dim": 48, "head_count": 4, "max_seq_len": 32},
        "plan": {"increments": [4, 2]},
        "growth": {"adapter_rank": 4, "position": "upper", "init": "mean",
                   "fpi": True},
        "train": {"total_steps": 400, "batch_size": 4, "seq_len": 32,
                  "peak_lr": 1e-3, "warmup_steps": 20,
                  "restart_warmup_steps": 20, "growth_fraction": 0.75,
                  "seed": 0},
        "eval": {"max_windows": 128},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    with criterion(11, "ablation harness") as info:
        orderings = {}
        ppls = {}
        for axis, cells in expected_cells.items():
            out = tmp_path / f"ablation_{axis}"
            status = cli_main(["ablate", "--axis", axis, "--config",
                               str(config_path), "--out", str(out)])
            assert status == 0
            results = json.loads((out / "results.json").read_text())
            assert results["axis"] == axis
            assert [c["cell"] for c in results["cells"]] == cells
            for cell in results["cells"]:
                assert np.isfinite(cell["val_ppl"]), (axis, cell)
                assert (out / "cells").is_dir()
            ranked = sorted(results["cells"], key=lambda c: c["val_ppl"])
            orderings[axis] = " < ".join(
                f"{c['cell']} ({c['val_ppl']:.3f})" for c in ranked)
            ppls[axis] = {c["cell"]: c["val_ppl"] for c in results["cells"]}

        # Only the PET axis is a hard gate; orderings are reported as-is.
        pet_ratio = ppls["pet"]["w/ PET"] / ppls["pet"]["w/o PET"]
        assert pet_ratio <= 1.02, pet_ratio
        for axis in expected_cells:
            record_line(f"    {axis}: {orderings[axis]}")
        info["detail"] = f"4 complete grids; PET gate ratio {pet_ratio:.4f}"


# ---------------------------------------------------------------------------
# 12. Bit-identical reruns
# ---------------------------------------------------------------------------

def test_run_determinism(tmp_path, small_corpus_file):
    config = {
        "version": 1,
        "run_dir": str(tmp_path / "a"),
        "corpus": str(small_corpus_file),
        "validation_fraction": 0.1,
        "model": {"hidden_dim": 48, "head_count": 4, "max_seq_len": 32},
        "plan": {"increments": [2, 2]},
        "growth": {"adapter_rank": 4},
        "train": {"total_steps": 12, "batch_size": 2, "seq_len": 16,
                  "peak_lr": 1e-3, "seed": 0},
        "eval": {"max_windows": 4},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    with criterion(12, "determinism") as info:
        assert cli_main(["train", "--config", str(config_path)]) == 0
        assert cli_main(["train", "--config", str(config_path),
                         "--run-dir", str(tmp_path / "b")]) == 0
        compared = []
        for rel in ("ledger.json", "log.ndjson", "final_eval.json",
                    "checkpoints/stage_02/manifest.json",
                    "checkpoints/stage_02/params.bin"):
            first = (tmp_path / "a" / rel).read_bytes()
            second = (tmp_path / "b" / rel).read_bytes()
            assert first == second, f"{rel} differs between identical runs"
            compared.append(rel)
        info["detail"] = f"{len(compared)} artifacts byte-identical"
