import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import record_line

from stagegrow import autodiff as ad
from stagegrow import trainer
from stagegrow.autodiff import NonFiniteError, Tensor
from stagegrow.checkpoint import load_checkpoint
from stagegrow.data import EvalOptions, batch_cycle, load_corpus
from stagegrow.growth import GrowthError, attach_adapters, freeze_layers
from stagegrow.memory import (ModelShape, StagePlan, embedding_params,
                              stage_params, stage_state_bytes, state_bytes,
                              vanilla_state_bytes)
from stagegrow.model import (ModelConfig, build_model, forward,
                             named_parameters, param_counts,
                             trainable_parameters)
from stagegrow.planner import stage_flops, stage_param_counts
from stagegrow.trainer import (GrowthOptions, RunLedger, StageRecord,
                               TrainConfig, _RunWriter, adamw_step,
                               clip_gradients, global_grad_norm, lr_at,
                               run_schedule)

MODEL_CONFIG = ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32)


def train_config(**overrides):
    base = dict(total_steps=20, peak_lr=1e-3, warmup_steps=2,
                restart_warmup_steps=2, batch_size=4, seq_len=16,
                growth_fraction=0.75, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def streams(small_corpus_file):
    return load_corpus(small_corpus_file, validation_fraction=0.1)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def test_adamw_matches_hand_recurrence():
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.95, 1e-8, 0.1
    config = train_config(betas=(b1, b2), eps=eps, weight_decay=wd)
    for dtype, transposed in itertools.product((np.float64, np.float32),
                                               (False, True)):
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal((3, 2)).astype(dtype)
        grads = [rng.standard_normal((3, 2)).astype(dtype) for _ in range(3)]
        t = Tensor(w0.copy(), requires_grad=True)
        state = {}

        # The out-of-place recurrence; the in-place update rounds the same.
        w, m, v = w0.copy(), np.zeros_like(w0), np.zeros_like(w0)
        for k, g in enumerate(grads, start=1):
            # A weight used through transpose() gets its gradient in F order.
            t.grad = np.ascontiguousarray(g.T).T if transposed else g.copy()
            adamw_step([t], state, lr, config)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * np.square(g)
            m_hat = m / (1.0 - b1 ** k)
            v_hat = v / (1.0 - b2 ** k)
            w = w - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * w)
            assert np.array_equal(t.data, w), (dtype, transposed, k)
            assert np.array_equal(state[t._node]["m"], m), (dtype, transposed, k)
            assert np.array_equal(state[t._node]["v"], v), (dtype, transposed, k)
        assert t.data.dtype == dtype
        assert state[t._node]["t"] == 3


def test_adamw_decay_applies_to_matrices_only():
    mat = Tensor(np.full((2, 2), 2.0), requires_grad=True)
    vec = Tensor(np.full(2, 2.0), requires_grad=True)
    mat.grad = np.zeros((2, 2))
    vec.grad = np.zeros(2)
    adamw_step([mat, vec], {}, 0.1, train_config(weight_decay=0.5))
    # Zero gradient: the Adam term vanishes, leaving pure decay on matrices.
    assert mat.data == pytest.approx(np.full((2, 2), 2.0 - 0.1 * 0.5 * 2.0))
    assert np.array_equal(vec.data, np.full(2, 2.0))


def test_adamw_skips_missing_grads():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    state = {}
    adamw_step([t], state, 0.1, train_config())
    assert np.array_equal(t.data, np.ones((2, 2)))
    assert state == {}


def test_adamw_keeps_dtype():
    t = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    t.grad = np.full((2, 2), 0.5, dtype=np.float32)
    adamw_step([t], {}, 0.01, train_config())
    assert t.data.dtype == np.float32


# ---------------------------------------------------------------------------
# Gradient clipping
# ---------------------------------------------------------------------------

def test_clip_scales_down_only():
    a = Tensor(np.zeros(3), requires_grad=True)
    a.grad = np.array([3.0, 4.0, 0.0])  # norm 5
    returned = clip_gradients([a], max_norm=1.0)
    assert returned == pytest.approx(5.0)
    assert global_grad_norm([a]) == pytest.approx(1.0)

    b = Tensor(np.zeros(2), requires_grad=True)
    b.grad = np.array([0.3, 0.4])
    returned = clip_gradients([b], max_norm=1.0)
    assert returned == pytest.approx(0.5)
    assert np.array_equal(b.grad, np.array([0.3, 0.4]))


def test_clip_is_global_across_params():
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    a.grad, b.grad = np.array([3.0]), np.array([4.0])
    clip_gradients([a, b], max_norm=1.0)
    assert a.grad[0] == pytest.approx(0.6)
    assert b.grad[0] == pytest.approx(0.8)


def test_clip_leaves_nonfinite_grads_for_caller():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([np.nan, 1.0])
    norm = clip_gradients([a], max_norm=1.0)
    assert not math.isfinite(norm)
    # Untouched: the training loop skips the step instead.
    assert np.isnan(a.grad[0]) and a.grad[1] == 1.0


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_warmup_and_cosine():
    cfg = train_config(total_steps=100, peak_lr=1.0, warmup_steps=10)
    assert lr_at(0, [], cfg) == 0.0
    assert lr_at(5, [], cfg) == pytest.approx(0.5)
    assert lr_at(10, [], cfg) == pytest.approx(1.0)
    values = [lr_at(s, [], cfg) for s in range(10, 101)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert lr_at(100, [], cfg) == pytest.approx(0.1)  # floor: 10% of peak
    # Halfway through decay the cosine sits midway between peak and floor.
    assert lr_at(55, [], cfg) == pytest.approx(0.55)


def test_lr_no_warmup_starts_at_peak():
    cfg = train_config(total_steps=50, peak_lr=2.0, warmup_steps=0)
    assert lr_at(0, [], cfg) == pytest.approx(2.0)


def test_lr_rewarm_after_growth():
    cfg = train_config(total_steps=100, peak_lr=1.0, warmup_steps=0,
                       restart_warmup_steps=10)
    g = 60
    decayed = lr_at(g, [], cfg)
    assert decayed < 1.0
    # Continuous at the boundary, linear to the peak, then fresh cosine.
    assert lr_at(g, [g], cfg) == pytest.approx(decayed)
    assert lr_at(g + 5, [g], cfg) == pytest.approx((decayed + 1.0) / 2.0)
    assert lr_at(g + 10, [g], cfg) == pytest.approx(1.0)
    assert lr_at(g + 11, [g], cfg) < 1.0
    assert lr_at(100, [g], cfg) == pytest.approx(0.1)


def test_lr_zero_rewarm_jumps():
    cfg = train_config(total_steps=100, peak_lr=1.0, warmup_steps=0,
                       restart_warmup_steps=0)
    assert lr_at(60, [60], cfg) == pytest.approx(1.0)


def test_lr_two_growth_events():
    cfg = train_config(total_steps=100, peak_lr=1.0, warmup_steps=0,
                       restart_warmup_steps=4)
    values = [lr_at(s, [40, 70], cfg) for s in range(100)]
    assert values[44] == pytest.approx(1.0)
    assert values[74] == pytest.approx(1.0)
    assert values[45] < 1.0 and values[69] < 1.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        train_config(total_steps=0)
    with pytest.raises(ValueError):
        train_config(peak_lr=0.0)
    with pytest.raises(ValueError):
        train_config(warmup_steps=25)  # exceeds total_steps=20
    with pytest.raises(ValueError):
        train_config(growth_fraction=0.0)
    with pytest.raises(ValueError):
        train_config(growth_fraction=1.5)
    with pytest.raises(ValueError):
        train_config(adapter_reset_interval=0)
    assert train_config(growth_fraction=1.0).growth_fraction == 1.0


@pytest.mark.parametrize("overrides", [
    {"position": "sideways"}, {"init": "zero"}, {"adapter_rank": -1},
    {"adapter_scale": float("nan")}, {"adapter_scale": True},
    {"adapter_scale": "big"}])
def test_growth_options_reject_bad_policy_when_built(overrides):
    # Caught at construction, not at the first growth boundary.
    with pytest.raises(GrowthError):
        GrowthOptions(**overrides)


def test_growth_options_default_adapter_scale():
    # adapter_scale None resolves to 1/rank when adapters attach.
    model = build_model(MODEL_CONFIG, 2, seed=0)
    freeze_layers(model, [0, 1])
    attach_adapters(model, [0], GrowthOptions(adapter_rank=4), seed=0)
    adapters = model.layers[0].adapters.values()
    assert {(a.rank, a.scale) for a in adapters} == {(4, 0.25)}
    # Rank 0 means no adapters: attaching with it is refused.
    with pytest.raises(GrowthError, match="adapter_rank"):
        attach_adapters(model, [1], GrowthOptions(adapter_rank=0), seed=0)


# ---------------------------------------------------------------------------
# Full schedule runs
# ---------------------------------------------------------------------------

def test_ledger_reconciles_with_planning_formulas(streams):
    train, val = streams
    plan = (2, 2)
    cfg = train_config(total_steps=16)
    result = run_schedule(MODEL_CONFIG, plan, cfg,
                          GrowthOptions(adapter_rank=4, fpi=True),
                          train, val, evaluation=EvalOptions(max_windows=8))
    ledger = result.ledger
    assert [s.steps for s in ledger.stages] == [12, 4]
    assert result.validation.tokens == 8 * cfg.seq_len
    assert result.validation.loss == ledger.stages[-1].val_loss

    shape = ModelShape(hidden_dim=48, layer_count=4, adapter_rank=4)
    emb = embedding_params(256, 48)
    nonemb = stage_param_counts(plan, shape)
    stages = StagePlan.of(plan).stages
    for i, rec in enumerate(ledger.stages):
        expect = stage_state_bytes(plan, i + 1, shape, embedding_params=emb)
        assert rec.simulated_bytes == expect.total_bytes
        t_i, f_i = nonemb[i]
        assert rec.trainable_params == t_i + emb
        assert rec.frozen_params == f_i
        assert rec.adapter_params == stage_params(*stages[i], shape).adapter
        assert rec.tokens == rec.steps * cfg.batch_size * cfg.seq_len
        assert rec.flops == stage_flops(t_i + emb, f_i, rec.tokens)
        assert len(rec.loss_curve) == rec.steps
        assert rec.final_train_loss == rec.loss_curve[-1]
        assert rec.val_ppl == pytest.approx(math.exp(rec.val_loss))
    assert ledger.stages[0].adapter_params == 0
    assert ledger.stages[1].adapter_params == shape.adapter_rank * 19 * 48 * 2
    assert ledger.peak_simulated_bytes == max(
        s.simulated_bytes for s in ledger.stages)
    assert len(result.model.layers) == 4
    final_rule = stage_params(*stages[-1], shape)._replace(embedding=emb)
    assert param_counts(result.model) == final_rule
    grow_events = [e for e in ledger.stages[1].events if e["event"] == "grow"]
    assert len(grow_events) == 1
    assert grow_events[0]["new_layers"] == [1, 3]  # upper growth interleaves
    assert grow_events[0]["frozen_layers"] == [0, 2]


def test_three_stage_ledger(streams):
    train, _ = streams
    plan = (2, 1, 1)
    cfg = train_config(total_steps=16, seed=3)
    result = run_schedule(MODEL_CONFIG, plan, cfg, GrowthOptions(adapter_rank=4),
                          train, None)
    assert [s.steps for s in result.ledger.stages] == [12, 3, 1]
    assert [s.cumulative_layers for s in result.ledger.stages] == [2, 3, 4]
    assert result.validation is None
    assert result.ledger.total_steps == 16
    shape = ModelShape(hidden_dim=48, layer_count=4, adapter_rank=4)
    emb = embedding_params(256, 48)
    for i, rec in enumerate(result.ledger.stages):
        expect = stage_state_bytes(plan, i + 1, shape, embedding_params=emb)
        assert rec.simulated_bytes == expect.total_bytes
    counts = param_counts(result.model)
    assert (state_bytes(counts.trainable, counts.frozen_layer)
            == result.ledger.stages[-1].simulated_bytes)


def test_frozen_layers_never_move_after_their_stage(streams, tmp_path):
    train, val = streams
    cfg = train_config(total_steps=16, seed=5)
    result = run_schedule(MODEL_CONFIG, (2, 2), cfg,
                          GrowthOptions(adapter_rank=4), train, val,
                          evaluation=EvalOptions(max_windows=4),
                          out_dir=tmp_path / "run")
    stage1, _ = load_checkpoint(tmp_path / "run" / "checkpoints" / "stage_01")
    final = result.model
    # Upper growth of 2 into 2 puts the originals at indices 0 and 2.
    for old_idx, new_idx in [(0, 0), (1, 2)]:
        for name, t in stage1.layers[old_idx].all_tensors().items():
            assert np.array_equal(t.data,
                                  final.layers[new_idx].all_tensors()[name].data), name
        assert final.layers[new_idx].frozen
    for idx in (1, 3):
        assert not final.layers[idx].frozen


def test_frozen_layers_hold_no_gradient_after_growth(streams, monkeypatch):
    # At each update exactly the trainable tensors hold a gradient; the
    # step drops them after the update, so none outlives the run.
    train, _ = streams
    built, held = [], []
    real_build, real_step = trainer.build_model, trainer.adamw_step

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def step(params, *args):
        named = named_parameters(built[0])
        name_of = {id(t): n for n, t in named}
        with_grad = {n for n, t in named if t.grad is not None}
        held.append((with_grad, {name_of[id(t)] for t in params}))
        real_step(params, *args)

    monkeypatch.setattr(trainer, "build_model", build)
    monkeypatch.setattr(trainer, "adamw_step", step)
    result = run_schedule(MODEL_CONFIG, (2, 2), train_config(total_steps=8),
                          GrowthOptions(adapter_rank=4), train, None)
    params = named_parameters(result.model)
    frozen = [name for name, t in params if not t.requires_grad]
    assert len(frozen) == 2 * 9
    with_grad, trainable = held[-1]
    assert with_grad == trainable == {n for n, _ in params} - set(frozen)
    assert all(with_grad == trainable for with_grad, trainable in held)
    assert [name for name, t in params if t.grad is not None] == []


def test_moments_live_exactly_while_their_tensors_train(streams, monkeypatch):
    # AdamW keys each tensor's moments by its graph node.  At every update
    # the state holds exactly the trainables; a tensor that kept training
    # keeps its moment arrays and step count, a new one starts at step 1;
    # a frozen layer's or a merged adapter's moments are gone before the
    # next forward pass, and a frozen layer's before growth allocates.
    train, _ = streams
    real_step, real_grow = trainer.adamw_step, trainer.grow
    real_forward = trainer.model_lib.forward
    last = {}  # id(tensor) -> (tensor ref, m ref, step count) at the last update
    seen = {"continued": 0, "fresh": 0, "frozen": 0, "merged": 0}

    def step(params, state, *args):
        real_step(params, state, *args)
        assert {id(node) for node in state} == {id(t._node) for t in params}
        for t in params:
            st = state[t._node]
            prev = last.get(id(t))
            if prev is not None and prev[0]() is t:
                assert prev[1]() is st["m"] and st["t"] == prev[2] + 1
                seen["continued"] += 1
            else:
                assert st["t"] == 1
                seen["fresh"] += 1
        last.clear()
        last.update({id(t): (weakref.ref(t), weakref.ref(state[t._node]["m"]),
                             state[t._node]["t"]) for t in params})

    def dropped(model):  # moments of tensors the model no longer trains
        live = {id(t) for t in trainable_parameters(model)}
        for key, (t_ref, m_ref, _) in last.items():
            t = t_ref()
            if t is None or key not in live:
                assert m_ref() is None
                yield "frozen" if t is not None and not t.requires_grad else "merged"

    def forward(model, *args):
        for kind in dropped(model):
            seen[kind] += 1
        return real_forward(model, *args)

    def grow(model, *args, **kwargs):
        assert len(list(dropped(model))) == 18
        return real_grow(model, *args, **kwargs)

    monkeypatch.setattr(trainer, "adamw_step", step)
    monkeypatch.setattr(trainer, "grow", grow)
    monkeypatch.setattr(trainer.model_lib, "forward", forward)
    cfg = train_config(total_steps=16, adapter_reset_interval=2)
    run_schedule(MODEL_CONFIG, (2, 2), cfg, GrowthOptions(adapter_rank=4),
                 train, None)
    # Growth freezes 2 layers of 9 tensors; the reset before stage 2's
    # third step merges 2 layers x 7 matrices x 2 factors.  Fresh: stage 1's
    # 21 tensors, then 2 new layers and 28 adapter factors, then 28 more.
    # Continued: stage 1's last 11 steps; then the 3 embedding-side tensors
    # across growth, and 3 + 18 (+ 28 unless just reset) per stage-2 step.
    assert seen["frozen"] == 18 and seen["merged"] == 28
    assert seen["fresh"] == 21 + 18 + 28 + 28
    assert seen["continued"] == 11 * 21 + 3 + 49 + 21 + 49


def measured_trade(label, train, val=None, run_dir=None):
    """Whole-run tracemalloc peaks (build, growth and steps) of plan (4,4)
    against (8) at d=384, rank 8: (measured cut, summary line).  With a
    run_dir, each stage validates on val and checkpoints there."""
    d, rank = 384, 8

    def run_peak(plan, steps):
        model_cfg = ModelConfig(hidden_dim=d, head_count=6)
        cfg = train_config(total_steps=steps, growth_fraction=0.5,
                           batch_size=1, seq_len=64)
        out_dir = None if run_dir is None else run_dir / f"plan_{len(plan)}"
        tracemalloc.start()
        try:
            run_schedule(model_cfg, plan, cfg,
                         GrowthOptions(adapter_rank=rank, fpi=True), train, val,
                         evaluation=EvalOptions(max_windows=8), out_dir=out_dir)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    staged, vanilla = run_peak((4, 4), 4), run_peak((8,), 2)
    shape = ModelShape(hidden_dim=d, layer_count=8, adapter_rank=rank)
    emb = embedding_params(256, d)
    modeled = [stage_state_bytes((4, 4), k, shape, emb).total_bytes for k in (1, 2)]
    modeled_cut = 1.0 - max(modeled) / vanilla_state_bytes(8, d, emb)
    measured_cut = 1.0 - staged / vanilla
    return measured_cut, (
        f"measured trade{label} at d={d}, plan (4,4), rank {rank}: staged "
        f"{staged / 1e6:.1f} MB vs vanilla {vanilla / 1e6:.1f} MB, "
        f"reduction {100 * measured_cut:.1f}% measured, "
        f"{100 * modeled_cut:.1f}% modeled")


def test_measured_trade_tracks_the_byte_model(streams):
    # At a shape where parameters and optimizer state, not activations, set
    # the peak, the staged run's peak falls well below vanilla's, as the
    # byte model says.
    train, _ = streams
    cut, line = measured_trade("", train)
    record_line(line)
    assert cut >= 0.30, line


def test_measured_trade_holds_with_a_run_directory(streams, tmp_path):
    # As `stagegrow train` runs: each stage validates and checkpoints.  The
    # streamed save and the dropped gradients keep the peak at the
    # training state, so the cut holds.
    train, val = streams
    cut, line = measured_trade(" with a run directory", train, val, tmp_path)
    record_line(line)
    assert cut >= 0.30, line


def test_single_stage_equals_plain_loop(streams):
    train, _ = streams
    cfg = train_config(total_steps=10, warmup_steps=2, seed=7)
    result = run_schedule(MODEL_CONFIG, (2,), cfg, GrowthOptions(),
                          train, None)

    model = build_model(MODEL_CONFIG, 2, seed=cfg.seed)
    batches = batch_cycle(train, cfg.seq_len, cfg.batch_size, seed=cfg.seed + 1)
    state = {}
    for step in range(cfg.total_steps):
        lr = lr_at(step, [], cfg)
        inputs, targets = next(batches)
        trainables = trainable_parameters(model)
        for t in trainables:
            t.zero_grad()
        loss = ad.cross_entropy(forward(model, inputs), targets)
        loss.backward()
        clip_gradients(trainables, cfg.grad_clip)
        adamw_step(trainables, state, lr, cfg)

    got = dict(named_parameters(result.model))
    expect = dict(named_parameters(model))
    assert got.keys() == expect.keys()
    for name in expect:
        assert np.array_equal(got[name].data, expect[name].data), name


def test_identical_runs_are_identical(streams):
    train, val = streams
    cfg = train_config(total_steps=12, seed=9)
    r1 = run_schedule(MODEL_CONFIG, (2, 2), cfg, GrowthOptions(adapter_rank=4),
                      train, val, evaluation=EvalOptions(max_windows=4))
    r2 = run_schedule(MODEL_CONFIG, (2, 2), cfg, GrowthOptions(adapter_rank=4),
                      train, val, evaluation=EvalOptions(max_windows=4))
    assert r1.ledger.to_dict() == r2.ledger.to_dict()
    for (name, a), (_, b) in zip(named_parameters(r1.model),
                                 named_parameters(r2.model)):
        assert np.array_equal(a.data, b.data), name


def test_exploded_grads_skip_steps_without_divergence(streams, tmp_path):
    # Pre-norm blocks rescale arbitrarily large activations back to O(1),
    # so a big-but-representable blowup only poisons the gradients: those
    # steps are skipped and training limps on rather than aborting.
    train, _ = streams
    cfg = train_config(total_steps=6, peak_lr=1e8, warmup_steps=0)
    with np.errstate(all="ignore"):
        result = run_schedule(MODEL_CONFIG, (2,), cfg, GrowthOptions(),
                              train, None, out_dir=tmp_path / "run")
    events = [e for s in result.ledger.stages for e in s.events]
    assert any(e["event"] == "skipped_nonfinite_grads" for e in events)
    assert all(math.isfinite(v) for s in result.ledger.stages
               for v in s.loss_curve)

    # The step log stays strict JSON: no NaN or Infinity tokens.
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    lines = [json.loads(line, parse_constant=reject) for line in
             (tmp_path / "run" / "log.ndjson").read_text().splitlines()]
    skipped = {e["step"] for e in events
               if e["event"] == "skipped_nonfinite_grads"}
    steps = [rec for rec in lines if rec["kind"] == "step"]
    assert len(steps) == 6
    for rec in steps:
        assert rec["grad_norm_finite"] == (rec["step"] not in skipped)
        if rec["step"] in skipped:
            assert rec["grad_norm"] is None
        else:
            assert math.isfinite(rec["grad_norm"])


def test_a_ledger_that_is_not_strict_json_keeps_the_last_one(tmp_path):
    writer = _RunWriter(tmp_path)
    try:
        record = StageRecord(stage=1, layer_increment=2, cumulative_layers=2,
                             trainable_params=10, frozen_params=0,
                             adapter_params=0, simulated_bytes=160)
        ledger = RunLedger([record])
        writer.flush_ledger(ledger)
        before = (tmp_path / "ledger.json").read_bytes()
        record.final_train_loss = float("nan")
        with pytest.raises(ValueError):
            writer.flush_ledger(ledger)
    finally:
        writer.close()
    assert (tmp_path / "ledger.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.json", "log.ndjson"]


def test_divergence_flushes_ledger(streams, tmp_path):
    # Norm layers rescale any finite blowup back to O(1), so forcing a
    # genuine non-finite loss takes an update that overflows the float32
    # parameters to inf; the next forward then yields nan and aborts.
    train, _ = streams
    cfg = train_config(total_steps=50, peak_lr=1e39, warmup_steps=0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        run_schedule(MODEL_CONFIG, (2, 2), cfg, GrowthOptions(),
                     train, None, out_dir=tmp_path / "run")
    ledger = json.loads((tmp_path / "run" / "ledger.json").read_text())
    events = [e for s in ledger["stages"] for e in s["events"]]
    assert any(e["event"] == "diverged" for e in events)
    assert "wall_seconds" not in ledger["stages"][0]


def test_growth_fraction_one_trains_final_stage_zero_steps(streams):
    train, val = streams
    cfg = train_config(total_steps=8, growth_fraction=1.0)
    result = run_schedule(MODEL_CONFIG, (2, 2), cfg,
                          GrowthOptions(adapter_rank=4), train, val,
                          evaluation=EvalOptions(max_windows=4))
    assert [s.steps for s in result.ledger.stages] == [8, 0]
    last = result.ledger.stages[1]
    assert last.tokens == 0 and last.flops == 0
    assert last.val_ppl is not None  # still evaluated after growing
    assert len(result.model.layers) == 4


def test_adapter_reset_events(streams):
    train, _ = streams
    cfg = train_config(total_steps=16, adapter_reset_interval=2, seed=11)
    result = run_schedule(MODEL_CONFIG, (2, 2), cfg,
                          GrowthOptions(adapter_rank=4), train, None)
    resets = [e for e in result.ledger.stages[1].events
              if e["event"] == "adapter_reset"]
    # Stage 2 runs 4 steps with a reset every 2.
    assert len(resets) == 2
    # Stage 1 has no adapters, so no resets fire there.
    assert not [e for e in result.ledger.stages[0].events
                if e["event"] == "adapter_reset"]
    for layer in result.model.layers:
        if layer.frozen:
            assert layer.adapters


def test_boundary_moves_go_through_trainer_attributes(streams, monkeypatch):
    # Profilers wrap these module attributes to time the boundary moves and
    # to mark where a stage starts, so run_schedule must look them up there.
    calls = []
    for name in ("merge_adapters", "grow", "freeze_layers", "attach_adapters"):
        def wrapper(*args, _orig=getattr(trainer, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(trainer, name, wrapper)
    train, _ = streams
    result = run_schedule(MODEL_CONFIG, (2, 2), train_config(total_steps=4),
                          GrowthOptions(adapter_rank=4), train, None)
    assert calls == ["merge_adapters", "freeze_layers", "grow", "attach_adapters"]
    grown = result.ledger.stages[1].events[0]
    assert (grown["new_layers"], grown["frozen_layers"]) == ([1, 3], [0, 2])


def test_run_log_tracks_schedule(streams, tmp_path):
    train, _ = streams
    cfg = train_config(total_steps=16, restart_warmup_steps=2, warmup_steps=0)
    run_schedule(MODEL_CONFIG, (2, 2), cfg, GrowthOptions(adapter_rank=4),
                 train, None, out_dir=tmp_path / "run")
    lines = [json.loads(line) for line in
             (tmp_path / "run" / "log.ndjson").read_text().splitlines()]
    steps = {rec["step"]: rec for rec in lines if rec["kind"] == "step"}
    assert len(steps) == 16
    # Boundary at step 12; two-step rewarm tops out at step 14.
    assert steps[14]["lr"] == pytest.approx(cfg.peak_lr)
    assert steps[13]["lr"] < cfg.peak_lr
    grow_lines = [rec for rec in lines if rec.get("event") == "grow"]
    assert len(grow_lines) == 1 and grow_lines[0]["step"] == 12
