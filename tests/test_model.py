import tracemalloc

import numpy as np
import pytest

from stagegrow import autodiff
from stagegrow.autodiff import cross_entropy
from stagegrow.growth import GrowthOptions, attach_adapters, freeze_layers
from stagegrow.memory import layer_params
from stagegrow.model import (MASK_VALUE, ModelConfig, build_model, causal_mask,
                             forward, named_parameters, param_counts,
                             rope_cache, trainable_parameters)


def small_config(**overrides):
    base = dict(hidden_dim=48, head_count=4, max_seq_len=32)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_properties():
    cfg = small_config()
    assert cfg.head_dim == 12
    assert cfg.ffn_dim == 128
    assert cfg.vocab_size == 256


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(hidden_dim=50)       # not divisible by 3
    with pytest.raises(ValueError):
        small_config(head_count=5)        # does not divide 48
    with pytest.raises(ValueError):
        small_config(hidden_dim=18, head_count=9)  # head_dim 2 ok; 18%3==0 ok
        small_config(hidden_dim=6, head_count=3)   # head_dim 2, fine
        small_config(hidden_dim=6, head_count=6)   # head_dim 1, odd
    with pytest.raises(ValueError):
        build_model(small_config(), 0, seed=0)  # depth is build_model's
    with pytest.raises(ValueError):
        small_config(vocab_size=0)
    with pytest.raises(ValueError):
        small_config(max_seq_len=0)
    with pytest.raises(ValueError):
        small_config(head_count=0)        # not a ZeroDivisionError
    with pytest.raises(ValueError):
        small_config(hidden_dim=-6, head_count=1)


def test_config_rejects_odd_head_dim():
    with pytest.raises(ValueError):
        ModelConfig(hidden_dim=9, head_count=3)  # head_dim 3


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_build_is_deterministic():
    cfg = small_config()
    m1 = build_model(cfg, 2, seed=5)
    m2 = build_model(cfg, 2, seed=5)
    p1, p2 = named_parameters(m1), named_parameters(m2)
    assert [n for n, _ in p1] == [n for n, _ in p2]
    for (_, a), (_, b) in zip(p1, p2):
        assert np.array_equal(a.data, b.data)
    m3 = build_model(cfg, 2, seed=6)
    assert any(not np.array_equal(a.data, c.data)
               for (_, a), (_, c) in zip(p1, named_parameters(m3)))


@pytest.mark.parametrize("d,heads", [(48, 4), (96, 6), (384, 8)])
def test_layer_census_matches_accounting_model(d, heads):
    cfg = ModelConfig(hidden_dim=d, head_count=heads)
    model = build_model(cfg, 1, seed=0)
    assert param_counts(model).trainable_layer == layer_params(d)


def test_param_counts_untied():
    model = build_model(small_config(), 3, seed=0)
    counts = param_counts(model)
    assert counts.trainable_layer == 3 * layer_params(48)
    assert counts.frozen_layer == 0
    assert counts.adapter == 0
    assert counts.embedding == 2 * 256 * 48 + 48
    # Census equals a literal walk of the parameter lists.
    assert counts.total == sum(t.data.size for _, t in named_parameters(model))
    assert counts.trainable == sum(t.data.size
                                   for _, t in trainable_parameters(model))


def test_param_counts_tied():
    cfg = small_config(tied_embeddings=True)
    model = build_model(cfg, 2, seed=0)
    names = [n for n, _ in named_parameters(model)]
    assert "unembed" not in names
    assert model.unembed is None
    assert model.output_matrix is model.embed
    assert param_counts(model).embedding == 256 * 48 + 48


def test_frozen_layers_leave_trainable_list():
    model = build_model(small_config(), 2, seed=0)
    model.layers[0].set_frozen(True)
    names = [n for n, _ in trainable_parameters(model)]
    assert not any(n.startswith("layers.0.") for n in names)
    assert any(n.startswith("layers.1.") for n in names)
    counts = param_counts(model)
    assert counts.frozen_layer == layer_params(48)
    model.layers[0].set_frozen(False)
    assert param_counts(model).frozen_layer == 0


def test_freezing_drops_the_layer_gradients():
    model = build_model(small_config(), 2, seed=0)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 256, size=(2, 8))
    cross_entropy(forward(model, ids), rng.integers(0, 256, size=(2, 8))).backward()
    layer = model.layers[0]
    assert all(t.grad is not None for t in layer.all_tensors().values())
    layer.set_frozen(True)
    assert layer.frozen
    assert all(t.grad is None for t in layer.all_tensors().values())
    layer.set_frozen(False)
    assert not layer.frozen
    assert all(t.grad is None for t in layer.all_tensors().values())
    assert model.layers[1].w_q.grad is not None


def test_residual_output_init_is_depth_scaled():
    cfg = ModelConfig(hidden_dim=96, head_count=6)
    model = build_model(cfg, 8, seed=0)
    layer = model.layers[0]
    expected = 0.02 / np.sqrt(16.0)
    assert float(np.std(layer.w_o.data)) == pytest.approx(expected, rel=0.1)
    assert float(np.std(layer.w_down.data)) == pytest.approx(expected, rel=0.1)
    assert float(np.std(layer.w_q.data)) == pytest.approx(0.02, rel=0.1)


# ---------------------------------------------------------------------------
# Rotary tables and mask
# ---------------------------------------------------------------------------

def test_rope_cache_layout():
    cos, sin = rope_cache(16, 8, 10000.0, np.float32)
    assert cos.shape == sin.shape == (16, 8)
    assert cos.dtype == np.float32
    # Shared by every forward: one cached pair, read-only.
    assert rope_cache(16, 8, 10000.0, np.float32)[0] is cos
    assert not cos.flags.writeable and not sin.flags.writeable
    # Position zero is the identity rotation.
    assert np.array_equal(cos[0], np.ones(8, dtype=np.float32))
    assert np.array_equal(sin[0], np.zeros(8, dtype=np.float32))
    # The same angles repeat across both halves.
    assert np.array_equal(cos[:, :4], cos[:, 4:])
    assert np.array_equal(sin[:, :4], sin[:, 4:])
    # Identity everywhere on the unit circle.
    assert cos ** 2 + sin ** 2 == pytest.approx(np.ones((16, 8)), abs=1e-6)


def test_causal_mask_values():
    mask = causal_mask(4, np.float32)
    assert mask.shape == (4, 4)
    assert np.all(mask[np.tril_indices(4)] == 0.0)
    assert np.all(mask[np.triu_indices(4, k=1)] == MASK_VALUE)
    # Cached per (seq, dtype) and shared, so no caller may write to it.
    assert causal_mask(4, np.float32) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1] = 0.0
    assert causal_mask(4, np.float64).dtype == np.float64


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_shape_and_dtype():
    model = build_model(small_config(), 2, seed=1)
    tokens = np.arange(2 * 16).reshape(2, 16) % 256
    logits = forward(model, tokens)
    assert logits.shape == (2, 16, 256)
    # Scalar attention scaling must not promote float32 activations.
    assert logits.dtype == np.float32


def test_forward_validation():
    model = build_model(small_config(), 2, seed=1)
    with pytest.raises(ValueError):
        forward(model, np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError):
        forward(model, np.zeros((1, 33), dtype=np.int64))
    with pytest.raises(ValueError):
        forward(model, np.full((1, 4), 300, dtype=np.int64))


@pytest.mark.parametrize("seed", range(3))
def test_forward_is_causal(seed):
    model = build_model(small_config(), 2, seed=seed)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, 256, size=(1, 16))
    changed = tokens.copy()
    changed[0, 10] = (changed[0, 10] + 1) % 256
    base = forward(model, tokens).data
    edit = forward(model, changed).data
    # Masked attention weights underflow to exactly zero, so positions
    # before the edit are reproduced bit for bit.
    assert np.array_equal(base[:, :10], edit[:, :10])
    assert not np.array_equal(base[:, 10:], edit[:, 10:])


def test_silenced_layers_reduce_to_embedding_readout():
    # With every residual output zeroed the blocks add exact zeros, so the
    # network is embed -> final norm -> unembed; replicate that in numpy.
    model = build_model(small_config(), 3, seed=2)
    for layer in model.layers:
        layer.w_o.data[...] = 0.0
        layer.w_down.data[...] = 0.0
    tokens = np.random.default_rng(0).integers(0, 256, size=(2, 8))
    got = forward(model, tokens).data

    e = model.embed.data[tokens]
    ms = np.mean(np.square(e), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + 1e-5)  # reciprocal-then-multiply, as the op does
    expect = (e * inv * model.final_gain.data) @ model.unembed.data.transpose()
    assert np.array_equal(got, expect)


def test_forward_backward_full_model():
    model = build_model(small_config(), 2, seed=3)
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 256, size=(2, 8))
    loss = cross_entropy(forward(model, tokens[:, :-1]), tokens[:, 1:])
    loss.backward()
    for name, t in trainable_parameters(model):
        assert t.grad is not None, name
        assert t.grad.shape == t.data.shape, name
        assert np.all(np.isfinite(t.grad)), name
    # A fresh model emits near-uniform logits: loss starts close to ln 256.
    assert abs(float(loss.data) - np.log(256.0)) < 0.2


def test_named_parameters_order_stable():
    model = build_model(small_config(), 2, seed=0)
    names = [n for n, _ in named_parameters(model)]
    assert names[:3] == ["embed", "unembed", "final_gain"]
    assert names[3] == "layers.0.w_q"
    assert names == [n for n, _ in named_parameters(model)]


def test_forward_matmul_flops_follow_the_benchmark_contract(monkeypatch):
    # The benchmark's tracer wraps autodiff.matmul by attribute, counts
    # 2 * out.size * k FLOPs per call and names each weight operand by its
    # array (or the array's base).  An engine change that moves a GEMM out
    # of matmul, or hands it a weight copy, breaks that tracing.
    d, rank, seq, batch = 48, 4, 16, 2
    cfg = small_config(hidden_dim=d, max_seq_len=seq)
    model = build_model(cfg, 3, seed=0)
    freeze_layers(model, [0, 1])
    attach_adapters(model, [0, 1], GrowthOptions(adapter_rank=rank), seed=1)
    params = {id(t.data): name for name, t in named_parameters(model)}
    calls = []
    orig = autodiff.matmul

    def traced(a, b):
        out = orig(a, b)
        name = params.get(id(b.data))
        if name is None and b.data.base is not None:
            name = params.get(id(b.data.base))
        calls.append((name, b.data.ndim, 2 * out.data.size * a.data.shape[-1]))
        return out

    # The tracer times softmax the same way, by attribute: one call a layer.
    softmax_inputs = []
    orig_softmax = autodiff.softmax

    def traced_softmax(*args, **kwargs):
        softmax_inputs.append(args[0].shape)
        return orig_softmax(*args, **kwargs)

    monkeypatch.setattr(autodiff, "matmul", traced)
    monkeypatch.setattr(autodiff, "softmax", traced_softmax)
    tokens = np.random.default_rng(0).integers(0, 256, size=(batch, seq))
    forward(model, tokens)
    assert softmax_inputs == [(batch, cfg.head_count, seq, seq)] * len(model.layers)

    per_token = 2 * cfg.vocab_size * d + 3 * (24 * d * d + 4 * seq * d) + 2 * 38 * rank * d
    assert sum(flops for _, _, flops in calls) == per_token * batch * seq
    # Attention scores and mixing multiply activations by activations; every
    # other product's right operand is a named parameter.
    core = [c for c in calls if c[1] == 4]
    weights = [c for c in calls if c[1] == 2]
    assert len(core) == 2 * len(model.layers) and all(c[0] is None for c in core)
    assert len(weights) == len(calls) - len(core)
    assert all(name is not None for name, _, _ in weights), weights
    assert sum(".adapters." in name for name, _, _ in weights) == 2 * 2 * 7


def test_attention_records_two_score_sized_nodes_per_layer(monkeypatch):
    # Scale, mask and softmax are one node, so the graph of a layer holds
    # only two (batch, head, seq, seq) arrays: the scores and the
    # probabilities.  Another node at that size would save one more.
    cfg = small_config()
    batch, seq = 2, 16  # seq != head_dim, so no other node has this shape
    model = build_model(cfg, 3, seed=0)
    freeze_layers(model, [0, 1])
    attach_adapters(model, [0, 1], GrowthOptions(adapter_rank=4), seed=1)
    made = []
    orig = autodiff._node

    def recording(data, parents, op, checked=True):
        out = orig(data, parents, op, checked)
        made.append((op, out.data.shape, out.requires_grad))
        return out

    monkeypatch.setattr(autodiff, "_node", recording)
    tokens = np.random.default_rng(0).integers(0, 256, size=(batch, seq))
    forward(model, tokens)
    square = [(op, grad) for op, shape, grad in made
              if shape == (batch, cfg.head_count, seq, seq)]
    assert square == [("matmul", True), ("softmax", True)] * len(model.layers)


def _step_peak_bytes(model, tokens) -> int:
    """tracemalloc peak of one fwd+bwd, gradients cleared beforehand."""
    for _, t in named_parameters(model):
        t.zero_grad()
    tracemalloc.start()
    try:
        cross_entropy(forward(model, tokens[:, :-1]), tokens[:, 1:]).backward()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def d96_step_peaks():
    """Step peaks of vanilla and of stage 2 (4 of 8 layers frozen, rank 8)."""
    cfg = ModelConfig(hidden_dim=96, head_count=6, max_seq_len=64)
    tokens = np.random.default_rng(0).integers(0, 256, size=(8, 65))
    vanilla = build_model(cfg, 8, seed=0)
    staged = build_model(cfg, 8, seed=0)
    freeze_layers(staged, range(4))
    attach_adapters(staged, range(4), GrowthOptions(adapter_rank=8), seed=1)
    peaks = {}
    for name, model in (("vanilla", vanilla), ("staged", staged)):
        _step_peak_bytes(model, tokens)  # warm caches (causal mask)
        peaks[name] = _step_peak_bytes(model, tokens)
    return peaks


def test_staged_step_peaks_no_higher_than_vanilla(d96_step_peaks):
    # Saved activations, not weights or optimizer state, set the step peak
    # at this shape.  Frozen layers with rank-8 adapters still backprop, so
    # the staged step keeps what vanilla keeps; the adapter path may add
    # only its rank-wide products, since its scaled full-width outputs are
    # read by no backward.
    assert d96_step_peaks["staged"] <= 1.05 * d96_step_peaks["vanilla"], d96_step_peaks


def test_step_peaks_keep_no_norm_or_swiglu_output(d96_step_peaks):
    # The rms_norm outputs and the SwiGLU product are remade in backward, not
    # kept from forward: about 6.6 MB less per step at this shape, where
    # keeping them peaks at 34.1 MB (staged) and 33.5 MB (vanilla).
    assert max(d96_step_peaks.values()) <= 30e6, d96_step_peaks
