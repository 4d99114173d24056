import numpy as np
import pytest

from stagegrow.growth import (GrowthError, GrowthOptions,
                              adapted_layer_indices, attach_adapters,
                              freeze_layers, grow, insertion_gaps,
                              merge_adapters, reset_adapters)
from stagegrow.memory import adapter_params
from stagegrow.model import (MATRIX_NAMES, ModelConfig, build_model, forward,
                             param_counts)


def make_model(layer_count=2, seed=0, hidden_dim=48):
    head_count = 4 if hidden_dim % 8 == 0 else 2
    cfg = ModelConfig(hidden_dim=hidden_dim, head_count=head_count,
                      max_seq_len=32)
    return build_model(cfg, layer_count, seed=seed)


def layer_arrays(layer):
    return {n: t.data.copy() for n, t in layer.all_tensors().items()}


def added_layers(model, before):
    """Indices of layers not present in the pre-growth list `before`."""
    old_ids = {id(layer) for layer in before}
    return [i for i, layer in enumerate(model.layers) if id(layer) not in old_ids]


RANK4 = GrowthOptions(adapter_rank=4)


# ---------------------------------------------------------------------------
# Gap selection
# ---------------------------------------------------------------------------

def test_gaps_upper():
    assert insertion_gaps(4, 2, "upper", 0) == [3, 4]
    assert insertion_gaps(4, 4, "upper", 0) == [1, 2, 3, 4]
    # More new layers than gaps: extras pile onto the topmost gaps.
    assert insertion_gaps(2, 5, "upper", 0) == [1, 1, 2, 2, 2]
    assert insertion_gaps(1, 3, "upper", 0) == [1, 1, 1]


def test_gaps_lower():
    assert insertion_gaps(4, 2, "lower", 0) == [1, 2]
    assert insertion_gaps(2, 5, "lower", 0) == [1, 1, 1, 2, 2]


def test_gaps_intermediate():
    assert insertion_gaps(4, 2, "intermediate", 0) == [2, 4]
    assert insertion_gaps(4, 4, "intermediate", 0) == [1, 2, 3, 4]
    assert insertion_gaps(3, 6, "intermediate", 0) == \
        [1, 1, 2, 2, 3, 3]
    assert insertion_gaps(6, 2, "intermediate", 0) == [3, 6]


def test_gaps_random_reproducible():
    first = insertion_gaps(5, 3, "random", 11)
    assert first == insertion_gaps(5, 3, "random", 11)
    assert first == sorted(first)
    assert all(1 <= g <= 5 for g in first)
    other = insertion_gaps(5, 3, "random", 12)
    assert isinstance(other, list)


def test_gaps_validation():
    with pytest.raises(GrowthError):
        insertion_gaps(0, 1, "upper", 0)
    with pytest.raises(GrowthError, match="new_count"):
        grow(make_model(), 0, GrowthOptions(), seed=0)
    with pytest.raises(GrowthError, match="position"):
        insertion_gaps(4, 1, "sideways", 0)
    with pytest.raises(GrowthError, match="position"):
        GrowthOptions(position="sideways")
    with pytest.raises(GrowthError, match="init"):
        GrowthOptions(init="zeros")
    with pytest.raises(GrowthError, match="adapter_rank"):
        GrowthOptions(adapter_rank=-1)


# ---------------------------------------------------------------------------
# Growing
# ---------------------------------------------------------------------------

def test_doubling_interleaves():
    model = make_model(layer_count=2)
    a, b = model.layers
    assert grow(model, 2, GrowthOptions(position="upper", init="copy"),
                seed=0) == [1, 3]
    # (A, B) -> (A, A', B, B'): each clone sits directly above its source.
    assert model.layers[0] is a
    assert model.layers[2] is b
    for src, clone in [(a, model.layers[1]), (b, model.layers[3])]:
        for name, arr in layer_arrays(src).items():
            clone_arr = getattr(clone, name).data
            assert np.array_equal(arr, clone_arr), name
            assert clone_arr is not getattr(src, name).data
    # Fresh storage: editing the clone leaves the source alone.
    model.layers[1].w_q.data[...] = 99.0
    assert not np.array_equal(a.w_q.data, model.layers[1].w_q.data)
    assert len(model.layers) == 4


def test_mean_init_with_top_gap_fallback():
    model = make_model(layer_count=2)
    below0 = layer_arrays(model.layers[0])
    below1 = layer_arrays(model.layers[1])
    grow(model, 2, GrowthOptions(position="upper", init="mean"), seed=0)
    mid, top = model.layers[1], model.layers[3]
    for name in below0:
        assert np.array_equal(getattr(mid, name).data,
                              (below0[name] + below1[name]) / 2.0), name
        # Topmost gap has no layer above; mean falls back to a copy.
        assert np.array_equal(getattr(top, name).data, below1[name]), name


@pytest.mark.parametrize("position,expected", [
    ("upper", [3, 5]),
    ("intermediate", [2, 5]),
    ("lower", [1, 3]),
])
def test_new_layer_positions(position, expected):
    model = make_model(layer_count=4)
    before = list(model.layers)
    assert grow(model, 2, GrowthOptions(position=position, init="copy"),
                seed=0) == expected
    assert added_layers(model, before) == expected
    assert len(model.layers) == 6


def test_grow_random_position():
    model = make_model(layer_count=4)
    before = list(model.layers)
    gaps = insertion_gaps(4, 2, "random", 9)
    got = grow(model, 2, GrowthOptions(position="random", init="copy"), seed=9)
    assert got == added_layers(model, before)
    # Each new layer sits above its gap layer, shifted by insertions below.
    expected = [g + i for i, g in enumerate(gaps)]
    assert got == expected


def test_grow_preserves_old_layers():
    model = make_model(layer_count=3)
    model.layers[0].set_frozen(True)
    snapshots = [layer_arrays(layer) for layer in model.layers]
    before = list(model.layers)
    fresh = grow(model, 2, GrowthOptions(position="intermediate", init="mean"),
                 seed=0)
    assert fresh == added_layers(model, before)
    kept = [layer for layer in model.layers if layer in before]
    assert kept == before
    for layer, snap in zip(before, snapshots):
        for name, arr in snap.items():
            assert np.array_equal(getattr(layer, name).data, arr)
    assert before[0].frozen
    # New layers start trainable.
    for i in fresh:
        assert not model.layers[i].frozen


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("position", ["upper", "intermediate", "lower"])
def test_function_preserving_growth(seed, position):
    model = make_model(layer_count=2, seed=seed, hidden_dim=12)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, 256, size=(2, 10))
    base = forward(model, tokens).data
    grow(model, 2, GrowthOptions(position=position, init="mean", fpi=True),
         seed=0)
    grown = forward(model, tokens).data
    # Zeroed residual outputs add exact zeros: bit-for-bit the same logits.
    assert np.array_equal(base, grown)


def test_growth_without_fpi_changes_function():
    model = make_model(layer_count=2, seed=0, hidden_dim=12)
    tokens = np.random.default_rng(0).integers(0, 256, size=(1, 8))
    base = forward(model, tokens).data
    grow(model, 2, GrowthOptions(init="mean"), seed=0)
    assert not np.array_equal(base, forward(model, tokens).data)


# ---------------------------------------------------------------------------
# Freezing and adapters
# ---------------------------------------------------------------------------

def test_freeze_layers():
    model = make_model(layer_count=3)
    freeze_layers(model, [0, 1])
    assert [layer.frozen for layer in model.layers] == [True, True, False]


def test_attach_requires_frozen():
    model = make_model(layer_count=2)
    with pytest.raises(GrowthError):
        attach_adapters(model, [0], RANK4, seed=0)


def test_attach_rejects_double():
    model = make_model(layer_count=2)
    freeze_layers(model, [0])
    attach_adapters(model, [0], RANK4, seed=0)
    with pytest.raises(GrowthError):
        attach_adapters(model, [0], RANK4, seed=1)


def test_adapter_census_and_spec():
    model = make_model(layer_count=2, hidden_dim=48)
    freeze_layers(model, [0])
    attach_adapters(model, [0], RANK4, seed=0)
    layer = model.layers[0]
    assert set(layer.adapters) == set(MATRIX_NAMES)
    assert param_counts(model).adapter == adapter_params(48, 4)
    assert adapted_layer_indices(model) == [0]
    for name in MATRIX_NAMES:
        adapter = layer.adapters[name]
        out_dim, in_dim = getattr(layer, name).data.shape
        assert adapter.a.data.shape == (out_dim, 4)
        assert adapter.b.data.shape == (4, in_dim)
        assert np.all(adapter.a.data == 0.0)
        assert adapter.scale == 0.25
    model2 = make_model(layer_count=2, hidden_dim=48)
    freeze_layers(model2, [0])
    attach_adapters(model2, [0], GrowthOptions(adapter_rank=4, adapter_scale=2.0),
                    seed=0)
    assert model2.layers[0].adapters["w_q"].scale == 2.0
    model3 = make_model(layer_count=2, hidden_dim=48)
    freeze_layers(model3, [0])
    with pytest.raises(GrowthError, match="adapter_rank"):
        attach_adapters(model3, [0], GrowthOptions(adapter_rank=0), seed=0)
    assert not model3.layers[0].adapters


@pytest.mark.parametrize("seed", range(5))
def test_attach_is_identity(seed):
    model = make_model(layer_count=2, seed=seed, hidden_dim=12)
    tokens = np.random.default_rng(seed).integers(0, 256, size=(2, 8))
    base = forward(model, tokens).data
    freeze_layers(model, [0, 1])
    attach_adapters(model, [0, 1], RANK4, seed=seed + 50)
    assert np.array_equal(base, forward(model, tokens).data)


def test_merge_matches_dense_oracle():
    model = make_model(layer_count=1, hidden_dim=12, seed=3)
    freeze_layers(model, [0])
    attach_adapters(model, [0], GrowthOptions(adapter_rank=2), seed=4)
    layer = model.layers[0]
    rng = np.random.default_rng(5)
    for adapter in layer.adapters.values():
        adapter.a.data[...] = rng.normal(0, 0.1, adapter.a.data.shape)
    tokens = rng.integers(0, 256, size=(1, 8))
    adapted_logits = forward(model, tokens).data

    dense = {}
    for name in MATRIX_NAMES:
        w = getattr(layer, name).data
        adapter = layer.adapters[name]
        delta = adapter.scale * (adapter.a.data.astype(np.float64)
                                 @ adapter.b.data.astype(np.float64))
        dense[name] = (w.astype(np.float64) + delta).astype(np.float32)

    factors = [t for a in layer.adapters.values() for t in (a.a, a.b)]
    merge_adapters(model)
    assert not layer.adapters
    assert not any(t.requires_grad for t in factors)  # their nodes are gone
    for name in MATRIX_NAMES:
        assert np.array_equal(getattr(layer, name).data, dense[name]), name
    # Folding a float32 product into float32 weights rounds once, so the
    # merged forward pass tracks the adapted one only approximately.
    merged_logits = forward(model, tokens).data
    assert merged_logits == pytest.approx(adapted_logits, abs=1e-4)


def test_merge_of_untouched_adapter_is_noop():
    model = make_model(layer_count=2, seed=1)
    freeze_layers(model, [0])
    attach_adapters(model, [0], RANK4, seed=2)
    weights = layer_arrays(model.layers[0])
    merge_adapters(model)
    for name, arr in weights.items():
        assert np.array_equal(getattr(model.layers[0], name).data, arr), name


def test_reset_adapters():
    model = make_model(layer_count=2, seed=2, hidden_dim=12)
    freeze_layers(model, [0])
    attach_adapters(model, [0], RANK4, seed=3)
    layer = model.layers[0]
    rng = np.random.default_rng(6)
    for adapter in layer.adapters.values():
        adapter.a.data[...] = rng.normal(0, 0.1, adapter.a.data.shape)
    old_b = {n: a.b.data.copy() for n, a in layer.adapters.items()}
    tokens = rng.integers(0, 256, size=(1, 8))
    before = forward(model, tokens).data

    reset_adapters(model, RANK4, seed=7)
    assert adapted_layer_indices(model) == [0]
    assert param_counts(model).adapter == adapter_params(12, 4)
    for name, adapter in layer.adapters.items():
        assert np.all(adapter.a.data == 0.0), name
        assert not np.array_equal(adapter.b.data, old_b[name]), name
    # Merged-then-reattached: same function up to the merge rounding.
    after = forward(model, tokens).data
    assert after == pytest.approx(before, abs=1e-4)
