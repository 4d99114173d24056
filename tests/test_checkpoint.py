import hashlib
import json

import numpy as np
import pytest

from stagegrow.checkpoint import (BLOB_NAME, MANIFEST_NAME, CheckpointError,
                                  DigestError, load_checkpoint,
                                  save_checkpoint)
from stagegrow.growth import (AdapterSpec, GrowthSpec, attach_adapters,
                              freeze_layers, grow)
from stagegrow.model import (LAYER_TENSOR_NAMES, ModelConfig, build_model,
                             forward, named_parameters)


def make_model(seed=0, **overrides):
    base = dict(hidden_dim=48, layer_count=2, head_count=4, max_seq_len=32)
    base.update(overrides)
    return build_model(ModelConfig(**base), seed=seed)


def make_staged_model(seed=0):
    """A model that has been grown once: frozen originals with adapters."""
    model = make_model(seed=seed)
    grow(model, GrowthSpec(new_layer_count=2, init="copy", fpi=True))
    freeze_layers(model, [0, 2])
    attach_adapters(model, [0, 2], AdapterSpec(rank=4), seed=seed + 1)
    return model


def assert_models_equal(a, b):
    pa, pb = named_parameters(a), named_parameters(b)
    assert [n for n, _ in pa] == [n for n, _ in pb]
    for (name, ta), (_, tb) in zip(pa, pb):
        assert np.array_equal(ta.data, tb.data), name
        assert ta.data.dtype == tb.data.dtype, name


def test_round_trip_plain(tmp_path):
    model = make_model(seed=3)
    save_checkpoint(model, tmp_path / "ck")
    loaded, manifest = load_checkpoint(tmp_path / "ck")
    assert loaded.config == model.config
    assert_models_equal(model, loaded)
    assert manifest["adapter"] is None
    tokens = np.random.default_rng(0).integers(0, 256, size=(2, 8))
    assert np.array_equal(forward(model, tokens).data,
                          forward(loaded, tokens).data)


def test_round_trip_staged(tmp_path):
    model = make_staged_model(seed=7)
    # Move an adapter off zero so the blob actually carries adapter state.
    model.layers[0].adapters["w_q"].a.data[...] = 0.5
    save_checkpoint(model, tmp_path / "ck")
    loaded, manifest = load_checkpoint(tmp_path / "ck")
    assert_models_equal(model, loaded)
    assert [layer.frozen for layer in loaded.layers] == [True, False, True, False]
    for i in (0, 2):
        assert set(loaded.layers[i].adapters) == set(model.layers[i].adapters)
        got = loaded.layers[i].adapters["w_q"]
        assert got.rank == 4
        assert got.scale == 0.25
    # Frozen weights come back frozen: excluded from gradient tracking.
    assert not loaded.layers[0].w_q.requires_grad
    assert loaded.layers[1].w_q.requires_grad
    assert loaded.layers[0].adapters["w_q"].a.requires_grad
    assert manifest["adapter"] == {"rank": 4, "scale": 0.25}
    tokens = np.random.default_rng(1).integers(0, 256, size=(1, 12))
    assert np.array_equal(forward(model, tokens).data,
                          forward(loaded, tokens).data)


def test_round_trip_tied(tmp_path):
    model = make_model(seed=2, tied_embeddings=True)
    save_checkpoint(model, tmp_path / "ck")
    loaded, _ = load_checkpoint(tmp_path / "ck")
    assert loaded.unembed is None
    assert_models_equal(model, loaded)


def test_manifest_contents(tmp_path):
    model = make_model(seed=1)
    save_checkpoint(model, tmp_path / "ck", extra={"stage": 2, "note": "x"})
    manifest = json.loads((tmp_path / "ck" / MANIFEST_NAME).read_text())
    assert manifest["format_version"] == 1
    assert manifest["extra"] == {"stage": 2, "note": "x"}
    names = [e["name"] for e in manifest["arrays"]]
    assert names == [n for n, _ in named_parameters(model)]
    sizes = [t.data.size for _, t in named_parameters(model)]
    assert manifest["blob_bytes"] == 4 * sum(sizes)
    offsets = [e["offset"] for e in manifest["arrays"]]
    assert offsets == [4 * s for s in
                       np.concatenate([[0], np.cumsum(sizes)[:-1]]).tolist()]
    blob = (tmp_path / "ck" / BLOB_NAME).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == manifest["blob_sha256"]


def test_save_is_deterministic(tmp_path):
    model = make_staged_model(seed=5)
    save_checkpoint(model, tmp_path / "a", extra={"k": 1})
    save_checkpoint(model, tmp_path / "b", extra={"k": 1})
    assert (tmp_path / "a" / BLOB_NAME).read_bytes() == \
        (tmp_path / "b" / BLOB_NAME).read_bytes()
    assert (tmp_path / "a" / MANIFEST_NAME).read_bytes() == \
        (tmp_path / "b" / MANIFEST_NAME).read_bytes()


def test_corrupted_blob_detected(tmp_path):
    save_checkpoint(make_model(), tmp_path / "ck")
    blob_path = tmp_path / "ck" / BLOB_NAME
    raw = bytearray(blob_path.read_bytes())
    raw[100] ^= 0xFF
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(DigestError):
        load_checkpoint(tmp_path / "ck")


def test_truncated_blob_detected(tmp_path):
    save_checkpoint(make_model(), tmp_path / "ck")
    blob_path = tmp_path / "ck" / BLOB_NAME
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(DigestError):
        load_checkpoint(tmp_path / "ck")


def test_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope")
    (tmp_path / "half").mkdir()
    (tmp_path / "half" / MANIFEST_NAME).write_text("{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "half")


def test_unsupported_version(tmp_path):
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 99
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")


def test_missing_array_entry(tmp_path):
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["arrays"] = [e for e in manifest["arrays"]
                          if e["name"] != "final_gain"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("edit", [
    lambda m: {k: v for k, v in m.items() if k != "blob_bytes"},
    lambda m: {k: v for k, v in m.items() if k != "arrays"},
    lambda m: {**m, "config": {**m["config"], "ffn_multiplier": 4}},
    lambda m: [m],
    lambda m: {**m, "extra": [1]},
], ids=["no_blob_bytes", "no_arrays", "unknown_config_key", "list", "extra_list"])
def test_malformed_manifest(tmp_path, edit):
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(CheckpointError, match="malformed manifest"):
        load_checkpoint(tmp_path / "ck")


def rewrite_frozen(tmp_path, flags):
    """Save a staged model, then set the manifest's frozen entry per name."""
    save_checkpoint(make_staged_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    for entry in manifest["arrays"]:
        entry["frozen"] = flags.get(entry["name"], entry["frozen"])
    path.write_text(json.dumps(manifest))


def test_saved_frozen_entries_are_requires_grad(tmp_path):
    save_checkpoint(make_staged_model(), tmp_path / "ck")
    manifest = json.loads((tmp_path / "ck" / MANIFEST_NAME).read_text())
    frozen = {e["name"] for e in manifest["arrays"] if e["frozen"]}
    assert frozen == {f"layers.{i}.{n}" for i in (0, 2)
                      for n in LAYER_TENSOR_NAMES}


@pytest.mark.parametrize("flags", [
    {"layers.0.w_k": False},         # one array of a frozen layer trains
    {"layers.1.g_ffn": True},        # one array of a trainable layer freezes
    {"embed": True},
    {"final_gain": True},
    {"layers.0.adapters.w_q.a": True},
    {"layers.2.w_q": 1},             # not a JSON bool
], ids=["thaw_one", "freeze_one", "embed", "final_gain", "adapter", "int"])
def test_frozen_entries_that_cannot_hold_are_rejected(tmp_path, flags):
    rewrite_frozen(tmp_path, flags)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")


def test_a_whole_layer_marked_frozen_loads_frozen(tmp_path):
    rewrite_frozen(tmp_path, {f"layers.1.{n}": True for n in LAYER_TENSOR_NAMES})
    loaded, _ = load_checkpoint(tmp_path / "ck")
    assert [layer.frozen for layer in loaded.layers] == [True, True, True, False]
    assert not any(t.requires_grad for t in loaded.layers[1].all_tensors().values())


def test_unexpected_array_entry(tmp_path):
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["arrays"].append(
        {"name": "mystery", "shape": [1], "frozen": False, "offset": 0})
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")
