import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from stagegrow import checkpoint
from stagegrow.checkpoint import (BLOB_NAME, MANIFEST_NAME, CheckpointError,
                                  DigestError, load_checkpoint,
                                  save_checkpoint, write_json)
from stagegrow.growth import (GrowthOptions, attach_adapters,
                              freeze_layers, grow)
from stagegrow.model import (LAYER_TENSOR_NAMES, ModelConfig, build_model,
                             forward, named_parameters)


def make_model(seed=0, **overrides):
    base = dict(hidden_dim=48, head_count=4, max_seq_len=32)
    base.update(overrides)
    return build_model(ModelConfig(**base), 2, seed=seed)


def make_staged_model(seed=0):
    """A model that has been grown once: frozen originals with adapters."""
    model = make_model(seed=seed)
    options = GrowthOptions(init="copy", fpi=True, adapter_rank=4)
    grow(model, 2, options, seed=seed)
    freeze_layers(model, [0, 2])
    attach_adapters(model, [0, 2], options, seed=seed + 1)
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
    assert manifest["format_version"] == 2
    assert "layer_count" not in manifest["config"]  # depth is the array table's
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


def make_d96_model():
    """d=96, 8 layers, 4 of them frozen and adapted: 3.98 MB of parameters."""
    model = build_model(ModelConfig(hidden_dim=96, head_count=6, max_seq_len=64),
                        8, seed=0)
    freeze_layers(model, range(4))
    attach_adapters(model, range(4), GrowthOptions(adapter_rank=8), seed=1)
    return model


def test_save_streams_the_blob(tmp_path):
    # Joining a bytes copy of every array peaked at 8.13 MB; each array's
    # own buffer goes to the file and the digest instead.
    model = make_d96_model()
    save_checkpoint(model, tmp_path / "warm")  # first-call imports and caches
    tracemalloc.start()
    try:
        save_checkpoint(model, tmp_path / "ck")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6, peak
    blob = (tmp_path / "ck" / BLOB_NAME).read_bytes()
    assert blob == b"".join(t.data.astype("<f4").tobytes()
                            for _, t in named_parameters(model))
    manifest = json.loads((tmp_path / "ck" / MANIFEST_NAME).read_text())
    assert manifest["blob_sha256"] == hashlib.sha256(blob).hexdigest()


def test_load_streams_the_blob(tmp_path):
    # Reading the whole blob, then copying each array out of it, peaked at
    # 8.10 MB (2.04x); each array is read into its own buffer and hashed
    # as it is read instead.
    model = make_d96_model()
    save_checkpoint(model, tmp_path / "ck")
    load_checkpoint(tmp_path / "ck")  # first-call imports and caches
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(tmp_path / "ck")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    param_bytes = sum(t.data.nbytes for _, t in named_parameters(model))
    assert peak <= 1.1 * param_bytes, (peak, param_bytes)
    assert_models_equal(model, loaded)


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


def test_blob_that_shrinks_while_it_is_read_is_detected(tmp_path, monkeypatch):
    # The size check passes on the size recorded before the blob shrank.
    save_checkpoint(make_model(), tmp_path / "ck")
    blob_path = tmp_path / "ck" / BLOB_NAME
    stat = blob_path.stat()
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: stat)
    with pytest.raises(DigestError, match="ended before"):
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


def test_format_1_manifest_is_refused(tmp_path):
    # Format 1 kept the depth in the config; there is no reading it.
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["format_version"] = 1
    manifest["config"]["layer_count"] = 2
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="unsupported format_version 1"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("raw", [b"{not json", b'{"format_version": "\xff"}'],
                         ids=["syntax", "utf8"])
def test_manifest_that_is_not_json(tmp_path, raw):
    save_checkpoint(make_model(), tmp_path / "ck")
    (tmp_path / "ck" / MANIFEST_NAME).write_bytes(raw)
    with pytest.raises(CheckpointError, match="malformed manifest: (JSON|Unicode)"):
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


def offset_of(manifest, name):
    return next(e["offset"] for e in manifest["arrays"] if e["name"] == name)


def edit_arrays(manifest, edits):
    """The manifest with each named array entry updated from edits[name]."""
    return {**manifest, "arrays": [{**e, **edits.get(e["name"], {})}
                                   for e in manifest["arrays"]]}


@pytest.mark.parametrize("edit", [
    lambda m: {k: v for k, v in m.items() if k != "blob_bytes"},
    lambda m: {k: v for k, v in m.items() if k != "arrays"},
    lambda m: {**m, "config": {**m["config"], "ffn_multiplier": 4}},
    lambda m: [m],
    lambda m: {**m, "extra": [1]},
    # Offsets must be the running sum of the sizes, in table order.
    lambda m: edit_arrays(m, {"layers.0.g_ffn":
                              {"offset": offset_of(m, "layers.0.g_attn")}}),
    lambda m: edit_arrays(m, {
        "layers.0.w_q": {"offset": offset_of(m, "layers.0.w_k")},
        "layers.0.w_k": {"offset": offset_of(m, "layers.0.w_q")}}),
    lambda m: edit_arrays(m, {"layers.1.g_ffn": {"shape": [24]}}),
    lambda m: edit_arrays(m, {"layers.1.g_ffn": {"shape": [96]}}),
    # Shapes are checked before anything of their size is allocated.
    lambda m: edit_arrays(m, {"layers.1.g_ffn": {"shape": [2**20, 2**20]}}),
    lambda m: edit_arrays(m, {"layers.1.g_ffn": {"shape": [-48, -1]}}),
    # Each array's shape must be the one its config gives it.
    lambda m: {**m, "config": {**m["config"], "head_count": 5}},
    lambda m: {**m, "config": {**m["config"], "hidden_dim": 96}},
    lambda m: edit_arrays(m, {"layers.0.w_q": {"shape": [24, 96]}}),
    lambda m: edit_arrays(m, {"layers.0.g_attn": {"shape": [1, 48]}}),
    # The adapter record: a positive int rank, a finite scale, no bools.
    lambda m: {**m, "adapter": {**m["adapter"], "scale": None}},
    lambda m: {**m, "adapter": {**m["adapter"], "scale": float("nan")}},
    lambda m: {**m, "adapter": {**m["adapter"], "scale": float("inf")}},
    lambda m: {**m, "adapter": {**m["adapter"], "scale": 10**400}},
    lambda m: {**m, "adapter": {**m["adapter"], "scale": True}},
    lambda m: {**m, "adapter": {**m["adapter"], "scale": "big"}},
    lambda m: {**m, "adapter": {**m["adapter"], "rank": 0}},
    lambda m: {**m, "adapter": {**m["adapter"], "rank": True}},
    lambda m: {**m, "adapter": {**m["adapter"], "rank": 4.0}},
    lambda m: {**m, "adapter": {**m["adapter"], "rank": "4"}},
    lambda m: {**m, "adapter": [4, 0.25]},
    # The config is read as strictly as a run config's $.model.
    lambda m: {**m, "config": {**m["config"], "hidden_dim": 48.0}},
    lambda m: {**m, "config": {**m["config"], "head_count": True}},
    lambda m: {**m, "config": {**m["config"], "rope_base": True}},
    lambda m: {**m, "config": {**m["config"], "tied_embeddings": 0}},
    # So are the manifest's own counts: 2.0 == 2 in Python, not in the format.
    lambda m: {**m, "format_version": float(m["format_version"])},
    lambda m: {**m, "blob_bytes": float(m["blob_bytes"])},
], ids=["no_blob_bytes", "no_arrays", "unknown_config_key", "list", "extra_list",
        "shared_offset", "swapped_offsets", "blob_not_covered", "blob_overrun",
        "shape_oversized", "shape_negative",
        "config_rejected", "config_wider_than_arrays", "matrix_reshaped",
        "gain_reshaped",
        "scale_null", "scale_nan", "scale_inf", "scale_overflows", "scale_bool",
        "scale_string", "rank_zero", "rank_bool", "rank_float", "rank_string",
        "adapter_list", "hidden_dim_float", "head_count_bool", "rope_base_bool",
        "tied_embeddings_int", "format_version_float", "blob_bytes_float"])
def test_malformed_manifest(tmp_path, edit):
    save_checkpoint(make_staged_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(CheckpointError, match="malformed manifest"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("edit", [
    lambda m: edit_arrays(m, {"layers.0.adapters.w_q.a": {"shape": [4, 48]}}),
    lambda m: {**m, "adapter": {**m["adapter"], "rank": 2}},
], ids=["adapter_transposed", "adapter_rank"])
def test_adapters_that_disagree_with_their_matrix_or_rank(tmp_path, edit):
    save_checkpoint(make_staged_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(CheckpointError, match="malformed manifest: array"):
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


def test_a_gap_in_the_layers_is_rejected(tmp_path):
    # Depth is counted from layers.0 up; layers.2 after a missing layers.1
    # is left over.
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    for entry in manifest["arrays"]:
        entry["name"] = entry["name"].replace("layers.1.", "layers.2.")
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="unexpected arrays"):
        load_checkpoint(tmp_path / "ck")


def test_unexpected_array_entry(tmp_path):
    save_checkpoint(make_model(), tmp_path / "ck")
    path = tmp_path / "ck" / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    manifest["arrays"].append(
        {"name": "mystery", "shape": [1], "frozen": False, "offset": 0})
    path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")


# ---------------------------------------------------------------------------
# Atomic, strict-JSON writes
# ---------------------------------------------------------------------------

def test_checkpoint_writes_its_blob_before_its_manifest(tmp_path, monkeypatch):
    written = []
    orig = checkpoint.write_atomic

    def recording(path, data):
        written.append(path.name)
        orig(path, data)

    monkeypatch.setattr(checkpoint, "write_atomic", recording)
    save_checkpoint(make_model(), tmp_path / "ck")
    assert written == [BLOB_NAME, MANIFEST_NAME]
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == sorted(written)


def test_write_json_is_strict_and_leaves_the_old_file_on_failure(tmp_path, monkeypatch):
    path = tmp_path / "ledger.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    before = path.read_bytes()
    assert before == (json.dumps({"a": None, "b": [1, 2.5]}, indent=2,
                                 sort_keys=True) + "\n").encode()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json(path, {"loss": bad})
    # A write that fails after the temp file exists removes it too.
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_json(path, {"loss": 1.0})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ledger.json"]


def test_save_rejects_adapters_that_disagree_on_scale(tmp_path):
    # The manifest holds one rank and one scale for all adapters; writing
    # it would reload every adapter at the first one's scale, and refuse
    # every adapter of another rank.
    for (rank_0, scale_0), (rank_1, scale_1), key in [
            ((4, 2.0), (4, 0.5), "scale"), ((2, 0.5), (4, 0.5), "rank")]:
        model = make_model()
        freeze_layers(model, [0, 1])
        attach_adapters(model, [0], GrowthOptions(adapter_rank=rank_0,
                                                  adapter_scale=scale_0), seed=1)
        attach_adapters(model, [1], GrowthOptions(adapter_rank=rank_1,
                                                  adapter_scale=scale_1), seed=2)
        with pytest.raises(CheckpointError, match=f"disagree on {key}"):
            save_checkpoint(model, tmp_path / "ck")
        assert not (tmp_path / "ck").exists()


def test_save_refuses_arrays_that_are_not_float32(tmp_path):
    # The blob is float32: a float64 model would come back rounded.
    model = build_model(ModelConfig(hidden_dim=48, head_count=4, max_seq_len=32),
                        2, seed=0, dtype=np.float64)
    with pytest.raises(CheckpointError, match="embed is float64"):
        save_checkpoint(model, tmp_path / "ck")
    assert not (tmp_path / "ck").exists()
