"""Checkpoint format: manifest.json plus a single little-endian float32 blob.

The manifest records the model config, adapter metadata, optional free-form
extra metadata, and a table of every parameter array (name, shape, frozen
flag, byte offset into the blob) in deterministic order.  An array is
frozen when it takes no gradient; only a layer's own arrays may be, and
then all nine of them.  params.bin holds the arrays back to back as
little-endian float32 in that order.  The manifest stores the blob's
sha256 and the loader verifies it, so loading a checkpoint either
reproduces the saved model bit-for-bit or fails loudly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import (LAYER_TENSOR_NAMES, MATRIX_NAMES, Adapter, LayerBlock,
                    ModelConfig, ToyModel, named_parameters, rope_cache)

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
BLOB_DTYPE = "<f4"


class CheckpointError(ValueError):
    """Structurally invalid checkpoint."""


class DigestError(CheckpointError):
    """Blob bytes do not match the digest recorded in the manifest."""


def save_checkpoint(model: ToyModel, directory: str | Path,
                    extra: dict | None = None) -> Path:
    """Write manifest.json and params.bin into `directory`; returns it."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    table = []
    pieces = []
    offset = 0
    for name, tensor in named_parameters(model):
        raw = np.ascontiguousarray(tensor.data, dtype=BLOB_DTYPE).tobytes()
        table.append({
            "name": name,
            "shape": list(tensor.data.shape),
            "frozen": not tensor.requires_grad,
            "offset": offset,
        })
        pieces.append(raw)
        offset += len(raw)
    adapter_meta = next(({"rank": a.rank, "scale": a.scale} for layer in model.layers
                         for a in layer.adapters.values()), None)

    blob = b"".join(pieces)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "adapter": adapter_meta,
        "extra": extra or {},
        "arrays": table,
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    (directory / BLOB_NAME).write_bytes(blob)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return directory


def _read_array(blob: bytes, entry: dict) -> np.ndarray:
    shape = tuple(entry["shape"])
    count = int(np.prod(shape)) if shape else 1
    start = entry["offset"]
    end = start + 4 * count
    if end > len(blob):
        raise CheckpointError(f"array {entry['name']} overruns the blob")
    flat = np.frombuffer(blob[start:end], dtype=BLOB_DTYPE)
    return flat.reshape(shape).astype(np.float32)


def load_checkpoint(directory: str | Path) -> tuple[ToyModel, dict]:
    """Rebuild the model from a checkpoint directory; returns (model, manifest).

    Every structural fault is a CheckpointError, a manifest that lacks a
    key or holds a value of the wrong JSON type included.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise CheckpointError(f"{directory} is not a checkpoint directory")
    manifest = json.loads(manifest_path.read_text())
    try:
        return _rebuild(manifest, blob_path.read_bytes()), manifest
    except (KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"malformed manifest: {exc!r}") from exc


def _rebuild(manifest: dict, blob: bytes) -> ToyModel:
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {manifest.get('format_version')}")
    if not isinstance(manifest.get("extra", {}), dict):
        raise CheckpointError("malformed manifest: extra is not an object")
    if len(blob) != manifest["blob_bytes"]:
        raise DigestError(
            f"blob is {len(blob)} bytes, manifest says {manifest['blob_bytes']}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["blob_sha256"]:
        raise DigestError("blob sha256 does not match the manifest")

    config = ModelConfig(**manifest["config"])
    arrays = {e["name"]: (_read_array(blob, e), e["frozen"])
              for e in manifest["arrays"]}

    def take(name: str, can_freeze: bool = False) -> Tensor:
        if name not in arrays:
            raise CheckpointError(f"manifest is missing array {name}")
        data, frozen = arrays.pop(name)
        if type(frozen) is not bool or (frozen and not can_freeze):
            raise CheckpointError(f"array {name} cannot have frozen {frozen!r}")
        return Tensor(data, requires_grad=not frozen)

    embed = take("embed")
    unembed = None if config.tied_embeddings else take("unembed")
    final_gain = take("final_gain")

    adapter_meta = manifest.get("adapter")
    layers = []
    for i in range(config.layer_count):
        prefix = f"layers.{i}."
        layer = LayerBlock(**{n: take(prefix + n, can_freeze=True) for n in LAYER_TENSOR_NAMES})
        if len({t.requires_grad for t in layer.all_tensors().values()}) > 1:
            raise CheckpointError(f"layer {i}'s arrays disagree on frozen")
        for m_name in MATRIX_NAMES:
            a_name = f"{prefix}adapters.{m_name}.a"
            if a_name in arrays:
                if adapter_meta is None:
                    raise CheckpointError("adapter arrays without adapter metadata")
                layer.adapters[m_name] = Adapter(
                    a=take(a_name), b=take(f"{prefix}adapters.{m_name}.b"),
                    scale=adapter_meta["scale"])
        layers.append(layer)
    if arrays:
        raise CheckpointError(f"unexpected arrays in manifest: {sorted(arrays)}")

    dtype = np.dtype(np.float32)
    cos, sin = rope_cache(config.max_seq_len, config.head_dim, config.rope_base, dtype)
    return ToyModel(config=config, embed=embed, unembed=unembed,
                    final_gain=final_gain, layers=layers,
                    rope_cos=cos, rope_sin=sin, dtype=dtype)
