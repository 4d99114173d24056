"""Checkpoint format 2: manifest.json plus a single little-endian float32 blob.

The manifest records the model config, adapter metadata, optional free-form
extra metadata, and a table of every parameter array (name, shape, frozen
flag, byte offset into the blob) in deterministic order; the depth is the
table's count of `layers.{i}` blocks.  An array is frozen when it takes no
gradient; only a layer's own arrays may be, and then all nine of them.
params.bin holds the arrays, float32 only, back to back as little-endian
float32 in that order.  The manifest stores the blob's sha256; the loader
verifies it, that each array starts where the one before it ends, and
that each has the shape its config (and the one adapter rank) gives it,
so loading a checkpoint either reproduces the saved model bit-for-bit or
fails loudly.

Run artifacts, checkpoints included, are written by `write_atomic` and
`write_json`: a temp file in the target's directory, then `os.replace`.
A checkpoint writes its blob first and its manifest last, so a directory
whose manifest exists holds the blob that manifest describes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .model import (MATRIX_NAMES, Adapter, LayerBlock, ModelConfig, ToyModel,
                    named_parameters)

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
BLOB_DTYPE = "<f4"


def write_atomic(path: str | Path, chunks: Iterable) -> None:
    """Write chunks, buffers in order, to path through a temp file beside it
    and `os.replace`.

    The chunks are written as they come, so an iterator of buffers need
    never be joined.  A reader sees the old file or the new one, never a
    partial write, and a failed write leaves no temp file.  There is no
    fsync: this survives a crashed process, not a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write obj by `write_atomic` as strict, indented JSON with sorted keys.

    NaN and inf raise ValueError before anything is written.
    """
    write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True,
                                    allow_nan=False) + "\n").encode()])


class CheckpointError(ValueError):
    """Structurally invalid checkpoint."""


class DigestError(CheckpointError):
    """Blob bytes do not match the digest recorded in the manifest."""


def save_checkpoint(model: ToyModel, directory: str | Path,
                    extra: dict | None = None) -> Path:
    """Write manifest.json and params.bin into `directory`; returns it.

    The blob holds float32 and the manifest one adapter rank and scale for
    the whole model, so an array of another dtype, or adapters that
    disagree on rank or scale, are a CheckpointError, raised before any
    write.
    """
    adapters = [a for layer in model.layers for a in layer.adapters.values()]
    for key in ("rank", "scale"):
        values = {getattr(a, key) for a in adapters}
        if len(values) > 1:
            raise CheckpointError(f"adapters disagree on {key}: {sorted(values)}")

    params = named_parameters(model)
    table = []
    offset = 0
    for name, tensor in params:
        if tensor.data.dtype != np.float32:
            raise CheckpointError(f"array {name} is {tensor.data.dtype}; "
                                  "checkpoints hold float32 only")
        table.append({
            "name": name,
            "shape": list(tensor.data.shape),
            "frozen": not tensor.requires_grad,
            "offset": offset,
        })
        offset += tensor.data.nbytes
    adapter_meta = ({"rank": adapters[0].rank, "scale": adapters[0].scale}
                    if adapters else None)

    # The blob streams: each array's own buffer (a copy only if it is not
    # C-contiguous little-endian) goes to the file and the digest in turn.
    digest = hashlib.sha256()

    def chunks():
        for _, tensor in params:
            raw = np.ascontiguousarray(tensor.data, dtype=BLOB_DTYPE)
            digest.update(raw)
            yield raw

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_atomic(directory / BLOB_NAME, chunks())
    write_json(directory / MANIFEST_NAME, {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "adapter": adapter_meta,
        "extra": extra or {},
        "arrays": table,
        "blob_bytes": offset,
        "blob_sha256": digest.hexdigest(),
    })
    return directory


def load_checkpoint(directory: str | Path) -> tuple[ToyModel, dict]:
    """Rebuild the model from a checkpoint directory; returns (model, manifest).

    Every structural fault is a CheckpointError, a manifest that is not
    JSON, lacks a key or holds a value of the wrong JSON type included.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.is_file() or not blob_path.is_file():
        raise CheckpointError(f"{directory} is not a checkpoint directory")
    try:
        manifest = json.loads(manifest_path.read_bytes())
        with open(blob_path, "rb") as blob:
            return _rebuild(manifest, blob), manifest
    except (json.JSONDecodeError, UnicodeDecodeError,
            KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"malformed manifest: {exc!r}") from exc


def _rebuild(manifest: dict, blob) -> ToyModel:
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {manifest.get('format_version')}")
    if not isinstance(manifest.get("extra", {}), dict):
        raise CheckpointError("malformed manifest: extra is not an object")
    adapter_meta = manifest.get("adapter")
    if adapter_meta is not None:  # the one rank and scale of every adapter
        rank, scale = adapter_meta["rank"], adapter_meta["scale"]
        if type(rank) is not int or rank < 1:
            raise CheckpointError(f"malformed manifest: adapter rank {rank!r}")
        if type(scale) not in (int, float) or not abs(scale) <= sys.float_info.max:
            raise CheckpointError(f"malformed manifest: adapter scale {scale!r}")
    size = os.fstat(blob.fileno()).st_size
    if size != manifest["blob_bytes"]:
        raise DigestError(
            f"blob is {size} bytes, manifest says {manifest['blob_bytes']}")

    try:
        config = ModelConfig(**manifest["config"])
    except ValueError as exc:
        raise CheckpointError(f"malformed manifest: {exc}") from exc
    # The arrays lie back to back, in table order.  Each is read into its
    # own buffer once its extent is known to fit, and hashed as it is read.
    digest = hashlib.sha256()
    arrays = {}
    offset = 0
    for e in manifest["arrays"]:
        shape = tuple(e["shape"])
        if any(type(n) is not int or n < 0 for n in shape):
            raise CheckpointError(f"malformed manifest: array {e['name']} has "
                                  f"shape {list(shape)}")
        end = offset + 4 * math.prod(shape)
        if e["offset"] != offset:
            raise CheckpointError(f"malformed manifest: array {e['name']} at "
                                  f"offset {e['offset']!r}, expected {offset}")
        if end > size:
            raise CheckpointError(f"malformed manifest: array {e['name']} "
                                  "overruns the blob")
        data = np.empty(shape, dtype=BLOB_DTYPE)
        if blob.readinto(data) != data.nbytes:
            raise DigestError("blob ended before its recorded size")
        digest.update(data)
        arrays[e["name"]] = (data.astype(np.float32, copy=False), e["frozen"])
        offset = end
    if offset != size:
        raise CheckpointError(f"malformed manifest: arrays cover {offset} "
                              f"of the blob's {size} bytes")
    if digest.hexdigest() != manifest["blob_sha256"]:
        raise DigestError("blob sha256 does not match the manifest")

    def take(name: str, shape: tuple, can_freeze: bool = False) -> Tensor:
        if name not in arrays:
            raise CheckpointError(f"manifest is missing array {name}")
        data, frozen = arrays.pop(name)
        if data.shape != shape:
            raise CheckpointError(f"malformed manifest: array {name} has shape "
                                  f"{data.shape}, expected {shape}")
        if type(frozen) is not bool or (frozen and not can_freeze):
            raise CheckpointError(f"array {name} cannot have frozen {frozen!r}")
        return Tensor(data, requires_grad=not frozen)

    table = (config.vocab_size, config.hidden_dim)
    embed = take("embed", table)
    unembed = None if config.tied_embeddings else take("unembed", table)
    final_gain = take("final_gain", (config.hidden_dim,))

    shapes = config.layer_shapes
    layers = []
    # Depth is the count of layers.{i}.* blocks; a gap leaves unexpected arrays.
    while f"layers.{len(layers)}.w_q" in arrays:
        i = len(layers)
        prefix = f"layers.{i}."
        layer = LayerBlock(**{n: take(prefix + n, shape, can_freeze=True)
                              for n, shape in shapes.items()})
        if len({t.requires_grad for t in layer.all_tensors().values()}) > 1:
            raise CheckpointError(f"layer {i}'s arrays disagree on frozen")
        for m_name in MATRIX_NAMES:
            a_name = f"{prefix}adapters.{m_name}.a"
            if a_name in arrays:
                if adapter_meta is None:
                    raise CheckpointError("adapter arrays without adapter metadata")
                out_dim, in_dim = shapes[m_name]
                layer.adapters[m_name] = Adapter(
                    a=take(a_name, (out_dim, rank)),
                    b=take(f"{prefix}adapters.{m_name}.b", (rank, in_dim)),
                    scale=scale)
        layers.append(layer)
    if arrays:
        raise CheckpointError(f"unexpected arrays in manifest: {sorted(arrays)}")
    return ToyModel(config=config, embed=embed, unembed=unembed,
                    final_gain=final_gain, layers=layers)
