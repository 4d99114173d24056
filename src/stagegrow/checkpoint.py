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

The JSON the program reads, run configs and manifests, goes through one
reader: `read_record` fills a dataclass by its fields and `read_field`
types one value, and a value that does not fit is a ConfigError at its path.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import typing
from collections.abc import Iterable
from dataclasses import MISSING, asdict, dataclass, fields
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


class ConfigError(ValueError):
    """Malformed JSON input; the message carries the JSON path."""


def check_keys(obj, path: str, allowed: set[str], required: set[str]) -> None:
    """A ConfigError unless obj is an object of allowed keys, required included."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required field(s) {sorted(missing)}")


def read_field(hint, value, path: str):
    """`value` as a field typed `hint` holds it, else a ConfigError at `path`.

    JSON types match exactly (a bool is not an int), except that a float
    field takes any finite number; `X | None` also takes null, and a tuple
    field a list of its length (any length for `tuple[X, ...]`).
    """
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else read_field(args[0], value, path)
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        if args[1:] == (Ellipsis,):  # tuple[X, ...]: a list of any length
            args = args[:1] * len(value)
        if len(value) == len(args):
            return tuple(read_field(a, v, f"{path}[{i}]")
                         for i, (a, v) in enumerate(zip(args, value)))
    elif hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is hint:
        return value
    name = hint.__name__
    if typing.get_origin(hint) is tuple:  # named as the JSON list it reads
        count = "" if args[1:] == (Ellipsis,) else f"{len(args)} "
        name = f"a list of {count}{args[0].__name__}"
    raise ConfigError(f"{path}: expected {name}, got {json.dumps(value)}")


_type_hints = functools.cache(typing.get_type_hints)  # read once per class


def read_record(cls, obj, path: str, **given):
    """Build dataclass `cls` from the JSON object `obj` found at `path`.

    The allowed keys, required keys, defaults and types are those of
    `cls`'s fields; fields passed in `given` are not read from the JSON.
    """
    own = [f for f in fields(cls) if f.name not in given]
    check_keys(obj, path, {f.name for f in own},
               {f.name for f in own if f.default is MISSING})
    hints = _type_hints(cls)
    values = {key: read_field(hints[key], value, f"{path}.{key}")
              for key, value in obj.items()}
    try:
        return cls(**values, **given)
    except ValueError as exc:  # the dataclass's own checks, GrowthError too
        raise ConfigError(f"{path}: {exc}") from exc


class CheckpointError(ValueError):
    """Structurally invalid checkpoint."""


class DigestError(CheckpointError):
    """Blob bytes do not match the digest recorded in the manifest."""


@dataclass(frozen=True)
class ArrayEntry:
    """A row of the manifest's array table; the array starts at blob byte `offset`."""

    name: str
    shape: tuple[int, ...]
    frozen: bool
    offset: int

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.shape):
            raise ValueError(f"array {self.name} has shape {list(self.shape)}")


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
        table.append(asdict(ArrayEntry(name, tensor.data.shape,
                                       not tensor.requires_grad, offset)))
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
    except ConfigError as exc:
        raise CheckpointError(f"malformed manifest: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError,
            KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"malformed manifest: {exc!r}") from exc


def _rebuild(manifest: dict, blob) -> ToyModel:
    version = read_field(int, manifest.get("format_version"), "format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version}")
    read_field(dict, manifest.get("extra", {}), "extra")
    config = read_record(ModelConfig, manifest["config"], "config")
    adapter_meta = manifest.get("adapter")
    if adapter_meta is not None:  # the one rank and scale of every adapter
        check_keys(adapter_meta, "adapter", {"rank", "scale"}, {"rank", "scale"})
        rank = read_field(int, adapter_meta["rank"], "adapter.rank")
        scale = read_field(float, adapter_meta["scale"], "adapter.scale")
        if rank < 1:
            raise CheckpointError(f"malformed manifest: adapter rank {rank}")
    size = os.fstat(blob.fileno()).st_size
    recorded = read_field(int, manifest["blob_bytes"], "blob_bytes")
    if size != recorded:
        raise DigestError(f"blob is {size} bytes, manifest says {recorded}")

    # The arrays lie back to back, in table order.  Each is read into its
    # own buffer once its extent is known to fit, and hashed as it is read.
    digest = hashlib.sha256()
    arrays = {}
    offset = 0
    for i, row in enumerate(manifest["arrays"]):
        e = read_record(ArrayEntry, row, f"arrays[{i}]")
        end = offset + 4 * math.prod(e.shape)
        if e.offset != offset:
            raise CheckpointError(f"malformed manifest: array {e.name} at "
                                  f"offset {e.offset}, expected {offset}")
        if end > size:
            raise CheckpointError(f"malformed manifest: array {e.name} "
                                  "overruns the blob")
        data = np.empty(e.shape, dtype=BLOB_DTYPE)
        if blob.readinto(data) != data.nbytes:
            raise DigestError("blob ended before its recorded size")
        digest.update(data)
        arrays[e.name] = (data.astype(np.float32, copy=False), e.frozen)
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
        if frozen and not can_freeze:
            raise CheckpointError(f"array {name} cannot be frozen")
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
