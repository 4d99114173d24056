"""Depth growth, freezing, and low-rank adapter lifecycle for ToyModel.

One policy, GrowthOptions, says how layers grow (position, init, fpi) and
which adapters the frozen layers get (adapter_rank, adapter_scale); grow,
attach_adapters and reset_adapters each take it with a seed.

Growing inserts fresh layers between existing ones.  New layers pair with a
contiguous region of old layers (top region for "upper", bottom for
"lower", spread evenly for "intermediate", seeded draws for "random") and
each new layer lands directly above its paired old layer, so doubling a
stack (A, B) yields (A, A', B, B') rather than appending a block on top.

Initialization of an inserted layer:

    copy  clone of the old layer just below the insertion gap
    mean  elementwise average of the old layers below and above the gap;
          with nothing above (topmost gap) it falls back to copy

With fpi the new layers' residual output projections (w_o, w_down) are
zeroed afterwards, which makes the grown model compute bit-for-bit the same
function as before growth: both residual branches of a new layer then add
exact zeros.

Adapters attach to frozen layers only, one factor pair per weight matrix,
A zero / B small normal, default scale 1/rank (as in LoRA); attaching
therefore changes nothing until training moves A.  Merging folds
scale * A @ B back into the dense weights; resetting merges and re-attaches
fresh factors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .model import (INIT_STD, LAYER_TENSOR_NAMES, MATRIX_NAMES,
                    RESIDUAL_OUTPUT_NAMES, Adapter, LayerBlock, ToyModel)

POSITIONS = ("upper", "intermediate", "lower", "random")
INITS = ("copy", "mean")


class GrowthError(ValueError):
    """Invalid growth or adapter request."""


@dataclass(frozen=True)
class GrowthOptions:
    """How growth events behave; adapter_rank 0 disables adapters."""

    position: str = "upper"
    init: str = "mean"
    fpi: bool = False  # zero new layers' residual outputs (function preserving)
    adapter_rank: int = 8
    adapter_scale: float | None = None  # None: 1/adapter_rank, as in LoRA

    def __post_init__(self) -> None:
        # Checked now rather than at the first growth boundary.
        if self.position not in POSITIONS:
            raise GrowthError(f"position must be one of {POSITIONS}, got {self.position!r}")
        if self.init not in INITS:
            raise GrowthError(f"init must be one of {INITS}, got {self.init!r}")
        if self.adapter_rank < 0:
            raise GrowthError(f"adapter_rank must be >= 0, got {self.adapter_rank}")
        scale = self.adapter_scale  # so that every checkpoint reloads it
        if scale is not None and (isinstance(scale, bool)
                                  or not isinstance(scale, (int, float))
                                  or not abs(scale) <= sys.float_info.max):
            raise GrowthError(f"adapter_scale must be a finite number, got {scale!r}")


def insertion_gaps(old_count: int, new_count: int, position: str,
                   seed: int) -> list[int]:
    """Gap index (1-based: after old layer g) for each new layer, sorted.

    Gaps 1..old_count sit above each old layer.  A region of
    min(m, old_count) gaps hosts the new layers: every gap in the region
    takes floor(m/region) layers and the gaps nearest the region anchor
    absorb the remainder.  Only position "random" reads the seed.
    """
    n, m = old_count, new_count
    if n < 1:
        raise GrowthError(f"old_count must be >= 1, got {n}")
    if m < 1:
        raise GrowthError(f"new_count must be >= 1, got {m}")
    if position == "random":
        rng = np.random.default_rng(seed)
        return sorted(int(g) for g in rng.integers(1, n + 1, size=m))
    if position == "upper":
        region = list(range(max(1, n - m + 1), n + 1))
        anchored = list(reversed(region))  # extras go to the topmost gaps
    elif position == "lower":
        region = list(range(1, min(m, n) + 1))
        anchored = region  # extras go to the bottom gaps
    elif position == "intermediate":  # spread across all gaps
        counts = [(m * g) // n - (m * (g - 1)) // n for g in range(1, n + 1)]
        return [g for g, c in enumerate(counts, start=1) for _ in range(c)]
    else:
        raise GrowthError(f"position must be one of {POSITIONS}, got {position!r}")
    base, extra = divmod(m, len(region))
    per_gap = {g: base for g in region}
    for g in anchored[:extra]:
        per_gap[g] += 1
    return [g for g in region for _ in range(per_gap[g])]


def _clone_tensor(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=True)


def _mean_tensor(a: Tensor, b: Tensor) -> Tensor:
    return Tensor((a.data + b.data) / 2.0, requires_grad=True)


def _make_layer(below: LayerBlock, above: LayerBlock | None, init: str) -> LayerBlock:
    if init == "mean" and above is not None:
        tensors = {n: _mean_tensor(getattr(below, n), getattr(above, n))
                   for n in LAYER_TENSOR_NAMES}
    else:  # copy, or mean with nothing above
        tensors = {n: _clone_tensor(getattr(below, n)) for n in LAYER_TENSOR_NAMES}
    return LayerBlock(**tensors)


def grow(model: ToyModel, new_count: int, options: GrowthOptions,
         seed: int) -> list[int]:
    """Insert new_count fresh trainable layers in place; returns their indices.

    New layers never alias old storage.  Old layers keep their tensors,
    frozen flags, and adapters untouched.
    """
    old = list(model.layers)
    gaps = insertion_gaps(len(old), new_count, options.position, seed)
    fresh: list[int] = []
    stack: list[LayerBlock] = []
    for g in range(1, len(old) + 1):
        stack.append(old[g - 1])
        below = old[g - 1]
        above = old[g] if g < len(old) else None
        for _ in range(gaps.count(g)):
            layer = _make_layer(below, above, options.init)
            if options.fpi:
                for name in RESIDUAL_OUTPUT_NAMES:
                    getattr(layer, name).data[...] = 0.0
            fresh.append(len(stack))
            stack.append(layer)
    model.layers[:] = stack
    return fresh


def freeze_layers(model: ToyModel, indices) -> ToyModel:
    for i in indices:
        model.layers[i].set_frozen(True)
    return model


def attach_adapters(model: ToyModel, layer_indices, options: GrowthOptions,
                    seed: int) -> ToyModel:
    """Attach fresh factor pairs to every matrix of the given frozen layers.

    A starts at zero, so the adapted forward pass is bit-identical to the
    un-adapted one until the optimizer moves A.
    """
    rank = options.adapter_rank
    if rank < 1:
        raise GrowthError(f"adapter_rank must be >= 1 to attach adapters, got {rank}")
    scale = 1.0 / rank if options.adapter_scale is None else options.adapter_scale
    rng = np.random.default_rng(seed)
    for i in layer_indices:
        layer = model.layers[i]
        if not layer.frozen:
            raise GrowthError(f"layer {i} is not frozen; adapters attach to frozen layers only")
        if layer.adapters:
            raise GrowthError(f"layer {i} already has adapters")
        for name in MATRIX_NAMES:
            out_dim, in_dim = getattr(layer, name).data.shape
            a = np.zeros((out_dim, rank), dtype=model.dtype)
            b = rng.normal(0.0, INIT_STD, size=(rank, in_dim)).astype(model.dtype)
            layer.adapters[name] = Adapter(
                a=Tensor(a, requires_grad=True),
                b=Tensor(b, requires_grad=True),
                scale=scale)
    return model


def merge_adapters(model: ToyModel) -> ToyModel:
    """Fold every adapter into its dense weight and drop the factors.

    W += scale * A @ B, accumulated in float64 and cast back, so merging an
    untouched (A = 0) adapter leaves the weights bit-identical.  The factors
    stop taking a gradient, so their optimizer moments go with their nodes.
    """
    for layer in model.layers:
        for name, adapter in layer.adapters.items():
            w = getattr(layer, name)
            delta = adapter.scale * (adapter.a.data.astype(np.float64)
                                     @ adapter.b.data.astype(np.float64))
            w.data[...] = (w.data.astype(np.float64) + delta).astype(model.dtype)
            adapter.a.requires_grad = adapter.b.requires_grad = False
        layer.adapters.clear()
    return model


def reset_adapters(model: ToyModel, options: GrowthOptions, seed: int) -> ToyModel:
    """Merge current adapters, then attach fresh ones to the same layers."""
    adapted = adapted_layer_indices(model)
    merge_adapters(model)
    return attach_adapters(model, adapted, options, seed)


def adapted_layer_indices(model: ToyModel) -> list[int]:
    return [i for i, layer in enumerate(model.layers) if layer.adapters]
