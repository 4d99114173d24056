"""Depth growth, freezing, and low-rank adapter lifecycle for ToyModel.

Growing inserts fresh layers between existing ones.  New layers pair with a
contiguous region of old layers (top region for "upper", bottom for
"lower", spread evenly for "intermediate", seeded draws for "random") and
each new layer lands directly above its paired old layer, so doubling a
stack (A, B) yields (A, A', B, B') rather than appending a block on top.

Initialization of an inserted layer:

    copy  clone of the old layer just below the insertion gap
    mean  elementwise average of the old layers below and above the gap;
          with nothing above (topmost gap) it falls back to copy

Optionally the new layers' residual output projections (w_o, w_down) are
zeroed afterwards, which makes the grown model compute bit-for-bit the same
function as before growth: both residual branches of a new layer then add
exact zeros.

Adapters attach to frozen layers only, one factor pair per weight matrix,
A zero / B small normal, default scale 1/rank; attaching therefore changes
nothing until training moves A.  Merging folds scale * A @ B back into the
dense weights; resetting merges and re-attaches fresh factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor
from .model import (INIT_STD, LAYER_TENSOR_NAMES, MATRIX_NAMES,
                    RESIDUAL_OUTPUT_NAMES, Adapter, LayerBlock, ToyModel)

POSITIONS = ("upper", "intermediate", "lower", "random")
INITS = ("copy", "mean")


class GrowthError(ValueError):
    """Invalid growth or adapter request."""


@dataclass(frozen=True)
class GrowthSpec:
    new_layer_count: int
    position: str = "upper"
    init: str = "mean"
    fpi: bool = False  # zero new layers' residual outputs (function preserving)
    seed: int | None = None  # required for position="random"

    def __post_init__(self) -> None:
        if self.new_layer_count < 1:
            raise GrowthError(f"new_layer_count must be >= 1, got {self.new_layer_count}")
        if self.position not in POSITIONS:
            raise GrowthError(f"position must be one of {POSITIONS}, got {self.position!r}")
        if self.init not in INITS:
            raise GrowthError(f"init must be one of {INITS}, got {self.init!r}")
        if self.position == "random" and self.seed is None:
            raise GrowthError("position='random' needs a seed")


@dataclass(frozen=True)
class AdapterSpec:
    rank: int
    scale: float | None = None  # defaults to 1/rank

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise GrowthError(f"rank must be >= 1, got {self.rank}")

    @property
    def effective_scale(self) -> float:
        return (1.0 / self.rank) if self.scale is None else self.scale


def insertion_gaps(old_count: int, spec: GrowthSpec) -> list[int]:
    """Gap index (1-based: after old layer g) for each new layer, sorted.

    Gaps 1..old_count sit above each old layer.  A region of
    min(m, old_count) gaps hosts the new layers: every gap in the region
    takes floor(m/region) layers and the gaps nearest the region anchor
    absorb the remainder.
    """
    n, m = old_count, spec.new_layer_count
    if n < 1:
        raise GrowthError(f"old_count must be >= 1, got {n}")
    if spec.position == "random":
        rng = np.random.default_rng(spec.seed)
        return sorted(int(g) for g in rng.integers(1, n + 1, size=m))
    if spec.position == "upper":
        region = list(range(max(1, n - m + 1), n + 1))
        anchored = list(reversed(region))  # extras go to the topmost gaps
    elif spec.position == "lower":
        region = list(range(1, min(m, n) + 1))
        anchored = region  # extras go to the bottom gaps
    else:  # intermediate: spread across all gaps
        counts = [(m * g) // n - (m * (g - 1)) // n for g in range(1, n + 1)]
        return [g for g, c in enumerate(counts, start=1) for _ in range(c)]
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


def grow(model: ToyModel, spec: GrowthSpec) -> ToyModel:
    """Insert spec.new_layer_count fresh trainable layers in place.

    New layers never alias old storage.  Old layers keep their tensors,
    frozen flags, and adapters untouched.
    """
    old = list(model.layers)
    gaps = insertion_gaps(len(old), spec)
    new_layers: list[LayerBlock] = []
    stack: list[LayerBlock] = []
    for g in range(1, len(old) + 1):
        stack.append(old[g - 1])
        count = gaps.count(g)
        below = old[g - 1]
        above = old[g] if g < len(old) else None
        for _ in range(count):
            layer = _make_layer(below, above, spec.init)
            if spec.fpi:
                for name in RESIDUAL_OUTPUT_NAMES:
                    getattr(layer, name).data[...] = 0.0
            new_layers.append(layer)
            stack.append(layer)
    model.layers[:] = stack
    assert len(new_layers) == spec.new_layer_count
    model.config = replace(model.config, layer_count=len(stack))
    return model


def new_layer_indices(model: ToyModel, before: list[LayerBlock]) -> list[int]:
    """Indices of layers not present in a pre-growth snapshot list."""
    old_ids = {id(layer) for layer in before}
    return [i for i, layer in enumerate(model.layers) if id(layer) not in old_ids]


def freeze_layers(model: ToyModel, indices) -> ToyModel:
    for i in indices:
        model.layers[i].set_frozen(True)
    return model


def attach_adapters(model: ToyModel, layer_indices, spec: AdapterSpec,
                    seed: int) -> ToyModel:
    """Attach fresh factor pairs to every matrix of the given frozen layers.

    A starts at zero, so the adapted forward pass is bit-identical to the
    un-adapted one until the optimizer moves A.
    """
    rng = np.random.default_rng(seed)
    for i in layer_indices:
        layer = model.layers[i]
        if not layer.frozen:
            raise GrowthError(f"layer {i} is not frozen; adapters attach to frozen layers only")
        if layer.adapters:
            raise GrowthError(f"layer {i} already has adapters")
        for name in MATRIX_NAMES:
            out_dim, in_dim = getattr(layer, name).data.shape
            a = np.zeros((out_dim, spec.rank), dtype=model.dtype)
            b = rng.normal(0.0, INIT_STD, size=(spec.rank, in_dim)).astype(model.dtype)
            layer.adapters[name] = Adapter(
                a=Tensor(a, requires_grad=True),
                b=Tensor(b, requires_grad=True),
                scale=spec.effective_scale)
    return model


def merge_adapters(model: ToyModel) -> ToyModel:
    """Fold every adapter into its dense weight and drop the factors.

    W += scale * A @ B, accumulated in float64 and cast back, so merging an
    untouched (A = 0) adapter leaves the weights bit-identical.
    """
    for layer in model.layers:
        for name, adapter in layer.adapters.items():
            w = getattr(layer, name)
            delta = adapter.scale * (adapter.a.data.astype(np.float64)
                                     @ adapter.b.data.astype(np.float64))
            w.data[...] = (w.data.astype(np.float64) + delta).astype(model.dtype)
        layer.adapters.clear()
    return model


def reset_adapters(model: ToyModel, spec: AdapterSpec, seed: int) -> ToyModel:
    """Merge current adapters, then attach fresh ones to the same layers."""
    adapted = adapted_layer_indices(model)
    merge_adapters(model)
    return attach_adapters(model, adapted, spec, seed)


def adapted_layer_indices(model: ToyModel) -> list[int]:
    return [i for i, layer in enumerate(model.layers) if layer.adapters]
