"""A small LLaMA-style byte-level decoder on the autodiff engine.

Pre-norm residual blocks:

    x = x + W_o . attention(rms_norm(x))          (rotary positions, causal)
    x = x + W_down . (silu(W_gate h) * W_up h),   h = rms_norm(x)

Feed-forward width is exactly 8d/3 (d must be divisible by 3), so one layer
carries 12 d^2 + 2 d parameters: the planning formulas in stagegrow.memory
count this model exactly.

A model is its ModelConfig (one layer's shape, vocabulary, context, rotary
base) and its parameters: its depth is len(layers), which growth changes,
its dtype is its parameters', and its rotary tables follow from the config.

Weight matrices are stored (out_features, in_features); the forward pass
multiplies by their transpose.  A layer may be frozen (weights excluded
from gradients) and may carry low-rank adapters: y = W x + s * A (B x)
with A zero at attach time so attaching is a no-op until training moves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .memory import ParamCounts

MATRIX_NAMES = ("w_q", "w_k", "w_v", "w_o", "w_gate", "w_up", "w_down")
LAYER_TENSOR_NAMES = (*MATRIX_NAMES, "g_attn", "g_ffn")
RESIDUAL_OUTPUT_NAMES = ("w_o", "w_down")  # zeroing these silences a layer
INIT_STD = 0.02
NORM_EPS = 1e-5
MASK_VALUE = -1e9


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int
    head_count: int
    vocab_size: int = 256
    max_seq_len: int = 512
    tied_embeddings: bool = False
    rope_base: float = 10000.0

    def __post_init__(self) -> None:
        if self.hidden_dim < 1 or self.head_count < 1:
            raise ValueError("hidden_dim and head_count must be >= 1")
        if self.hidden_dim % 3 != 0:
            raise ValueError(f"hidden_dim must be divisible by 3, got {self.hidden_dim}")
        if self.hidden_dim % self.head_count != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by head_count {self.head_count}")
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for rotary mixing, got {self.head_dim}")
        if self.vocab_size < 1 or self.max_seq_len < 1:
            raise ValueError("vocab_size and max_seq_len must be >= 1")
        if self.rope_base <= 0:
            raise ValueError(f"rope_base must be > 0, got {self.rope_base}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.head_count

    @property
    def ffn_dim(self) -> int:
        return 8 * self.hidden_dim // 3

    @property
    def layer_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of each of a layer's own tensors, in LAYER_TENSOR_NAMES order."""
        d, f = self.hidden_dim, self.ffn_dim
        return {"w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "w_o": (d, d),
                "w_gate": (f, d), "w_up": (f, d), "w_down": (d, f),
                "g_attn": (d,), "g_ffn": (d,)}


@dataclass
class Adapter:
    """Low-rank residual factors for one weight matrix: delta = scale * a @ b."""

    a: Tensor  # (out_features, rank), zero at attach
    b: Tensor  # (rank, in_features), small random
    scale: float

    @property
    def rank(self) -> int:
        return self.a.data.shape[1]


@dataclass
class LayerBlock:
    """One decoder layer: weight tensors, norm gains, adapters."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor
    g_attn: Tensor
    g_ffn: Tensor
    adapters: dict[str, Adapter] = field(default_factory=dict)

    def all_tensors(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in LAYER_TENSOR_NAMES}

    @property
    def frozen(self) -> bool:
        """Whether none of the layer's own tensors takes a gradient."""
        return not any(t.requires_grad for t in self.all_tensors().values())

    def set_frozen(self, frozen: bool) -> None:  # freezing drops the gradients
        for t in self.all_tensors().values():
            t.requires_grad = not frozen


@dataclass
class ToyModel:
    config: ModelConfig
    embed: Tensor            # (vocab, hidden)
    unembed: Tensor | None   # (vocab, hidden); None when tied
    final_gain: Tensor       # (hidden,)
    layers: list[LayerBlock]

    @property
    def dtype(self) -> np.dtype:
        return self.embed.data.dtype

    @property
    def output_matrix(self) -> Tensor:
        return self.embed if self.unembed is None else self.unembed


@lru_cache(maxsize=16)
def rope_cache(max_seq_len: int, head_dim: int, base: float,
               dtype) -> tuple[np.ndarray, np.ndarray]:
    """Constant cos/sin tables, (max_seq_len, head_dim) each; cached, read-only."""
    half = head_dim // 2
    inv_freq = base ** (-np.arange(0, half, dtype=np.float64) / half)
    angles = np.outer(np.arange(max_seq_len, dtype=np.float64), inv_freq)
    doubled = np.concatenate([angles, angles], axis=-1)
    cos, sin = np.cos(doubled).astype(dtype), np.sin(doubled).astype(dtype)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _init_matrix(rng: np.random.Generator, out_dim: int, in_dim: int,
                 std: float, dtype) -> Tensor:
    data = rng.normal(0.0, std, size=(out_dim, in_dim)).astype(dtype)
    return Tensor(data, requires_grad=True)


def init_layer(rng: np.random.Generator, config: ModelConfig, layer_count: int,
               dtype) -> LayerBlock:
    """Fresh trainable layer; residual outputs get init scaled by layer_count."""
    out_std = INIT_STD / np.sqrt(2.0 * layer_count)
    tensors = {}
    for name, shape in config.layer_shapes.items():
        if name in MATRIX_NAMES:
            std = out_std if name in RESIDUAL_OUTPUT_NAMES else INIT_STD
            tensors[name] = _init_matrix(rng, *shape, std, dtype)
        else:
            tensors[name] = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
    return LayerBlock(**tensors)


def build_model(config: ModelConfig, layer_count: int, seed: int, dtype=np.float32) -> ToyModel:
    """Deterministic construction of a layer_count-deep model from a seed."""
    if layer_count < 1:
        raise ValueError(f"layer_count must be >= 1, got {layer_count}")
    rng = np.random.default_rng(seed)
    d = config.hidden_dim
    embed = _init_matrix(rng, config.vocab_size, d, INIT_STD, dtype)
    unembed = None
    if not config.tied_embeddings:
        unembed = _init_matrix(rng, config.vocab_size, d, INIT_STD, dtype)
    layers = [init_layer(rng, config, layer_count, dtype) for _ in range(layer_count)]
    return ToyModel(
        config=config, embed=embed, unembed=unembed,
        final_gain=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        layers=layers)


def _linear(x: Tensor, layer: LayerBlock, name: str) -> Tensor:
    """x @ W^T plus the adapter path when one is attached."""
    w = getattr(layer, name)
    out = ad.matmul(x, ad.transpose(w))
    adapter = layer.adapters.get(name)
    if adapter is not None:
        low = ad.matmul(x, ad.transpose(adapter.b))
        out = ad.add(out, ad.matmul(low, ad.transpose(adapter.a)), adapter.scale)
    return out


def _split_heads(x: Tensor, batch: int, seq: int, config: ModelConfig) -> Tensor:
    x = ad.reshape(x, (batch, seq, config.head_count, config.head_dim))
    return ad.transpose(x, (0, 2, 1, 3))  # (batch, head, seq, head_dim)


@lru_cache(maxsize=16)
def causal_mask(seq: int, dtype) -> np.ndarray:
    """(seq, seq) additive mask: 0 on/below the diagonal, large negative above.

    Cached per (seq, dtype) and read-only, since every caller shares it.
    """
    mask = np.zeros((seq, seq), dtype=dtype)
    mask[np.triu_indices(seq, k=1)] = MASK_VALUE
    mask.flags.writeable = False
    return mask


def forward(model: ToyModel, tokens: np.ndarray) -> Tensor:
    """Logits (batch, seq, vocab) for integer tokens (batch, seq)."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be 2-D (batch, seq), got {tokens.shape}")
    batch, seq = tokens.shape
    cfg = model.config
    if seq > cfg.max_seq_len:
        raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")

    cos, sin = rope_cache(cfg.max_seq_len, cfg.head_dim, cfg.rope_base, model.dtype)
    cos, sin = cos[:seq], sin[:seq]
    mask = causal_mask(seq, model.dtype)
    inv_sqrt_hd = 1.0 / math.sqrt(cfg.head_dim)  # python float: keeps dtype

    x = ad.embedding(model.embed, tokens)
    for layer in model.layers:
        h = ad.rms_norm(x, layer.g_attn, NORM_EPS)
        q = _split_heads(_linear(h, layer, "w_q"), batch, seq, cfg)
        k = _split_heads(_linear(h, layer, "w_k"), batch, seq, cfg)
        v = _split_heads(_linear(h, layer, "w_v"), batch, seq, cfg)
        q = ad.rope(q, cos, sin)
        k = ad.rope(k, cos, sin)
        # One fused node scales, masks and normalizes the raw scores in a
        # single (batch, head, seq, seq) buffer.  The graph keeps neither
        # the scores nor the probabilities: softmax keeps each row's max
        # and sum, and backward remakes the probabilities from q and k.
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
        mixed = ad.matmul(ad.softmax(scores, inv_sqrt_hd, mask), v)
        mixed = ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (batch, seq, cfg.hidden_dim))
        x = ad.add(x, _linear(mixed, layer, "w_o"))

        h = ad.rms_norm(x, layer.g_ffn, NORM_EPS)
        # One node: the graph keeps the gate and up projections, not silu's output.
        gated = ad.silu(_linear(h, layer, "w_gate"), _linear(h, layer, "w_up"))
        x = ad.add(x, _linear(gated, layer, "w_down"))

    x = ad.rms_norm(x, model.final_gain, NORM_EPS)
    return ad.matmul(x, ad.transpose(model.output_matrix))


def named_parameters(model: ToyModel) -> list[tuple[str, Tensor]]:
    """Deterministic (name, tensor) list; checkpoint order matches this."""
    out: list[tuple[str, Tensor]] = [("embed", model.embed)]
    if model.unembed is not None:
        out.append(("unembed", model.unembed))
    out.append(("final_gain", model.final_gain))
    for i, layer in enumerate(model.layers):
        for name, t in layer.all_tensors().items():
            out.append((f"layers.{i}.{name}", t))
        for m_name in MATRIX_NAMES:
            adapter = layer.adapters.get(m_name)
            if adapter is not None:
                out.append((f"layers.{i}.adapters.{m_name}.a", adapter.a))
                out.append((f"layers.{i}.adapters.{m_name}.b", adapter.b))
    return out


def trainable_parameters(model: ToyModel) -> list[tuple[str, Tensor]]:
    return [(n, t) for n, t in named_parameters(model) if t.requires_grad]


def param_counts(model: ToyModel) -> ParamCounts:
    """The live model's exact census, by the stage rule's roles."""
    trainable_layer = frozen_layer = adapter = 0
    for layer in model.layers:
        n = sum(t.data.size for t in layer.all_tensors().values())
        if layer.frozen:
            frozen_layer += n
        else:
            trainable_layer += n
        adapter += sum(f.a.data.size + f.b.data.size for f in layer.adapters.values())
    embedding = model.embed.data.size + model.final_gain.data.size
    if model.unembed is not None:
        embedding += model.unembed.data.size
    return ParamCounts(trainable_layer, frozen_layer, adapter, embedding)
