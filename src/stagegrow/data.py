"""Byte-level corpus handling, batching, and perplexity evaluation.

A corpus is one or more files read as raw bytes and concatenated in the
given order; token ids are the byte values (vocab 256).  The validation
split is the final fraction of the stream, so train and validation never
overlap.  Batching chops a stream into non-overlapping windows of
seq_len + 1 bytes (inputs are the first seq_len, targets the last) and
shuffles window order with a seeded generator.  EvalOptions is the one
record of how a run validates, from the config through training and its
checkpoints to `stagegrow eval`.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from . import model as model_lib


class CorpusError(ValueError):
    """Unusable corpus: missing files, empty data, or too short to batch."""


@dataclass(frozen=True)
class TokenStream:
    """Immutable token sequence with provenance digest."""

    ids: np.ndarray  # uint8, read-only
    digest: str      # sha256 hex of the originating full corpus
    split: str       # "train" | "validation" | free-form

    def __post_init__(self) -> None:
        self.ids.setflags(write=False)

    def __len__(self) -> int:
        return int(self.ids.size)


VALIDATION_FRACTION = 0.1  # the corpus tail held out unless a run sets its own


def load_corpus(paths: str | Path | Sequence[str | Path],
                validation_fraction: float = VALIDATION_FRACTION
                ) -> tuple[TokenStream, TokenStream]:
    """Read files as bytes, concatenate, split off the tail for validation."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise CorpusError("no corpus files given")
    if not 0.0 < validation_fraction < 1.0:
        raise CorpusError(
            f"validation_fraction must be in (0, 1), got {validation_fraction}")
    chunks = []
    for p in paths:
        p = Path(p)
        if not p.is_file():
            raise CorpusError(f"corpus file not found: {p}")
        chunks.append(p.read_bytes())
    blob = b"".join(chunks)
    if not blob:
        raise CorpusError("corpus is empty")
    digest = hashlib.sha256(blob).hexdigest()
    ids = np.frombuffer(blob, dtype=np.uint8)
    n_val = int(len(ids) * validation_fraction)
    if n_val < 1 or n_val >= len(ids):
        raise CorpusError(
            f"validation_fraction {validation_fraction} leaves an empty split "
            f"for {len(ids)} bytes")
    # Two views of one read-only array (frombuffer over bytes): no copies.
    train = TokenStream(ids[:-n_val], digest, "train")
    val = TokenStream(ids[-n_val:], digest, "validation")
    return train, val


def window_count(stream_len: int, seq_len: int) -> int:
    """Non-overlapping windows of seq_len+1 bytes that fit in the stream."""
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    return max(0, (stream_len - 1) // seq_len)


def require_windows(stream: TokenStream, seq_len: int, batch_size: int = 1) -> int:
    """window_count of the stream; CorpusError if it holds fewer than batch_size."""
    n = window_count(len(stream), seq_len)
    if n < batch_size:
        at = f" and batch_size {batch_size}" if batch_size > 1 else ""
        raise CorpusError(f"stream of {len(stream)} bytes is too short for seq_len {seq_len}{at}")
    return n


def _window_matrix(stream: TokenStream, seq_len: int) -> np.ndarray:
    """(windows, seq_len+1) read-only view of the stream's complete windows."""
    n = require_windows(stream, seq_len)
    flat = stream.ids[:n * seq_len + 1]
    # Window w covers [w*seq_len, w*seq_len + seq_len]; neighbours share one byte.
    return np.lib.stride_tricks.sliding_window_view(flat, seq_len + 1)[::seq_len]


def batches(stream: TokenStream, seq_len: int, batch_size: int,
            seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One shuffled epoch of full batches: int64 (inputs, targets), (batch, seq_len)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    windows = _window_matrix(stream, seq_len)
    order = np.random.default_rng(seed).permutation(windows.shape[0])
    for start in range(0, len(order) - batch_size + 1, batch_size):
        pick = order[start:start + batch_size]
        block = windows[pick].astype(np.int64)
        yield block[:, :-1], block[:, 1:]


def batch_cycle(stream: TokenStream, seq_len: int, batch_size: int,
                seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless batches; epoch e reshuffles with generator seed [seed, e]."""
    require_windows(stream, seq_len, batch_size)
    for epoch in itertools.count():
        yield from batches(stream, seq_len, batch_size, seed=[seed, epoch])


@dataclass(frozen=True)
class EvalOptions:
    """How a run validates: the tail it holds out, the windows it scores.

    validation_fraction is checked by load_corpus, which splits by it;
    perplexity puts batch_size windows through each forward and stops
    after max_windows (None = every window).
    """

    validation_fraction: float = VALIDATION_FRACTION
    batch_size: int = 8
    max_windows: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1 or (self.max_windows is not None
                                   and self.max_windows < 1):
            raise ValueError("batch_size and max_windows must be >= 1")


@dataclass(frozen=True)
class PplReport:
    split: str
    tokens: int
    loss: float  # mean cross-entropy, nats/byte
    ppl: float   # exp(loss)


def perplexity(model, stream: TokenStream, seq_len: int,
               options: EvalOptions = EvalOptions()) -> PplReport:
    """Mean cross-entropy and perplexity over the stream's windows, in order.

    Batches and caps the windows by `options` (its validation_fraction is
    the caller's: the stream is already split).  Runs under
    autodiff.no_grad, so no graph is built.
    """
    windows = _window_matrix(stream, seq_len)[:options.max_windows]
    total_nats = 0.0
    total_tokens = 0
    for start in range(0, windows.shape[0], options.batch_size):
        block = windows[start:start + options.batch_size].astype(np.int64)
        inputs, targets = block[:, :-1], block[:, 1:]
        with ad.no_grad():
            logits = model_lib.forward(model, inputs)
            loss = ad.cross_entropy(logits, targets)
        n = targets.size
        total_nats += float(loss.data) * n
        total_tokens += n
    mean = total_nats / total_tokens
    return PplReport(split=stream.split, tokens=total_tokens,
                     loss=mean, ppl=float(np.exp(mean)))
