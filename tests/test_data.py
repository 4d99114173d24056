import hashlib
import tracemalloc

import numpy as np
import pytest

from stagegrow.data import (CorpusError, EvalOptions, TokenStream,
                            batch_cycle, batches, load_corpus, perplexity,
                            window_count)
from stagegrow.model import ModelConfig, build_model


def write_corpus(tmp_path, name, data: bytes):
    path = tmp_path / name
    path.write_bytes(data)
    return path


# ---------------------------------------------------------------------------
# Loading and splitting
# ---------------------------------------------------------------------------

def test_multi_file_concat_order_and_digest(tmp_path):
    a = write_corpus(tmp_path, "a.bin", bytes(range(100)))
    b = write_corpus(tmp_path, "b.bin", bytes(reversed(range(100))))
    train, val = load_corpus([a, b], validation_fraction=0.25)
    full = bytes(range(100)) + bytes(reversed(range(100)))
    assert bytes(train.ids) + bytes(val.ids) == full
    assert train.digest == val.digest == hashlib.sha256(full).hexdigest()
    # Swapping file order changes the stream and the digest.
    train2, _ = load_corpus([b, a], validation_fraction=0.25)
    assert train2.digest != train.digest


def test_split_sizes(tmp_path):
    path = write_corpus(tmp_path, "c.bin", bytes(1000))
    train, val = load_corpus(path, validation_fraction=0.1)
    assert len(val) == 100
    assert len(train) == 900
    assert train.split == "train"
    assert val.split == "validation"


def test_single_path_accepted_as_string(tmp_path):
    path = write_corpus(tmp_path, "c.bin", b"x" * 50)
    train, val = load_corpus(str(path), validation_fraction=0.2)
    assert len(train) + len(val) == 50


def test_load_corpus_errors(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing.bin")
    with pytest.raises(CorpusError):
        load_corpus([])
    empty = write_corpus(tmp_path, "empty.bin", b"")
    with pytest.raises(CorpusError):
        load_corpus(empty)
    small = write_corpus(tmp_path, "small.bin", b"ab")
    with pytest.raises(CorpusError):
        load_corpus(small, validation_fraction=0.1)  # empty val split
    ok = write_corpus(tmp_path, "ok.bin", bytes(100))
    with pytest.raises(CorpusError):
        load_corpus(ok, validation_fraction=0.0)
    with pytest.raises(CorpusError):
        load_corpus(ok, validation_fraction=1.0)


def test_token_stream_is_read_only(tmp_path):
    path = write_corpus(tmp_path, "c.bin", bytes(100))
    train, _ = load_corpus(path, validation_fraction=0.1)
    with pytest.raises(ValueError):
        train.ids[0] = 7


# ---------------------------------------------------------------------------
# Windowing and batching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stream_len,seq_len,expected", [
    (1001, 100, 10),
    (1000, 100, 9),
    (101, 100, 1),
    (100, 100, 0),
    (0, 10, 0),
])
def test_window_count(stream_len, seq_len, expected):
    assert window_count(stream_len, seq_len) == expected


def test_batches_cover_every_window_once(tmp_path):
    data = (np.arange(1001) % 256).astype(np.uint8).tobytes()
    path = write_corpus(tmp_path, "c.bin", data)
    train, _ = load_corpus(path, validation_fraction=0.2)  # 801 bytes -> 8 windows
    seen = []
    for inputs, targets in batches(train, seq_len=100, batch_size=2, seed=0):
        assert inputs.shape == targets.shape == (2, 100)
        assert inputs.dtype == targets.dtype == np.int64
        # Targets are inputs shifted one byte left.
        assert np.array_equal(inputs[:, 1:], targets[:, :-1])
        seen.extend(int(row[0]) for row in inputs)
    # Window w starts at byte w*100; stream bytes are position mod 256.
    assert sorted(seen) == sorted((w * 100) % 256 for w in range(8))


def test_batches_drop_last(tmp_path):
    path = write_corpus(tmp_path, "c.bin", bytes(1001))
    train, _ = load_corpus(path, validation_fraction=0.2)  # 8 windows of 100
    kept = list(batches(train, 100, 3, seed=0))
    assert len(kept) == 2  # the last two windows make no full batch
    assert all(inputs.shape == (3, 100) for inputs, _ in kept)


def test_batches_deterministic_and_seed_sensitive(tmp_path):
    rng = np.random.default_rng(0)
    path = write_corpus(tmp_path, "c.bin", rng.integers(0, 256, 2000,
                                                        dtype=np.uint8).tobytes())
    train, _ = load_corpus(path, validation_fraction=0.1)
    run1 = [i for i, _ in batches(train, 50, 4, seed=3)]
    run2 = [i for i, _ in batches(train, 50, 4, seed=3)]
    run3 = [i for i, _ in batches(train, 50, 4, seed=4)]
    assert all(np.array_equal(a, b) for a, b in zip(run1, run2))
    assert any(not np.array_equal(a, c) for a, c in zip(run1, run3))


def test_batch_cycle_reshuffles_per_epoch(tmp_path):
    rng = np.random.default_rng(1)
    path = write_corpus(tmp_path, "c.bin", rng.integers(0, 256, 1001,
                                                        dtype=np.uint8).tobytes())
    train, _ = load_corpus(path, validation_fraction=0.1)  # 901 bytes, 9 windows
    per_epoch = 9
    it = batch_cycle(train, seq_len=100, batch_size=1, seed=5)
    epoch1 = [next(it)[0] for _ in range(per_epoch)]
    epoch2 = [next(it)[0] for _ in range(per_epoch)]
    # Same windows, different order.
    key = lambda arrs: sorted(tuple(a.reshape(-1)) for a in arrs)
    assert key(epoch1) == key(epoch2)
    assert any(not np.array_equal(a, b) for a, b in zip(epoch1, epoch2))


def test_batch_cycle_too_short(tmp_path):
    path = write_corpus(tmp_path, "c.bin", bytes(30))
    train, _ = load_corpus(path, validation_fraction=0.1)
    it = batch_cycle(train, seq_len=100, batch_size=1, seed=0)
    with pytest.raises(CorpusError):
        next(it)
    path = write_corpus(tmp_path, "d.bin", bytes(1001))
    train, _ = load_corpus(path, validation_fraction=0.2)  # 8 windows of 100
    with pytest.raises(CorpusError, match="batch_size 9"):
        next(batch_cycle(train, seq_len=100, batch_size=9, seed=0))


def test_batches_validation():
    stream = TokenStream(np.zeros(10, dtype=np.uint8), "d", "train")
    with pytest.raises(ValueError):
        list(batches(stream, 4, 0, seed=0))
    with pytest.raises(CorpusError):
        list(batches(stream, 100, 1, seed=0))


def test_corpus_is_viewed_not_copied(tmp_path):
    # load_corpus holds the read bytes once, and a batch gathers only the
    # windows it picks from a strided view of the stream: the one
    # corpus-sized allocation beyond them is the window order (8 B/window).
    size = 6_000_000
    rng = np.random.default_rng(2)
    path = write_corpus(tmp_path, "c.bin",
                        rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    tracemalloc.start()
    try:
        train, _ = load_corpus(path)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = tracemalloc.get_traced_memory()[0]
        inputs, _ = next(batches(train, seq_len=64, batch_size=8, seed=0))
        batch_peak = tracemalloc.get_traced_memory()[1] - loaded
    finally:
        tracemalloc.stop()
    assert inputs.shape == (8, 64)
    assert load_peak < 1.2 * size
    assert batch_peak < 2_000_000


# ---------------------------------------------------------------------------
# Perplexity
# ---------------------------------------------------------------------------

def eval_model(layer_count=1):
    cfg = ModelConfig(hidden_dim=48, head_count=4, max_seq_len=64)
    return build_model(cfg, layer_count, seed=0)


def random_stream(n, seed=0, split="validation"):
    ids = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)
    return TokenStream(ids, "test", split)


def test_zeroed_readout_gives_uniform_perplexity():
    model = eval_model()
    model.unembed.data[...] = 0.0
    report = perplexity(model, random_stream(1001), seq_len=50)
    # Zero logits mean a uniform distribution over 256 bytes.
    assert report.ppl == pytest.approx(256.0, rel=1e-6)
    # log-sum-exp runs in the model dtype, so float32 rounding remains.
    assert report.loss == pytest.approx(np.log(256.0), abs=1e-6)
    assert report.tokens == 20 * 50
    assert report.split == "validation"


def test_memorizing_model_drives_perplexity_to_one():
    # Silence every block, then point the constant byte's readout row along
    # its embedding: softmax then puts almost all mass on that byte.
    model = eval_model()
    for layer in model.layers:
        layer.w_o.data[...] = 0.0
        layer.w_down.data[...] = 0.0
    byte = 65
    u = model.embed.data[byte]
    model.unembed.data[...] = 0.0
    model.unembed.data[byte] = 30.0 * u / float(u @ u)
    stream = TokenStream(np.full(501, byte, dtype=np.uint8), "d", "validation")
    report = perplexity(model, stream, seq_len=50)
    assert report.ppl < 1.01
    assert report.ppl >= 1.0


def test_perplexity_is_exp_of_loss():
    report = perplexity(eval_model(), random_stream(2001), seq_len=40)
    assert report.ppl == pytest.approx(float(np.exp(report.loss)), rel=1e-12)
    # Random bytes under a fresh model: near-uniform prediction.
    assert abs(report.loss - np.log(256.0)) < 0.2


def test_perplexity_max_windows():
    stream = random_stream(4001)
    capped = perplexity(eval_model(), stream, seq_len=40,
                        options=EvalOptions(max_windows=7))
    assert capped.tokens == 7 * 40
    full = perplexity(eval_model(), stream, seq_len=40)
    assert full.tokens == 100 * 40


def test_perplexity_batch_size_does_not_change_result():
    stream = random_stream(1601)
    a = perplexity(eval_model(), stream, seq_len=40,
                   options=EvalOptions(batch_size=3))
    b = perplexity(eval_model(), stream, seq_len=40,
                   options=EvalOptions(batch_size=40))
    assert a.loss == pytest.approx(b.loss, rel=1e-9)
    assert a.tokens == b.tokens
