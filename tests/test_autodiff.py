import gc
import math
import weakref

import numpy as np
import pytest
from grad_oracle import grad_check

from stagegrow import autodiff
from stagegrow.autodiff import (NonFiniteError, Tensor, add, cross_entropy,
                                embedding, matmul, mul, no_grad, reshape,
                                rms_norm, rope, scale, silu, softmax, sum_all,
                                transpose)
from stagegrow.data import EvalOptions, TokenStream, perplexity
from stagegrow.growth import GrowthOptions, attach_adapters, freeze_layers
from stagegrow.model import (ModelConfig, build_model, causal_mask, forward,
                             named_parameters)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def weighter(rng, shape):
    """A deterministic weighted-sum reducer drawn once up front.

    A plain sum gives a uniform upstream gradient, which misses bugs that
    only show under per-element weighting (e.g. softmax's coupling term).
    The weights must be fixed before grad_check runs: it re-evaluates the
    function many times for finite differences.
    """
    w = Tensor(rng.standard_normal(shape))
    return lambda out: sum_all(mul(out, w))


# ---------------------------------------------------------------------------
# Per-op gradient checks against central differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_grad_add_broadcast(seed):
    rng = np.random.default_rng(seed)
    b = Tensor(rng.standard_normal(4))
    x = leaf(rng, 3, 4)
    wsum = weighter(np.random.default_rng(seed + 1000), (3, 4))
    report = grad_check(lambda t: wsum(add(t, b)), x)
    assert report.passed, report
    a_const = Tensor(rng.standard_normal((3, 4)))
    report = grad_check(lambda t: wsum(add(a_const, t)),
                        Tensor(rng.standard_normal(4), requires_grad=True))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_mul(seed):
    rng = np.random.default_rng(seed)
    other = Tensor(rng.standard_normal((2, 5)))
    x = leaf(rng, 2, 5)
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 5))
    report = grad_check(lambda t: wsum(mul(t, other)), x)
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_scale(seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, 3, 3)
    report = grad_check(lambda t: sum_all(scale(t, -1.7)), x)
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_matmul_left_right(seed):
    rng = np.random.default_rng(seed)
    a_const = Tensor(rng.standard_normal((3, 4)))
    b_const = Tensor(rng.standard_normal((4, 2)))
    wsum = weighter(np.random.default_rng(seed + 1000), (3, 2))
    report = grad_check(lambda t: wsum(matmul(t, b_const)), leaf(rng, 3, 4))
    assert report.passed, report
    report = grad_check(lambda t: wsum(matmul(a_const, t)), leaf(rng, 4, 2))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_matmul_batched(seed):
    rng = np.random.default_rng(seed)
    b_const = Tensor(rng.standard_normal((2, 4, 3)))
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 3, 3))
    report = grad_check(lambda t: wsum(matmul(t, b_const)), leaf(rng, 2, 3, 4))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("lead", [(2, 3), (2, 2, 3)])
def test_grad_matmul_folded_weight(seed, lead):
    # An N-D left operand against a 2-D right one takes the folded path;
    # both operands require grad, so both gradient GEMMs run.
    rng = np.random.default_rng(seed)
    a = leaf(rng, *lead, 4)
    w = leaf(rng, 4, 5)
    wsum = weighter(np.random.default_rng(seed + 1000), (*lead, 5))
    report = grad_check(lambda t: wsum(matmul(t, w)), a)
    assert report.passed, report
    report = grad_check(lambda t: wsum(matmul(a, t)), w)
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_silu(seed):
    rng = np.random.default_rng(seed)
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 6))
    report = grad_check(lambda t: wsum(silu(t)), leaf(rng, 2, 6))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_softmax(seed):
    rng = np.random.default_rng(seed)
    wsum = weighter(np.random.default_rng(seed + 1000), (3, 5))
    report = grad_check(lambda t: wsum(softmax(t)), leaf(rng, 3, 5))
    assert report.passed, report


def test_grad_softmax_scaled_masked():
    rng = np.random.default_rng(11)
    mask = causal_mask(5, np.float64)
    wsum = weighter(np.random.default_rng(1011), (2, 5, 5))
    report = grad_check(lambda t: wsum(softmax(t, 0.37, mask)), leaf(rng, 2, 5, 5))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_rms_norm(seed):
    rng = np.random.default_rng(seed)
    gain_const = Tensor(rng.standard_normal(6))
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 6))
    report = grad_check(lambda t: wsum(rms_norm(t, gain_const)), leaf(rng, 2, 6))
    assert report.passed, report
    x_const = Tensor(rng.standard_normal((2, 6)))
    report = grad_check(lambda t: wsum(rms_norm(x_const, t)), leaf(rng, 6))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_embedding(seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, 7, size=(2, 3))
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 3, 3))
    report = grad_check(lambda t: wsum(embedding(t, ids)), leaf(rng, 7, 3))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 5, size=4)
    report = grad_check(lambda t: cross_entropy(t, targets), leaf(rng, 4, 5))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_reshape_transpose(seed):
    rng = np.random.default_rng(seed)
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 2, 3))
    report = grad_check(
        lambda t: wsum(transpose(reshape(t, (2, 2, 3)), (1, 0, 2))),
        leaf(rng, 4, 3))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(10))
def test_grad_rope(seed):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((3, 4))
    cos, sin = np.cos(theta), np.sin(theta)
    wsum = weighter(np.random.default_rng(seed + 1000), (2, 3, 4))
    report = grad_check(lambda t: wsum(rope(t, cos, sin)), leaf(rng, 2, 3, 4))
    assert report.passed, report


@pytest.mark.parametrize("seed", range(5))
def test_grad_composed_block(seed):
    # Chain several ops the model actually uses back to back.
    rng = np.random.default_rng(seed)
    w1 = Tensor(rng.standard_normal((4, 4)))
    gain = Tensor(np.abs(rng.standard_normal(4)) + 0.5)
    wsum = weighter(np.random.default_rng(seed + 1000), (3, 4))

    def f(t):
        h = matmul(rms_norm(t, gain), w1)
        return wsum(softmax(silu(h)))

    report = grad_check(f, leaf(rng, 3, 4))
    assert report.passed, report


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

def test_softmax_uniform_on_zeros():
    y = softmax(Tensor(np.zeros((2, 4))))
    assert np.array_equal(y.data, np.full((2, 4), 0.25))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seq", [4, 64, 256])
def test_fused_softmax_is_bit_identical_to_scale_add_softmax(dtype, seq):
    rng = np.random.default_rng(seq)
    shape = (2, 3, seq, seq)
    data = (rng.standard_normal(shape) * 4.0).astype(dtype)
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    s = 1.0 / math.sqrt(6.0)  # a python float, as the model passes
    mask = causal_mask(seq, dtype)
    x_fused = Tensor(data.copy(), requires_grad=True)
    x_chain = Tensor(data.copy(), requires_grad=True)
    fused = softmax(x_fused, s, mask)
    chain = softmax(add(scale(x_chain, s), mask))
    assert fused.dtype == dtype
    assert np.array_equal(fused.data, chain.data)
    # Both equal the max-subtracted reference written out in numpy.
    z = data * s + mask
    ex = np.exp(z - z.max(axis=-1, keepdims=True))
    assert np.array_equal(fused.data, ex / ex.sum(axis=-1, keepdims=True))
    sum_all(mul(fused, w)).backward()
    sum_all(mul(chain, w)).backward()
    assert x_fused.grad.dtype == dtype
    assert np.array_equal(x_fused.grad, x_chain.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_silu_is_bit_identical_to_mul_of_silu(dtype):
    rng = np.random.default_rng(3)
    shape = (2, 5, 24)
    gate = (rng.standard_normal(shape) * 4.0).astype(dtype)
    up = rng.standard_normal(shape).astype(dtype)
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    fused_in = [Tensor(a.copy(), requires_grad=True) for a in (gate, up)]
    chain_in = [Tensor(a.copy(), requires_grad=True) for a in (gate, up)]
    fused = silu(*fused_in)
    chain = mul(silu(chain_in[0]), chain_in[1])
    assert fused.dtype == chain.dtype == dtype
    assert np.array_equal(fused.data, chain.data)
    sum_all(mul(fused, w)).backward()
    sum_all(mul(chain, w)).backward()
    for f, c in zip(fused_in, chain_in):
        assert f.grad.dtype == c.grad.dtype == dtype
        assert np.array_equal(f.grad, c.grad)


def test_fused_silu_takes_a_gradient_for_either_operand_alone():
    rng = np.random.default_rng(4)
    gate, up = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    for grad_of in (0, 1):
        fused_in = [Tensor(a.copy(), requires_grad=i == grad_of)
                    for i, a in enumerate((gate, up))]
        chain_in = [Tensor(a.copy(), requires_grad=i == grad_of)
                    for i, a in enumerate((gate, up))]
        sum_all(silu(*fused_in)).backward()
        sum_all(mul(silu(chain_in[0]), chain_in[1])).backward()
        assert np.array_equal(fused_in[grad_of].grad, chain_in[grad_of].grad)
        assert fused_in[1 - grad_of].grad is None


def attention_probs(q: Tensor, k: Tensor, s: float) -> Tensor:
    """The model's causal softmax(s * q kT + mask) over (batch, head, seq, dim)."""
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    return softmax(scores, s, causal_mask(q.shape[-2], q.dtype))


def swiglu(rng, dtype, view: bool = False):
    """The model's adapted FFN input side: silu(h Wgᵀ + s (h Bᵀ) Aᵀ, h Wuᵀ).

    h is an rms_norm output; the gate weight is frozen and adapted with a
    non-zero A, the up weight takes a gradient.  With view, a reshape sits
    between each projection and silu, so silu saves arrays, not remakes.
    Returns the output and the leaves that take a gradient.
    """
    def param(*shape, grad=True):
        return Tensor((rng.standard_normal(shape) * 0.5).astype(dtype),
                      requires_grad=grad)

    x, gain, w_gate = param(2, 5, 9), param(9), param(24, 9, grad=False)
    w_up, a, b = param(24, 9), param(24, 3), param(3, 9)
    h = rms_norm(x, gain)
    gate = add(matmul(h, transpose(w_gate)),
               matmul(matmul(h, transpose(b)), transpose(a)), 0.3)
    up = matmul(h, transpose(w_up))
    if view:
        gate, up = reshape(gate, gate.shape), reshape(up, up.shape)
    assert (gate._remake is None) is view and (up._remake is None) is view
    return silu(gate, up), [x, gain, w_up, a, b]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["rms_norm", "silu", "silu_up", "ffn",
                                "attention", "attention_scale_2"])
def test_remake_is_bit_identical_to_the_forward_output(dtype, op):
    rng = np.random.default_rng(6)
    x = Tensor((rng.standard_normal((2, 5, 24)) * 4.0).astype(dtype),
               requires_grad=True)
    other = Tensor(rng.standard_normal(24 if op == "rms_norm" else (2, 5, 24))
                   .astype(dtype), requires_grad=True)
    if op == "rms_norm":
        out = rms_norm(x, other)
    elif op == "ffn":
        # The gated product's remake remakes the adapted gate and the up
        # projection from the rms_norm output's remake.
        out, _ = swiglu(rng, dtype)
    elif op.startswith("attention"):
        # Scale 2 is above 1, so the forward output is probed.
        q, k = (Tensor((rng.standard_normal((2, 5, 24, 8)) * 2.0).astype(dtype),
                       requires_grad=True) for _ in range(2))
        out = attention_probs(q, k, 2.0 if op == "attention_scale_2" else 0.25)
    else:
        out = silu(x, other if op == "silu_up" else None)
    remade = out._remake()
    assert remade is not out.data and remade.dtype == dtype
    assert np.array_equal(remade, out.data)
    assert out._remake() is remade  # cached after the first call
    # A consumer's gradient reads the remake, as it read the output before.
    w = Tensor(rng.standard_normal((24, 3)).astype(dtype), requires_grad=True)
    sum_all(matmul(out, w)).backward()
    rows = out.data.size // 24
    expect = out.data.reshape(-1, 24).T @ np.ones((rows, 3), dtype=dtype)
    assert np.array_equal(w.grad, expect)


def test_only_an_output_whose_closure_keeps_its_inputs_has_a_remake():
    rng = np.random.default_rng(7)
    x, up = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    # x takes no gradient, so silu's closure keeps x but not up.
    assert silu(Tensor(x), Tensor(up, requires_grad=True))._remake is None
    assert silu(Tensor(x, requires_grad=True), Tensor(up))._remake is not None
    with no_grad():
        assert silu(Tensor(x, requires_grad=True))._remake is None
    for out in (add(Tensor(x, requires_grad=True), up),
                rope(Tensor(x, requires_grad=True), np.cos(x), np.sin(x)),
                softmax(Tensor(x, requires_grad=True))):
        assert out._remake is None
    # A batched product is remade only when its closure keeps both operands
    # (attention's q and k), and a softmax over it then remakes its output.
    q, k = (rng.standard_normal((2, 3, 4, 2)) for _ in range(2))
    assert attention_probs(Tensor(q, requires_grad=True),
                           Tensor(k, requires_grad=True), 0.5)._remake is not None
    assert attention_probs(Tensor(q, requires_grad=True), Tensor(k),
                           0.5)._remake is None
    assert matmul(Tensor(q, requires_grad=True),
                  Tensor(k.swapaxes(-1, -2)))._remake is None
    # A product with a 2-D weight is remade only when it widens and its
    # input is remade (an rms_norm output) or kept by its closure (the
    # weight takes a gradient); an equal-width or narrowing one never is.
    h = rms_norm(Tensor(x, requires_grad=True), Tensor(np.ones(4)))
    for width, weight_grad, remade in ((6, False, True), (4, True, False),
                                       (2, True, False)):
        w = Tensor(rng.standard_normal((4, width)), requires_grad=weight_grad)
        assert (matmul(h, w)._remake is not None) is remade, width
    wide = rng.standard_normal((4, 6))
    assert matmul(Tensor(x, requires_grad=True),
                  Tensor(wide, requires_grad=True))._remake is not None
    assert matmul(Tensor(x, requires_grad=True), Tensor(wide))._remake is None
    # An add is remade only when both of its inputs are.
    gate, up = (matmul(h, Tensor(wide)) for _ in range(2))
    assert add(gate, up, 0.5)._remake is not None
    assert add(gate, Tensor(up.data, requires_grad=True))._remake is None
    assert add(Tensor(up.data, requires_grad=True), gate)._remake is None
    with no_grad():
        assert attention_probs(Tensor(q, requires_grad=True),
                               Tensor(k, requires_grad=True), 0.5)._remake is None
    out = rms_norm(Tensor(x, requires_grad=True), Tensor(np.ones(4)))
    out.data = up  # a new array: the remake would rebuild the old one
    assert out._remake is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_remade_attention_probabilities_give_bit_identical_gradients(dtype):
    # softmax over q kT keeps two numbers per row and remakes its output in
    # backward; a reshape between the two (a view, with no remake) makes
    # softmax keep its output as before.  Every gradient matches.
    rng = np.random.default_rng(8)
    shape = (2, 3, 17, 8)
    arrays = [(rng.standard_normal(shape) * 2.0).astype(dtype) for _ in range(3)]
    w = Tensor(rng.standard_normal(shape).astype(dtype))
    grads = []
    for view in (False, True):
        q, k, v = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        scores = matmul(q, transpose(k, (0, 1, 3, 2)))
        if view:
            scores = reshape(scores, shape[:-1] + (17,))
        probs = softmax(scores, 0.25, causal_mask(17, dtype))
        assert (probs._remake is None) is view
        sum_all(mul(matmul(probs, v), w)).backward()
        grads.append([t.grad for t in (q, k, v)])
    assert grads[0][0].dtype == dtype
    for kept, remade in zip(*grads):
        assert np.array_equal(kept, remade)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_remade_swiglu_projections_give_bit_identical_gradients(dtype):
    # The gate and up projections over an rms_norm output are remade in
    # backward; a reshape between them and silu (a view, with no remake)
    # makes silu keep them as before.  Every gradient matches.
    grads = []
    for view in (False, True):
        rng = np.random.default_rng(9)
        gated, leaves = swiglu(rng, dtype, view)
        w_down = Tensor((rng.standard_normal((9, 24)) * 0.5).astype(dtype),
                        requires_grad=True)
        w = Tensor(rng.standard_normal((2, 5, 9)).astype(dtype))
        sum_all(mul(matmul(gated, transpose(w_down)), w)).backward()
        grads.append([t.grad for t in (*leaves, w_down)])
    assert grads[0][0].dtype == dtype
    for remade, kept in zip(*grads):
        assert np.array_equal(remade, kept)


def test_fused_silu_rejects_a_mismatched_up():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        silu(x, Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        silu(x, Tensor(np.ones((2, 3), dtype=np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b_shape", [(2, 5, 24), (24,), (5, 1)])
@pytest.mark.parametrize("s", [0.37, 1.0])
def test_scaled_add_is_bit_identical_to_add_of_scale(dtype, b_shape, s):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 5, 24)).astype(dtype)
    b = rng.standard_normal(b_shape).astype(dtype)
    w = Tensor(rng.standard_normal((2, 5, 24)).astype(dtype))
    fused_in = [Tensor(v.copy(), requires_grad=True) for v in (a, b)]
    chain_in = [Tensor(v.copy(), requires_grad=True) for v in (a, b)]
    fused = add(fused_in[0], fused_in[1], scale=s)
    chain = add(chain_in[0], scale(chain_in[1], s))
    assert fused.dtype == chain.dtype == dtype
    assert np.array_equal(fused.data, chain.data)
    sum_all(mul(fused, w)).backward()
    sum_all(mul(chain, w)).backward()
    for f, c in zip(fused_in, chain_in):
        assert f.grad.dtype == c.grad.dtype == dtype
        assert np.array_equal(f.grad, c.grad)
    assert not np.shares_memory(fused_in[0].grad, fused_in[1].grad)


def test_fused_softmax_causal_rows():
    seq = 7
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, seq, seq)) * 10.0)
    y = softmax(x, 0.37, causal_mask(seq, np.float64)).data
    above = np.triu_indices(seq, k=1)
    assert np.all(y[..., above[0], above[1]] == 0.0)
    assert np.all(y[..., np.arange(seq), np.arange(seq)] > 0.0)
    assert y.sum(axis=-1) == pytest.approx(np.ones((2, 3, seq)), abs=1e-12)


def test_fused_softmax_keeps_the_probe_when_overflow_is_possible():
    huge = np.array([[3e38, -3e38, 0.0]], dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        # |scale| <= 1 and a small finite mask: huge finite scores give
        # finite probabilities (-3e38 - 3e38 overflows only to exp's 0).
        y = softmax(Tensor(huge), 1.0, np.array([0.0, 0.0, -1e9], dtype=np.float32))
        assert np.array_equal(y.data, np.array([[1.0, 0.0, 0.0]], dtype=np.float32))
        # A scale above 1 overflows the scores to inf: inf - inf is nan.
        with pytest.raises(NonFiniteError):
            softmax(Tensor(huge), 2.0)
        # So does a mask too large to add safely to every finite score.
        with pytest.raises(NonFiniteError):
            softmax(Tensor(np.full((1, 2), -3e38, dtype=np.float32)), 1.0,
                    np.full(2, -3e38, dtype=np.float32))


def test_rms_norm_of_zeros_is_zero():
    y = rms_norm(Tensor(np.zeros((3, 5))), Tensor(np.ones(5)))
    assert np.array_equal(y.data, np.zeros((3, 5)))


def test_cross_entropy_uniform_logits():
    # All-zero logits over 256 classes: loss is exactly ln 256.
    logits = Tensor(np.zeros((7, 256)))
    loss = cross_entropy(logits, np.arange(7))
    assert loss.data.dtype == np.float64
    assert float(loss.data) == pytest.approx(np.log(256.0), abs=1e-12)


def test_cross_entropy_loss_is_float64_even_for_float32_inputs():
    logits = Tensor(np.zeros((3, 8), dtype=np.float32), requires_grad=True)
    loss = cross_entropy(logits, np.zeros(3, dtype=np.int64))
    assert loss.data.dtype == np.float64
    loss.backward()
    assert logits.grad.dtype == np.float32


def test_sum_backward_is_ones():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    sum_all(x).backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_quadratic_gradient_exact():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    sum_all(mul(x, x)).backward()
    assert np.array_equal(x.grad, 2.0 * x.data)


def test_reuse_accumulates():
    x = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    sum_all(add(x, x)).backward()
    assert np.array_equal(x.grad, np.array([2.0, 2.0]))

    x.zero_grad()
    a = Tensor(np.array([1.0, 10.0]))
    b = Tensor(np.array([100.0, 1000.0]))
    loss = add(sum_all(mul(x, a)), sum_all(mul(x, b)))
    loss.backward()
    assert np.array_equal(x.grad, a.data + b.data)


def test_embedding_duplicate_ids_accumulate():
    w = Tensor(np.eye(4), requires_grad=True)
    out = embedding(w, np.array([0, 0, 2]))
    sum_all(out).backward()
    expect = np.zeros((4, 4))
    expect[0] = 2.0
    expect[2] = 1.0
    assert np.array_equal(w.grad, expect)


def test_add_broadcast_bias_gradient_is_row_sum():
    x = Tensor(np.zeros((3, 4)))
    b = Tensor(np.zeros(4), requires_grad=True)
    w = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
    sum_all(mul(add(x, b), w)).backward()
    assert np.array_equal(b.grad, w.data.sum(axis=0))


def test_rope_preserves_norm():
    # With the same angle repeated across both halves (the cache layout),
    # each (i, i+half) pair is a pure 2-D rotation, so vector norms survive.
    rng = np.random.default_rng(0)
    half = rng.standard_normal((5, 4))
    theta = np.concatenate([half, half], axis=-1)
    cos, sin = np.cos(theta), np.sin(theta)
    x = rng.standard_normal((2, 5, 8))
    y = rope(Tensor(x), cos, sin)
    assert np.linalg.norm(y.data, axis=-1) == pytest.approx(
        np.linalg.norm(x, axis=-1), rel=1e-12)


# ---------------------------------------------------------------------------
# Mechanics and failure modes
# ---------------------------------------------------------------------------

def test_determinism_bit_identical():
    def build():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        loss = cross_entropy(matmul(silu(x), w), np.array([0, 1, 0]))
        loss.backward()
        return float(loss.data), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = build()
    l2, gx2, gw2 = build()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_overflow_raises_nonfinite():
    big = Tensor(np.full((2, 2), 1e38, dtype=np.float32))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        mul(big, big)


def test_probe_tolerates_an_overflowing_sum_of_finite_values():
    # The probe's float32 sums overflow to inf, yet every element is finite.
    big = Tensor(np.full((4, 4), 3e38, dtype=np.float32))
    out = add(big, Tensor(np.zeros((4, 4), dtype=np.float32)))
    assert np.all(out.data == np.float32(3e38))
    for bad in (np.inf, -np.inf, np.nan):
        x = np.full((4, 4), 3e38, dtype=np.float32)
        x[1, 2] = bad
        with pytest.raises(NonFiniteError):
            add(Tensor(x), Tensor(np.zeros((4, 4), dtype=np.float32)))


@pytest.mark.parametrize("size", [1, 7, 33, 1001])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_probe_catches_a_single_nonfinite_anywhere(size, bad):
    # Sizes off any vector width, so vector bodies and scalar tails both run.
    for dtype in (np.float32, np.float64):
        for where in sorted({0, size // 2, size - 1}):
            x = np.random.default_rng(size).standard_normal(size).astype(dtype)
            x[where] = bad
            with pytest.raises(NonFiniteError):
                scale(Tensor(x), 1.0)
            # A non-contiguous output: add keeps its input's transposed layout.
            col = Tensor(np.stack([x, x], axis=1))
            with pytest.raises(NonFiniteError):
                add(transpose(col), 0.0)


def test_leaf_gradients_share_no_memory():
    rng = np.random.default_rng(4)
    x, y, w = leaf(rng, 3, 4), leaf(rng, 3, 4), leaf(rng, 3, 4)
    c = rng.standard_normal((3, 4))
    s = add(x, y)                      # one add feeds two leaves
    u = add(add(s, mul(w, w)), x)      # w used twice, x reached twice
    sum_all(mul(u, Tensor(c))).backward()
    assert np.array_equal(x.grad, 2.0 * c)
    assert np.array_equal(y.grad, c)
    assert np.array_equal(w.grad, c * w.data + c * w.data)
    grads = [x.grad, y.grad, w.grad]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.shares_memory(grads[i], grads[j]), (i, j)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        add(x, x).backward()


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 3))))


def test_embedding_validation():
    w = Tensor(np.eye(4))
    with pytest.raises(ValueError):
        embedding(w, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        embedding(w, np.array([0, 4]))
    with pytest.raises(ValueError):
        embedding(w, np.array([-1]))


def test_cross_entropy_validation():
    logits = Tensor(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.zeros((4,), dtype=np.int64))
    with pytest.raises(ValueError):
        cross_entropy(logits, np.array([0, 1, 5]))


def test_rope_validation():
    x = Tensor(np.zeros((2, 3, 5)))
    cos = np.ones((3, 5))
    with pytest.raises(ValueError):
        rope(x, cos, cos)
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        rope(x, np.ones((3, 6)), np.ones((3, 6)))


def test_grad_check_reports_failure_metadata():
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    report = grad_check(lambda t: sum_all(mul(t, t)), x)
    assert report.passed
    assert report.max_rel_error <= report.tolerance
    assert len(report.worst_index) == 2


def test_grad_check_rejects_constant_function():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda t: sum_all(Tensor(np.ones(2))), x)


def test_no_grad_tracking_without_requires_grad():
    x = Tensor(np.ones((2, 2)))
    y = mul(x, x)
    assert not y.requires_grad
    assert y._node is None  # so no parents
    assert y._backward is None


def test_a_tensor_without_requires_grad_holds_no_gradient():
    rng = np.random.default_rng(8)
    x, w = leaf(rng, 3, 4), leaf(rng, 4, 5)
    assert w._node._parents == () and w._backward is None  # a leaf's node
    sum_all(matmul(x, w)).backward()
    assert w.grad is not None
    w.requires_grad = False
    assert w.grad is None
    with pytest.raises(ValueError):
        w.grad = np.ones((4, 5))
    w.zero_grad()  # clearing stays allowed
    w.requires_grad = True
    assert w.grad is None  # a fresh node: the old gradient does not return
    sum_all(matmul(x, w)).backward()
    assert x.grad is not None and w.grad is not None


def test_backward_on_a_scalar_without_grad_reaches_nothing():
    c = Tensor(np.array(2.0))
    c.backward()
    assert c.grad is None and not c.requires_grad
    x = Tensor(np.ones(3))
    loss = sum_all(x)
    loss.backward()
    assert loss.grad is None and x.grad is None


def test_leaf_gradient_takes_its_data_dtype():
    # A leaf cast after creation gets gradients in its new dtype; an
    # operand of another dtype still hands the leaf its own.
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    x.data = x.data.astype(np.float64)
    sum_all(mul(x, Tensor(np.full(3, 1.0 + 2.0 ** -40)))).backward()
    assert x.grad.dtype == np.float64 and x.grad[0] == 1.0 + 2.0 ** -40
    y = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    sum_all(add(y, Tensor(np.ones(3)))).backward()
    assert y.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# Graph lifetime and no_grad
# ---------------------------------------------------------------------------

def staged_model():
    """Two layers, the lower one frozen with live adapters."""
    cfg = ModelConfig(hidden_dim=48, head_count=4, max_seq_len=16)
    model = build_model(cfg, 2, seed=0)
    freeze_layers(model, [0])
    attach_adapters(model, [0], GrowthOptions(adapter_rank=4), seed=1)
    return model


def test_backward_frees_graph_without_cycle_collector():
    model = staged_model()
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 256, size=(2, 16))
    targets = rng.integers(0, 256, size=(2, 16))
    gc.collect()
    gc.disable()
    try:
        logits = forward(model, ids)
        loss = cross_entropy(logits, targets)
        loss.backward()
        assert logits.grad is None and loss.grad is None
        alive = weakref.ref(logits.data)
        del loss, logits
        # Reference counting alone must release the graph's activations.
        assert alive() is None
    finally:
        gc.enable()
    trainables = [(n, t) for n, t in named_parameters(model) if t.requires_grad]
    assert any(".adapters." in name for name, _ in trainables)
    for name, t in trainables:
        assert t.grad is not None and t.grad.shape == t.data.shape, name
    for name, t in named_parameters(model):
        if not t.requires_grad:
            assert t.grad is None, name


def test_graph_without_backward_is_freed_without_cycle_collector():
    model = staged_model()
    ids = np.random.default_rng(1).integers(0, 256, size=(2, 16))
    gc.collect()
    gc.disable()
    try:
        logits = forward(model, ids)
        assert logits.requires_grad and logits._backward is not None
        alive = weakref.ref(logits)
        alive_data = weakref.ref(logits.data)
        del logits
        # No closure holds its own output, so no node sits in a cycle.
        assert alive() is None and alive_data() is None
    finally:
        gc.enable()


def test_forward_keeps_only_what_backward_reads(monkeypatch):
    # An op output that no backward closure reads dies as soon as the
    # forward drops it: the adapter path's full-width A-product (the scaled
    # add keeps nothing), the raw attention scores (softmax keeps two
    # numbers per row) and the w_o product (the residual add keeps
    # nothing).  So do the attention probabilities and the rms_norm and
    # SwiGLU outputs: their consumers keep remakes, which backward rebuilds
    # from what softmax, the scores' product, rms_norm and silu keep.
    # rms_norm keeps its input.
    model = staged_model()
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 256, size=(2, 16))
    targets = rng.integers(0, 256, size=(2, 16))
    w_o = {id(layer.w_o.data) for layer in model.layers}
    adapter_a = {id(ad.a.data) for layer in model.layers
                 for ad in layer.adapters.values()}
    refs = {"a_product": [], "scores": [], "probs": [], "w_o": [],
            "norm_input": [], "norm_output": [], "silu_output": []}
    orig_matmul, orig_norm, orig_silu, orig_softmax = (
        autodiff.matmul, autodiff.rms_norm, autodiff.silu, autodiff.softmax)

    def matmul_(a, b):
        out = orig_matmul(a, b)
        base = id(b.data.base) if b.data.base is not None else None
        if out.data.shape == (2, 4, 16, 16):
            refs["scores"].append(weakref.ref(out.data))
        elif base in w_o:
            refs["w_o"].append(weakref.ref(out.data))
        elif base in adapter_a:
            refs["a_product"].append(weakref.ref(out.data))
        return out

    def rms_norm_(x, gain, eps=1e-5):
        refs["norm_input"].append(weakref.ref(x.data))
        out = orig_norm(x, gain, eps)
        refs["norm_output"].append(weakref.ref(out.data))
        return out

    def silu_(x, up=None):
        out = orig_silu(x, up)
        refs["silu_output"].append(weakref.ref(out.data))
        return out

    def softmax_(x, scale=1.0, mask=None):
        out = orig_softmax(x, scale, mask)
        refs["probs"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(autodiff, "matmul", matmul_)
    monkeypatch.setattr(autodiff, "softmax", softmax_)
    monkeypatch.setattr(autodiff, "rms_norm", rms_norm_)
    monkeypatch.setattr(autodiff, "silu", silu_)
    gc.collect()
    gc.disable()
    try:
        logits = forward(model, ids)
        assert {k: len(v) for k, v in refs.items()} == {
            "a_product": 7, "scores": 2, "probs": 2, "w_o": 2, "norm_input": 5,
            "norm_output": 5, "silu_output": 2}
        for kind in ("a_product", "scores", "probs", "w_o", "norm_output",
                     "silu_output"):
            assert all(r() is None for r in refs[kind]), kind
        assert all(r() is not None for r in refs["norm_input"])
        cross_entropy(logits, targets).backward()
    finally:
        gc.enable()
    for name, t in named_parameters(model):
        if not t.requires_grad:
            continue
        assert t.grad is not None and t.grad.shape == t.data.shape, name


def test_forward_keeps_no_ffn_width_array(monkeypatch):
    # SwiGLU is one node that saves remakes of the gate pre-activation and
    # up, not the arrays: each is a widening product over the rms_norm
    # output, whose remake backward runs anyway (an adapted gate's scaled
    # add is remade from its two products).  The w_down product (and its
    # adapter) keeps a remake of the gated product.  So every (batch, seq,
    # ffn) array dies in forward.
    model = staged_model()
    cfg = model.config
    ids = np.random.default_rng(0).integers(0, 256, size=(2, 16))
    ffn_shape = (2, 16, cfg.ffn_dim)
    made = []
    orig = autodiff._node

    def recording(data, parents, op, checked=True):
        out = orig(data, parents, op, checked)
        if out.data.shape == ffn_shape:
            made.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(autodiff, "_node", recording)
    gc.collect()
    gc.disable()
    try:
        logits = forward(model, ids)
        alive = sum(r() is not None for r in made)
        assert alive == 0 and len(made) > 0, (alive, len(made))
        del logits
    finally:
        gc.enable()


def test_replaced_backward_closure_is_called(monkeypatch):
    # A profiler may wrap an op output's _backward and Tensor.backward by
    # assignment; the walk must call the wrappers and still reach the leaves.
    rng = np.random.default_rng(4)
    x, w = leaf(rng, 3, 4), leaf(rng, 4, 5)
    sum_all(silu(matmul(x, w))).backward()
    expect = x.grad.copy(), w.grad.copy()
    x.zero_grad()
    w.zero_grad()

    calls = []
    orig_backward = Tensor.backward

    def backward(self):
        calls.append("Tensor.backward")
        orig_backward(self)

    monkeypatch.setattr(Tensor, "backward", backward)
    y = matmul(x, w)
    closure = y._backward
    assert callable(closure)

    def wrapped():
        calls.append("matmul")
        closure()

    y._backward = wrapped
    assert y._backward is wrapped
    sum_all(silu(y)).backward()
    assert calls == ["Tensor.backward", "matmul"]
    assert y._backward is None and y.grad is None
    assert np.array_equal(x.grad, expect[0]) and np.array_equal(w.grad, expect[1])


def test_no_grad_records_nothing():
    rng = np.random.default_rng(3)
    x = leaf(rng, 2, 4, 6)
    w = leaf(rng, 6, 6)
    table = leaf(rng, 10, 6)
    theta = rng.standard_normal((4, 6))
    with no_grad():
        outs = [add(x, x), add(x, x, scale=0.5), mul(x, x), scale(x, 2.0),
                matmul(x, w), silu(x), silu(x, x),
                softmax(x), softmax(x, 0.5, np.zeros((4, 6))),
                rms_norm(x, leaf(rng, 6)),
                embedding(table, np.array([1, 2])),
                cross_entropy(x, np.zeros((2, 4), dtype=np.int64)),
                reshape(x, (8, 6)), transpose(x),
                rope(x, np.cos(theta), np.sin(theta)), sum_all(x)]
    for out in outs:
        assert not out.requires_grad
        assert out._node is None  # so no parents
        assert out._backward is None
    assert mul(x, x).requires_grad


def test_no_grad_restores_mode_after_exception_and_nesting():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside")
    assert mul(x, x).requires_grad
    with no_grad():
        with no_grad():
            assert not mul(x, x).requires_grad
        assert not mul(x, x).requires_grad
    assert mul(x, x).requires_grad


def test_perplexity_matches_grad_enabled_forward():
    model = staged_model()
    ids = np.random.default_rng(5).integers(0, 256, 200, dtype=np.uint8)
    report = perplexity(model, TokenStream(ids, "test", "validation"),
                        seq_len=16,
                        options=EvalOptions(batch_size=3, max_windows=7))
    total = 0.0
    for start in range(0, 7, 3):
        block = np.stack([ids[w * 16:w * 16 + 17]
                          for w in range(start, min(start + 3, 7))])
        block = block.astype(np.int64)
        loss = cross_entropy(forward(model, block[:, :-1]), block[:, 1:])
        assert loss.requires_grad
        total += float(loss.data) * block[:, 1:].size
    mean = total / (7 * 16)
    assert report.tokens == 7 * 16
    assert report.loss == mean
    assert report.ppl == float(np.exp(mean))
