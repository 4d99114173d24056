"""Minimal reverse-mode autodiff over dense numpy arrays.

Just enough machinery for a small decoder: a `Tensor` wrapping an ndarray,
a handful of differentiable ops, and topological-order backpropagation.
Ops are dtype-generic (float32 for training, float64 for gradient checks)
with reductions accumulated in float64 where it matters numerically.

A graph is backpropagated once.  `Tensor.backward` releases it as it
walks: each node loses its closure and parents before its gradient flows
on, and an interior node's `.grad` is dropped once consumed, so reference
counting alone frees every activation the graph saved.  Leaves (nodes
without a backward closure, such as parameters) keep their `.grad`.
A backward closure reaches its own output only through a weak reference,
so a graph that is built but never backpropagated holds no reference
cycle either: dropping its output frees it.  Inside `no_grad()` ops record
nothing at all: outputs do not require grad, and no parents or closures
are kept.  Evaluation runs there.

Gradient ownership: no two tensors' `.grad` share memory.  The first
gradient a tensor receives from an op's backward is a fresh array (or a
view of the consumed output's `.grad`, which is dropped right after), so
`Tensor.accumulate_grad` takes it over instead of zero-filling and adding.
An array that another consumer may still see is copied before it is
handed over: the second operand's share of an `add` whose first operand
took a view of the same gradient.

`matmul` with a 2-D right operand (a weight) folds the left operand's
leading dimensions in backward, so each gradient is one 2-D GEMM and the
weight gradient needs no reduction over a batch of products.  Its forward
keeps numpy's own product, so forward values do not depend on the fold.

`softmax(x, scale, mask)` is attention's whole scale -> mask -> softmax
chain as one node: it computes softmax(scale * x + mask) in one output
buffer, in the chain's rounding order.  The graph keeps one (batch, head,
seq, seq) output where the chain kept three, and values and gradients stay
bit-identical to the chain's.

Every forward op validates that its output is finite and raises
NonFiniteError otherwise, so overflow surfaces at the op that produced it
instead of three layers later.  The probe is the output's dot product
with itself in its own dtype (one BLAS call); a non-finite result, which
finite values can also produce when the sum of squares overflows, falls
back to an exact element-wise check.  Four ops skip the probe because
their output is bounded by finite input: the view ops `reshape` and
`transpose` (a view of a checked array), `silu` (|silu(x)| <= |x|) and
`softmax` (output in [0, 1]) when its scale is at most 1 in magnitude and
its mask is small enough that scale * x + mask cannot overflow; any other
`softmax` is probed.  Backward passes are not guarded: the training loop
inspects gradients itself so it can skip a bad step rather than crash.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

_FLOAT_KINDS = ("f",)


_GRAD_ENABLED: ContextVar[bool] = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Run ops without recording a graph; the previous mode returns on exit."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class NonFiniteError(ArithmeticError):
    """A forward op produced inf or nan from finite inputs."""


def _squares_sum_finite(data: np.ndarray) -> bool:
    """Whether the array's dot product with itself, in its own dtype, is finite.

    The squares are non-negative, so an inf cannot cancel and a nan
    propagates: True means every value is finite and at most
    sqrt(finfo.max) in magnitude.  False may also mean finite values whose
    sum of squares overflowed.
    """
    flat = data.ravel("K")
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.dot(flat, flat)))


def _ensure_finite(data: np.ndarray, op: str) -> None:
    if data.dtype.kind not in _FLOAT_KINDS:
        return
    # Cheap probe first (one BLAS call); an overflowed sum of squares of
    # finite values lands in the exact check below.
    if _squares_sum_finite(data):
        return
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g into .grad; the first call takes g over as .grad, uncopied.

        Pass only an array that no other tensor or caller sees afterwards.
        """
        if self.grad is None:
            self.grad = (g if g.dtype == self.data.dtype
                         else g.astype(self.data.dtype))
        else:
            self.grad += g

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        """Backpropagate from a scalar into the .grad of every leaf it reaches.

        The graph is consumed: each node is detached (no closure, no
        parents) before its gradient flows on, and interior nodes drop
        their .grad afterwards.  Leaves keep theirs.  A second call on the
        same output therefore reaches nothing.
        """
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, emitted = stack.pop()
            if emitted:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            closure = node._backward
            if closure is None:
                continue
            node._backward = None
            node._parents = ()
            closure()
            node.grad = None


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
          checked: bool = True) -> Tensor:
    if checked:
        _ensure_finite(data, op)
    out = Tensor(data, requires_grad=_GRAD_ENABLED.get()
                 and any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(p for p in parents if p.requires_grad)
    return out


def _attach(out: Tensor, back) -> None:
    """Make back(out.grad) out's zero-argument backward closure.

    The closure holds out weakly; a strong reference would put every node
    in a cycle that only the cyclic collector frees.
    """
    ref = weakref.ref(out)
    out._backward = lambda: back(ref().grad)


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = _node(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _back(g):
            ga = None
            if a.requires_grad:
                ga = _unbroadcast(g, a.data.shape)
                a.accumulate_grad(ga)
            if b.requires_grad:
                gb = _unbroadcast(g, b.data.shape)
                if ga is not None and np.may_share_memory(ga, gb):
                    gb = gb.copy()  # a may have taken this buffer over
                b.accumulate_grad(gb)
        _attach(out, _back)
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _back(g):
            if a.requires_grad:
                a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))
        _attach(out, _back)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = _node(a.data * s, (a,), "scale")
    if out.requires_grad:
        def _back(g):
            a.accumulate_grad(g * s)
        _attach(out, _back)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = _node(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        if b.data.ndim == 2:
            def _back(g):
                # Fold a's leading dimensions: one 2-D GEMM per gradient.
                k, n = b.data.shape
                g2 = g.reshape(-1, n)
                if a.requires_grad:
                    a.accumulate_grad((g2 @ b.data.T).reshape(a.data.shape))
                if b.requires_grad:
                    a2 = a.data.reshape(-1, k)
                    # In b's layout: a weight used as transpose(w) then
                    # gets a C-ordered gradient, as its optimizer moments.
                    b.accumulate_grad((g2.T @ a2).T if b.data.flags.f_contiguous
                                      else a2.T @ g2)
        else:
            def _back(g):
                if a.requires_grad:
                    a.accumulate_grad(_unbroadcast(
                        g @ np.swapaxes(b.data, -1, -2), a.data.shape))
                if b.requires_grad:
                    b.accumulate_grad(_unbroadcast(
                        np.swapaxes(a.data, -1, -2) @ g, b.data.shape))
        _attach(out, _back)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x: Tensor) -> Tensor:
    sig = _sigmoid(x.data)
    # |x * sigmoid(x)| <= |x|: finite input, finite output; no probe.
    out = _node(x.data * sig, (x,), "silu", checked=False)
    if out.requires_grad:
        def _back(g):
            x.accumulate_grad(g * sig * (1.0 + x.data * (1.0 - sig)))
        _attach(out, _back)
    return out


def softmax(x: Tensor, scale: float = 1.0, mask=None) -> Tensor:
    """softmax(scale * x + mask) over the last axis, max-subtracted.

    mask is an optional constant additive array broadcastable to x (no
    gradient flows into it).  One output buffer holds every stage: scale,
    mask, row max, exp and normalization run in place, in the rounding
    order of the scale -> add -> softmax chain they replace, so values and
    gradients are bit-identical to that chain.  The backward is computed in
    place in the output's gradient: (g - sum(g * y)) * y * scale.

    With |scale| <= 1 and a mask whose sum of squares is finite (so every
    |mask| <= sqrt(finfo.max), far below half an ulp of finfo.max in
    float32 and float64), finite x cannot overflow scale * x + mask.  Each
    row's maximum then gives exp(0) = 1 and the output lies in [0, 1], so
    there is no probe.  Otherwise the output is probed like any other op's.
    """
    scale = float(scale)
    y = x.data * scale
    bounded = abs(scale) <= 1.0
    if mask is not None:
        mask = np.asarray(mask, dtype=y.dtype)
        y += mask
        bounded = bounded and _squares_sum_finite(mask)
    y -= np.fmax.reduce(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = _node(y, (x,), "softmax", checked=not bounded)
    if out.requires_grad:
        def _back(g):
            # g is the consumed output's own gradient: overwrite it.
            g -= (g * y).sum(axis=-1, keepdims=True)
            g *= y
            g *= scale
            x.accumulate_grad(g)
        _attach(out, _back)
    return out


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by `gain`."""
    n = x.data.shape[-1]
    ms = np.mean(np.square(x.data), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    normed = x.data * inv
    out = _node(normed * gain.data, (x, gain), "rms_norm")
    if out.requires_grad:
        def _back(g):
            if gain.requires_grad:
                gain.accumulate_grad(_unbroadcast(g * normed, gain.data.shape))
            if x.requires_grad:
                du = g * gain.data
                proj = (du * x.data).sum(axis=-1, keepdims=True) / n
                x.accumulate_grad(inv * du - (inv ** 3) * x.data * proj)
        _attach(out, _back)
    return out


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup: weight is (vocab, dim), ids any integer array."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in ("i", "u"):
        raise ValueError(f"ids must be integers, got dtype {ids.dtype}")
    vocab = weight.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise ValueError(f"ids out of range for vocab {vocab}")
    out = _node(weight.data[ids], (weight,), "embedding")
    if out.requires_grad:
        def _back(g):
            gw = np.zeros_like(weight.data)
            np.add.at(gw, ids, g)
            weight.accumulate_grad(gw)
        _attach(out, _back)
    return out


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean token cross-entropy; the loss is always a float64 scalar.

    logits: (..., vocab); targets: integer array of the leading shape.
    Log-sum-exp is max-subtracted; the mean reduction runs in float64.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.data.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.data.shape[:-1]}")
    flat = logits.data.reshape(-1, logits.data.shape[-1])
    tgt = targets.reshape(-1)
    vocab = flat.shape[1]
    if tgt.size and (tgt.min() < 0 or tgt.max() >= vocab):
        raise ValueError(f"targets out of range for vocab {vocab}")
    m = np.fmax.reduce(flat, axis=1, keepdims=True)
    ex = flat - m
    np.exp(ex, out=ex)
    lse = np.log(ex.sum(axis=1)) + m[:, 0]
    picked = flat[np.arange(flat.shape[0]), tgt]
    losses = (lse - picked).astype(np.float64)
    out = _node(np.asarray(losses.mean()), (logits,), "cross_entropy")
    if out.requires_grad:
        def _back(g):
            probs = ex  # the forward's exp, normalized in place: runs once
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(flat.shape[0]), tgt] -= 1.0
            probs *= float(g) / flat.shape[0]
            logits.accumulate_grad(probs.reshape(logits.data.shape))
        _attach(out, _back)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _node(x.data.reshape(shape), (x,), "reshape", checked=False)
    if out.requires_grad:
        def _back(g):
            x.accumulate_grad(g.reshape(x.data.shape))
        _attach(out, _back)
    return out


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(x.data.ndim)))
    out = _node(x.data.transpose(axes), (x,), "transpose", checked=False)
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        def _back(g):
            x.accumulate_grad(g.transpose(inverse))
        _attach(out, _back)
    return out


def _rotate_half(v: np.ndarray) -> np.ndarray:
    half = v.shape[-1] // 2
    return np.concatenate([-v[..., half:], v[..., :half]], axis=-1)


def rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary position mixing: x * cos + rotate_half(x) * sin.

    x is (..., seq, head_dim) with even head_dim; cos/sin are constant
    (seq, head_dim) tables (see model.rope_cache).
    """
    if x.data.shape[-1] % 2 != 0:
        raise ValueError(f"head_dim must be even, got {x.data.shape[-1]}")
    if cos.shape != x.data.shape[-2:] or sin.shape != x.data.shape[-2:]:
        raise ValueError(
            f"cos/sin shape {cos.shape} must equal {x.data.shape[-2:]}")
    out = _node(x.data * cos + _rotate_half(x.data) * sin, (x,), "rope")
    if out.requires_grad:
        def _back(g):
            gs = g * sin
            half = gs.shape[-1] // 2
            adj = np.concatenate([gs[..., half:], -gs[..., :half]], axis=-1)
            x.accumulate_grad(g * cos + adj)
        _attach(out, _back)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar of the same dtype."""
    out = _node(np.asarray(x.data.sum()), (x,), "sum_all")
    if out.requires_grad:
        def _back(g):
            x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())
        _attach(out, _back)
    return out


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_diff: float
    max_rel_error: float
    worst_index: tuple[int, ...]
    tolerance: float
    passed: bool


def grad_check(f, x: Tensor, tolerance: float = 1e-3,
               step: float = 1e-3) -> GradCheckReport:
    """Compare f's reverse-mode gradient at x against central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic.  Run with
    float64 data; float32 round-off easily exceeds any sensible tolerance.
    The finite-difference evaluations run under no_grad.
    """
    x.zero_grad()
    loss = f(x)
    loss.backward()
    if x.grad is None:
        raise ValueError("f does not depend on x (no gradient reached it)")
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(f(x).data)
            flat[i] = keep - step
            lo = float(f(x).data)
            flat[i] = keep
            num_flat[i] = (hi - lo) / (2.0 * step)

    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = diff / denom
    worst = int(np.argmax(rel))
    return GradCheckReport(
        max_abs_diff=float(diff.reshape(-1)[worst]),
        max_rel_error=float(rel.reshape(-1)[worst]),
        worst_index=tuple(np.unravel_index(worst, x.data.shape)),
        tolerance=tolerance,
        passed=bool(rel.max() <= tolerance),
    )
