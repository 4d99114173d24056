"""Minimal reverse-mode autodiff over dense numpy arrays.

Just enough machinery for a small decoder: a `Tensor` wrapping an ndarray,
a handful of differentiable ops, and topological-order backpropagation.
Ops are dtype-generic (float32 for training, float64 for gradient checks)
with reductions accumulated in float64 where it matters numerically.

Graph bookkeeping is kept apart from values, as PyTorch keeps a tensor
apart from its grad_fn and saved tensors.  An op output's `Tensor` holds
its array.  What its consumers link to is a `_Node`, which holds no data:
the output's gradient, the nodes of its inputs that take a gradient, and
its backward closure.  A leaf (a parameter, or any tensor no op made) is
its own node.  Each closure saves exactly the arrays its formula reads:

    matmul, mul      per operand that takes a gradient, the other operand
    silu             its input (the sigmoid is recomputed)
    silu with up     its input and up (the sigmoid and silu are recomputed)
    rms_norm         its input, the per-row 1/rms and the gain
    softmax          its own output
    cross_entropy    the forward's exp, not the logits
    add (with or without scale), scale, reshape, transpose, rope,
    embedding, sum_all: no input array

So an output that no closure reads is freed as soon as the forward drops
its handle: in the model, the adapter path's full-width A-products, the
raw attention scores, the rope inputs and the residual branches' products.

A graph is backpropagated once.  `Tensor.backward` releases it as it
walks: each node loses its closure and parents before its gradient flows
on, and an interior node's `.grad` is dropped once consumed, so reference
counting alone frees every array the graph saved.  Leaves keep their
`.grad`.  A backward closure reaches its own node only through a weak
reference, so a graph that is built but never backpropagated holds no
reference cycle either: dropping its output frees it.  Inside `no_grad()`
ops record nothing at all: outputs do not require grad and get no node.
Evaluation runs there.

Gradient ownership: no two tensors' `.grad` share memory.  The first
gradient a tensor receives from an op's backward is a fresh array (or a
view of the consumed output's `.grad`, which is dropped right after), so
`Tensor.accumulate_grad` takes it over instead of zero-filling and adding.
An array that another consumer may still see is copied before it is
handed over: the second operand's share of an unscaled `add` whose first
operand took a view of the same gradient.

`matmul` with a 2-D right operand (a weight) folds the left operand's
leading dimensions in backward, so each gradient is one 2-D GEMM and the
weight gradient needs no reduction over a batch of products.  Its forward
keeps numpy's own product, so forward values do not depend on the fold.

`softmax(x, scale, mask)` is attention's whole scale -> mask -> softmax
chain as one node: it computes softmax(scale * x + mask) in one output
buffer, in the chain's rounding order.  The graph keeps one (batch, head,
seq, seq) output where the chain kept three, and values and gradients stay
bit-identical to the chain's.

Two more chains are one node each, also bit-identical to the chain they
replace.  `silu(x, up)` is SwiGLU's mul(silu(x), up): the graph keeps x
and up, not silu's output.  `add(a, b, scale)` is the adapter path's
add(a, scale(b, s)): one node, whose b gradient is the scaled product.

Every forward op validates that its output is finite and raises
NonFiniteError otherwise, so overflow surfaces at the op that produced it
instead of three layers later.  The probe is the output's dot product
with itself in its own dtype (one BLAS call); a non-finite result, which
finite values can also produce when the sum of squares overflows, falls
back to an exact element-wise check.  Four ops skip the probe because
their output is bounded by finite input: the view ops `reshape` and
`transpose` (a view of a checked array), `silu` without `up` (|silu(x)| <=
|x|) and `softmax` (output in [0, 1]) when its scale is at most 1 in
magnitude and its mask is small enough that scale * x + mask cannot
overflow; any other `softmax` is probed.  Backward passes are not
guarded: the training loop inspects gradients itself so it can skip a bad
step rather than crash.
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
    """An array, and the handle to its node in the autodiff graph.

    A leaf (a tensor no op made, such as a parameter) is its own node and
    keeps its own .grad.  An op output that requires grad links to a
    `_Node`, which holds its gradient, parents and backward closure but not
    its data; .grad, ._parents and ._backward read and write that node.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is None:
            self._grad = value
        else:
            self._node.grad = value

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, closure) -> None:
        self._node._backward = closure

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
            self.grad = g if g.dtype == self.dtype else g.astype(self.dtype)
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
        root = self if self._node is None else self._node
        topo: list = []
        seen: set[int] = set()
        stack: list = [(root, False)]
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
                stack.append((parent, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            closure = node._backward
            if closure is None:
                continue
            node._backward = None
            node._parents = ()
            closure()
            node.grad = None


class _Node:
    """What the graph keeps of an op output: no data, only what backward needs.

    Its dtype (so a gradient is cast as the output's would be), its
    gradient, the nodes of the inputs that take a gradient, and the
    backward closure.
    """

    __slots__ = ("dtype", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, dtype, parents: tuple):
        self.dtype = dtype
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = None

    accumulate_grad = Tensor.accumulate_grad  # same rule, on the node's slots


def _sink(t: Tensor) -> Tensor | _Node | None:
    """The node t's gradient accumulates into, or None if it takes none."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


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
    out = Tensor(data)
    if _GRAD_ENABLED.get():
        linked = tuple(n for n in map(_sink, parents) if n is not None)
        if linked:
            out.requires_grad = True
            out._node = _Node(out.data.dtype, linked)
    return out


def _attach(out: Tensor, back) -> None:
    """Make back(grad) the zero-argument backward closure of out's node.

    The closure holds the node weakly; a strong reference would put every
    node in a cycle that only the cyclic collector frees.  back itself must
    not reach any input tensor, only the arrays its gradient formula reads.
    """
    ref = weakref.ref(out._node)
    out._node._backward = lambda: back(ref().grad)


def add(a: Tensor, b, scale: float = 1.0) -> Tensor:
    """a + b * scale; with a scale, the add(a, scale(b, s)) chain as one node.

    b * scale is rounded before the sum, as the chain rounds it, so values
    and gradients are bit-identical to the chain's.  b's gradient is
    scaled, and the product is a fresh array; at scale 1 the product is
    taken only when a took over a view of the same gradient.
    """
    b = _as_tensor(b, a)
    scale = float(scale)
    out = _node(a.data + (b.data if scale == 1.0 else b.data * scale),
                (a, b), "add")
    if out.requires_grad:
        na, nb = _sink(a), _sink(b)
        a_shape, b_shape = a.data.shape, b.data.shape

        def _back(g):
            ga = None
            if na is not None:
                ga = _unbroadcast(g, a_shape)
                na.accumulate_grad(ga)
            if nb is not None:
                gb = _unbroadcast(g, b_shape)
                if scale != 1.0 or (ga is not None and np.may_share_memory(ga, gb)):
                    gb = gb * scale  # a may have taken the unscaled buffer over
                nb.accumulate_grad(gb)
        _attach(out, _back)
    return out


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    out = _node(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        na, nb = _sink(a), _sink(b)
        a_shape, b_shape = a.data.shape, b.data.shape
        # Each operand's gradient reads the other operand.
        a_data = a.data if nb is not None else None
        b_data = b.data if na is not None else None

        def _back(g):
            if na is not None:
                na.accumulate_grad(_unbroadcast(g * b_data, a_shape))
            if nb is not None:
                nb.accumulate_grad(_unbroadcast(g * a_data, b_shape))
        _attach(out, _back)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = _node(a.data * s, (a,), "scale")
    if out.requires_grad:
        na = _sink(a)

        def _back(g):
            na.accumulate_grad(g * s)
        _attach(out, _back)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = _node(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        na, nb = _sink(a), _sink(b)
        a_shape, b_shape = a.data.shape, b.data.shape
        # Each operand's gradient reads the other operand: a frozen weight
        # saves no input, and a constant operand saves nothing.
        a_data = a.data if nb is not None else None
        b_data = b.data if na is not None else None
        if len(b_shape) == 2:
            k, n = b_shape
            # In b's layout: a weight used as transpose(w) then gets a
            # C-ordered gradient, as its optimizer moments.
            b_fortran = b.data.flags.f_contiguous

            def _back(g):
                # Fold a's leading dimensions: one 2-D GEMM per gradient.
                g2 = g.reshape(-1, n)
                if na is not None:
                    na.accumulate_grad((g2 @ b_data.T).reshape(a_shape))
                if nb is not None:
                    a2 = a_data.reshape(-1, k)
                    nb.accumulate_grad((g2.T @ a2).T if b_fortran else a2.T @ g2)
        else:
            def _back(g):
                if na is not None:
                    na.accumulate_grad(_unbroadcast(
                        g @ np.swapaxes(b_data, -1, -2), a_shape))
                if nb is not None:
                    nb.accumulate_grad(_unbroadcast(
                        np.swapaxes(a_data, -1, -2) @ g, b_shape))
        _attach(out, _back)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), in one buffer."""
    s = np.negative(x, out=np.empty_like(x))  # an array even when x is 0-d
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def silu(x: Tensor, up=None) -> Tensor:
    """x * sigmoid(x); with `up`, the mul(silu(x), up) chain as one node.

    `up` (SwiGLU's up projection) must have x's shape and dtype.  The
    product is formed as the chain forms it, (x * sigmoid(x)) * up, so
    values and gradients are bit-identical to the chain's, but the graph
    keeps only x and up.  Backward recomputes the sigmoid rather than keep
    an input-sized array from forward to backward, and allocates only it
    and up's gradient silu(x) * g; x's gradient,
    ((g * up) * sigmoid) * (1 + x * (1 - sigmoid)), is formed in place in
    the consumed output's gradient.
    """
    x_data = x.data
    y = x_data * _sigmoid(x_data)
    if up is None:
        parents, up_data = (x,), None
    else:
        up = _as_tensor(up, x)
        parents, up_data = (x, up), up.data
        if up_data.shape != x_data.shape or up_data.dtype != x_data.dtype:
            raise ValueError(f"up {up_data.shape} {up_data.dtype} must match x "
                             f"{x_data.shape} {x_data.dtype}")
        y *= up_data
    # |x * sigmoid(x)| <= |x|: finite input, finite output; the product with
    # up is probed, as mul's is.
    out = _node(y, parents, "silu", checked=up is not None)
    if out.requires_grad:
        nx = _sink(x)
        nup = None if up is None else _sink(up)
        # x's gradient reads x and up; up's reads x alone.
        saved_up = up_data if nx is not None else None

        def _back(g):
            sig = _sigmoid(x_data)
            if nup is not None:
                gu = x_data * sig
                gu *= g
                nup.accumulate_grad(gu)
            if nx is not None:
                # g is the consumed output's own gradient: overwrite it.
                if saved_up is not None:
                    g *= saved_up
                g *= sig
                np.subtract(1.0, sig, out=sig)
                sig *= x_data
                sig += 1.0
                g *= sig
                nx.accumulate_grad(g)
        _attach(out, _back)
    return out


def softmax(x: Tensor, scale: float = 1.0, mask=None) -> Tensor:
    """softmax(scale * x + mask) over the last axis, max-subtracted.

    mask is an optional constant additive array broadcastable to x (no
    gradient flows into it).  One output buffer holds every stage: scale,
    mask, row max, exp and normalization run in place, in the rounding
    order of the scale -> add -> softmax chain they replace, so values and
    gradients are bit-identical to that chain.  The backward reads only
    the output and is computed in place in the output's gradient:
    (g - sum(g * y)) * y * scale.

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
        nx = _sink(x)

        def _back(g):
            # g is the consumed output's own gradient: overwrite it.
            g -= (g * y).sum(axis=-1, keepdims=True)
            g *= y
            g *= scale
            nx.accumulate_grad(g)
        _attach(out, _back)
    return out


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by `gain`.

    The backward keeps x and the per-row 1/rms, and recomputes the
    normalized x (the forward's own multiply) for the gain's gradient.
    """
    x_data = x.data
    n = x_data.shape[-1]
    ms = np.mean(np.square(x_data), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)
    out = _node(x_data * inv * gain.data, (x, gain), "rms_norm")
    if out.requires_grad:
        nx, ngain = _sink(x), _sink(gain)
        gain_data, gain_shape = gain.data, gain.data.shape

        def _back(g):
            if ngain is not None:
                ngain.accumulate_grad(_unbroadcast(g * (x_data * inv), gain_shape))
            if nx is not None:
                du = g * gain_data
                proj = (du * x_data).sum(axis=-1, keepdims=True) / n
                nx.accumulate_grad(inv * du - (inv ** 3) * x_data * proj)
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
        nw = _sink(weight)
        w_shape, w_dtype = weight.data.shape, weight.data.dtype

        def _back(g):
            gw = np.zeros(w_shape, dtype=w_dtype)
            np.add.at(gw, ids, g)
            nw.accumulate_grad(gw)
        _attach(out, _back)
    return out


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean token cross-entropy; the loss is always a float64 scalar.

    logits: (..., vocab); targets: integer array of the leading shape.
    Log-sum-exp is max-subtracted; the mean reduction runs in float64.
    The backward keeps the forward's exp, not the logits.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.data.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.data.shape[:-1]}")
    flat = logits.data.reshape(-1, logits.data.shape[-1])
    tgt = targets.reshape(-1)
    rows, vocab = flat.shape
    if tgt.size and (tgt.min() < 0 or tgt.max() >= vocab):
        raise ValueError(f"targets out of range for vocab {vocab}")
    m = np.fmax.reduce(flat, axis=1, keepdims=True)
    ex = flat - m
    np.exp(ex, out=ex)
    lse = np.log(ex.sum(axis=1)) + m[:, 0]
    picked = flat[np.arange(rows), tgt]
    losses = (lse - picked).astype(np.float64)
    out = _node(np.asarray(losses.mean()), (logits,), "cross_entropy")
    if out.requires_grad:
        nl, logits_shape = _sink(logits), logits.data.shape

        def _back(g):
            probs = ex  # the forward's exp, normalized in place: runs once
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(rows), tgt] -= 1.0
            probs *= float(g) / rows
            nl.accumulate_grad(probs.reshape(logits_shape))
        _attach(out, _back)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _node(x.data.reshape(shape), (x,), "reshape", checked=False)
    if out.requires_grad:
        nx, x_shape = _sink(x), x.data.shape

        def _back(g):
            nx.accumulate_grad(g.reshape(x_shape))
        _attach(out, _back)
    return out


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(x.data.ndim)))
    out = _node(x.data.transpose(axes), (x,), "transpose", checked=False)
    if out.requires_grad:
        nx, inverse = _sink(x), tuple(np.argsort(axes))

        def _back(g):
            nx.accumulate_grad(g.transpose(inverse))
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
        nx = _sink(x)

        def _back(g):
            gs = g * sin
            half = gs.shape[-1] // 2
            adj = np.concatenate([gs[..., half:], -gs[..., :half]], axis=-1)
            nx.accumulate_grad(g * cos + adj)
        _attach(out, _back)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar of the same dtype."""
    out = _node(np.asarray(x.data.sum()), (x,), "sum_all")
    if out.requires_grad:
        nx, x_shape = _sink(x), x.data.shape

        def _back(g):
            nx.accumulate_grad(np.broadcast_to(g, x_shape).copy())
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
