"""Minimal reverse-mode autodiff over dense numpy arrays.

Just enough machinery for a small decoder: a `Tensor` wrapping an ndarray,
a handful of differentiable ops, and topological-order backpropagation.
Ops are dtype-generic (float32 for training, float64 for gradient checks)
with reductions accumulated in float64 where it matters numerically.

Graph bookkeeping is kept apart from values, as PyTorch keeps a tensor
apart from its grad_fn and saved tensors.  A `Tensor` holds its array;
every tensor that takes a gradient also has a `_Node`, which holds no
data: the gradient, the nodes of the inputs that take a gradient, and the
backward closure.  A leaf's node has no parents.  Clearing `requires_grad`
drops the node, gradient included.  Each closure saves exactly the arrays
its formula reads:

    matmul, mul      per operand that takes a gradient, the other operand,
                     or its remake
    silu             its input or its remake (the sigmoid is recomputed)
    silu with up     its input and up, or their remakes (the sigmoid and
                     silu are recomputed)
    rms_norm         its input, the per-row 1/rms and the gain
    softmax          over an input with a remake: the forward's per-row max
                     and sum; over any other input: its own output
    cross_entropy    the forward's exp, not the logits
    add (with or without scale), scale, reshape, transpose, rope,
    embedding, sum_all: no input array

Remake, don't keep: an op whose closure already saves every array of its
output's formula gives the output a remake, a zero-argument callable that
recomputes it from those arrays in the forward's own operation order, so
bit-identically.  These are rms_norm, silu (with up, when its closure
saves up), a batched matmul (right operand with ndim > 2) whose closure
saves both operands, and a softmax over an input with a remake, which
keeps two numbers per row instead of its output.  Two more ops remake
from their inputs' remakes.  A matmul with a 2-D weight whose output is
wider than its input (n > k) is remade as input @ weight when its input
has a remake or its closure keeps the input: what the remake reads is
kept anyway, and the output is the widest array it could save.  An add
whose two inputs both have remakes is remade from them, uncached, in the
forward's rounding order.  A consumer that would save the output saves
the remake and calls it in backward; the first call caches the array,
and the cache dies with the last closure that saved it.  A remake that
no consumer saves dies with its output.  No other op has a remake: rope
and an add over a plain input save nothing (a remake would keep their
inputs alive), an equal-width or narrowing product with a 2-D weight is
not worth a GEMM in backward (its output is no wider than the input a
remake would keep), and a softmax over a leaf or a view saves its own
output.

In the model the batched matmul is attention's q kT, and its softmax's
output is the probabilities: per layer the graph keeps two (batch, head,
seq) arrays where it kept a (batch, head, seq, seq) one.  Backward remakes
the probabilities once per layer, for `probs @ v`'s closure and softmax's,
which share the remake; softmax remakes the scores uncached and turns
them into the probabilities in place.  That remake is one extra GEMM per
layer in backward, 2 * seq * hidden_dim FLOPs per token.

The widening products are SwiGLU's gate and up, over the FFN's rms_norm
output (an adapted one is the scaled add of two such products, the
adapter's from its kept rank-r input), so silu saves their remakes and
forward keeps no (batch, seq, ffn) array.  Backward remakes gate and up
once per layer, for the w_down product's closure (through silu's remake)
and silu's, which share the remakes: two extra GEMMs per layer, (32/3) *
hidden_dim**2 FLOPs per token, plus (32/3) * rank * hidden_dim for an
adapted layer.  A count of executed FLOPs must include both remakes.

So an output that no closure reads is freed as soon as the forward drops
its handle: in the model, the adapter path's full-width A-products, the
raw attention scores, the rope inputs, the residual branches' products,
and the attention probabilities, the rms_norm outputs, the gate and up
projections and the SwiGLU outputs, which every op that reads them reads
through a remake.

A graph is backpropagated once.  `Tensor.backward` releases it as it
walks: each node loses its closure and parents before its gradient flows
on, and an interior node's `.grad` is dropped once consumed, so reference
counting alone frees every array the graph saved.  Leaf nodes keep their
`.grad`.  A backward closure reaches its own node only through a weak
reference, so a graph that is built but never backpropagated holds no
reference cycle either: dropping its output frees it.  Inside `no_grad()`
ops record nothing at all: outputs do not require grad and get no node.
Evaluation runs there.

Gradient ownership: no two tensors' `.grad` share memory.  The first
gradient a tensor receives from an op's backward is a fresh array (or a
view of the consumed output's `.grad`, which is dropped right after), so
`_Node.accumulate_grad` takes it over instead of zero-filling and adding.
An array that another consumer may still see is copied before it is
handed over: the second operand's share of an unscaled `add` whose first
operand took a view of the same gradient.

`matmul` with a 2-D right operand (a weight) folds the left operand's
leading dimensions in backward, so each gradient is one 2-D GEMM and the
weight gradient needs no reduction over a batch of products.  Its forward
keeps numpy's own product, so forward values do not depend on the fold.

`softmax(x, scale, mask)` is attention's whole scale -> mask -> softmax
chain as one node: it computes softmax(scale * x + mask) in one output
buffer, in the chain's rounding order.  Values and gradients stay
bit-identical to the chain's.

Two more chains are one node each, also bit-identical to the chain they
replace.  `silu(x, up)` is SwiGLU's mul(silu(x), up): the graph keeps x
and up (or their remakes), not silu's output or the product.
`add(a, b, scale)` is the adapter path's add(a, scale(b, s)): one node,
whose b gradient is the scaled product.

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

    requires_grad means "has a `_Node`"; clearing it drops the node and its
    gradient, so a tensor that takes no gradient never holds one.  A leaf's
    node keeps .grad across backward.  .grad and ._backward read and write
    the node.
    """

    __slots__ = ("_data", "_node", "_remake", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self._node: _Node | None = None
        self.data = data
        self.requires_grad = requires_grad

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value) -> None:
        self._data = np.asarray(value)
        self._remake = None  # it would rebuild the array just replaced
        if self._node is not None:  # a gradient takes its tensor's dtype
            self._node.dtype = self._data.dtype

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        if not value:
            self._node = None
        elif self._node is None:
            self._node = _Node(self._data.dtype, ())

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ValueError("a tensor that does not require grad holds no gradient")

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

    def backward(self) -> None:
        """Backpropagate from a scalar into the .grad of every leaf it reaches.

        The graph is consumed: each node is detached (no closure, no
        parents) before its gradient flows on, and interior nodes drop
        their .grad afterwards.  Leaves keep theirs.  A second call on the
        same output, or any call on a tensor without grad, reaches nothing.
        """
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar, got shape {self.data.shape}")
        root = self._node
        if root is None:
            return
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
    """What the graph keeps of a tensor that takes a gradient: no data.

    Its dtype (so a gradient is cast as the tensor's data would be), its
    gradient, the nodes of the inputs that take a gradient (none for a
    leaf), and the backward closure (None for a leaf).
    """

    __slots__ = ("dtype", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, dtype, parents: tuple):
        self.dtype = dtype
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g into .grad; the first g, which no one else may hold, becomes .grad."""
        if self.grad is None:
            self.grad = g if g.dtype == self.dtype else g.astype(self.dtype)
        else:
            self.grad += g


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
        linked = tuple(p._node for p in parents if p._node is not None)
        if linked:
            out._node = _Node(out.data.dtype, linked)
    return out


def _cached(make):
    """make as a remake: the first call runs it, later calls return its array.

    The cache lives in the returned callable, so it dies with the last
    consumer closure that saved it.  make must reach no tensor or node,
    only what the graph keeps anyway (the arrays its op's own closure
    saves, and its inputs' remakes), and must return a fresh array on
    each call: `remake.make` is make itself, for a consumer that
    overwrites the array it is given.
    """
    cache = []

    def remake() -> np.ndarray:
        if not cache:
            cache.append(make())
        return cache[0]
    remake.make = make
    return remake


def _saved(t: Tensor):
    """What a closure saves to read t's array: its remake if it has one."""
    return t._remake or t._data


def _load(saved) -> np.ndarray:
    return saved() if callable(saved) else saved


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
        na, nb = a._node, b._node
        a_shape, b_shape = a.data.shape, b.data.shape
        if a._remake is not None and b._remake is not None:
            # Both inputs are one remake away (an adapted gate or up), so the
            # sum is too.  The inputs are remade uncached: only the sum stays.
            make_a, make_b = a._remake.make, b._remake.make

            def make():
                y, z = make_a(), make_b()
                if scale != 1.0:
                    z *= scale
                return y + z
            out._remake = _cached(make)

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
        na, nb = a._node, b._node
        a_shape, b_shape = a.data.shape, b.data.shape
        # Each operand's gradient reads the other operand, or its remake.
        a_saved = _saved(a) if nb is not None else None
        b_saved = _saved(b) if na is not None else None

        def _back(g):
            if na is not None:
                na.accumulate_grad(_unbroadcast(g * _load(b_saved), a_shape))
            if nb is not None:
                nb.accumulate_grad(_unbroadcast(g * _load(a_saved), b_shape))
        _attach(out, _back)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = _node(a.data * s, (a,), "scale")
    if out.requires_grad:
        na = a._node

        def _back(g):
            na.accumulate_grad(g * s)
        _attach(out, _back)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2")
    out = _node(a.data @ b.data, (a, b), "matmul")
    if out.requires_grad:
        na, nb = a._node, b._node
        a_shape, b_shape = a.data.shape, b.data.shape
        # Each operand's gradient reads the other operand, or its remake: a
        # frozen weight saves no input, and a constant operand saves nothing.
        a_saved = _saved(a) if nb is not None else None
        b_saved = _saved(b) if na is not None else None
        if len(b_shape) == 2:
            k, n = b_shape
            # In b's layout: a weight used as transpose(w) then gets a
            # C-ordered gradient, as its optimizer moments.
            b_fortran = b.data.flags.f_contiguous
            if n > k and (a._remake is not None or a_saved is not None):
                # A widening product (SwiGLU's gate and up) over an input
                # that is remade or kept anyway: its output is one GEMM away.
                a_src, w = _saved(a), b.data
                out._remake = _cached(lambda: _load(a_src) @ w)

            def _back(g):
                # Fold a's leading dimensions: one 2-D GEMM per gradient.
                g2 = g.reshape(-1, n)
                if na is not None:
                    na.accumulate_grad((g2 @ _load(b_saved).T).reshape(a_shape))
                if nb is not None:
                    a2 = _load(a_saved).reshape(-1, k)
                    nb.accumulate_grad((g2.T @ a2).T if b_fortran else a2.T @ g2)
        else:
            if na is not None and nb is not None:
                # The closure keeps both operands, so the output (attention's
                # scores) is one GEMM away.
                out._remake = _cached(lambda: _load(a_saved) @ _load(b_saved))

            def _back(g):
                if na is not None:
                    na.accumulate_grad(_unbroadcast(
                        g @ np.swapaxes(_load(b_saved), -1, -2), a_shape))
                if nb is not None:
                    nb.accumulate_grad(_unbroadcast(
                        np.swapaxes(_load(a_saved), -1, -2) @ g, b_shape))
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
    keeps only x and up, or their remakes.  Backward recomputes the sigmoid
    rather than keep an input-sized array from forward to backward, and
    allocates only it and up's gradient silu(x) * g; x's gradient,
    ((g * up) * sigmoid) * (1 + x * (1 - sigmoid)), is formed in place in
    the consumed output's gradient.  Consumers get a remake of the output
    unless x takes no gradient and up does: only then does the closure
    not keep up.
    """
    x_data = x.data
    if up is None:
        parents, up_data = (x,), None
    else:
        up = _as_tensor(up, x)
        parents, up_data = (x, up), up.data
        if up_data.shape != x_data.shape or up_data.dtype != x_data.dtype:
            raise ValueError(f"up {up_data.shape} {up_data.dtype} must match x "
                             f"{x_data.shape} {x_data.dtype}")

    def make(x_data, up_data):
        y = x_data * _sigmoid(x_data)
        if up_data is not None:
            y *= up_data
        return y

    # |x * sigmoid(x)| <= |x|: finite input, finite output; the product with
    # up is probed, as mul's is.
    out = _node(make(x_data, up_data), parents, "silu", checked=up is not None)
    if out.requires_grad:
        nx = x._node
        nup = None if up is None else up._node
        # x's gradient reads x and up; up's reads x alone.  Each is saved
        # as its remake when it has one.
        saved_x = _saved(x)
        saved_up = _saved(up) if up is not None and nx is not None else None
        if up is None or saved_up is not None:
            out._remake = _cached(lambda: make(_load(saved_x), _load(saved_up)))

        def _back(g):
            x_data = _load(saved_x)
            sig = _sigmoid(x_data)
            if nup is not None:
                gu = x_data * sig
                gu *= g
                nup.accumulate_grad(gu)
            if nx is not None:
                # g is the consumed output's own gradient: overwrite it.
                if saved_up is not None:
                    g *= _load(saved_up)
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

    When x has a remake (in the model, attention's scores), the closure
    keeps the forward's row max and row sum instead of the output, and
    the output gets a remake: fresh scores, scaled in place, then the
    forward's own mask, subtract, exp and divide with those two arrays,
    so it is bit-identical.  Otherwise the closure keeps the output.

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
        bounded = bounded and _squares_sum_finite(mask)

    def normalize(y, stats=None):
        """softmax of y + mask in place, y holding scale * x; stats replays
        a forward's (row max, row sum).  Returns the two."""
        if mask is not None:
            y += mask
        row_max = np.fmax.reduce(y, axis=-1, keepdims=True) if stats is None else stats[0]
        y -= row_max
        np.exp(y, out=y)
        row_sum = y.sum(axis=-1, keepdims=True) if stats is None else stats[1]
        y /= row_sum
        return row_max, row_sum

    stats = normalize(y)
    out = _node(y, (x,), "softmax", checked=not bounded)
    if out.requires_grad:
        nx = x._node
        saved = y
        if x._remake is not None:
            make_scores = x._remake.make

            def make():
                y = make_scores()  # not cached: it becomes the output
                y *= scale
                normalize(y, stats)
                return y
            saved = out._remake = _cached(make)

        def _back(g):
            y = _load(saved)
            # g is the consumed output's own gradient: overwrite it.
            g -= (g * y).sum(axis=-1, keepdims=True)
            g *= y
            g *= scale
            nx.accumulate_grad(g)
        _attach(out, _back)
    return out


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by `gain`.

    The backward keeps x, the per-row 1/rms and the gain, and recomputes
    the normalized x (the forward's own multiply) for the gain's gradient.
    Consumers get a remake of the output from the same three arrays.
    """
    x_data, gain_data = x.data, gain.data
    n = x_data.shape[-1]
    ms = np.mean(np.square(x_data), axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + eps)

    def make():
        return x_data * inv * gain_data

    out = _node(make(), (x, gain), "rms_norm")
    if out.requires_grad:
        nx, ngain = x._node, gain._node
        gain_shape = gain_data.shape
        out._remake = _cached(make)

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
        nw = weight._node
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
        nl, logits_shape = logits._node, logits.data.shape

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
        nx, x_shape = x._node, x.data.shape

        def _back(g):
            nx.accumulate_grad(g.reshape(x_shape))
        _attach(out, _back)
    return out


def transpose(x: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(x.data.ndim)))
    out = _node(x.data.transpose(axes), (x,), "transpose", checked=False)
    if out.requires_grad:
        nx, inverse = x._node, tuple(np.argsort(axes))

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
        nx = x._node

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
        nx, x_shape = x._node, x.data.shape

        def _back(g):
            nx.accumulate_grad(np.broadcast_to(g, x_shape).copy())
        _attach(out, _back)
    return out
