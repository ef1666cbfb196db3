"""Dense float64 tensor engine with reverse-mode autodiff and exact Hessian-vector products.

Each vjp is written once against an ops namespace. ``backward(create_graph=True)``
runs it on the engine, so gradients are differentiable graphs and ``hvp`` is
exact second-order (no finite differences inside the engine); a first-order
backward runs it on `_Arrays`, the same op names over plain ndarrays. Each engine
op computes its value with the `_Arrays` function of the same name, so both
backends give the same bits. All storage is 64-bit, row-major numpy.

Every forward op, and every op of a create-graph backward, raises `NumericError`
naming itself when it produces a NaN/Inf. A first-order backward instead runs
once with numpy's overflow, invalid and divide flags raising, and a trip raises
`NumericError` naming the op whose vjp or gradient sum tripped; each gradient is
then checked once. A check of the gradients alone would miss an overflow that
comes back finite, as ``xc * xc`` -> inf -> ``inf ** -0.5`` = 0 does in
layer_norm's vjp.

A vjp recomputes what it needs from its op's inputs and never holds the op's
output, so a graph has no reference cycle and is freed as soon as it is dropped.

Ownership rule: `_Arrays` has in-place twins (``mul_``, ``add_``, ...) that write
into their first operand, and the engine maps each to its plain op, so an hvp
graph has the same nodes either way. A twin's first operand must be a temporary
that its caller made: never ``ops.val`` of an input (`_Arrays.val` is read-only,
so such a write raises), nor the incoming ``g``, which the ``add`` vjp hands to
both parents, nor a view of either. A caller may swap the operands of ``add`` or
``mul`` to put its temporary first, as IEEE addition and multiplication commute.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np


class NumericError(RuntimeError):
    """A primitive op produced a non-finite value."""


class ShapeError(ValueError):
    """Operands violate an op's shape contract."""


_next_id = itertools.count()

# Gradient tracking switch, toggled by no_grad(). Single-threaded per tape by
# contract, so a module-level flag is sufficient.
_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block (eval / optimizer updates)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _all_finite(arr: np.ndarray) -> bool:
    # The sum of any array containing a NaN/Inf is itself non-finite, and
    # desk-scale magnitudes cannot overflow a float64 accumulator, so one
    # reduction replaces a full isfinite scan.
    return math.isfinite(float(np.add.reduce(arr, axis=None)))


class Tensor:
    """A dense float64 value, optionally participating in the gradient tape.

    Tensors created by ops carry their parents and a vector-Jacobian closure;
    leaves (parameters, constants) carry neither.
    """

    # The engine takes no weak reference to a tensor: __weakref__ is here only
    # so that a test can observe a graph being freed without the cycle collector.
    __slots__ = ("data", "requires_grad", "_id", "_op", "_parents", "_vjp",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericError("non-finite values in tensor literal")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._id = next(_next_id)
        self._op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.shape != ():
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self._op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def _from_op(op: str, data: np.ndarray, parents: tuple[Tensor, ...],
             vjp: Callable) -> Tensor:
    """Wrap an op result; attach graph metadata only when gradients are live."""
    data = np.asarray(data, dtype=np.float64)
    if not _all_finite(data):
        raise NumericError(f"non-finite values produced by op '{op}'")
    t = Tensor.__new__(Tensor)
    t.data = data
    t._id = next(_next_id)
    t._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        t.requires_grad = True
        t._parents = parents
        t._vjp = vjp
    else:
        t.requires_grad = False
        t._parents = ()
        t._vjp = None
    return t


# ---------------------------------------------------------------------------
# The two backends a vjp runs on
# ---------------------------------------------------------------------------

# Tanh-approximation constants; the derivative uses the same constant set.
GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_C1 = 0.044715


def _pow_data(x: np.ndarray, p: float) -> np.ndarray:
    # layer_norm's vjp takes (var + eps) ** -0.5 on every backward, and np.power
    # with a float exponent is an order of magnitude slower than 1 / sqrt
    if p == -0.5:
        return 1.0 / np.sqrt(x)
    return np.power(x, p)


def _in_place(ufunc):
    """The twin of `ufunc` that writes its result into its first operand."""
    def twin(a, *rest):
        return ufunc(a, *rest, out=a)
    return twin


def _sum_axes(nd: int, axes: Sequence[int] | None) -> tuple[int, ...]:
    return tuple(range(nd)) if axes is None else tuple(sorted(ax % nd for ax in axes))


class _Arrays:
    """First-order backend: the engine's op names over plain float64 arrays.

    A namespace, never instantiated. Each engine op computes its value with
    the function of the same name here, so each numpy expression exists once
    and a vjp makes the same numpy calls on either backend. Nothing here
    checks its result or changes numpy's error state: `backward` guards the
    whole pass.
    """

    def val(t: Tensor) -> np.ndarray:
        view = t.data.view()
        view.flags.writeable = False
        return view

    add = np.add
    add_scalar = np.add
    neg = np.negative
    sub = np.subtract
    mul = np.multiply
    scale = np.multiply
    matmul = np.matmul
    permute = np.transpose
    reshape = np.reshape
    broadcast_to = np.broadcast_to
    tanh = np.tanh
    concat = np.concatenate
    powc = _pow_data
    take_rows = np.ndarray.__getitem__      # take_rows(w, idx) is w[idx]
    add_ = add_scalar_ = _in_place(np.add)
    neg_ = _in_place(np.negative)
    sub_ = _in_place(np.subtract)
    mul_ = scale_ = _in_place(np.multiply)
    tanh_ = _in_place(np.tanh)

    def swap_last2(a):
        return np.swapaxes(a, -1, -2)

    def tsum(a, axes=None, keepdims=False):
        return np.add.reduce(a, axis=_sum_axes(np.ndim(a), axes), keepdims=keepdims)

    def relu(a):
        return np.maximum(a, 0.0)

    def affine(x, w, b):
        out = np.matmul(x, w)
        out += b
        return out

    # slice_axis and pad_axis take a non-negative axis, as the engine passes it
    def slice_axis(a, axis, start, stop):
        return a[(slice(None),) * axis + (slice(start, stop),)]

    def pad_axis(a, axis, before, total):
        z = np.zeros(a.shape[:axis] + (total,) + a.shape[axis + 1:])
        z[(slice(None),) * axis + (slice(before, before + a.shape[axis]),)] = a
        return z

    def softmax_last(x):
        e = x - np.max(x, axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= np.sum(e, axis=-1, keepdims=True)
        return e

    def cross_entropy_logits(z, labels):
        m = np.max(z, axis=-1, keepdims=True)
        lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=-1))
        return np.mean(lse - z[np.arange(len(labels)), labels])

    def layer_norm(x, gamma, beta, eps):
        # np.mean is add.reduce and then a divide by the count
        d = x.shape[-1]
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
        xc *= inv
        xc *= gamma
        xc += beta
        return xc

    def gelu(x):
        t = _gelu_tanh(_Arrays, x)
        return np.multiply(0.5 * x, np.add(1.0, t, out=t), out=t)

    def attention(q, k, v, bsz, n_heads, prefix=()):
        _, _, v4, p = _attention_weights(_Arrays, q, k, v, bsz, n_heads, prefix)
        return np.reshape(np.transpose(np.matmul(p, v4), (0, 2, 1, 3)), q.shape)


def _gelu_tanh(ops, x):
    """tanh(c0 (x + c1 x^3)), the one formula gelu's forward and vjp share. One
    nested expression, so that no temporary outlives its use: an x^2 held
    through the tanh made the forward about 30% slower at encoder shapes."""
    return ops.tanh_(ops.scale_(ops.add_(ops.scale_(ops.mul_(ops.mul(x, x), x), GELU_C1), x),
                                GELU_C0))


def _split_heads(ops, x, bsz: int, n_heads: int):
    return ops.permute(ops.reshape(x, (bsz, -1, n_heads, x.shape[1] // n_heads)), (0, 2, 1, 3))


def _attention_weights(ops, q, k, v, bsz: int, n_heads: int, prefix):
    """Heads of q, k and v (prefix rows first in k and v) and the softmax weights."""
    q4, k4, v4 = (_split_heads(ops, x, bsz, n_heads) for x in (q, k, v))
    if prefix:
        k4 = ops.concat([prefix[0], k4], 2)
        v4 = ops.concat([prefix[1], v4], 2)
    scores = ops.scale_(ops.matmul(q4, ops.swap_last2(k4)), 1.0 / math.sqrt(q4.shape[-1]))
    return q4, k4, v4, ops.softmax_last(scores)


class _Engine:
    """Create-graph backend: the engine ops, looked up on this module at each
    call, so that a wrapper installed on the module sees every op a vjp makes."""

    @staticmethod
    def val(t: Tensor) -> Tensor:
        return t

    def __getattr__(self, name: str):
        return globals()[name.removesuffix("_")]     # an in-place twin is its plain op


_ENGINE = _Engine()


# ---------------------------------------------------------------------------
# Primitives. Each vjp(g, needs, ops) returns one gradient (or None) per
# parent, computed with `ops` from g and from `ops.val` of the tensors it
# closes over.
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs, ops):
        return g if needs[0] else None, g if needs[1] else None

    return _from_op("add", _Arrays.add(a.data, b.data), (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g, needs, ops):
        return (ops.neg(g),)

    return _from_op("neg", _Arrays.neg(a.data), (a,), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs, ops):
        return g if needs[0] else None, ops.neg(g) if needs[1] else None

    return _from_op("sub", _Arrays.sub(a.data, b.data), (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs, ops):
        return (ops.mul(g, ops.val(b)) if needs[0] else None,
                ops.mul(g, ops.val(a)) if needs[1] else None)

    return _from_op("mul", _Arrays.mul(a.data, b.data), (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g, needs, ops):
        return (ops.scale(g, c),)

    return _from_op("scale", _Arrays.scale(a.data, c), (a,), vjp)


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g, needs, ops):
        return (g,)

    return _from_op("add_scalar", _Arrays.add_scalar(a.data, c), (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must have equal ndim and identical batch dims."""
    if a.ndim < 2 or b.ndim != a.ndim:
        raise ShapeError(f"matmul: need equal ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def vjp(g, needs, ops):
        return (ops.matmul(g, ops.swap_last2(ops.val(b))) if needs[0] else None,
                ops.matmul(ops.swap_last2(ops.val(a)), g) if needs[1] else None)

    return _from_op("matmul", _Arrays.matmul(a.data, b.data), (a, b), vjp)


def swap_last2(a: Tensor) -> Tensor:
    def vjp(g, needs, ops):
        return (ops.swap_last2(g),)

    return _from_op("swap_last2", _Arrays.swap_last2(a.data), (a,), vjp)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def vjp(g, needs, ops):
        return (ops.permute(g, inv),)

    return _from_op("permute", _Arrays.permute(a.data, axes), (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = a.shape

    def vjp(g, needs, ops):
        return (ops.reshape(g, orig),)

    return _from_op("reshape", _Arrays.reshape(a.data, shape), (a,), vjp)


def tsum(a: Tensor, axes: tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all axes when None)."""
    nd = a.ndim
    norm = _sum_axes(nd, axes)
    orig = a.shape
    kd_shape = tuple(1 if i in norm else orig[i] for i in range(nd))

    def vjp(g, needs, ops):
        gg = g if keepdims or nd == 0 else ops.reshape(g, kd_shape)
        return (ops.broadcast_to(gg, orig),)

    return _from_op("sum", _Arrays.tsum(a.data, norm, keepdims), (a,), vjp)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = a.shape
    lead = len(shape) - len(orig)
    if lead < 0:
        raise ShapeError(f"broadcast_to: cannot broadcast {orig} to {shape}")
    reduce_axes = tuple(range(lead)) + tuple(
        lead + i for i in range(len(orig)) if orig[i] == 1 and shape[lead + i] != 1
    )

    def vjp(g, needs, ops):
        r = ops.tsum(g, axes=reduce_axes, keepdims=True) if reduce_axes else g
        return (ops.reshape(r, orig),)

    return _from_op("broadcast", _Arrays.broadcast_to(a.data, shape), (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    def vjp(g, needs, ops):
        # 1 - tanh(x)^2, with tanh(x) recomputed from the input
        t = ops.tanh(ops.val(a))
        return (ops.mul(g, ops.add_scalar(ops.neg(ops.mul(t, t)), 1.0)),)

    return _from_op("tanh", _Arrays.tanh(a.data), (a,), vjp)


def powc(a: Tensor, p: float) -> Tensor:
    p = float(p)

    def vjp(g, needs, ops):
        return (ops.mul(g, ops.scale(ops.powc(ops.val(a), p - 1.0), p)),)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out_data = _Arrays.powc(a.data, p)
    return _from_op("pow", out_data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    # Gate captured as a constant: piecewise-constant factor, zero curvature.
    gate = Tensor((a.data > 0).astype(np.float64))

    def vjp(g, needs, ops):
        return (ops.mul(g, ops.val(gate)),)

    return _from_op("relu", _Arrays.relu(a.data), (a,), vjp)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    total = a.shape[axis]

    def vjp(g, needs, ops):
        return (ops.pad_axis(g, axis, start, total),)

    return _from_op("slice", _Arrays.slice_axis(a.data, axis, start, stop), (a,), vjp)


def pad_axis(a: Tensor, axis: int, before: int, total: int) -> Tensor:
    """Embed `a` into zeros along one axis so that its extent becomes `total`."""
    axis = axis % a.ndim
    length = a.shape[axis]
    if before < 0 or before + length > total:
        raise ShapeError(f"pad_axis: segment [{before}, {before + length}) outside [0, {total})")

    def vjp(g, needs, ops):
        return (ops.slice_axis(g, axis, before, before + length),)

    return _from_op("pad", _Arrays.pad_axis(a.data, axis, before, total), (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    axis = axis % parts[0].ndim
    sizes = [p.shape[axis] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(g, needs, ops):
        return tuple(ops.slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1]))
                     if needs[i] else None for i in range(len(parts)))

    return _from_op("concat", _Arrays.concat([p.data for p in parts], axis),
                    tuple(parts), vjp)


def take_rows(w: Tensor, idx: np.ndarray) -> Tensor:
    """Rows `idx` of a 2-D table, repeats allowed; the vjp onehot(idx)ᵀ @ g is linear."""
    idx = np.asarray(idx)
    if w.ndim != 2 or idx.ndim != 1 or idx.size and not 0 <= idx.min() <= idx.max() < len(w.data):
        raise ShapeError(f"take_rows: {idx.shape} indices into a {w.shape} table")

    def vjp(g, needs, ops):
        onehot = Tensor((idx[:, None] == np.arange(len(w.data))).astype(np.float64))
        return (ops.matmul(ops.swap_last2(ops.val(onehot)), g),)

    return _from_op("take_rows", _Arrays.take_rows(w.data, idx), (w,), vjp)


# ---------------------------------------------------------------------------
# Fused ops used by the encoder: affine, softmax, attention, layernorm, gelu,
# cross-entropy. Each is one node whose value comes from one `_Arrays` chain;
# every vjp is still expressed in ops, so hvp stays exact.
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 2-D x (rows, n_in), 2-D w (n_in, n_out) and 1-D b (n_out,)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: {x.shape} @ {w.shape} + {b.shape}")

    def vjp(g, needs, ops):
        return (ops.matmul(g, ops.swap_last2(ops.val(w))) if needs[0] else None,
                ops.matmul(ops.swap_last2(ops.val(x)), g) if needs[1] else None,
                ops.tsum(g, axes=(0,)) if needs[2] else None)

    return _from_op("affine", _Arrays.affine(x.data, w.data, b.data), (x, w, b), vjp)


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability.

    The shift is a per-row constant, so values and derivatives are exact.
    The vjp p * (g - sum(g * p)) recomputes p from x through ops, so hvp sees it.
    """
    def vjp(g, needs, ops):
        return (_softmax_vjp(ops, g, ops.softmax_last(ops.val(x))),)

    return _from_op("softmax", _Arrays.softmax_last(x.data), (x,), vjp)


def _softmax_vjp(ops, g, p):
    gp = ops.mul(g, p)
    return ops.sub_(gp, ops.mul(p, ops.broadcast_to(
        ops.tsum(gp, axes=(-1,), keepdims=True), p.shape)))


def attention(q: Tensor, k: Tensor, v: Tensor, bsz: int, n_heads: int,
              prefix: Sequence[Tensor] = ()) -> Tensor:
    """Multi-head softmax attention of (rows, d) projections, rows = bsz * seq; `prefix`
    is () or a (key, value) pair of (bsz, n_heads, P, d_head) rows attended to first.
    The vjp recomputes the softmax weights from q and k, as FlashAttention does."""
    prefix = tuple(prefix)
    n_pre = prefix[0].shape[2] if prefix and prefix[0].ndim == 4 else 0
    if q.ndim != 2 or k.shape != q.shape or v.shape != q.shape or q.shape[0] % bsz \
            or q.shape[1] % n_heads or len(prefix) not in (0, 2) or any(
                t.shape != (bsz, n_heads, n_pre, q.shape[1] // n_heads) for t in prefix):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, prefix "
                         f"{[t.shape for t in prefix]}, {bsz} sequences, {n_heads} heads")

    def vjp(g, needs, ops):
        q4, k4, v4, p = _attention_weights(ops, ops.val(q), ops.val(k), ops.val(v), bsz,
                                           n_heads, [ops.val(t) for t in prefix])
        g4 = _split_heads(ops, g, bsz, n_heads)
        want = (needs[0], needs[1] or any(needs[3:4]), needs[2] or any(needs[4:]))
        if want[0] or want[1]:      # back through softmax and the 1/sqrt(d_head) scale
            gs = ops.scale_(_softmax_vjp(ops, ops.matmul(g4, ops.swap_last2(v4)), p),
                            1.0 / math.sqrt(g4.shape[-1]))
        g4s = (ops.matmul(gs, k4) if want[0] else None,
               ops.swap_last2(ops.matmul(ops.swap_last2(q4), gs)) if want[1] else None,
               ops.matmul(ops.swap_last2(p), g4) if want[2] else None)
        # k and v hold the prefix rows first
        grads = tuple(ops.reshape(ops.permute(ops.slice_axis(g, 2, n_pre, n_pre + q4.shape[2])
                                              if i and prefix else g, (0, 2, 1, 3)), q.shape)
                      if needs[i] else None for i, g in enumerate(g4s))
        return grads + tuple(ops.slice_axis(g4s[i], 2, 0, n_pre) if needs[i + 2] else None
                             for i in (1, 2) if prefix)

    value = _Arrays.attention(q.data, k.data, v.data, bsz, n_heads, [t.data for t in prefix])
    return _from_op("attention", value, (q, k, v) + prefix, vjp)


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (batch, classes) logits against integer labels.

    Fused with log-sum-exp stabilization; the gradient (softmax - onehot)/n
    recomputes the softmax through `ops` so hvp sees the curvature.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_logits: logits must be 2-D, got {logits.shape}")
    n, c = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy_logits: labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("cross_entropy_logits: label outside [0, n_classes)")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    onehot = Tensor(onehot)

    def vjp(g, needs, ops):
        probs = ops.softmax_last(ops.val(logits))
        delta = ops.scale(ops.sub(probs, ops.val(onehot)), 1.0 / n)
        return (ops.mul(ops.broadcast_to(ops.reshape(g, (1, 1)), (n, c)), delta),)

    return _from_op("cross_entropy", _Arrays.cross_entropy_logits(logits.data, labels),
                    (logits,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if gamma.ndim != 1 or beta.ndim != 1 or x.shape[-1] != gamma.shape[0] \
            or gamma.shape != beta.shape:
        raise ShapeError(f"layer_norm: {x.shape} with gamma {gamma.shape}, "
                         f"beta {beta.shape}")
    d = x.shape[-1]
    lead = tuple(range(x.ndim - 1))

    def vjp(g, needs, ops):
        # y = (x - mean) / std, recomputed through ops so that hvp sees it
        xv = ops.val(x)
        mu = ops.scale_(ops.tsum(xv, axes=(-1,), keepdims=True), 1.0 / d)
        xc = ops.sub(xv, ops.broadcast_to(mu, x.shape))
        var = ops.scale_(ops.tsum(ops.mul(xc, xc), axes=(-1,), keepdims=True), 1.0 / d)
        inv = ops.powc(ops.add_scalar_(var, eps), -0.5)
        y = ops.mul_(xc, ops.broadcast_to(inv, x.shape))
        gx = ggamma = gbeta = None
        if needs[0]:
            gamma_wide = ops.broadcast_to(
                ops.reshape(ops.val(gamma), (1,) * len(lead) + (d,)), x.shape)
            gy = ops.mul(g, gamma_wide)
            mean_gy = ops.scale_(ops.tsum(gy, axes=(-1,), keepdims=True), 1.0 / d)
            mean_gyy = ops.scale_(ops.tsum(ops.mul(gy, y), axes=(-1,), keepdims=True),
                                  1.0 / d)
            centered = ops.sub_(ops.sub_(gy, ops.broadcast_to(mean_gy, x.shape)),
                                ops.mul(y, ops.broadcast_to(mean_gyy, x.shape)))
            gx = ops.mul_(centered, ops.broadcast_to(inv, x.shape))
        if needs[1]:
            ggamma = ops.tsum(ops.mul_(y, g), axes=lead) if lead else ops.mul_(y, g)
        if needs[2]:
            gbeta = ops.tsum(g, axes=lead) if lead else g
        return gx, ggamma, gbeta

    return _from_op("layernorm", _Arrays.layer_norm(x.data, gamma.data, beta.data, eps),
                    (x, gamma, beta), vjp)


def gelu(x: Tensor) -> Tensor:
    """0.5 x (1 + tanh(c0 (x + c1 x^3)))."""
    def vjp(g, needs, ops):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c0 (1 + 3 c1 x^2),  t = tanh(...)
        xv = ops.val(x)
        t = _gelu_tanh(ops, xv)
        one_minus_t2 = ops.add_scalar_(ops.neg_(ops.mul(t, t)), 1.0)
        du = ops.scale_(ops.add_scalar_(ops.scale_(ops.mul(xv, xv), 3.0 * GELU_C1), 1.0),
                        GELU_C0)
        deriv = ops.add_(ops.scale_(ops.add_scalar_(t, 1.0), 0.5),
                         ops.mul_(ops.scale(xv, 0.5), ops.mul_(one_minus_t2, du)))
        return (ops.mul_(deriv, g),)

    return _from_op("gelu", _Arrays.gelu(x.data), (x,), vjp)


# ---------------------------------------------------------------------------
# Tape, backward, hvp
# ---------------------------------------------------------------------------

class Tape:
    """Ordered record of the primitive ops behind an output tensor.

    Node creation ids are monotone, so ascending-id order is a topological
    order: every op's inputs precede it.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "Tape":
        """Every node reachable from `out` through parents, `out` included."""
        seen = {out._id}
        nodes = [out]
        stack = [out]
        while stack:
            for p in stack.pop()._parents:
                if p._id not in seen:
                    seen.add(p._id)
                    nodes.append(p)
                    stack.append(p)
        nodes.sort(key=lambda t: t._id)
        return cls(nodes)


def _run_vjps(loss: Tensor, params: Mapping[str, Tensor], ops, seed) -> dict:
    """Every vjp behind `loss`, run on backend `ops`; gradients by parameter name."""
    param_names = {t._id: name for name, t in params.items()}
    grads = {loss._id: seed}
    result = {}
    for node in reversed(Tape.from_output(loss).nodes):
        g = grads.pop(node._id, None)
        if g is None:
            continue
        name = param_names.get(node._id)
        if name is not None:
            result[name] = g
        if node._vjp is None:
            continue
        needs = tuple(p.requires_grad for p in node._parents)
        try:
            for parent, pg in zip(node._parents, node._vjp(g, needs, ops)):
                if pg is None:
                    continue
                acc = grads.get(parent._id)
                grads[parent._id] = pg if acc is None else ops.add(acc, pg)
        except FloatingPointError as exc:    # raised by backward's errstate
            raise NumericError(f"non-finite values in the vjp of op '{node._op}'") from exc
    return result


def backward(loss: Tensor, params: Mapping[str, Tensor],
             create_graph: bool = False) -> dict[str, Tensor]:
    """Gradients of a scalar loss for every tensor in `params`.

    Parameters the loss does not reach get explicit zero tensors. With
    ``create_graph=True`` the returned gradients are differentiable graph
    nodes (needed for hvp); otherwise they are constants.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not any(t.requires_grad for t in params.values()):
        raise ValueError("backward: no parameter has requires_grad set")

    if create_graph:
        result = _run_vjps(loss, params, _ENGINE, Tensor(1.0))
    else:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            grads = _run_vjps(loss, params, _Arrays, np.ones(()))
        # Tensor() checks each gradient once
        result = {name: Tensor(g) for name, g in grads.items()}

    for name, t in params.items():
        if name not in result:
            result[name] = Tensor(np.zeros(t.shape))
    return result


def hvp(loss_fn: Callable[[Mapping[str, Tensor]], Tensor],
        params: Mapping[str, Tensor],
        v: Mapping[str, Tensor]) -> dict[str, Tensor]:
    """Hessian-vector product H @ v of ``loss_fn`` at ``params``.

    Exact double backward: differentiate sum(grad . v) a second time. The
    loss function must consume the given parameter tensors (directly or by
    closing over the same objects).
    """
    if set(v.keys()) != set(params.keys()):
        raise ShapeError("hvp: direction keys differ from parameter keys")
    for k in params:
        if v[k].shape != params[k].shape:
            raise ShapeError(f"hvp: direction shape mismatch for '{k}'")

    loss = loss_fn(params)
    grads = backward(loss, params, create_graph=True)
    gv: Tensor | None = None
    for k in sorted(params.keys()):
        term = tsum(mul(grads[k], Tensor(v[k].data)))    # no gradient flows into v
        gv = term if gv is None else add(gv, term)
    return backward(gv, params)
