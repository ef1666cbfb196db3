"""Dense float64 tensor engine with reverse-mode autodiff and exact Hessian-vector products.

Each vjp is written once against an ops namespace. A first-order backward runs
it on `_Arrays`, the engine's op names over plain ndarrays. ``hvp`` runs it on
`_Duals`, the same names over (value, tangent) pairs: forward-over-reverse, or
Pearlmutter's R-operator. While ``hvp`` runs the loss, each engine op whose
parents carry a tangent computes its value and its tangent together through
`_Duals`, starting from v on the parameters. One backward over the pairs then
gives the gradient as its value half and H v as its tangent half, so no
backward builds a graph. Each engine op and each `_Duals` function computes its
value with the `_Arrays` function of the same name, so both backends give the
same bits. All storage is 64-bit, row-major numpy.

Every forward op raises `NumericError` naming itself when it produces a NaN/Inf
value or tangent. A backward instead runs once with numpy's overflow, invalid
and divide flags raising, and a trip raises `NumericError` naming the op whose
vjp or gradient sum tripped; each gradient, or each H v, is then checked once.
A check of the results alone would miss an overflow that comes back finite, as
``xc * xc`` -> inf -> ``inf ** -0.5`` = 0 does in layer_norm's vjp.

A graph records nodes, not values. An op's `_Node` holds its parents' nodes and
its vjp, and no value; a vjp closes over exactly the operands it reads through
``ops.val``, recomputes the rest from them and never holds its own op's output.
So a forward value that no vjp reads is freed as soon as the forward moves past
it, a graph has no reference cycle, and the whole graph is freed as soon as it
is dropped.

Ownership rule: `_Arrays` has in-place twins (``mul_``, ``add_``, ...) that write
into their first operand. A twin's first operand must be a temporary that its
caller made: never ``ops.val`` of an input (`_Arrays.val` is read-only, so such a
write raises), nor the incoming ``g``, which the ``add`` vjp hands to both
parents, nor a view of either. A caller may swap the operands of ``add`` or
``mul`` to put its temporary first, as IEEE addition and multiplication commute.
On `_Duals` each twin is its plain op: ``add`` and ``add_scalar`` pass a tangent
through, so a temporary's tangent can be another node's, and nothing writes
into a tangent.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np


class NumericError(RuntimeError):
    """A primitive op produced a non-finite value."""


class ShapeError(ValueError):
    """Operands violate an op's shape contract."""


_next_id = itertools.count()


class _GradMode(threading.local):
    """Gradient tracking switch, toggled by no_grad(). Each thread has its own,
    so an evaluation on one thread leaves another thread's graphs alone; a
    thread starts with tracking on. The object is truthy while the calling
    thread's tracking is on."""

    enabled = True

    def __bool__(self) -> bool:
        return self.enabled


_grad_enabled = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block (eval / optimizer updates)
    on the calling thread."""
    prev = _grad_enabled.enabled
    _grad_enabled.enabled = False
    try:
        yield
    finally:
        _grad_enabled.enabled = prev


class _Tangents(threading.local):
    """The forward tangents of the calling thread's running hvp, by node id;
    None outside one. Each thread has its own, so two hvps can run at once."""

    table: dict[int, np.ndarray] | None = None


_tangents = _Tangents()


def _all_finite(arr: np.ndarray) -> bool:
    return bool(np.isfinite(arr).all())


class _Node:
    """One op of a graph: its id (its output's), its op name, its parents'
    nodes, which of them took gradients when the op ran, and its vjp; or no
    parents and no vjp when gradients were off. It holds no value: what a
    backward reads, the vjp closes over."""

    __slots__ = ("_id", "_op", "_parents", "_needs", "_vjp")

    def __init__(self, id_: int, op: str, parents: tuple, needs: tuple,
                 vjp: Callable | None):
        self._id = id_
        self._op = op
        self._parents = parents
        self._needs = needs
        self._vjp = vjp


class Tensor:
    """A dense float64 value, optionally participating in the gradient tape.

    A tensor made by an op reaches that op's `_Node` through ``_node``. A leaf
    (parameter, constant) is its own node, with the class's ``_op``,
    ``_parents``, ``_needs`` and ``_vjp``; it stores no reference to itself,
    so a leaf is never a reference cycle.
    """

    __slots__ = ("data", "requires_grad", "_id", "_made_by", "__weakref__")
    _op = "leaf"
    _parents: tuple = ()
    _needs: tuple = ()
    _vjp: Callable | None = None

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericError("non-finite values in tensor literal")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._id = next(_next_id)
        self._made_by: _Node | None = None

    @property
    def _node(self) -> "Tensor | _Node":
        return self if self._made_by is None else self._made_by

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
        return (f"Tensor(op={self._node._op!r}, shape={self.shape}, "
                f"requires_grad={self.requires_grad})")


def _from_op(op: str, parents: tuple[Tensor, ...], vjp: Callable, *consts) -> Tensor:
    """The output of op `op` over `parents`, then `consts`. Its value comes from
    the `_Arrays` function of that name. While an hvp's forward runs on this
    thread and a parent carries a tangent, the `_Duals` function of that name
    gives the value and the output's tangent. The output's node records the
    parents' nodes and `vjp` only when gradients are live. An output made
    without them still gets a node, so that a graph it feeds holds that node
    and not its value."""
    tangents = _tangents.table
    if tangents is None or not any(p._id in tangents for p in parents):
        data, tangent = getattr(_Arrays, op)(*[p.data for p in parents], *consts), None
    else:
        data, tangent = getattr(_Duals, op)(
            *[_Dual(p.data, tangents.get(p._id)) for p in parents], *consts)
    data = np.asarray(data, dtype=np.float64)
    if not _all_finite(data):
        raise NumericError(f"non-finite values produced by op '{op}'")
    t = Tensor.__new__(Tensor)
    t.data = data
    t._id = next(_next_id)
    needs = tuple(p.requires_grad for p in parents)
    t.requires_grad = _grad_enabled.enabled and any(needs)
    if t.requires_grad:
        t._made_by = _Node(t._id, op, tuple(p._node for p in parents), needs, vjp)
    else:
        t._made_by = _Node(t._id, op, (), (), None)
    if tangent is not None:
        tangent = np.asarray(tangent, dtype=np.float64)
        if not _all_finite(tangent):
            raise NumericError(f"non-finite tangent produced by op '{op}'")
        tangents[t._id] = tangent
    return t


# ---------------------------------------------------------------------------
# The two backends a vjp runs on
# ---------------------------------------------------------------------------

# Tanh-approximation constants; the derivative uses the same constant set.
GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_C1 = 0.044715
LAYER_NORM_EPS = 1e-5         # added to the variance before its inverse square root


def _pow_data(x: np.ndarray, p: float) -> np.ndarray:
    # layer_norm's vjp takes (var + eps) ** -0.5 on every backward, and np.power
    # with a float exponent is an order of magnitude slower than 1 / sqrt
    if p == -0.5:
        return 1.0 / np.sqrt(x)
    return np.power(x, p)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _in_place(ufunc):
    """The twin of `ufunc` that writes its result into its first operand."""
    def twin(a, *rest):
        return ufunc(a, *rest, out=a)
    return twin


def _sum_axes(nd: int, axes: Sequence[int] | None) -> tuple[int, ...]:
    return tuple(range(nd)) if axes is None else tuple(sorted(ax % nd for ax in axes))


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y, inv): y = (x - mean) * inv, a new array, with inv = 1 / std, on the last axis."""
    # np.mean is add.reduce and then a divide by the count
    d = x.shape[-1]
    y = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / d + LAYER_NORM_EPS)
    y *= inv
    return y, inv


class _Arrays:
    """First-order backend: the engine's op names over plain float64 arrays,
    and a few that only vjps call (``neg``, ``sub``, ``powc``, ...).

    A namespace, never instantiated. Each engine op computes its value with
    the function of the same name here, so each numpy expression exists once
    and a vjp makes the same numpy calls on either backend. Nothing here
    checks its result or changes numpy's error state: a backward guards the
    whole pass.
    """

    def val(t: Tensor) -> np.ndarray:
        return _read_only(t.data)

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
    powc = _pow_data
    take_rows = np.ndarray.__getitem__      # take_rows(w, idx) is w[idx]
    add_ = add_scalar_ = _in_place(np.add)
    neg_ = _in_place(np.negative)
    sub_ = _in_place(np.subtract)
    mul_ = scale_ = _in_place(np.multiply)
    tanh_ = _in_place(np.tanh)

    def concat(*parts_then_axis):
        return np.concatenate(parts_then_axis[:-1], axis=parts_then_axis[-1])

    def swap_last2(a):
        return np.swapaxes(a, -1, -2)

    def tsum(a, axes=None, keepdims=False):
        return np.add.reduce(a, axis=_sum_axes(np.ndim(a), axes), keepdims=keepdims)

    def affine(x, w, b):
        out = np.matmul(x, w)
        out += b
        return out

    # slice_axis takes a non-negative axis, as concat's vjp passes it
    def slice_axis(a, axis, start, stop):
        return a[(slice(None),) * axis + (slice(start, stop),)]

    def softmax_last(x):
        e = x - np.max(x, axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= np.sum(e, axis=-1, keepdims=True)
        return e

    def cross_entropy_logits(z, labels):
        m = np.max(z, axis=-1, keepdims=True)
        lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=-1))
        return np.mean(lse - z[np.arange(len(labels)), labels])

    def layer_norm(x, gamma, beta):
        y, _ = _normalize(x)
        y *= gamma
        y += beta
        return y

    def gelu(x):
        return _gelu(_Arrays, x)

    def attention(q, k, v, bsz, n_heads):
        return _attention(_Arrays, q, k, v, bsz, n_heads)


class _Dual(NamedTuple):
    """A value and its tangent; a tangent of None is zero."""

    value: np.ndarray
    tangent: np.ndarray | None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def _t_sum(*terms):
    """The sum of the tangent terms that are not None, or None."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _linear(f):
    """The dual of `f`, linear in its one array operand."""
    def dual(x, *args, **kwargs):
        return _Dual(f(x.value, *args, **kwargs),
                     None if x.tangent is None else f(x.tangent, *args, **kwargs))
    return dual


def _bilinear(f):
    """The dual of `f`, linear in each of its two operands."""
    def dual(x, y):
        return _Dual(f(x.value, y.value), _t_sum(
            None if x.tangent is None else f(x.tangent, y.value),
            None if y.tangent is None else f(x.value, y.tangent)))
    return dual


class _Duals:
    """Second-order backend: the names of `_Arrays` over `_Dual` pairs.

    Each function takes its value from the `_Arrays` function of the same
    name, or from the same chain of them, so a value keeps its bits; it takes
    its tangent from the product and chain rules. The forward of an hvp runs
    each engine op here once a parent carries a tangent, and the hvp's one
    backward runs every vjp here.
    """

    def val(t: Tensor) -> _Dual:
        tangent = _tangents.table.get(t._id)
        return _Dual(_read_only(t.data), None if tangent is None else _read_only(tangent))

    def add(x, y):
        return _Dual(_Arrays.add(x.value, y.value), _t_sum(x.tangent, y.tangent))

    def sub(x, y):
        xt, yt = x.tangent, y.tangent
        return _Dual(_Arrays.sub(x.value, y.value),
                     xt if yt is None else np.negative(yt) if xt is None else xt - yt)

    def add_scalar(x, c):
        return _Dual(_Arrays.add_scalar(x.value, c), x.tangent)

    neg = _linear(_Arrays.neg)
    scale = _linear(_Arrays.scale)
    permute = _linear(_Arrays.permute)
    reshape = _linear(_Arrays.reshape)
    broadcast_to = _linear(_Arrays.broadcast_to)
    swap_last2 = _linear(_Arrays.swap_last2)
    tsum = _linear(_Arrays.tsum)
    slice_axis = _linear(_Arrays.slice_axis)
    take_rows = _linear(_Arrays.take_rows)
    mul = _bilinear(_Arrays.mul)
    matmul = _bilinear(_Arrays.matmul)

    def concat(*parts_then_axis):
        *parts, axis = parts_then_axis
        value = _Arrays.concat(*[p.value for p in parts], axis)
        if all(p.tangent is None for p in parts):
            return _Dual(value, None)
        return _Dual(value, _Arrays.concat(
            *[np.zeros(p.shape) if p.tangent is None else p.tangent for p in parts], axis))

    def tanh(x):
        t = _Arrays.tanh(x.value)
        return _Dual(t, None if x.tangent is None else x.tangent * (1.0 - t * t))

    def powc(x, p):
        return _Dual(_Arrays.powc(x.value, p), None if x.tangent is None
                     else x.tangent * (p * _Arrays.powc(x.value, p - 1.0)))

    def affine(x, w, b):
        out = _Arrays.affine(x.value, w.value, b.value)
        t = _t_sum(None if x.tangent is None else x.tangent @ w.value,
                   None if w.tangent is None else x.value @ w.tangent, b.tangent)
        return _Dual(out, None if t is None else np.broadcast_to(t, out.shape))

    def softmax_last(x):
        p = _Arrays.softmax_last(x.value)
        if x.tangent is None:
            return _Dual(p, None)
        pt = p * x.tangent
        return _Dual(p, pt - p * np.add.reduce(pt, axis=-1, keepdims=True))

    def cross_entropy_logits(z, labels):
        out = _Arrays.cross_entropy_logits(z.value, labels)
        if z.tangent is None:
            return _Dual(out, None)
        zt = z.tangent
        p = _Arrays.softmax_last(z.value)
        return _Dual(out, np.mean(np.add.reduce(p * zt, axis=-1)
                                  - zt[np.arange(len(labels)), labels]))

    def layer_norm(x, gamma, beta):
        # the value is _Arrays.layer_norm's chain on y; the tangent of y is
        # inv (dxc - y mean(y dxc)), where dxc is the tangent of x - mean
        y, inv = _normalize(x.value)
        out = y * gamma.value
        out += beta.value
        dy = None
        if x.tangent is not None:
            xt, d = x.tangent, out.shape[-1]
            dxc = xt - np.add.reduce(xt, axis=-1, keepdims=True) / d
            dy = inv * (dxc - y * (np.add.reduce(y * dxc, axis=-1, keepdims=True) / d))
        t = _t_sum(None if dy is None else dy * gamma.value,
                   None if gamma.tangent is None else y * gamma.tangent, beta.tangent)
        return _Dual(out, None if t is None else np.broadcast_to(t, out.shape))

    def gelu(x):
        return _gelu(_Duals, x)

    def attention(q, k, v, bsz, n_heads):
        return _attention(_Duals, q, k, v, bsz, n_heads)

    # no twin writes in place here: a tangent may be another node's
    add_, add_scalar_, neg_, sub_, mul_, scale_, tanh_ = (
        add, add_scalar, neg, sub, mul, scale, tanh)


def _gelu_tanh(ops, x):
    """tanh(c0 (x + c1 x^3)), the one formula gelu's forward and vjp share. One
    nested expression, so that no temporary outlives its use: an x^2 held
    through the tanh made the forward about 30% slower at encoder shapes."""
    return ops.tanh_(ops.scale_(ops.add_(ops.scale_(ops.mul_(ops.mul(x, x), x), GELU_C1), x),
                                GELU_C0))


def _gelu(ops, x):
    """0.5 x (1 + tanh(...)) on backend `ops`."""
    return ops.mul_(ops.add_scalar_(_gelu_tanh(ops, x), 1.0), ops.scale(x, 0.5))


def _split_heads(ops, x, bsz: int, n_heads: int):
    return ops.permute(ops.reshape(x, (bsz, -1, n_heads, x.shape[1] // n_heads)), (0, 2, 1, 3))


def _attention_weights(ops, q, k, v, bsz: int, n_heads: int):
    """Heads of q, k and v and the softmax weights."""
    q4, k4, v4 = (_split_heads(ops, x, bsz, n_heads) for x in (q, k, v))
    scores = ops.scale_(ops.matmul(q4, ops.swap_last2(k4)), 1.0 / math.sqrt(q4.shape[-1]))
    return q4, k4, v4, ops.softmax_last(scores)


def _attention(ops, q, k, v, bsz: int, n_heads: int):
    """Softmax attention of q over k and v on backend `ops`, as (rows, d)."""
    _, _, v4, p = _attention_weights(ops, q, k, v, bsz, n_heads)
    return ops.reshape(ops.permute(ops.matmul(p, v4), (0, 2, 1, 3)), q.shape)


# ---------------------------------------------------------------------------
# Primitives. Each vjp(g, needs, ops) returns one gradient (or None) per
# parent, computed with `ops` from g and from `ops.val` of the tensors it
# closes over, which are exactly the ones it reads. Which ones it reads can
# depend on `needs`, the parents' requires_grad when the op ran, which the
# node keeps: a leaf's requires_grad set after the op does not reach it.
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs, ops):
        return g if needs[0] else None, g if needs[1] else None

    return _from_op("add", (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    # each half reads the other operand, so keep an operand only if the other
    # takes gradients
    a_read, b_read = a if b.requires_grad else None, b if a.requires_grad else None

    def vjp(g, needs, ops):
        return (ops.mul(g, ops.val(b_read)) if needs[0] else None,
                ops.mul(g, ops.val(a_read)) if needs[1] else None)

    return _from_op("mul", (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g, needs, ops):
        return (ops.scale(g, c),)

    return _from_op("scale", (a,), vjp, c)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must have equal ndim and identical batch dims."""
    if a.ndim < 2 or b.ndim != a.ndim:
        raise ShapeError(f"matmul: need equal ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    a_read, b_read = a if b.requires_grad else None, b if a.requires_grad else None

    def vjp(g, needs, ops):
        return (ops.matmul(g, ops.swap_last2(ops.val(b_read))) if needs[0] else None,
                ops.matmul(ops.swap_last2(ops.val(a_read)), g) if needs[1] else None)

    return _from_op("matmul", (a, b), vjp)


def swap_last2(a: Tensor) -> Tensor:
    def vjp(g, needs, ops):
        return (ops.swap_last2(g),)

    return _from_op("swap_last2", (a,), vjp)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def vjp(g, needs, ops):
        return (ops.permute(g, inv),)

    return _from_op("permute", (a,), vjp, axes)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = a.shape

    def vjp(g, needs, ops):
        return (ops.reshape(g, orig),)

    return _from_op("reshape", (a,), vjp, shape)


def tsum(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Sum over the given axes (all axes when None)."""
    norm = _sum_axes(a.ndim, axes)
    orig = a.shape
    kd_shape = tuple(1 if i in norm else n for i, n in enumerate(orig))

    def vjp(g, needs, ops):
        return (ops.broadcast_to(ops.reshape(g, kd_shape), orig),)

    return _from_op("tsum", (a,), vjp, norm)


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

    return _from_op("broadcast_to", (a,), vjp, shape)


def tanh(a: Tensor) -> Tensor:
    def vjp(g, needs, ops):
        # 1 - tanh(x)^2, with tanh(x) recomputed from the input
        t = ops.tanh(ops.val(a))
        return (ops.mul(g, ops.add_scalar(ops.neg(ops.mul(t, t)), 1.0)),)

    return _from_op("tanh", (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    axis = axis % parts[0].ndim
    sizes = [p.shape[axis] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_parts = len(parts)    # the vjp reads no part, so it keeps their count only

    def vjp(g, needs, ops):
        return tuple(ops.slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1]))
                     if needs[i] else None for i in range(n_parts))

    return _from_op("concat", tuple(parts), vjp, axis)


def take_rows(w: Tensor, idx: np.ndarray) -> Tensor:
    """Rows `idx` of a 2-D table, repeats allowed; the vjp onehot(idx)ᵀ @ g is linear."""
    idx = np.asarray(idx)
    n_rows = len(w.data)
    if w.ndim != 2 or idx.ndim != 1 or idx.size and not 0 <= idx.min() <= idx.max() < n_rows:
        raise ShapeError(f"take_rows: {idx.shape} indices into a {w.shape} table")

    def vjp(g, needs, ops):
        onehot = Tensor((idx[:, None] == np.arange(n_rows)).astype(np.float64))
        return (ops.matmul(ops.swap_last2(ops.val(onehot)), g),)

    return _from_op("take_rows", (w,), vjp, idx)


# ---------------------------------------------------------------------------
# Fused ops used by the encoder: affine, softmax_last, attention, layer_norm,
# gelu, cross_entropy_logits. Each is one node whose value comes from one
# `_Arrays` chain; every vjp is still expressed in ops, so hvp stays exact.
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 2-D x (rows, n_in), 2-D w (n_in, n_out) and 1-D b (n_out,)."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: {x.shape} @ {w.shape} + {b.shape}")

    # a frozen w keeps w and not x: only g @ wᵀ is needed
    x_read, w_read = x if w.requires_grad else None, w if x.requires_grad else None

    def vjp(g, needs, ops):
        return (ops.matmul(g, ops.swap_last2(ops.val(w_read))) if needs[0] else None,
                ops.matmul(ops.swap_last2(ops.val(x_read)), g) if needs[1] else None,
                ops.tsum(g, axes=(0,)) if needs[2] else None)

    return _from_op("affine", (x, w, b), vjp)


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability.

    The shift is a per-row constant, so values and derivatives are exact.
    The vjp p * (g - sum(g * p)) recomputes p from x through ops, so hvp sees it.
    """
    def vjp(g, needs, ops):
        return (_softmax_vjp(ops, g, ops.softmax_last(ops.val(x))),)

    return _from_op("softmax_last", (x,), vjp)


def _softmax_vjp(ops, g, p):
    gp = ops.mul(g, p)
    return ops.sub_(gp, ops.mul(p, ops.broadcast_to(
        ops.tsum(gp, axes=(-1,), keepdims=True), p.shape)))


def attention(q: Tensor, k: Tensor, v: Tensor, bsz: int, n_heads: int) -> Tensor:
    """Multi-head softmax attention of (rows, d) projections. q holds bsz sequences
    of rows; k and v hold bsz sequences each of as many rows or more, so that a
    caller can put extra key/value rows (mam's prefix) in front of a sequence's own.
    The vjp recomputes the softmax weights from q and k, as FlashAttention does."""
    if q.ndim != 2 or k.ndim != 2 or k.shape[1] != q.shape[1] or v.shape != k.shape \
            or q.shape[0] % bsz or k.shape[0] % bsz or q.shape[1] % n_heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, "
                         f"{bsz} sequences, {n_heads} heads")

    def vjp(g, needs, ops):
        q4, k4, v4, p = _attention_weights(ops, ops.val(q), ops.val(k), ops.val(v), bsz,
                                           n_heads)
        g4 = _split_heads(ops, g, bsz, n_heads)
        if needs[0] or needs[1]:    # back through softmax and the 1/sqrt(d_head) scale
            gs = ops.scale_(_softmax_vjp(ops, ops.matmul(g4, ops.swap_last2(v4)), p),
                            1.0 / math.sqrt(g4.shape[-1]))
        g4s = (ops.matmul(gs, k4) if needs[0] else None,
               ops.swap_last2(ops.matmul(ops.swap_last2(q4), gs)) if needs[1] else None,
               ops.matmul(ops.swap_last2(p), g4) if needs[2] else None)
        return tuple(None if g is None else ops.reshape(ops.permute(g, (0, 2, 1, 3)), x.shape)
                     for g, x in zip(g4s, (q, k, v)))

    return _from_op("attention", (q, k, v), vjp, bsz, n_heads)


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

    return _from_op("cross_entropy_logits", (logits,), vjp, labels)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if gamma.ndim != 1 or beta.ndim != 1 or x.shape[-1] != gamma.shape[0] \
            or gamma.shape != beta.shape:
        raise ShapeError(f"layer_norm: {x.shape} with gamma {gamma.shape}, "
                         f"beta {beta.shape}")
    d = x.shape[-1]
    lead = tuple(range(x.ndim - 1))
    gamma_read = gamma if x.requires_grad else None     # only x's gradient reads it

    def vjp(g, needs, ops):
        # y = (x - mean) / std, recomputed through ops so that hvp sees it
        xv = ops.val(x)
        mu = ops.scale_(ops.tsum(xv, axes=(-1,), keepdims=True), 1.0 / d)
        xc = ops.sub(xv, ops.broadcast_to(mu, x.shape))
        var = ops.scale_(ops.tsum(ops.mul(xc, xc), axes=(-1,), keepdims=True), 1.0 / d)
        inv = ops.powc(ops.add_scalar_(var, LAYER_NORM_EPS), -0.5)
        y = ops.mul_(xc, ops.broadcast_to(inv, x.shape))
        gx = ggamma = gbeta = None
        if needs[0]:
            gamma_wide = ops.broadcast_to(
                ops.reshape(ops.val(gamma_read), (1,) * len(lead) + (d,)), x.shape)
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

    return _from_op("layer_norm", (x, gamma, beta), vjp)


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

    return _from_op("gelu", (x,), vjp)


# ---------------------------------------------------------------------------
# Tape, backward, hvp
# ---------------------------------------------------------------------------

class Tape:
    """Ordered record of the graph nodes behind an output tensor: a `_Node`
    per op, and each leaf as itself.

    Node creation ids are monotone, so ascending-id order is a topological
    order: every op's inputs precede it.
    """

    def __init__(self, nodes: list[_Node | Tensor]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "Tape":
        """Every node reachable from `out`'s node through parents, that node
        included."""
        seen = {out._id}
        nodes = [out._node]
        stack = [out._node]
        while stack:
            for p in stack.pop()._parents:
                if p._id not in seen:
                    seen.add(p._id)
                    nodes.append(p)
                    stack.append(p)
        nodes.sort(key=lambda t: t._id)
        return cls(nodes)


def _run_vjps(loss: Tensor, params: Mapping[str, Tensor], ops, seed) -> dict:
    """Every vjp behind `loss`, run once on backend `ops` with numpy's flags
    raising; gradients by parameter name."""
    param_names = {t._id: name for name, t in params.items()}
    grads = {loss._id: seed}
    result = {}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for node in reversed(Tape.from_output(loss).nodes):
            if ops is _Duals:   # each vjp that reads this node's tangent has run
                _tangents.table.pop(node._id, None)
            g = grads.pop(node._id, None)
            if g is None:
                continue
            name = param_names.get(node._id)
            if name is not None:
                result[name] = g
            if node._vjp is None:
                continue
            try:
                for parent, pg in zip(node._parents, node._vjp(g, node._needs, ops)):
                    if pg is None:
                        continue
                    acc = grads.get(parent._id)
                    grads[parent._id] = pg if acc is None else ops.add(acc, pg)
            except FloatingPointError as exc:
                raise NumericError(f"non-finite values in the vjp of op '{node._op}'") from exc
    return result


def _check_loss(loss: Tensor, params: Mapping[str, Tensor], who: str) -> None:
    if loss.data.shape != ():
        raise ShapeError(f"{who}: loss must be scalar, got shape {loss.shape}")
    if not any(t.requires_grad for t in params.values()):
        raise ValueError(f"{who}: no parameter has requires_grad set")


def _by_param(arrays: Mapping[str, np.ndarray | None],
              params: Mapping[str, Tensor]) -> dict[str, Tensor]:
    """A tensor per parameter, zeros where `arrays` has none; Tensor() checks
    each array once."""
    return {name: Tensor(np.zeros(t.shape) if arrays.get(name) is None else arrays[name])
            for name, t in params.items()}


def backward(loss: Tensor, params: Mapping[str, Tensor],
             create_graph: bool = False) -> dict[str, Tensor]:
    """Gradients of a scalar loss for every tensor in `params`, as constants.

    Parameters the loss does not reach get explicit zero tensors. There is
    no differentiable backward: `hvp` gives second order. `create_graph`
    is kept for callers that pass it, and must be False.
    """
    if create_graph:
        raise ValueError("backward: create_graph=True is not supported; use hvp for "
                         "Hessian-vector products")
    _check_loss(loss, params, "backward")
    return _by_param(_run_vjps(loss, params, _Arrays, np.ones(())), params)


def _dual_grads(loss_fn: Callable[[Mapping[str, Tensor]], Tensor],
                params: Mapping[str, Tensor],
                v: Mapping[str, Tensor]) -> dict[str, _Dual]:
    """(gradient, H v) of each parameter the loss reaches: ``loss_fn`` runs
    with a tangent on every node, from v on the parameters that take
    gradients, and then one backward runs over (value, tangent) pairs."""
    prev = _tangents.table
    _tangents.table = {t._id: v[name].data for name, t in params.items() if t.requires_grad}
    try:
        loss = loss_fn(params)
        _check_loss(loss, params, "hvp")
        return _run_vjps(loss, params, _Duals, _Dual(np.ones(()), None))
    finally:
        _tangents.table = prev


def hvp(loss_fn: Callable[[Mapping[str, Tensor]], Tensor],
        params: Mapping[str, Tensor],
        v: Mapping[str, Tensor]) -> dict[str, Tensor]:
    """Hessian-vector product H @ v of ``loss_fn`` at ``params``.

    Exact forward-over-reverse (Pearlmutter's R-operator): the tangent of
    the gradient along v, carried through one forward and one backward. The
    loss function must consume the given parameter tensors (directly or by
    closing over the same objects).
    """
    if set(v.keys()) != set(params.keys()):
        raise ShapeError("hvp: direction keys differ from parameter keys")
    for k in params:
        if v[k].shape != params[k].shape:
            raise ShapeError(f"hvp: direction shape mismatch for '{k}'")
    duals = _dual_grads(loss_fn, params, v)
    return _by_param({name: d.tangent for name, d in duals.items()}, params)
