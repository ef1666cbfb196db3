"""Dense float64 tensor engine with reverse-mode autodiff and exact Hessian-vector products.

Every primitive propagates gradients through closures that are themselves built
from engine ops, so a gradient computed with ``create_graph=True`` is a
differentiable graph and ``hvp`` is exact second-order (no finite differences
inside the engine). All storage is 64-bit, row-major numpy. Any op that
produces a NaN/Inf raises immediately instead of propagating it.
"""

from __future__ import annotations

import itertools
import math
import weakref
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
    return math.isfinite(float(np.sum(arr)))


class Tensor:
    """A dense float64 value, optionally participating in the gradient tape.

    Tensors created by ops carry their parents and a vector-Jacobian closure;
    leaves (parameters, constants) carry neither.
    """

    # A vjp that needs its op's own output (exp, tanh, softmax) holds it by weak
    # reference: a closure over the output would make every graph a reference
    # cycle, which outlives its step until the cyclic collector happens to run.
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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


def detach(a: Tensor) -> Tensor:
    """Constant copy of a tensor's value; gradients do not flow through it."""
    return Tensor(a.data)


# ---------------------------------------------------------------------------
# Primitives. Each vjp returns one engine tensor (or None) per parent and is
# written in engine ops so that gradients are themselves differentiable.
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs):
        return g if needs[0] else None, g if needs[1] else None

    return _from_op("add", a.data + b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g, needs):
        return (neg(g),)

    return _from_op("neg", -a.data, (a,), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def vjp(g, needs):
        return (mul(g, b) if needs[0] else None,
                mul(g, a) if needs[1] else None)

    return _from_op("mul", a.data * b.data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g, needs):
        return (scale(g, c),)

    return _from_op("scale", a.data * c, (a,), vjp)


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g, needs):
        return (g,)

    return _from_op("add_scalar", a.data + c, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must have equal ndim and identical batch dims."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != a.ndim:
        raise ShapeError(f"matmul: need equal ndim >= 2, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")

    def vjp(g, needs):
        return (matmul(g, swap_last2(b)) if needs[0] else None,
                matmul(swap_last2(a), g) if needs[1] else None)

    return _from_op("matmul", np.matmul(a.data, b.data), (a, b), vjp)


def swap_last2(a: Tensor) -> Tensor:
    def vjp(g, needs):
        return (swap_last2(g),)

    return _from_op("swap_last2", np.swapaxes(a.data, -1, -2), (a,), vjp)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def vjp(g, needs):
        return (permute(g, inv),)

    return _from_op("permute", np.transpose(a.data, axes), (a,), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = a.shape

    def vjp(g, needs):
        return (reshape(g, orig),)

    return _from_op("reshape", np.reshape(a.data, shape), (a,), vjp)


def tsum(a: Tensor, axes: tuple[int, ...] | None = None, keepdims: bool = False) -> Tensor:
    """Sum over the given axes (all axes when None)."""
    nd = a.ndim
    norm = tuple(range(nd)) if axes is None else tuple(sorted(ax % nd for ax in axes))
    orig = a.shape
    kd_shape = tuple(1 if i in norm else orig[i] for i in range(nd))

    def vjp(g, needs):
        gg = g if keepdims or nd == 0 else reshape(g, kd_shape)
        return (broadcast_to(gg, orig),)

    return _from_op("sum", np.sum(a.data, axis=norm, keepdims=keepdims), (a,), vjp)


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    orig = a.shape
    lead = len(shape) - len(orig)
    if lead < 0:
        raise ShapeError(f"broadcast_to: cannot broadcast {orig} to {shape}")
    reduce_axes = tuple(range(lead)) + tuple(
        lead + i for i in range(len(orig)) if orig[i] == 1 and shape[lead + i] != 1
    )

    def vjp(g, needs):
        r = tsum(g, axes=reduce_axes, keepdims=True) if reduce_axes else g
        return (reshape(r, orig),)

    return _from_op("broadcast", np.broadcast_to(a.data, shape), (a,), vjp)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out_data = np.exp(a.data)

    def vjp(g, needs):
        return (mul(g, out_ref()),)

    out = _from_op("exp", out_data, (a,), vjp)
    out_ref = weakref.ref(out)
    return out


def log(a: Tensor) -> Tensor:
    def vjp(g, needs):
        return (mul(g, powc(a, -1.0)),)

    with np.errstate(invalid="ignore", divide="ignore"):
        out_data = np.log(a.data)
    return _from_op("log", out_data, (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def vjp(g, needs):
        # 1 - tanh(x)^2, expressed on the recorded output
        out = out_ref()
        return (mul(g, add_scalar(neg(mul(out, out)), 1.0)),)

    out = _from_op("tanh", out_data, (a,), vjp)
    out_ref = weakref.ref(out)
    return out


def _pow_data(x: np.ndarray, p: float) -> np.ndarray:
    # np.power with a float exponent is an order of magnitude slower than
    # the handful of exponents the encoder actually uses
    if p == 2.0:
        return x * x
    if p == 3.0:
        return x * x * x
    if p == -1.0:
        return 1.0 / x
    if p == -0.5:
        return 1.0 / np.sqrt(x)
    if p == 0.5:
        return np.sqrt(x)
    if p == 1.0:
        return x.copy()
    return np.power(x, p)


def powc(a: Tensor, p: float) -> Tensor:
    p = float(p)

    def vjp(g, needs):
        return (mul(g, scale(powc(a, p - 1.0), p)),)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out_data = _pow_data(a.data, p)
    return _from_op("pow", out_data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    # Gate captured as a constant: piecewise-constant factor, zero curvature.
    gate = Tensor((a.data > 0).astype(np.float64))

    def vjp(g, needs):
        return (mul(g, gate),)

    return _from_op("relu", np.maximum(a.data, 0.0), (a,), vjp)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    axis = axis % a.ndim
    total = a.shape[axis]
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.ndim))

    def vjp(g, needs):
        return (pad_axis(g, axis, start, total),)

    return _from_op("slice", a.data[idx], (a,), vjp)


def pad_axis(a: Tensor, axis: int, before: int, total: int) -> Tensor:
    """Embed `a` into zeros along one axis so that its extent becomes `total`."""
    axis = axis % a.ndim
    length = a.shape[axis]
    if before < 0 or before + length > total:
        raise ShapeError(f"pad_axis: segment [{before}, {before + length}) outside [0, {total})")
    target = tuple(total if i == axis else a.shape[i] for i in range(a.ndim))
    idx = tuple(slice(before, before + length) if i == axis else slice(None)
                for i in range(a.ndim))

    def fwd(x):
        z = np.zeros(target)
        z[idx] = x
        return z

    def vjp(g, needs):
        return (slice_axis(g, axis, before, before + length),)

    return _from_op("pad", fwd(a.data), (a,), vjp)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    axis = axis % parts[0].ndim
    sizes = [p.shape[axis] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def vjp(g, needs):
        return tuple(slice_axis(g, axis, int(offsets[i]), int(offsets[i + 1]))
                     if needs[i] else None for i in range(len(parts)))

    return _from_op("concat", np.concatenate([p.data for p in parts], axis=axis),
                    tuple(parts), vjp)


# ---------------------------------------------------------------------------
# Fused ops used by the encoder: affine, softmax, layernorm, gelu,
# cross-entropy. Forwards run as single numpy chains; every vjp is still
# expressed in engine ops, so second derivatives stay exact.
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for 2-D x (rows, n_in) and 1-D bias (n_out,)."""
    return bias_add(matmul(x, w), b)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    if b.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise ShapeError(f"bias_add: {x.shape} + {b.shape}")
    lead = tuple(range(x.ndim - 1))

    def vjp(g, needs):
        gb = None
        if needs[1]:
            gb = tsum(g, axes=lead) if lead else g
        return (g if needs[0] else None, gb)

    return _from_op("bias_add", x.data + b.data, (x, b), vjp)


def softmax_last(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability.

    The shift is a per-row constant, so values and derivatives are exact.
    The vjp p * (g - sum(g * p)) reuses the output node, which keeps it
    differentiable for free.
    """
    def fwd(xx):
        e = np.exp(xx - np.max(xx, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    def vjp(g, needs):
        out = out_ref()
        gp = mul(g, out)
        return (sub(gp, mul(out, broadcast_to(tsum(gp, axes=(-1,), keepdims=True),
                                              out.shape))),)

    out = _from_op("softmax", fwd(x.data), (x,), vjp)
    out_ref = weakref.ref(out)
    return out


def cross_entropy_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (batch, classes) logits against integer labels.

    Fused with log-sum-exp stabilization; the gradient (softmax - onehot)/n
    recomputes the softmax through the engine so hvp sees the curvature.
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

    def fwd(z):
        m = np.max(z, axis=-1, keepdims=True)
        lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=-1))
        return np.mean(lse - z[np.arange(n), labels])

    def vjp(g, needs):
        delta = scale(sub(softmax_last(logits), Tensor(onehot)), 1.0 / n)
        return (mul(broadcast_to(reshape(g, (1, 1)), (n, c)), delta),)

    return _from_op("cross_entropy", fwd(logits.data), (logits,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    if gamma.ndim != 1 or beta.ndim != 1 or x.shape[-1] != gamma.shape[0] \
            or gamma.shape != beta.shape:
        raise ShapeError(f"layer_norm: {x.shape} with gamma {gamma.shape}, "
                         f"beta {beta.shape}")
    d = x.shape[-1]
    lead = tuple(range(x.ndim - 1))

    def norm(xx):
        mu = np.mean(xx, axis=-1, keepdims=True)
        xc = xx - mu
        inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + eps)
        return xc * inv

    def fwd(xx, gg, bb):
        return norm(xx) * gg + bb

    def _normalized():
        # engine-side recomputation of y = (x - mean) / std for the vjp
        mu = scale(tsum(x, axes=(-1,), keepdims=True), 1.0 / d)
        xc = sub(x, broadcast_to(mu, x.shape))
        var = scale(tsum(mul(xc, xc), axes=(-1,), keepdims=True), 1.0 / d)
        inv = powc(add_scalar(var, eps), -0.5)
        return mul(xc, broadcast_to(inv, x.shape)), inv

    def vjp(g, needs):
        y, inv = _normalized()
        gx = ggamma = gbeta = None
        if needs[0]:
            gamma_wide = broadcast_to(reshape(gamma, (1,) * len(lead) + (d,)), x.shape)
            gy = mul(g, gamma_wide)
            mean_gy = scale(tsum(gy, axes=(-1,), keepdims=True), 1.0 / d)
            mean_gyy = scale(tsum(mul(gy, y), axes=(-1,), keepdims=True), 1.0 / d)
            centered = sub(sub(gy, broadcast_to(mean_gy, x.shape)),
                           mul(y, broadcast_to(mean_gyy, x.shape)))
            gx = mul(centered, broadcast_to(inv, x.shape))
        if needs[1]:
            ggamma = tsum(mul(g, y), axes=lead) if lead else mul(g, y)
        if needs[2]:
            gbeta = tsum(g, axes=lead) if lead else g
        return gx, ggamma, gbeta

    return _from_op("layernorm", fwd(x.data, gamma.data, beta.data),
                    (x, gamma, beta), vjp)


# Tanh-approximation constants; the derivative uses the same constant set.
GELU_C0 = 0.7978845608028654  # sqrt(2/pi)
GELU_C1 = 0.044715


def gelu(x: Tensor) -> Tensor:
    """0.5 x (1 + tanh(c0 (x + c1 x^3)))."""
    def fwd(xx):
        return 0.5 * xx * (1.0 + np.tanh(GELU_C0 * (xx + GELU_C1 * xx ** 3)))

    def vjp(g, needs):
        # d/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c0 (1 + 3 c1 x^2),  t = tanh(...)
        x2 = mul(x, x)
        t = tanh(scale(add(x, scale(mul(x2, x), GELU_C1)), GELU_C0))
        one_minus_t2 = add_scalar(neg(mul(t, t)), 1.0)
        du = scale(add_scalar(scale(x2, 3.0 * GELU_C1), 1.0), GELU_C0)
        deriv = add(scale(add_scalar(t, 1.0), 0.5),
                    mul(scale(x, 0.5), mul(one_minus_t2, du)))
        return (mul(g, deriv),)

    return _from_op("gelu", fwd(x.data), (x,), vjp)


# ---------------------------------------------------------------------------
# Tape, backward, hvp
# ---------------------------------------------------------------------------

def _ancestors(root: Tensor) -> list[Tensor]:
    """All graph nodes reachable from `root` through parents (root included)."""
    seen = {root._id}
    out = [root]
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p._id not in seen:
                seen.add(p._id)
                out.append(p)
                stack.append(p)
    return out


class Tape:
    """Ordered record of the primitive ops behind an output tensor.

    Node creation ids are monotone, so ascending-id order is a topological
    order: every op's inputs precede it.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "Tape":
        return cls(sorted(_ancestors(out), key=lambda t: t._id))


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

    param_names = {t._id: name for name, t in params.items()}
    grads: dict[int, Tensor] = {loss._id: Tensor(1.0)}
    result: dict[str, Tensor] = {}

    def run():
        for node in sorted(_ancestors(loss), key=lambda t: t._id, reverse=True):
            g = grads.pop(node._id, None)
            if g is None:
                continue
            name = param_names.get(node._id)
            if name is not None:
                result[name] = g
            if node._vjp is None:
                continue
            needs = tuple(p.requires_grad for p in node._parents)
            for parent, pg in zip(node._parents, node._vjp(g, needs)):
                if pg is None:
                    continue
                acc = grads.get(parent._id)
                grads[parent._id] = pg if acc is None else add(acc, pg)

    if create_graph:
        run()
    else:
        with no_grad():
            run()

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
        if _as_tensor(v[k]).shape != params[k].shape:
            raise ShapeError(f"hvp: direction shape mismatch for '{k}'")

    loss = loss_fn(params)
    grads = backward(loss, params, create_graph=True)
    gv: Tensor | None = None
    for k in sorted(params.keys()):
        term = tsum(mul(grads[k], detach(_as_tensor(v[k]))))
        gv = term if gv is None else add(gv, term)
    return backward(gv, params)
