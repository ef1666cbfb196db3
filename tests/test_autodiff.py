"""Engine tests: every primitive against finite differences, backward/hvp
contracts, the two vjp backends and forward tangents, tape topology,
determinism."""

import contextlib
import gc
import inspect
import itertools
import sys
import threading
import warnings
import weakref
import zlib

import numpy as np
import pytest

import sparseadapter.autodiff as ad
from sparseadapter.adapters import AdapterSpec, insert_adapters
from sparseadapter.model import EncoderConfig, build_encoder, freeze_backbone
from oracles import composed_forward, fd_gradient, fd_hvp, random_small_net, rel_err
from probes import keep_op_outputs


def check_grad(loss_fn, params, tol=1e-6, eps=1e-5):
    grads = ad.backward(loss_fn(params), params)
    fd = fd_gradient(loss_fn, params, eps=eps)
    for name in params:
        assert rel_err(grads[name].data, fd[name], floor=1e-4) < tol, name


# ---------------------------------------------------------------------------
# Primitive gradients vs central finite differences
# ---------------------------------------------------------------------------

def _rand(rng, *shape):
    return ad.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


PRIMITIVE_CASES = [
    "add", "mul", "scale", "matmul", "batched_matmul", "swap", "permute", "reshape",
    "sum_all", "sum_axis", "broadcast", "tanh", "concat",
    "affine", "softmax", "layernorm", "gelu", "cross_entropy", "take_rows",
    "attention", "attention_prefix",
]


def _primitive_case(case):
    """(loss_fn, params, rng) of a small loss through one primitive."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    c = ad.Tensor(rng.uniform(-1.0, 1.0, (3, 4)))

    if case == "add":
        p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.add(q["a"], q["b"]), c))
    elif case == "mul":
        p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.mul(q["a"], q["b"]), c))
    elif case == "scale":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.scale(q["a"], -2.5), c))
    elif case == "matmul":
        p = {"a": _rand(rng, 3, 5), "b": _rand(rng, 5, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.matmul(q["a"], q["b"]), c))
    elif case == "batched_matmul":
        cc = ad.Tensor(rng.uniform(-1, 1, (2, 3, 3)))
        p = {"a": _rand(rng, 2, 3, 5), "b": _rand(rng, 2, 5, 3)}
        fn = lambda q: ad.tsum(ad.mul(ad.matmul(q["a"], q["b"]), cc))
    elif case == "swap":
        cc = ad.Tensor(rng.uniform(-1, 1, (4, 3)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.swap_last2(q["a"]), cc))
    elif case == "permute":
        cc = ad.Tensor(rng.uniform(-1, 1, (4, 2, 3)))
        p = {"a": _rand(rng, 2, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.permute(q["a"], (2, 0, 1)), cc))
    elif case == "reshape":
        cc = ad.Tensor(rng.uniform(-1, 1, (12,)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.reshape(q["a"], (12,)), cc))
    elif case == "sum_all":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(q["a"])
    elif case == "sum_axis":
        cc = ad.Tensor(rng.uniform(-1, 1, (3,)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.tsum(q["a"], axes=(1,)), cc))
    elif case == "broadcast":
        cc = ad.Tensor(rng.uniform(-1, 1, (5, 3, 4)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.broadcast_to(q["a"], (5, 3, 4)), cc))
    elif case == "tanh":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.tanh(q["a"]), c))
    elif case == "concat":
        cc = ad.Tensor(rng.uniform(-1, 1, (3, 6)))
        p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 2)}
        fn = lambda q: ad.tsum(ad.mul(ad.concat([q["a"], q["b"]], axis=1), cc))
    elif case == "affine":
        p = {"x": _rand(rng, 3, 5), "w": _rand(rng, 5, 4), "b": _rand(rng, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.affine(q["x"], q["w"], q["b"]), c))
    elif case == "softmax":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.softmax_last(q["a"]), c))
    elif case == "layernorm":
        p = {"a": _rand(rng, 3, 4),
             "g": ad.Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True),
             "b": _rand(rng, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.layer_norm(q["a"], q["g"], q["b"]), c))
    elif case == "gelu":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.gelu(q["a"]), c))
    elif case == "cross_entropy":
        labels = rng.integers(0, 4, 3)
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.cross_entropy_logits(q["a"], labels)
    elif case == "take_rows":
        cc = ad.Tensor(rng.uniform(-1, 1, (6, 4)))
        p = {"w": _rand(rng, 5, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.take_rows(q["w"], np.array([3, 0, 3, 1, 3, 0])), cc))
    elif case.startswith("attention"):
        # 2 sequences of 3 query rows, 2 heads of width 2; with a prefix, each
        # sequence has 5 key/value rows, as 2 prefix rows in front of 3 make them
        cc = ad.Tensor(rng.uniform(-1, 1, (6, 4)))
        kv_rows = 10 if case == "attention_prefix" else 6
        p = {"q": _rand(rng, 6, 4), "k": _rand(rng, kv_rows, 4), "v": _rand(rng, kv_rows, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.attention(q["q"], q["k"], q["v"], 2, 2), cc))
    else:
        raise AssertionError(case)
    return fn, p, rng


@pytest.mark.parametrize("case", PRIMITIVE_CASES)
def test_primitive_gradients(case):
    fn, p, rng = _primitive_case(case)
    check_grad(fn, p)
    # and the double backward, against finite differences of gradients
    v = {k: ad.Tensor(rng.uniform(-1.0, 1.0, t.shape)) for k, t in p.items()}
    hv = ad.hvp(fn, p, v)
    fd = fd_hvp(fn, p, v)
    for k in p:
        assert rel_err(hv[k].data, fd[k]) < 1e-4, k


def _closed_over(fn) -> set:
    """The node ids of the tensors a closure holds, directly or in a tuple or
    list."""
    held = set()
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        for x in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(x, ad.Tensor):
                held.add(x._id)
    return held


def test_vjps_read_exactly_the_declared_parents(monkeypatch):
    # each vjp closes over exactly the tensors of the forward that its
    # backward reads through ops.val (take_rows' vjp makes its own one-hot),
    # for every set of parameters that take gradients, so a graph keeps no
    # value alive that no vjp reads
    reads, running, backward_from = {}, [None], [0]
    val = ad._Arrays.val

    def reading(t):
        if t._id < backward_from[0]:
            reads[running[0]].add(t._id)
        return val(t)

    def recording(vjp, node_id):
        def run(g, needs, ops):
            running[0] = node_id
            reads[node_id] = set()
            return vjp(g, needs, ops)
        return run

    monkeypatch.setattr(ad._Arrays, "val", reading)
    for case in PRIMITIVE_CASES:
        fn, p, _ = _primitive_case(case)
        for n_live in range(1, len(p) + 1):
            for live in itertools.combinations(p, n_live):
                for name, t in p.items():
                    t.requires_grad = name in live
                loss = fn(p)
                held = {}
                for node in ad.Tape.from_output(loss).nodes:
                    if node._vjp is None:
                        continue
                    # each node is named after the autodiff function that made it
                    assert inspect.isfunction(getattr(ad, node._op, None)) and \
                        node._vjp.__qualname__ == f"{node._op}.<locals>.vjp", (case, node._op)
                    held[node._id] = _closed_over(node._vjp)
                    node._vjp = recording(node._vjp, node._id)
                reads.clear()
                backward_from[0] = next(ad._next_id)
                ad.backward(loss, p)
                assert reads == held, (case, live)


# The operand shapes, then the constants, of one call of each `_Duals` function
DUAL_CASES = {
    "add": ([(3, 4), (3, 4)], ()),
    "sub": ([(3, 4), (3, 4)], ()),
    "mul": ([(3, 4), (3, 4)], ()),
    "add_scalar": ([(3, 4)], (0.7,)),
    "neg": ([(3, 4)], ()),
    "scale": ([(3, 4)], (-2.5,)),
    "matmul": ([(2, 3, 5), (2, 5, 3)], ()),
    "permute": ([(2, 3, 4)], ((2, 0, 1),)),
    "reshape": ([(3, 4)], ((2, 6),)),
    "broadcast_to": ([(3, 1)], ((2, 3, 4),)),
    "swap_last2": ([(2, 3, 4)], ()),
    "tsum": ([(3, 4)], ((1,), True)),
    "slice_axis": ([(3, 4)], (1, 1, 3)),
    "take_rows": ([(5, 4)], (np.array([3, 0, 3, 1]),)),
    "concat": ([(3, 4), (3, 2)], (1,)),
    "tanh": ([(3, 4)], ()),
    "powc": ([(3, 4)], (-0.5,)),
    "affine": ([(3, 5), (5, 4), (4,)], ()),
    "softmax_last": ([(3, 4)], ()),
    "cross_entropy_logits": ([(3, 4)], (np.array([0, 3, 1]),)),
    "layer_norm": ([(3, 4), (4,), (4,)], ()),
    "gelu": ([(3, 4)], ()),
    "attention": ([(6, 4), (10, 4), (10, 4)], (2, 2)),
}


@pytest.mark.parametrize("name", sorted(n for n in vars(ad._Duals)
                                        if not n.startswith("__") and n != "val"))
def test_dual_tangents_match_central_differences(name):
    # each operand carries its tangent or None; the tangent out must be the
    # central difference of the _Arrays namesake along the carried tangents,
    # and the value its bits (a _Duals twin is its plain op, checked against
    # the in-place _Arrays twin)
    shapes, consts = DUAL_CASES[name.rstrip("_")]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    lo = 0.5 if name == "powc" else -1.0
    values = [rng.uniform(lo, 1.5, shape) for shape in shapes]
    tangents = [rng.uniform(-1.0, 1.0, shape) for shape in shapes]
    arrays, duals, h = getattr(ad._Arrays, name), getattr(ad._Duals, name), 1e-6
    for carried in itertools.product((False, True), repeat=len(shapes)):
        def at(step):
            return arrays(*[x + step * t if c else x.copy()
                            for x, t, c in zip(values, tangents, carried)], *consts)

        got = duals(*[ad._Dual(x, t if c else None)
                      for x, t, c in zip(values, tangents, carried)], *consts)
        assert np.asarray(got.value).tobytes() == np.asarray(at(0.0)).tobytes()
        want = (at(h) - at(-h)) / (2.0 * h)
        tangent = np.zeros(np.shape(want)) if got.tangent is None else got.tangent
        assert rel_err(tangent, want, floor=1e-4) < 1e-7, carried


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------

def test_backward_square():
    w = ad.Tensor(3.0, requires_grad=True)
    grads = ad.backward(ad.mul(w, w), {"w": w})
    assert grads["w"].data == 6.0


def test_backward_unused_param_gets_explicit_zero():
    w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    u = ad.Tensor(2.0, requires_grad=True)
    grads = ad.backward(ad.mul(u, u), {"w": w, "u": u})
    assert grads["w"].shape == (2, 2)
    assert np.all(grads["w"].data == 0.0)
    assert grads["u"].data == 4.0


def test_backward_rejects_non_scalar_loss():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(w, w), {"w": w})


def test_backward_has_no_create_graph():
    # second order is hvp's; backward keeps the argument only for its callers
    w = ad.Tensor(3.0, requires_grad=True)
    with pytest.raises(ValueError, match="use hvp"):
        ad.backward(ad.mul(w, w), {"w": w}, create_graph=True)


def test_backward_requires_a_trainable_param():
    w = ad.Tensor(1.0, requires_grad=False)
    with pytest.raises(ValueError):
        ad.backward(ad.mul(w, w), {"w": w})


def test_random_mlp_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        loss_fn, params = random_small_net(rng)
        check_grad(loss_fn, params)


def test_nan_error_names_the_op():
    a = ad.Tensor(np.array([1e308, -1.0]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match="'scale'"):
        ad.scale(a, 10.0)


def test_finite_values_whose_sum_overflows_are_finite():
    # each element is checked, not a sum that a finite array can overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = ad.Tensor(np.array([1e308, 1e308]))
        joined = ad.concat([ad.Tensor(np.array([1.7e308])), ad.Tensor(np.array([1.7e308]))],
                           axis=0)
    assert big.data.tolist() == [1e308, 1e308]
    assert joined.data.tolist() == [1.7e308, 1.7e308]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ad.NumericError, match="non-finite values in tensor literal"):
            ad.Tensor(np.array([1.0, bad]))


def test_shape_errors():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((3, 2)))
    with pytest.raises(ad.ShapeError):
        ad.add(a, b)
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, ad.Tensor(np.ones((2, 2))))
    for x, w, bias in [(a, b, np.ones(3)), (a, b, np.ones((1, 2))), (a, a, np.ones(3)),
                       (ad.Tensor(np.ones((1, 2, 3))), b, np.ones(2))]:
        with pytest.raises(ad.ShapeError):
            ad.affine(x, w, ad.Tensor(bias))
    x = ad.Tensor(np.ones((6, 4)))
    more = ad.Tensor(np.ones((10, 4)))
    for q, k, v, bsz, heads in [
            (x, ad.Tensor(np.ones((6, 2))), ad.Tensor(np.ones((6, 2))), 2, 2),  # k width
            (x, x, x, 4, 2),                                # q rows not bsz * seq
            (x, x, x, 2, 3),                                # d not n_heads * d_head
            (x, ad.Tensor(np.ones((9, 4))), ad.Tensor(np.ones((9, 4))), 2, 2),  # k rows
            (x, more, x, 2, 2),                             # v rows differ from k's
            (x, more, ad.Tensor(np.ones((10, 2))), 2, 2),   # v width differs from k's
            (ad.Tensor(np.ones((2, 3, 4))),) * 3 + (2, 2)]:
        with pytest.raises(ad.ShapeError):
            ad.attention(q, k, v, bsz, heads)
    for w, idx in [(x, [0, 6]), (x, [-1]), (x, [[0]]), (ad.Tensor(np.ones(4)), [0])]:
        with pytest.raises(ad.ShapeError):
            ad.take_rows(w, np.array(idx))


# ---------------------------------------------------------------------------
# hvp contract
# ---------------------------------------------------------------------------

def test_hvp_square():
    w = ad.Tensor(3.0, requires_grad=True)
    hv = ad.hvp(lambda p: ad.mul(p["w"], p["w"]), {"w": w}, {"w": ad.Tensor(1.0)})
    assert hv["w"].data == pytest.approx(2.0, abs=1e-12)


def test_hvp_bilinear():
    a = ad.Tensor(2.0, requires_grad=True)
    b = ad.Tensor(5.0, requires_grad=True)
    hv = ad.hvp(lambda p: ad.mul(p["a"], p["b"]), {"a": a, "b": b},
                {"a": ad.Tensor(1.0), "b": ad.Tensor(0.0)})
    assert hv["a"].data == pytest.approx(0.0, abs=1e-12)
    assert hv["b"].data == pytest.approx(1.0, abs=1e-12)


def test_hvp_key_and_shape_mismatch():
    w = ad.Tensor(np.ones(3), requires_grad=True)
    fn = lambda p: ad.tsum(ad.mul(p["w"], p["w"]))
    with pytest.raises(ad.ShapeError):
        ad.hvp(fn, {"w": w}, {"u": ad.Tensor(np.ones(3))})
    with pytest.raises(ad.ShapeError):
        ad.hvp(fn, {"w": w}, {"w": ad.Tensor(np.ones(4))})


def test_hvp_matches_fd_of_gradients():
    rng = np.random.default_rng(11)
    for _ in range(4):
        loss_fn, params = random_small_net(rng)
        v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
        hv = ad.hvp(loss_fn, params, v)
        fd = fd_hvp(loss_fn, params, v)
        for k in params:
            assert rel_err(hv[k].data, fd[k]) < 1e-4, k


def test_hvp_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(4):
        loss_fn, params = random_small_net(rng)
        u = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
        v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
        hv = ad.hvp(loss_fn, params, v)
        hu = ad.hvp(loss_fn, params, u)
        uhv = sum(float(np.sum(u[k].data * hv[k].data)) for k in params)
        vhu = sum(float(np.sum(v[k].data * hu[k].data)) for k in params)
        assert abs(uhv - vhu) / max(abs(uhv), abs(vhu), 1e-12) < 1e-8


def test_hvp_linear_in_v():
    rng = np.random.default_rng(17)
    loss_fn, params = random_small_net(rng)
    v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
    av = {k: ad.Tensor(3.7 * v[k].data) for k in v}
    hv = ad.hvp(loss_fn, params, v)
    hav = ad.hvp(loss_fn, params, av)
    for k in params:
        assert rel_err(hav[k].data, 3.7 * hv[k].data) < 1e-10


def test_non_finite_tangent_names_the_op():
    # the value 1e290 is finite, its tangent 1e310 is not
    w = ad.Tensor(np.array([1e-10, 1.0]), requires_grad=True)
    fn = lambda p: ad.tsum(ad.scale(p["w"], 1e300))
    with np.errstate(over="ignore"):
        with pytest.raises(ad.NumericError, match="non-finite tangent produced by op 'scale'"):
            ad.hvp(fn, {"w": w}, {"w": ad.Tensor(np.array([1e10, 0.0]))})
    assert ad._tangents.table is None


def test_hvp_zero_hessian():
    # loss linear in w: Hessian is exactly zero
    w = ad.Tensor(np.ones(4), requires_grad=True)
    coeff = ad.Tensor(np.arange(4.0))
    fn = lambda p: ad.tsum(ad.mul(p["w"], coeff))
    hv = ad.hvp(fn, {"w": w}, {"w": ad.Tensor(np.ones(4))})
    assert np.all(hv["w"].data == 0.0)


# ---------------------------------------------------------------------------
# first-order backward on plain arrays
# ---------------------------------------------------------------------------

def _encoder(variant, frozen):
    cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, d_ff=32,
                        n_layers=2, max_seq_len=16, n_classes=4)
    m = build_encoder(cfg, 0)
    insert_adapters(m, AdapterSpec(variant=variant, r=4), 1)
    if frozen:
        freeze_backbone(m)
    return m


def _batch(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 50, (3, 8)), rng.integers(0, 4, 3)


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_array_backend_matches_engine_bitwise(variant, frozen):
    # the engine's second backward is an hvp's, which runs every vjp over
    # (value, tangent) pairs on _Duals; its value half must be the array
    # backend's first-order gradient, byte for byte
    assert {n for n in vars(ad._Arrays) if not n.startswith("__")} <= vars(ad._Duals).keys()
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    batch = _batch(31)
    rng = np.random.default_rng(31)
    v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
    plain = ad.backward(m.loss(*batch), params)
    duals = ad._dual_grads(lambda p: m.loss(*batch), params, v)
    assert duals.keys() == plain.keys()
    for name in params:
        assert plain[name].data.tobytes() == duals[name].value.tobytes(), name


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_first_order_backward_leaves_node_values_alone(variant, frozen, monkeypatch):
    # the in-place twins may write only into temporaries a vjp made itself;
    # every op output and every parameter keeps its bytes
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    outputs = keep_op_outputs(monkeypatch)
    loss = m.loss(*_batch(61))
    values = outputs + [g.tensor for g in m.groups.values()]
    before = [t.data.tobytes() for t in values]
    ad.backward(loss, params)
    assert [t.data.tobytes() for t in values] == before
    with pytest.raises(ValueError, match="read-only"):
        ad._Arrays.mul_(ad._Arrays.val(loss), 2.0)


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_hvp_leaves_forward_values_alone(variant, frozen, monkeypatch):
    # the forward of an hvp gives each op output the bits of a plain forward,
    # and its backward over pairs writes into none of them
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    batch = _batch(61)
    rng = np.random.default_rng(61)
    v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
    outputs = keep_op_outputs(monkeypatch)
    m.loss(*batch)
    plain = [t.data.tobytes() for t in outputs]
    outputs.clear()
    ad.hvp(lambda p: m.loss(*batch), params, v)
    assert [t.data.tobytes() for t in outputs] == plain


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_loss_keeps_alive_only_the_values_a_backward_reads(variant, frozen, monkeypatch):
    # a graph holds no value itself: once the loss is made, the op outputs
    # still alive are the loss and those some vjp reads through ops.val; the
    # cycle collector is off, so none of them is freed by it
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    made, read = [], set()
    from_op, val = ad._from_op, ad._Arrays.val

    def weakly(*args):
        out = from_op(*args)
        made.append(weakref.ref(out))
        return out

    def reading(t):
        read.add(id(t))
        return val(t)

    monkeypatch.setattr(ad, "_from_op", weakly)
    monkeypatch.setattr(ad._Arrays, "val", reading)
    gc.collect()
    gc.disable()
    try:
        loss = m.loss(*_batch(61))
        alive = {id(t) for t in (ref() for ref in made) if t is not None}
        ad.backward(loss, params)
    finally:
        gc.enable()
    assert len(made) > len(alive)
    assert alive == {id(loss)} | (read & alive)


def test_requires_grad_set_after_the_op_does_not_reach_its_graph():
    # a node keeps which parents took gradients when its op ran, and the vjp
    # keeps only the operands those gradients read: affine under a frozen w
    # kept w and not x
    rng = np.random.default_rng(79)
    x = ad.Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
    w = ad.Tensor(rng.uniform(-1, 1, (5, 4)))
    b = ad.Tensor(np.zeros(4))
    want = ad.backward(ad.tsum(ad.affine(x, w, b)), {"x": x})["x"].data.tobytes()
    loss = ad.tsum(ad.affine(x, w, b))
    w.requires_grad = True
    grads = ad.backward(loss, {"x": x, "w": w})
    assert grads["x"].data.tobytes() == want
    assert not grads["w"].data.any()


def test_backward_twice_over_one_loss_gives_the_same_bytes():
    # a backward keeps every vjp, so the graph can run again
    for variant in ("houlsby", "pfeiffer", "lora", "mam"):
        m = _encoder(variant, True)
        params = {n: g.tensor for n, g in m.trainable_groups().items()}
        loss = m.loss(*_batch(73))
        first, second = ad.backward(loss, params), ad.backward(loss, params)
        for name in params:
            assert first[name].data.tobytes() == second[name].data.tobytes(), (variant, name)


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_fused_encoder_matches_composed_ops_bitwise(variant, frozen):
    # take_rows and attention against the one-hot matmul and the 13 ops they replace
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    tokens, labels = _batch(47)
    fused, composed = m.forward(tokens), composed_forward(m, tokens)
    assert fused.data.tobytes() == composed.data.tobytes()
    got = ad.backward(ad.cross_entropy_logits(fused, labels), params)
    want = ad.backward(ad.cross_entropy_logits(composed, labels), params)
    for name in params:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name


def test_hvp_through_mam_encoder_matches_fd():
    # prefix rows, parallel adapters and the attention vjp's recompute, twice differentiated
    m = _encoder("mam", True)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    tokens, labels = _batch(53)
    rng = np.random.default_rng(59)
    v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
    loss_fn = lambda p: m.loss(tokens, labels)
    hv = ad.hvp(loss_fn, params, v)
    fd = fd_hvp(loss_fn, params, v)
    for k in params:
        assert rel_err(hv[k].data, fd[k]) < 1e-4, k


def _count_engine_ops(monkeypatch) -> list:
    """From here on, the name of every engine op made, in order."""
    calls = []
    from_op = ad._from_op

    def counting(*args):
        calls.append(args[0])
        return from_op(*args)

    monkeypatch.setattr(ad, "_from_op", counting)
    return calls


def test_every_engine_op_has_a_caller(monkeypatch):
    # an engine op that neither the model nor a test reference makes has no
    # job; the references are the composed encoder and the random nets
    calls = _count_engine_ops(monkeypatch)
    tokens, labels = _batch(71)
    for variant in ("houlsby", "pfeiffer", "lora", "mam"):
        m = _encoder(variant, True)
        m.loss(tokens, labels)
        composed_forward(m, tokens)
    rng = np.random.default_rng(7)
    for with_softmax in (True, True, True, False):
        loss_fn, params = random_small_net(rng, with_softmax)
        loss_fn(params)
    ops = {n for n, f in vars(ad).items()
           if inspect.isfunction(f) and not n.startswith("_") and hasattr(ad._Arrays, n)}
    assert set(calls) == ops


def test_first_order_backward_builds_no_engine_op(monkeypatch):
    m = _encoder("mam", True)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    loss = m.loss(*_batch(43))
    calls = _count_engine_ops(monkeypatch)
    ad.backward(loss, params)
    assert calls == []


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_hvp_builds_only_the_forward_graph(variant, frozen, monkeypatch):
    # the one backward over pairs makes no engine op, and everything an hvp
    # builds is freed by reference counts alone once its result is dropped
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    batch = _batch(67)
    rng = np.random.default_rng(67)
    v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
    loss_fn = lambda p: m.loss(*batch)
    calls = _count_engine_ops(monkeypatch)
    loss_fn(params)
    forward = list(calls)
    calls.clear()
    live_tensors = lambda: sum(isinstance(o, ad.Tensor) for o in gc.get_objects())
    gc.collect()
    gc.disable()
    try:
        before = live_tensors()
        ad.hvp(loss_fn, params, v)
        assert live_tensors() == before
    finally:
        gc.enable()
    assert calls == forward


def _layer_norm_overflowing_in_its_vjp():
    # xc * xc overflows to inf in the vjp, and inf ** -0.5 turns it into 0:
    # every gradient would be finite, and wrong
    x = ad.Tensor(np.array([[1e160, -1e160, 3e159, 0.0]]), requires_grad=True)
    gamma = ad.Tensor(np.ones(4), requires_grad=True)
    beta = ad.Tensor(np.zeros(4), requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss = ad.tsum(ad.layer_norm(x, gamma, beta))
    assert np.isfinite(loss.data)
    return loss, {"x": x, "gamma": gamma, "beta": beta}


def test_overflow_that_comes_back_finite_still_raises():
    loss, params = _layer_norm_overflowing_in_its_vjp()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ad.NumericError, match="'layer_norm'"):
            ad.backward(loss, params)


def test_failing_first_order_backward_runs_once(monkeypatch):
    # the one pass over arrays names the op; no engine op runs to find it
    loss, params = _layer_norm_overflowing_in_its_vjp()
    calls = _count_engine_ops(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ad.NumericError, match="'layer_norm'"):
            ad.backward(loss, params)
    assert calls == []


# ---------------------------------------------------------------------------
# determinism and the tape
# ---------------------------------------------------------------------------

def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(23)
        loss_fn, params = random_small_net(rng)
        loss = loss_fn(params)
        grads = ad.backward(loss, params)
        return loss.data.tobytes(), {k: g.data.tobytes() for k, g in grads.items()}

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert g1 == g2


def test_tape_is_topological():
    rng = np.random.default_rng(29)
    loss_fn, params = random_small_net(rng)
    loss = loss_fn(params)
    tape = ad.Tape.from_output(loss)

    seen = set()
    for node in tape.nodes:
        for parent in node._parents:
            assert parent._id in seen, "op input does not precede it"
        seen.add(node._id)
    assert tape.nodes[-1] is loss._node


def test_graph_is_freed_without_the_cycle_collector():
    # a vjp that closed over its own op's output would make each graph a
    # reference cycle, alive until the cyclic collector runs; so would a leaf
    # that stored itself as its own node
    def live_graph_objects():
        return sum(isinstance(o, (ad.Tensor, ad._Node)) for o in gc.get_objects())

    w = ad.Tensor(np.full((2, 3), 0.1), requires_grad=True)
    m = _encoder("mam", True)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    batch = _batch(67)
    ad.backward(m.loss(*batch), params)
    gc.collect()
    gc.disable()
    try:
        for op in (ad.tanh, ad.softmax_last):
            before = live_graph_objects()
            op(w)
            assert live_graph_objects() == before, op.__name__
        before = live_graph_objects()
        ad.Tensor(np.zeros(3))
        assert live_graph_objects() == before, "leaf"
        ad.backward(m.loss(*batch), params)
        assert live_graph_objects() == before, "Model.loss and backward"
    finally:
        gc.enable()


def test_two_hvps_at_once():
    # each thread keeps the tangents of its own hvp's forward, while the node
    # ids of the two threads interleave; each hvp must still equal the same
    # hvp run alone
    cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, d_ff=32,
                        n_layers=2, max_seq_len=16, n_classes=4)
    cases = []
    for variant, seed in (("houlsby", 3), ("mam", 7)):
        m = build_encoder(cfg, seed)
        insert_adapters(m, AdapterSpec(variant=variant, r=4), seed + 1)
        freeze_backbone(m)
        params = {n: g.tensor for n, g in m.trainable_groups().items()}
        rng = np.random.default_rng(seed)
        v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
        batch = _batch(seed)
        cases.append((lambda p, m=m, batch=batch: m.loss(*batch), params, v))

    def hvp_bytes(case):
        return {k: t.data.tobytes() for k, t in ad.hvp(*case).items()}

    alone = [hvp_bytes(case) for case in cases]
    rounds = 20
    barrier = threading.Barrier(len(cases), timeout=60)
    results = [[] for _ in cases]
    errors = []

    def run(i):
        try:
            for _ in range(rounds):
                barrier.wait()
                results[i].append(hvp_bytes(cases[i]))
        except Exception as exc:    # reported below, with the other thread's
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for i, got in enumerate(results):
        assert got == [alone[i]] * rounds


def test_no_grad_suppresses_graph():
    w = ad.Tensor(2.0, requires_grad=True)
    with ad.no_grad():
        out = ad.mul(w, w)
    assert not out.requires_grad


def test_no_grad_holds_only_on_its_own_thread():
    # an evaluation on a worker thread must not switch off the training
    # thread's graph, or backward hands every group zero gradients
    entered, release = threading.Event(), threading.Event()

    def hold():
        with ad.no_grad():
            entered.set()
            release.wait(10)

    other = threading.Thread(target=hold)
    other.start()
    try:
        assert entered.wait(10)
        w = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = ad.tsum(ad.mul(w, w))
        grads = ad.backward(loss, {"w": w})
    finally:
        release.set()
        other.join()
    assert loss.requires_grad
    np.testing.assert_array_equal(grads["w"].data, [2.0, -4.0])


def test_no_grad_per_thread_under_frequent_switches():
    # more threads than cores, each switching its own flag on and off while
    # the interpreter switches threads as often as it can
    errors = []

    def toggle(seed):
        w = ad.Tensor(np.full(3, float(seed)), requires_grad=True)
        for i in range(300):
            tracking = i % 2 == 0
            with contextlib.nullcontext() if tracking else ad.no_grad():
                out = ad.mul(w, w)
                if out.requires_grad != tracking:
                    errors.append((seed, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=toggle, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
