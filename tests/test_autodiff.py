"""Engine tests: every primitive against finite differences, backward/hvp
contracts, the two vjp backends, tape topology, determinism."""

import gc
import weakref
import zlib

import numpy as np
import pytest

import sparseadapter.autodiff as ad
from sparseadapter.adapters import AdapterSpec, insert_adapters
from sparseadapter.model import EncoderConfig, build_encoder, freeze_backbone
from sparseadapter.pruning import score_grasp
from oracles import composed_forward, fd_gradient, fd_hvp, random_small_net, rel_err


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


@pytest.mark.parametrize("case", [
    "add", "mul", "neg", "scale", "add_scalar", "matmul", "batched_matmul",
    "swap", "permute", "reshape", "sum_all", "sum_axis", "broadcast", "tanh",
    "pow2", "pow_neg", "relu", "slice", "pad", "concat",
    "affine", "softmax", "layernorm", "gelu", "cross_entropy", "take_rows",
    "attention", "attention_prefix",
])
def test_primitive_gradients(case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    c = ad.Tensor(rng.uniform(-1.0, 1.0, (3, 4)))

    if case == "add":
        p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.add(q["a"], q["b"]), c))
    elif case == "mul":
        p = {"a": _rand(rng, 3, 4), "b": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.mul(q["a"], q["b"]), c))
    elif case == "neg":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.neg(q["a"]), c))
    elif case == "scale":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.scale(q["a"], -2.5), c))
    elif case == "add_scalar":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.add_scalar(q["a"], 0.7), c))
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
        cc = ad.Tensor(rng.uniform(-1, 1, (3, 1)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.tsum(q["a"], axes=(1,), keepdims=True), cc))
    elif case == "broadcast":
        cc = ad.Tensor(rng.uniform(-1, 1, (5, 3, 4)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.broadcast_to(q["a"], (5, 3, 4)), cc))
    elif case == "tanh":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.tanh(q["a"]), c))
    elif case == "pow2":
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.powc(q["a"], 3.0), c))
    elif case == "pow_neg":
        p = {"a": ad.Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)}
        fn = lambda q: ad.tsum(ad.mul(ad.powc(q["a"], -0.5), c))
    elif case == "relu":
        p = {"a": ad.Tensor(rng.uniform(0.05, 1.0, (3, 4)) *
                            rng.choice([-1.0, 1.0], (3, 4)), requires_grad=True)}
        fn = lambda q: ad.tsum(ad.mul(ad.relu(q["a"]), c))
    elif case == "slice":
        cc = ad.Tensor(rng.uniform(-1, 1, (3, 2)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.slice_axis(q["a"], 1, 1, 3), cc))
    elif case == "pad":
        cc = ad.Tensor(rng.uniform(-1, 1, (3, 7)))
        p = {"a": _rand(rng, 3, 4)}
        fn = lambda q: ad.tsum(ad.mul(ad.pad_axis(q["a"], 1, 2, 7), cc))
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
        # 2 sequences of 3 rows, 2 heads of width 2, and 3 prefix rows per head
        cc = ad.Tensor(rng.uniform(-1, 1, (6, 4)))
        p = {n: _rand(rng, 6, 4) for n in "qkv"}
        if case == "attention_prefix":
            p.update(pk=_rand(rng, 2, 2, 3, 2), pv=_rand(rng, 2, 2, 3, 2))
        fn = lambda q: ad.tsum(ad.mul(ad.attention(
            q["q"], q["k"], q["v"], 2, 2, [q[n] for n in ("pk", "pv") if n in q]), cc))
    else:
        raise AssertionError(case)

    check_grad(fn, p)


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
    a = ad.Tensor(np.array([1.0, -1.0]), requires_grad=True)
    with pytest.raises(ad.NumericError, match="pow"):
        ad.powc(a, 0.5)


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
    pre = ad.Tensor(np.ones((2, 2, 3, 2)))
    for q, k, bsz, heads, prefix in [
            (x, ad.Tensor(np.ones((6, 2))), 2, 2, ()),      # k differs from q
            (x, x, 4, 2, ()),                               # rows not bsz * seq
            (x, x, 2, 3, ()),                               # d not n_heads * d_head
            (ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones((2, 3, 4))), 2, 2, ()),
            (x, x, 2, 2, (pre,)),                           # prefix without values
            (x, x, 2, 2, (pre, ad.Tensor(np.ones((2, 2, 4, 2))))),  # prefix lengths differ
            (x, x, 2, 2, (ad.Tensor(np.ones((1, 2, 3, 2))),) * 2),  # prefix for 1 sequence
            (x, x, 2, 2, (ad.Tensor(np.ones((2, 2, 3))),) * 2)]:    # prefix not 4-D
        with pytest.raises(ad.ShapeError):
            ad.attention(q, k, k, bsz, heads, prefix)
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
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    loss = m.loss(*_batch(31))
    plain = ad.backward(loss, params)
    graph = ad.backward(loss, params, create_graph=True)
    assert plain.keys() == graph.keys()
    for name in params:
        assert plain[name].data.tobytes() == graph[name].data.tobytes(), name


@pytest.mark.parametrize("frozen", [True, False])
@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_first_order_backward_leaves_node_values_alone(variant, frozen):
    # the in-place twins may write only into temporaries a vjp made itself
    m = _encoder(variant, frozen)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    loss = m.loss(*_batch(61))
    nodes = ad.Tape.from_output(loss).nodes
    before = [t.data.tobytes() for t in nodes]
    ad.backward(loss, params)
    assert [t.data.tobytes() for t in nodes] == before
    with pytest.raises(ValueError, match="read-only"):
        ad._Arrays.mul_(ad._Arrays.val(loss), 2.0)


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


def test_grasp_scores_match_engine_bitwise(monkeypatch):
    m = _encoder("houlsby", True)
    batches = [_batch(37), _batch(41)]
    plain = score_grasp(m, batches)
    backward = ad.backward

    def engine_backward(loss, params, create_graph=False):
        # the first-order values, computed by engine ops
        return backward(loss, params, create_graph=True)

    monkeypatch.setattr(ad, "backward", engine_backward)
    engine = score_grasp(m, batches)
    for name in plain.scores:
        assert plain.scores[name].tobytes() == engine.scores[name].tobytes(), name


def _count_engine_ops(monkeypatch) -> list:
    """From here on, the name of every engine op made, in order."""
    calls = []
    from_op = ad._from_op

    def counting(*args):
        calls.append(args[0])
        return from_op(*args)

    monkeypatch.setattr(ad, "_from_op", counting)
    return calls


def test_first_order_backward_builds_no_engine_op(monkeypatch):
    m = _encoder("mam", True)
    params = {n: g.tensor for n, g in m.trainable_groups().items()}
    loss = m.loss(*_batch(43))
    calls = _count_engine_ops(monkeypatch)
    ad.backward(loss, params)
    assert calls == []
    ad.backward(loss, params, create_graph=True)
    assert calls


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
        with pytest.raises(ad.NumericError, match="'layernorm'"):
            ad.backward(loss, params)


def test_failing_first_order_backward_runs_once(monkeypatch):
    # the one pass over arrays names the op; no engine op runs to find it
    loss, params = _layer_norm_overflowing_in_its_vjp()
    calls = _count_engine_ops(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ad.NumericError, match="'layernorm'"):
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
    assert tape.nodes[-1] is loss


def test_graph_is_freed_without_the_cycle_collector():
    # a vjp that closed over its own op's output would make each graph a
    # reference cycle, alive until the cyclic collector runs
    w = ad.Tensor(np.full((2, 3), 0.1), requires_grad=True)
    gc.disable()
    try:
        for op in (ad.tanh, ad.softmax_last):
            ref = weakref.ref(op(w))
            assert ref() is None, op.__name__
    finally:
        gc.enable()


def test_no_grad_suppresses_graph():
    w = ad.Tensor(2.0, requires_grad=True)
    with ad.no_grad():
        out = ad.mul(w, w)
    assert not out.requires_grad
