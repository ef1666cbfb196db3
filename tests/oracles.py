"""Independent reference implementations the tests check the engine against.

Everything here is deliberately straight-line numpy: central finite
differences for gradients, finite differences of gradients for Hessian-vector
products, a textbook AdamW update, a random-small-network factory, and the
encoder forward pass composed of separate engine ops. None of it reuses the
code paths under test.
"""

import math

import numpy as np

import sparseadapter.autodiff as ad


def fd_gradient(loss_fn, params, eps=1e-5):
    """Central finite differences of a scalar loss over a dict of Tensors."""
    out = {}
    for name, t in params.items():
        fd = np.zeros(t.data.shape)
        flat = t.data.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn(params).item()
            flat[i] = orig - eps
            lm = loss_fn(params).item()
            flat[i] = orig
            fd_flat[i] = (lp - lm) / (2.0 * eps)
        out[name] = fd
    return out


def fd_hvp(loss_fn, params, v, eps=1e-4):
    """(grad(w + eps v) - grad(w - eps v)) / (2 eps), gradients via backward."""
    for name, t in params.items():
        t.data += eps * v[name].data
    gp = ad.backward(loss_fn(params), params)
    for name, t in params.items():
        t.data -= 2.0 * eps * v[name].data
    gm = ad.backward(loss_fn(params), params)
    for name, t in params.items():
        t.data += eps * v[name].data
    return {name: (gp[name].data - gm[name].data) / (2.0 * eps) for name in params}


def rel_err(a, b, floor=1e-12):
    """Infinity-norm relative error with a guarded denominator.

    For gradient checks pass floor=1e-4: central differences on an O(1) loss
    carry ~1e-11 absolute roundoff noise, so demanding 1e-6 *relative* accuracy
    from a gradient smaller than 1e-4 would test the oracle, not the engine.
    Below the floor the comparison degrades to an absolute check at
    floor * tolerance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), floor)
    return float(np.max(np.abs(a - b)) / denom)


def reference_adamw(w, grads, lrs, beta1, beta2, eps, weight_decay):
    """Textbook AdamW applied to one weight array over a gradient sequence."""
    w = np.asarray(w, dtype=np.float64).copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        w = w - lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * w)
    return w


def random_small_net(rng, with_softmax=True):
    """A random tiny MLP: (loss_fn, params) with a few dozen parameters.

    Depth, widths, and activations vary per draw so the gradient checks cover
    affine/tanh/gelu/layernorm and both loss heads.
    """
    n_in = int(rng.integers(2, 5))
    depth = int(rng.integers(1, 4))
    widths = [n_in] + [int(rng.integers(2, 6)) for _ in range(depth)]
    batch = int(rng.integers(2, 5))
    x = ad.Tensor(rng.uniform(-1.0, 1.0, (batch, n_in)))
    acts = [rng.choice(["tanh", "gelu", "layernorm"]) for _ in range(depth)]

    params = {}
    for i in range(depth):
        params[f"w{i}"] = ad.Tensor(rng.uniform(-1.0, 1.0, (widths[i], widths[i + 1])),
                                    requires_grad=True)
        params[f"b{i}"] = ad.Tensor(rng.uniform(-0.5, 0.5, widths[i + 1]),
                                    requires_grad=True)
        if acts[i] == "layernorm":
            params[f"g{i}"] = ad.Tensor(rng.uniform(0.5, 1.5, widths[i + 1]),
                                        requires_grad=True)
            params[f"beta{i}"] = ad.Tensor(rng.uniform(-0.5, 0.5, widths[i + 1]),
                                           requires_grad=True)
    labels = rng.integers(0, widths[-1], batch) if with_softmax and widths[-1] >= 2 \
        else None

    def loss_fn(p):
        h = x
        for i in range(depth):
            h = ad.affine(h, p[f"w{i}"], p[f"b{i}"])
            if acts[i] == "tanh":
                h = ad.tanh(h)
            elif acts[i] == "gelu":
                h = ad.gelu(h)
            else:
                h = ad.layer_norm(h, p[f"g{i}"], p[f"beta{i}"])
        if labels is not None:
            return ad.cross_entropy_logits(h, labels)
        return ad.tsum(ad.mul(h, h))

    return loss_fn, params


def composed_forward(model, tokens):
    """The encoder forward pass as separate engine ops: a one-hot matmul
    embedding, a (bsz, seq, d) residual stream and attention as the 13 ops
    from head split to head merge, with mam's prefix joined to the key and value
    heads. `Model.forward` fuses these into `take_rows` and `attention`, joins
    the prefix to the rows of each sequence instead, and must give the same bits."""
    cfg = model.cfg
    tokens = np.asarray(tokens)
    bsz, seq = tokens.shape
    d, heads = cfg.d_model, cfg.n_heads
    dh = d // heads
    rows = bsz * seq
    tok_oh = np.zeros((rows, cfg.vocab_size))
    tok_oh[np.arange(rows), tokens.reshape(-1)] = 1.0
    pos_oh = np.zeros((seq, cfg.max_seq_len))
    pos_oh[np.arange(seq), np.arange(seq)] = 1.0
    x2 = ad.matmul(ad.Tensor(tok_oh), model.param("embed.tokens"))
    pos = ad.matmul(ad.Tensor(pos_oh), model.param("embed.positions"))
    x3 = ad.add(ad.reshape(x2, (bsz, seq, d)),
                ad.broadcast_to(ad.reshape(pos, (1, seq, d)), (bsz, seq, d)))

    def heads4(t):
        return ad.permute(ad.reshape(t, (bsz, seq, heads, dh)), (0, 2, 1, 3))

    def prefix_heads(t):
        p = ad.permute(ad.reshape(t, (1, t.shape[0], heads, dh)), (0, 2, 1, 3))
        return ad.broadcast_to(p, (bsz,) + p.shape[1:])

    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        ln1 = ad.layer_norm(ad.reshape(x3, (rows, d)), model.param(f"{pre}.attn.ln.gamma"),
                            model.param(f"{pre}.attn.ln.beta"))
        q4, k4, v4 = (heads4(model._project(ln1, f"{pre}.attn.{p}")) for p in "qkv")
        if f"{pre}.attn.prefix.key" in model.groups:
            # mam: (bsz, heads, P, dh) prefix heads in front of each sequence's own
            k4, v4 = (ad.concat([prefix_heads(model.param(f"{pre}.attn.prefix.{kv}")), t4],
                                axis=2) for kv, t4 in (("key", k4), ("value", v4)))
        scores = ad.scale(ad.matmul(q4, ad.swap_last2(k4)), 1.0 / math.sqrt(dh))
        ctx = ad.matmul(ad.softmax_last(scores), v4)
        attn_out = ad.affine(ad.reshape(ad.permute(ctx, (0, 2, 1, 3)), (rows, d)),
                             model.param(f"{pre}.attn.o.weight"),
                             model.param(f"{pre}.attn.o.bias"))
        site = model.adapter_sites.get(f"{pre}.attn.adapter")
        if site is not None:
            attn_out = ad.add(attn_out, site.delta(attn_out))
        x3 = ad.add(x3, ad.reshape(attn_out, (bsz, seq, d)))

        ln2 = ad.layer_norm(ad.reshape(x3, (rows, d)), model.param(f"{pre}.ffn.ln.gamma"),
                            model.param(f"{pre}.ffn.ln.beta"))
        ffn = ad.affine(ad.gelu(ad.affine(ln2, model.param(f"{pre}.ffn.fc1.weight"),
                                          model.param(f"{pre}.ffn.fc1.bias"))),
                        model.param(f"{pre}.ffn.fc2.weight"), model.param(f"{pre}.ffn.fc2.bias"))
        site = model.adapter_sites.get(f"{pre}.ffn.adapter")
        if site is None:
            out = ffn
        elif site.parallel:
            out = ad.add(ffn, site.delta(ln2))
        else:
            out = ad.add(ffn, site.delta(ffn))
        x3 = ad.add(x3, ad.reshape(out, (bsz, seq, d)))

    hf = ad.layer_norm(ad.reshape(x3, (rows, d)), model.param("final_ln.gamma"),
                       model.param("final_ln.beta"))
    pooled = ad.scale(ad.tsum(ad.reshape(hf, (bsz, seq, d)), axes=(1,)), 1.0 / seq)
    return ad.affine(pooled, model.param("head.weight"), model.param("head.bias"))
