"""Adapter variant tests: structure counts, residual identity, reference
forward, LoRA linearity, budget accounting, Large-Sparse configuration."""

import numpy as np
import pytest

import sparseadapter.autodiff as ad
from sparseadapter.adapters import (AdapterSpec, BottleneckAdapter,
                                    LORA_ALPHA, LargeSparseConfig, LoraProjection,
                                    insert_adapters, kept_param_fraction)
from sparseadapter.autodiff import GELU_C0, GELU_C1, Tensor
from sparseadapter.model import EncoderConfig, build_encoder, freeze_backbone
from sparseadapter.pruning import round_half_up, score_random, prune_by_percentile


def make_model(variant="houlsby", r=4, d_model=16, n_layers=2, seed=0, **spec_kw):
    cfg = EncoderConfig(vocab_size=50, d_model=d_model, n_heads=4, d_ff=32,
                        n_layers=n_layers, max_seq_len=16, n_classes=4)
    m = build_encoder(cfg, seed)
    insert_adapters(m, AdapterSpec(variant=variant, r=r, **spec_kw), seed + 1)
    freeze_backbone(m)
    return m


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_houlsby_has_two_sites_per_layer():
    m = make_model("houlsby", n_layers=4)
    sites = [k for k in m.adapter_sites if k.endswith(".adapter")]
    assert len(sites) == 8
    for site in sites:
        assert m.param(f"{site}.down.weight").shape == (16, 4)
        assert m.param(f"{site}.up.weight").shape == (4, 16)


def test_houlsby_per_site_param_count_768():
    m = make_model("houlsby", r=64, d_model=768, n_layers=1, seed=0)
    site_groups = [n for n in m.adapter_group_names
                   if n.startswith("layer0.attn.adapter")]
    counted = sum(m.groups[n].tensor.size for n in site_groups)
    assert counted == 2 * 768 * 64 + 64 + 768 == 99136


def test_pfeiffer_only_after_ffn():
    m = make_model("pfeiffer", n_layers=3)
    assert not any("attn.adapter" in k for k in m.adapter_sites)
    assert sum(1 for k in m.adapter_sites if "ffn.adapter" in k) == 3


def test_lora_param_count():
    m = make_model("lora", r=8, d_model=128, n_layers=1)
    q_groups = [n for n in m.adapter_group_names if ".q.lora" in n]
    assert sum(m.groups[n].tensor.size for n in q_groups) == 2 * 128 * 8 == 2048
    assert all(m.groups[n].prunable for n in q_groups)


def test_mam_structure():
    m = make_model("mam", n_layers=2, prefix_len=3)
    assert sum(1 for k in m.adapter_sites if "prefix" in k) == 2
    key = m.param("layer0.attn.prefix.key")
    assert key.shape == (3, 16)
    assert not m.groups["layer0.attn.prefix.key"].prunable
    assert m.groups["layer0.attn.prefix.key"].trainable
    assert m.adapter_sites["layer0.ffn.adapter"].parallel


def test_prunable_set_is_exactly_adapter_weight_matrices():
    for variant in ("houlsby", "pfeiffer", "lora", "mam"):
        m = make_model(variant)
        prunable = set(m.prunable_groups())
        expected = {n for n in m.adapter_group_names
                    if m.groups[n].tensor.ndim == 2
                    and ("weight" in n or ".lora." in n)
                    and "prefix" not in n}
        assert prunable == expected, variant


def test_insert_twice_rejected():
    m = make_model()
    with pytest.raises(ValueError, match="already"):
        insert_adapters(m, AdapterSpec(r=4), 0)


def test_r_must_be_below_d_model():
    cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, d_ff=32,
                        n_layers=1, max_seq_len=16, n_classes=4)
    m = build_encoder(cfg, 0)
    with pytest.raises(ValueError, match="d_model"):
        insert_adapters(m, AdapterSpec(r=16), 0)


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

def _rand_bottleneck(rng, d, r):
    return BottleneckAdapter(
        Tensor(rng.normal(0, 0.1, (d, r)), requires_grad=True),
        Tensor(rng.normal(0, 0.1, r), requires_grad=True),
        Tensor(rng.normal(0, 0.1, (r, d)), requires_grad=True),
        Tensor(rng.normal(0, 0.1, d), requires_grad=True))


def test_zero_up_projection_is_identity():
    rng = np.random.default_rng(0)
    a = _rand_bottleneck(rng, 8, 3)
    a.up_w.data[...] = 0.0
    a.up_b.data[...] = 0.0
    x = Tensor(rng.normal(0, 1, (5, 8)))
    out = a(x, x)
    assert np.array_equal(out.data, x.data)


def test_zero_input_zero_biases_gives_zero():
    rng = np.random.default_rng(1)
    a = _rand_bottleneck(rng, 8, 3)
    a.down_b.data[...] = 0.0
    a.up_b.data[...] = 0.0
    zeros = Tensor(np.zeros((4, 8)))
    out = a(zeros, zeros)
    assert np.all(out.data == 0.0)


def test_bottleneck_matches_straight_line_reference():
    rng = np.random.default_rng(2)
    d, r = 12, 5
    a = _rand_bottleneck(rng, d, r)
    x = rng.normal(0, 1, (7, d))

    h = x @ a.down_w.data + a.down_b.data
    h = 0.5 * h * (1.0 + np.tanh(GELU_C0 * (h + GELU_C1 * h ** 3)))
    expected = x + h @ a.up_w.data + a.up_b.data

    out = a(Tensor(x), Tensor(x))
    assert np.max(np.abs(out.data - expected)) < 1e-12


@pytest.mark.parametrize("parallel", [False, True])
def test_bottleneck_site_picks_what_it_reads(parallel):
    # the encoder passes every site (base, block input); a serial site reads
    # base, a parallel one the block input
    rng = np.random.default_rng(4)
    a = _rand_bottleneck(rng, 8, 3)
    a.parallel = parallel
    base, x = Tensor(rng.normal(0, 1, (5, 8))), Tensor(rng.normal(0, 1, (5, 8)))
    read = x if parallel else base
    expected = base.data + a.delta(read).data
    assert np.array_equal(a(base, x).data, expected)


def test_lora_matches_reference_and_is_linear():
    rng = np.random.default_rng(3)
    d, r = 10, 3
    base_w = rng.normal(0, 0.2, (d, d))
    base_b = rng.normal(0, 0.2, d)
    A = rng.normal(0, 0.2, (d, r))
    B = rng.normal(0, 0.2, (r, d))
    proj = LoraProjection(Tensor(A, requires_grad=True), Tensor(B, requires_grad=True), r)
    x = rng.normal(0, 1, (6, d))
    expected = x @ base_w + base_b + (LORA_ALPHA / r) * (x @ A @ B)
    out = proj(ad.affine(Tensor(x), Tensor(base_w), Tensor(base_b)), Tensor(x))
    assert np.max(np.abs(out.data - expected)) < 1e-12

    # the adapter delta is linear in x
    d1 = proj.delta(Tensor(x)).data
    d2 = proj.delta(Tensor(2.0 * x)).data
    assert np.allclose(d2, 2.0 * d1, atol=1e-12)


def test_all_variants_forward_and_train_gradients():
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, 50, (3, 8))
    labels = rng.integers(0, 4, 3)
    for variant in ("houlsby", "pfeiffer", "lora", "mam"):
        m = make_model(variant)
        loss = m.loss(tokens, labels)
        params = {n: g.tensor for n, g in m.trainable_groups().items()}
        grads = ad.backward(loss, params)
        # every adapter weight matrix receives a nonzero gradient
        for name, g in grads.items():
            if name in m.prunable_groups():
                assert np.any(g.data != 0.0), (variant, name)


def test_mam_prefix_changes_attention():
    m = make_model("mam", prefix_len=3, seed=7)
    rng = np.random.default_rng(7)
    tokens = rng.integers(0, 50, (2, 8))
    with ad.no_grad():
        base = m.forward(tokens).data.copy()
        m.param("layer0.attn.prefix.key").data[...] += 1.0
        bumped = m.forward(tokens).data
    assert not np.allclose(base, bumped)


# ---------------------------------------------------------------------------
# budget accounting
# ---------------------------------------------------------------------------

def test_report_dense_equals_total():
    # with no mask every adapter element counts, over backbone + adapters + head
    m = make_model("houlsby")
    adapter = sum(m.groups[n].tensor.size for n in m.adapter_group_names)
    backbone = sum(m.groups[n].tensor.size for n in m.backbone_group_names())
    head = 16 * 4 + 4
    assert kept_param_fraction(m) == adapter / (backbone + adapter + head)


@pytest.mark.parametrize("s,factor", [(0.4, 0.6), (0.8, 0.2)])
def test_masked_fraction_tracks_one_minus_s(s, factor):
    m = make_model("houlsby", r=8, d_model=32)
    mask = prune_by_percentile(score_random(m, 0), s)
    dense = kept_param_fraction(m)
    kept = kept_param_fraction(m, mask)
    # biases are never pruned, so allow their share plus rounding slack
    n_bias = sum(m.groups[n].tensor.size for n in m.adapter_group_names
                 if n not in m.prunable_groups())
    denom = sum(g.tensor.size for g in m.groups.values())
    slack = (s * n_bias + len(m.prunable_groups()) + 1) / denom
    assert abs(kept - factor * dense) <= slack


def test_zero_sparsity_mask_report_matches_dense():
    m = make_model("houlsby")
    mask = prune_by_percentile(score_random(m, 0), 0.0)
    assert kept_param_fraction(m, mask) == kept_param_fraction(m)


# ---------------------------------------------------------------------------
# Large-Sparse configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,r,s", [(2, 128, 0.5), (4, 256, 0.75), (1, 64, 0.0)])
def test_large_sparse_config_values(k, r, s):
    ls = LargeSparseConfig(64, k)
    assert ls.r == r
    assert ls.s == pytest.approx(s)


def test_large_sparse_config_k3():
    ls = LargeSparseConfig(64, 3)
    assert ls.r == 192
    assert ls.s == pytest.approx(2.0 / 3.0)


def test_large_sparse_rejects_bad_k():
    with pytest.raises(ValueError):
        LargeSparseConfig(64, 0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_budget_identity(k):
    # kept(k*r, 1 - 1/k) stays within one rounding per prunable group of kept(r, 0)
    r_base = 8
    base = make_model("houlsby", r=r_base, d_model=64, n_layers=2)
    base_mask = prune_by_percentile(score_random(base, 0), 0.0)

    ls = LargeSparseConfig(r_base, k)
    big = make_model("houlsby", r=ls.r, d_model=64, n_layers=2)
    big_mask = prune_by_percentile(score_random(big, 0), ls.s)

    n_groups = len(big.prunable_groups())
    assert abs(big_mask.kept() - base_mask.kept()) <= n_groups


def test_large_sparse_total_scales_with_k():
    r_base = 8
    base = make_model("houlsby", r=r_base, d_model=64)
    big = make_model("houlsby", r=4 * r_base, d_model=64)
    n_base = sum(g.tensor.size for g in base.prunable_groups().values())
    n_big = sum(g.tensor.size for g in big.prunable_groups().values())
    assert n_big == 4 * n_base
    kept = round_half_up((1.0 - LargeSparseConfig(r_base, 4).s) * n_big)
    assert kept == n_base
