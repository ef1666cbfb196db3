"""Pruning tests: score semantics per method, ER allocation, global
percentile threshold with pinned tie-breaking, mask application, mask file
round trips."""

import numpy as np
import pytest

import sparseadapter.autodiff as ad
from sparseadapter.adapters import AdapterSpec, insert_adapters
from sparseadapter.autodiff import Tensor
from sparseadapter.model import EncoderConfig, ParamGroup, build_encoder, \
    freeze_backbone
from sparseadapter.pruning import (PruneMask, ScoreMap, apply_mask, compute_mask,
                                   er_sparsities, load_mask, prune_by_percentile,
                                   round_half_up, save_mask, score_er, score_grasp,
                                   score_magnitude, score_random, score_snip)
from oracles import fd_hvp, rel_err


class StubModel:
    """Bare parameter registry, enough for the score functions."""

    def __init__(self, **weights):
        self.groups = {}
        for name, arr in weights.items():
            arr = np.asarray(arr, dtype=np.float64)
            self.groups[name] = ParamGroup(name, Tensor(arr, requires_grad=True),
                                           True, True)

    def prunable_groups(self):
        return dict(self.groups)

    def param(self, name):
        return self.groups[name].tensor


def adapter_model(r=4, d_model=16, n_layers=2, seed=0, variant="houlsby"):
    cfg = EncoderConfig(vocab_size=50, d_model=d_model, n_heads=4, d_ff=32,
                        n_layers=n_layers, max_seq_len=16, n_classes=4)
    m = build_encoder(cfg, seed)
    insert_adapters(m, AdapterSpec(variant=variant, r=r), seed + 1)
    freeze_backbone(m)
    return m


def one_batch(model, seed=0, batch=8):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, model.cfg.vocab_size, (batch, 8)),
            rng.integers(0, model.cfg.n_classes, batch))


# ---------------------------------------------------------------------------
# random scores
# ---------------------------------------------------------------------------

def test_random_deterministic():
    m = adapter_model()
    a = score_random(m, 5)
    b = score_random(m, 5)
    for name in a.scores:
        assert a.scores[name].tobytes() == b.scores[name].tobytes()


def test_random_uniform_ks():
    m = adapter_model(r=64, d_model=128, n_layers=4)
    sample = np.concatenate([v.reshape(-1)
                             for v in score_random(m, 3).scores.values()])
    assert sample.size >= 10 ** 5
    xs = np.sort(sample)
    n = xs.size
    d_stat = float(np.max(np.maximum(np.arange(1, n + 1) / n - xs,
                                     xs - np.arange(0, n) / n)))
    assert d_stat < 1.62762 / np.sqrt(n)   # alpha = 0.01 critical value


def test_random_masks_from_two_seeds_agree_on_about_half():
    m = adapter_model(r=8, d_model=32)
    m1 = prune_by_percentile(score_random(m, 1), 0.5)
    m2 = prune_by_percentile(score_random(m, 2), 0.5)
    bits1 = np.concatenate([m1.masks[n].reshape(-1) for n in sorted(m1.masks)])
    bits2 = np.concatenate([m2.masks[n].reshape(-1) for n in sorted(m2.masks)])
    agreement = float(np.mean(bits1 == bits2))
    assert abs(agreement - 0.5) < 0.03


def test_scores_require_prunable_groups():
    cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, d_ff=32,
                        n_layers=1, max_seq_len=16, n_classes=4)
    m = build_encoder(cfg, 0)   # no adapters, nothing prunable
    with pytest.raises(ValueError):
        score_random(m, 0)


# ---------------------------------------------------------------------------
# magnitude scores
# ---------------------------------------------------------------------------

def test_magnitude_is_absolute_value():
    m = StubModel(w=np.array([-3.0, 1.0, 2.0]))
    assert np.array_equal(score_magnitude(m).scores["w"], [3.0, 1.0, 2.0])


def test_magnitude_all_equal_ties_keep_first_half():
    m = StubModel(w=np.ones(10))
    mask = prune_by_percentile(score_magnitude(m), 0.5)
    assert np.array_equal(mask.masks["w"], [True] * 5 + [False] * 5)


def test_magnitude_mask_invariant_to_positive_scaling():
    m = adapter_model(seed=3)
    base = prune_by_percentile(score_magnitude(m), 0.4)
    for pg in m.prunable_groups().values():
        pg.tensor.data *= 7.25
    scaled = prune_by_percentile(score_magnitude(m), 0.4)
    for name in base.masks:
        assert np.array_equal(base.masks[name], scaled.masks[name])


# ---------------------------------------------------------------------------
# snip scores
# ---------------------------------------------------------------------------

def test_snip_scalar_analytic():
    # loss = (w*x - t)^2 with w=1, x=1, t=0: g = 2, raw sensitivity -w*g = -2,
    # canonical importance w*g = 2
    m = StubModel(w=np.array([1.0]))

    def loss_fn(model, tokens, labels):
        w = model.param("w")
        err = ad.add_scalar(ad.scale(w, 1.0), -0.0)
        return ad.tsum(ad.mul(err, err))

    scores = score_snip(m, [(None, None)], loss_fn)
    assert scores.scores["w"][0] == pytest.approx(2.0)


def test_snip_excludes_non_prunable():
    m = adapter_model()
    scores = score_snip(m, [one_batch(m)])
    assert set(scores.scores) == set(m.prunable_groups())


def test_snip_batch_doubling_scales_scores_but_not_mask():
    m = adapter_model(seed=5)
    batch = one_batch(m, seed=5)
    s1 = score_snip(m, [batch])
    s2 = score_snip(m, [batch, batch])
    for name in s1.scores:
        assert np.allclose(s2.scores[name], 2.0 * s1.scores[name], rtol=1e-12)
    m1 = prune_by_percentile(s1, 0.4)
    m2 = prune_by_percentile(s2, 0.4)
    for name in m1.masks:
        assert np.array_equal(m1.masks[name], m2.masks[name])


def test_snip_abs_flag():
    m = StubModel(w=np.array([1.0, -1.0]))

    def loss_fn(model, tokens, labels):
        return ad.tsum(model.param("w"))   # g = 1 for both

    plain = score_snip(m, [(None, None)], loss_fn).scores["w"]
    absolute = score_snip(m, [(None, None)], loss_fn, snip_abs=True).scores["w"]
    assert np.array_equal(plain, [1.0, -1.0])
    assert np.array_equal(absolute, [1.0, 1.0])


# ---------------------------------------------------------------------------
# grasp scores
# ---------------------------------------------------------------------------

def test_grasp_quadratic_analytic():
    # loss = a/2 * sum(w^2): g = a w, h = H g = a^2 w, importance w*h = a^2 w^2
    a = 3.0
    w0 = np.array([1.0, -2.0, 0.5])
    m = StubModel(w=w0)

    def loss_fn(model, tokens, labels):
        w = model.param("w")
        return ad.scale(ad.tsum(ad.mul(w, w)), a / 2.0)

    scores = score_grasp(m, [(None, None)], loss_fn)
    assert np.allclose(scores.scores["w"], a * a * w0 * w0, rtol=1e-12)


def test_grasp_linear_loss_gives_zero_scores_and_legal_mask():
    m = StubModel(w=np.arange(1.0, 11.0))

    def loss_fn(model, tokens, labels):
        return ad.tsum(model.param("w"))

    scores = score_grasp(m, [(None, None)], loss_fn)
    assert np.all(scores.scores["w"] == 0.0)
    mask = prune_by_percentile(scores, 0.5)
    assert mask.kept() == 5
    assert np.array_equal(mask.masks["w"], [True] * 5 + [False] * 5)


def test_grasp_matches_fd_of_gradients_on_mlp():
    rng = np.random.default_rng(31)
    m = StubModel(w1=rng.uniform(-1, 1, (2, 3)), w2=rng.uniform(-1, 1, (3, 1)))
    x = Tensor(rng.uniform(-1, 1, (4, 2)))

    def loss_fn(model, tokens, labels):
        h = ad.tanh(ad.matmul(x, model.param("w1")))
        out = ad.matmul(h, model.param("w2"))
        return ad.tsum(ad.mul(out, out))

    params = {n: g.tensor for n, g in m.prunable_groups().items()}
    fn = lambda p: loss_fn(m, None, None)
    g = ad.backward(fn(params), params)
    direction = {n: Tensor(t.data.copy()) for n, t in g.items()}
    hv = ad.hvp(fn, params, direction)
    fd = fd_hvp(fn, params, direction)
    for name in params:
        assert rel_err(hv[name].data, fd[name]) < 1e-4

    scores = score_grasp(m, [(None, None)], loss_fn)
    for name in params:
        assert np.allclose(scores.scores[name],
                           params[name].data * hv[name].data, rtol=1e-10)


# ---------------------------------------------------------------------------
# er allocation
# ---------------------------------------------------------------------------

def test_er_single_group_closed_form():
    assert er_sparsities([(4, 4)], 0.25) == [pytest.approx(0.25)]


def test_er_zero_factor_group_never_pruned():
    spars = er_sparsities([(2, 2), (8, 8)], 0.3)
    assert spars[0] == 0.0
    assert spars[1] > 0.0


def test_er_larger_layers_sparser_and_total_matches_grid_search():
    groups = [(4, 4), (8, 8)]
    s_global = 0.3
    spars = er_sparsities(groups, s_global)
    assert spars[1] > spars[0]

    # brute-force the scaling constant on a fine grid and compare totals
    sizes = np.array([16.0, 64.0])
    factors = np.array([1 - 8 / 16, 1 - 16 / 64])
    target = (1 - s_global) * sizes.sum()
    best_eps, best_gap = None, np.inf
    for eps in np.linspace(0.0, 2.0, 200001):
        kept = np.sum((1 - np.minimum(eps * factors, 1.0)) * sizes)
        gap = abs(kept - target)
        if gap < best_gap:
            best_eps, best_gap = eps, gap
    assert np.allclose(spars, np.minimum(best_eps * factors, 1.0), atol=1e-4)
    kept_total = np.sum((1 - np.array(spars)) * sizes)
    assert kept_total == pytest.approx(target, abs=1e-9)


def test_er_clamping_respected():
    # huge global sparsity forces the small-factor group to its cap
    spars = er_sparsities([(2, 8), (100, 100)], 0.9)
    for s_g, (n_in, n_out) in zip(spars, [(2, 8), (100, 100)]):
        assert 0.0 <= s_g < 1.0
        assert s_g <= 1.0 - 1.0 / (n_in * n_out) + 1e-12


def test_er_infeasible_raises():
    with pytest.raises(ValueError, match="infeasible"):
        er_sparsities([(2, 2)], 0.5)   # factor 0: nothing can be removed


def test_er_bad_inputs():
    with pytest.raises(ValueError):
        er_sparsities([(4, 4)], 1.0)
    with pytest.raises(ValueError):
        er_sparsities([(0, 4)], 0.2)


def test_score_er_mask_properties():
    m = adapter_model(r=8, d_model=32)
    mask = score_er(m, 0.0, seed=1)
    assert mask.kept() == mask.total()

    mask = score_er(m, 0.4, seed=1)
    names = sorted(mask.masks)
    dims = [m.groups[n].tensor.shape for n in names]
    spars = er_sparsities(dims, 0.4)
    for name, s_g in zip(names, spars):
        kept = int(np.count_nonzero(mask.masks[name]))
        assert kept == round_half_up((1 - s_g) * mask.masks[name].size)

    again = score_er(m, 0.4, seed=1)
    for name in names:
        assert np.array_equal(mask.masks[name], again.masks[name])


# ---------------------------------------------------------------------------
# percentile threshold
# ---------------------------------------------------------------------------

def test_percentile_keeps_top_scores():
    scores = ScoreMap("magnitude", {"w": np.array([0.1, 0.5, 0.3, 0.9])})
    mask = prune_by_percentile(scores, 0.5)
    assert np.array_equal(mask.masks["w"], [False, True, False, True])
    assert mask.threshold == pytest.approx(0.5)


def test_percentile_zero_sparsity_all_ones():
    scores = ScoreMap("magnitude", {"w": np.array([0.1, 0.5, 0.3, 0.9])})
    mask = prune_by_percentile(scores, 0.0)
    assert mask.kept() == 4


def test_percentile_tie_break_by_name_then_index():
    scores = ScoreMap("random", {"b": np.zeros(4), "a": np.zeros(6)})
    mask = prune_by_percentile(scores, 0.5)
    assert mask.kept() == 5
    assert np.array_equal(mask.masks["a"], [True] * 5 + [False])
    assert np.array_equal(mask.masks["b"], [False] * 4)


def test_percentile_is_global_not_per_group():
    scores = ScoreMap("magnitude", {"hi": np.full(4, 10.0), "lo": np.full(4, 1.0)})
    mask = prune_by_percentile(scores, 0.5)
    assert np.all(mask.masks["hi"])
    assert not np.any(mask.masks["lo"])


def test_percentile_rejects_bad_s():
    scores = ScoreMap("magnitude", {"w": np.ones(4)})
    for s in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            prune_by_percentile(scores, s)


@pytest.mark.parametrize("s", [0.0, 0.2, 0.4, 0.6, 0.8])
@pytest.mark.parametrize("method", ["random", "magnitude", "snip", "grasp", "er"])
def test_exact_sparsity_every_method(method, s):
    m = adapter_model(seed=11)
    mask = compute_mask(m, method, s, seed=4, batches=[one_batch(m, 11)])
    n_total = mask.total()
    if method == "er":
        assert abs(mask.kept() - round_half_up((1 - s) * n_total)) <= len(mask.masks)
    else:
        assert mask.kept() == round_half_up((1 - s) * n_total)


def test_mask_determinism_across_methods():
    for method in ("random", "magnitude", "snip", "grasp", "er"):
        m1 = adapter_model(seed=2)
        m2 = adapter_model(seed=2)
        a = compute_mask(m1, method, 0.4, seed=9, batches=[one_batch(m1, 2)])
        b = compute_mask(m2, method, 0.4, seed=9, batches=[one_batch(m2, 2)])
        for name in a.masks:
            assert np.array_equal(a.masks[name], b.masks[name]), method


# ---------------------------------------------------------------------------
# mask application
# ---------------------------------------------------------------------------

def test_apply_all_ones_leaves_weights():
    m = adapter_model()
    before = {n: g.tensor.data.copy() for n, g in m.prunable_groups().items()}
    apply_mask(m, prune_by_percentile(score_random(m, 0), 0.0))
    for name, g in m.prunable_groups().items():
        assert np.array_equal(g.tensor.data, before[name])


def test_apply_zeros_one_group_makes_adapter_identity():
    m = adapter_model(seed=13)
    site = "layer0.attn.adapter"
    masks = {n: np.ones(g.tensor.shape, dtype=bool)
             for n, g in m.prunable_groups().items()}
    masks[f"{site}.up.weight"] = np.zeros_like(masks[f"{site}.up.weight"])
    apply_mask(m, PruneMask("magnitude", 0.0, None, None, masks))

    adapter = m.adapter_sites[site]
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 1, (5, 16)))
    assert np.array_equal(adapter(x).data, x.data)


def test_apply_mask_zeroes_masked_positions():
    m = adapter_model(seed=13)
    mask = prune_by_percentile(score_random(m, 7), 0.6)
    apply_mask(m, mask)
    for name, g in m.prunable_groups().items():
        assert np.all(g.tensor.data[~mask.masks[name]] == 0.0)
    assert m.mask is mask


def test_apply_mask_mismatch_rejected():
    m = adapter_model()
    good = prune_by_percentile(score_random(m, 0), 0.4)
    bad = PruneMask(good.method, good.s, good.seed, good.threshold,
                    {n: v for n, v in list(good.masks.items())[1:]})
    with pytest.raises(ValueError):
        apply_mask(m, bad)


def test_masks_are_immutable():
    m = adapter_model()
    mask = prune_by_percentile(score_random(m, 0), 0.4)
    name = next(iter(mask.masks))
    with pytest.raises(ValueError):
        mask.masks[name][0] = False


# ---------------------------------------------------------------------------
# mask file round trip
# ---------------------------------------------------------------------------

def test_mask_file_roundtrip_bit_exact(tmp_path):
    m = adapter_model(seed=17)
    mask = compute_mask(m, "snip", 0.4, seed=3, batches=[one_batch(m, 17)])
    path = str(tmp_path / "m.sadm")
    save_mask(mask, path)
    apply_mask(m, load_mask(path))
    loaded = m.mask
    assert loaded.method == mask.method
    assert loaded.s == mask.s
    assert loaded.seed == mask.seed
    for name in mask.masks:
        assert np.array_equal(loaded.masks[name], mask.masks[name])

    path2 = str(tmp_path / "m2.sadm")
    save_mask(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_mask_file_bad_magic(tmp_path):
    path = str(tmp_path / "bad.sadm")
    with open(path, "wb") as f:
        f.write(b"XXXX\x01")
    with pytest.raises(ValueError, match="magic"):
        load_mask(path)


def test_mask_file_truncation_reports_offset(tmp_path):
    m = adapter_model()
    mask = prune_by_percentile(score_random(m, 0), 0.4)
    path = str(tmp_path / "m.sadm")
    save_mask(mask, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_mask(path)


def test_mask_file_model_mismatch(tmp_path):
    m = adapter_model(r=4)
    other = adapter_model(r=8)
    mask = prune_by_percentile(score_random(m, 0), 0.4)
    path = str(tmp_path / "m.sadm")
    save_mask(mask, path)
    with pytest.raises(ValueError, match="layer0"):
        apply_mask(other, load_mask(path))
