"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s`. The trend criteria (6-8) train
a few dozen small models and dominate the runtime.
"""

import json
import os
import time

import numpy as np
import pytest

import sparseadapter.autodiff as ad
from sparseadapter.adapters import AdapterSpec, LargeSparseConfig, \
    insert_adapters, trainable_param_report
from sparseadapter.data import SyntheticTaskSpec, generate
from sparseadapter.model import EncoderConfig, build_encoder, freeze_backbone, \
    load_checkpoint, save_checkpoint
from sparseadapter.pruning import apply_mask, compute_mask, load_mask, \
    prune_by_percentile, round_half_up, save_mask, score_random
from sparseadapter.training import OptimizerConfig, train
from oracles import fd_gradient, fd_hvp, random_small_net, rel_err
from probes import backbone_bytes, keep_adam_states


def criterion(n, ok, desc):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared run machinery for the training-based criteria
# ---------------------------------------------------------------------------

DESK_ENCODER = dict(vocab_size=1000, d_model=128, n_heads=4, d_ff=256,
                    n_layers=4, max_seq_len=32, n_classes=4)
SMALL_ENCODER = dict(vocab_size=300, d_model=64, n_heads=4, d_ff=128,
                     n_layers=2, max_seq_len=16, n_classes=4)
WIDE_ENCODER = dict(vocab_size=300, d_model=320, n_heads=4, d_ff=256,
                    n_layers=2, max_seq_len=16, n_classes=6)

DESK_LR = 6e-3      # random-init backbone needs a hotter peak than pretrained
DESK_EPOCHS = 7


def adapter_model(enc_kw, r, seed, variant="houlsby"):
    m = build_encoder(EncoderConfig(**enc_kw), seed)
    insert_adapters(m, AdapterSpec(variant=variant, r=r), seed + 1)
    freeze_backbone(m)
    return m


def train_run(enc_kw, task_kw, r, method, s, seed, lr, epochs,
              snip_abs=False, evals_per_epoch=2):
    """One prune-at-init + fine-tune run; method=None trains dense."""
    model = adapter_model(enc_kw, r, seed)
    data = generate(SyntheticTaskSpec(**task_kw, seed=seed))
    if method is not None:
        rng = np.random.default_rng(seed)
        n = len(data.train.labels)
        idx = rng.choice(n, min(32, n), replace=False)
        batches = [(data.train.tokens[idx], data.train.labels[idx])]
        apply_mask(model, compute_mask(model, method, s, seed, batches=batches,
                                       snip_abs=snip_abs))
    cfg = OptimizerConfig(peak_lr=lr, epochs=epochs, batch_size=32, seed=seed)
    return model, train(model, data, cfg, evals_per_epoch=evals_per_epoch)


# ---------------------------------------------------------------------------
# 1. gradient correctness on 100 random small models
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        loss_fn, params = random_small_net(rng)
        grads = ad.backward(loss_fn(params), params)
        fd = fd_gradient(loss_fn, params, eps=1e-5)
        for name in params:
            worst = max(worst, rel_err(grads[name].data, fd[name], floor=1e-4))
    elapsed = time.monotonic() - t0
    criterion(1, worst < 1e-6 and elapsed < 60.0,
              f"backward vs central differences on 100 random models, "
              f"max rel err {worst:.2e} < 1e-6, runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. hvp correctness and symmetry on 20 random small models
# ---------------------------------------------------------------------------

def test_criterion_2_hvp_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst_fd = 0.0
    worst_sym = 0.0
    for _ in range(20):
        loss_fn, params = random_small_net(rng)
        u = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
        v = {k: ad.Tensor(rng.uniform(-1, 1, t.shape)) for k, t in params.items()}
        hv = ad.hvp(loss_fn, params, v)
        fd = fd_hvp(loss_fn, params, v, eps=1e-4)
        for k in params:
            worst_fd = max(worst_fd, rel_err(hv[k].data, fd[k], floor=1e-4))
        hu = ad.hvp(loss_fn, params, u)
        uhv = sum(float(np.sum(u[k].data * hv[k].data)) for k in params)
        vhu = sum(float(np.sum(v[k].data * hu[k].data)) for k in params)
        worst_sym = max(worst_sym,
                        abs(uhv - vhu) / max(abs(uhv), abs(vhu), 1e-12))
    elapsed = time.monotonic() - t0
    criterion(2, worst_fd < 1e-4 and worst_sym < 1e-8 and elapsed < 60.0,
              f"hvp vs finite-difference-of-gradients on 20 models, max rel err "
              f"{worst_fd:.2e} < 1e-4, symmetry gap {worst_sym:.2e} < 1e-8, "
              f"runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 3. exact sparsity for every method across the s grid
# ---------------------------------------------------------------------------

def test_criterion_3_exact_sparsity():
    model = adapter_model(dict(vocab_size=60, d_model=32, n_heads=4, d_ff=64,
                               n_layers=2, max_seq_len=16, n_classes=4), 8, seed=0)
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 60, (16, 8))
    labels = rng.integers(0, 4, 16)
    dense_fraction = trainable_param_report(model)["fraction_kept"]
    n_bias = sum(model.groups[n].tensor.size for n in model.adapter_group_names
                 if n not in model.prunable_groups())
    denom = sum(g.tensor.size for g in model.groups.values())

    ok = True
    details = []
    for method in ("random", "magnitude", "er", "snip", "grasp"):
        for s in (0.0, 0.2, 0.4, 0.6, 0.8):
            mask = compute_mask(model, method, s, seed=7,
                                batches=[(tokens, labels)])
            target = round_half_up((1.0 - s) * mask.total())
            gap = abs(mask.kept() - target)
            bound = len(mask.masks) if method == "er" else 0
            if gap > bound:
                ok = False
                details.append(f"{method}@s={s}: kept {mask.kept()} vs {target}")
            # parameter-fraction mirror: kept_fraction tracks (1-s)*dense
            frac = trainable_param_report(model, mask)["fraction_kept"]
            slack = (s * n_bias + len(mask.masks) + 1) / denom
            if abs(frac - (1.0 - s) * dense_fraction) > slack:
                ok = False
                details.append(f"{method}@s={s}: fraction {frac:.5f}")
    criterion(3, ok,
              "popcount(mask) == round((1-s)*N) for 5 methods x s in "
              "{0,.2,.4,.6,.8} (ER within group count) and kept_fraction == "
              "(1-s)*dense_fraction within bias+rounding slack"
              + ("" if ok else f"; violations: {details}"))


# ---------------------------------------------------------------------------
# 4. large-sparse budget identity
# ---------------------------------------------------------------------------

def test_criterion_4_budget_identity():
    enc = dict(vocab_size=100, d_model=320, n_heads=4, d_ff=256, n_layers=2,
               max_seq_len=16, n_classes=4)
    base = adapter_model(enc, 64, seed=0)
    base_kept = prune_by_percentile(score_random(base, 0), 0.0).kept()
    ok = True
    gaps = []
    for k in (2, 3, 4):
        ls = LargeSparseConfig(64, k)
        big = adapter_model(enc, ls.r, seed=0)
        mask = prune_by_percentile(score_random(big, 0), ls.s)
        gap = abs(mask.kept() - base_kept)
        gaps.append(f"k={k}: |{mask.kept()} - {base_kept}| = {gap}")
        if gap > len(big.prunable_groups()):
            ok = False
    criterion(4, ok,
              f"kept(k*64, 1-1/k) == kept(64, 0) within group count for "
              f"k in {{2,3,4}} ({'; '.join(gaps)})")


# ---------------------------------------------------------------------------
# 5. mask preservation through a full 10-epoch run
# ---------------------------------------------------------------------------

def test_criterion_5_mask_preservation(monkeypatch):
    model = adapter_model(SMALL_ENCODER, 16, seed=5)
    data = generate(SyntheticTaskSpec(task="token_majority", vocab=300,
                                      seq_len=10, n_classes=4, n_train=160,
                                      n_eval=64, seed=5))
    rng = np.random.default_rng(5)
    idx = rng.choice(160, 32, replace=False)
    mask = compute_mask(model, "snip", 0.4, seed=5,
                        batches=[(data.train.tokens[idx], data.train.labels[idx])])
    backbone_before = backbone_bytes(model)
    cfg = OptimizerConfig(peak_lr=3e-3, epochs=10, batch_size=32, seed=5)
    states = keep_adam_states(monkeypatch)
    apply_mask(model, mask)
    train(model, data, cfg)

    weights_ok = all(np.all(g.tensor.data[~mask.masks[n]] == 0.0)
                     for n, g in model.prunable_groups().items())
    (state,) = states
    moments_ok = all(np.all(state.m[n][~mask.masks[n]] == 0.0)
                     and np.all(state.v[n][~mask.masks[n]] == 0.0)
                     for n in mask.masks)
    backbone_ok = backbone_bytes(model) == backbone_before
    criterion(5, weights_ok and moments_ok and backbone_ok,
              f"after 10 epochs at s=0.4: masked weights zero ({weights_ok}), "
              f"masked Adam moments zero ({moments_ok}), backbone bytes "
              f"unchanged ({backbone_ok})")


# ---------------------------------------------------------------------------
# 6. trend: randomly pruned adapters track the dense adapter (desk config)
# ---------------------------------------------------------------------------

def test_criterion_6_sparse_tracks_dense():
    t0 = time.monotonic()
    task = dict(task="token_majority", vocab=1000, seq_len=16, n_classes=4,
                n_train=512, n_eval=192)

    def mean_acc(s):
        accs = []
        for seed in range(3):
            _, metrics = train_run(DESK_ENCODER, task, 64,
                                   None if s is None else "random", s, seed,
                                   DESK_LR, DESK_EPOCHS, evals_per_epoch=1)
            accs.append(metrics.final_eval_accuracy)
        return float(np.mean(accs))

    dense = mean_acc(None)
    gaps = {s: (dense - mean_acc(s)) * 100.0 for s in (0.2, 0.4, 0.6, 0.8)}
    elapsed = time.monotonic() - t0
    ok = all(gap <= 5.0 for gap in gaps.values()) and gaps[0.4] <= 2.0 \
        and elapsed < 600.0
    criterion(6, ok,
              f"random-pruned vs dense ({dense:.3f}) on token_majority, "
              f"3 seeds: gaps "
              + ", ".join(f"s={s}: {g:+.1f}pts" for s, g in gaps.items())
              + f" (need <=5, s=0.4 <=2); runtime {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 7. trend: loss-sensitivity scores don't lose to random pruning
# ---------------------------------------------------------------------------

def test_criterion_7_method_ordering():
    # snip runs under the original-formulation flag (|w*g|): that is the
    # method the reported comparisons benchmarked, and the signed
    # canonicalization is a documented open question of its own
    tasks = {
        "token_majority": (SMALL_ENCODER,
                           dict(task="token_majority", vocab=300, seq_len=10,
                                n_classes=4, n_train=512, n_eval=192)),
        "keyed_lookup": (dict(SMALL_ENCODER, n_classes=2),
                         dict(task="keyed_lookup", vocab=300, seq_len=10,
                              n_classes=2, n_train=512, n_eval=192)),
    }
    ok = True
    parts = []
    for name, (enc, task) in tasks.items():
        means = {}
        for method in ("random", "snip"):
            accs = [train_run(enc, task, 16, method, 0.4, seed, 6e-3, 12,
                              snip_abs=True)[1].final_eval_accuracy
                    for seed in range(5)]
            means[method] = float(np.mean(accs))
        margin = (means["snip"] - means["random"]) * 100.0
        parts.append(f"{name}: snip {means['snip']:.3f} vs random "
                     f"{means['random']:.3f} ({margin:+.1f}pts)")
        if margin < -0.5:
            ok = False
    criterion(7, ok,
              "snip(|w*g|) >= random - 0.5pts at s=0.4 over 5 seeds on two "
              "tasks: " + "; ".join(parts))


# ---------------------------------------------------------------------------
# 8. trend: large-sparse matches dense at equal budget without converging later
# ---------------------------------------------------------------------------

def test_criterion_8_large_sparse_benefit():
    task = dict(task="token_majority", vocab=300, seq_len=12, n_classes=6,
                n_train=512, n_eval=128)
    dense_acc, ls_acc, dense_steps, ls_steps = [], [], [], []
    for seed in range(5):
        _, md = train_run(WIDE_ENCODER, task, 64, None, None, seed, 6e-3, 6,
                          evals_per_epoch=8)
        _, ml = train_run(WIDE_ENCODER, task, 256, "random", 0.75, seed, 6e-3, 6,
                          evals_per_epoch=8)
        dense_acc.append(md.final_eval_accuracy)
        ls_acc.append(ml.final_eval_accuracy)
        thr = 0.9 * md.final_eval_accuracy
        d = md.steps_to_accuracy(thr)
        l = ml.steps_to_accuracy(thr)
        dense_steps.append(d if d is not None else md.total_steps)
        ls_steps.append(l if l is not None else ml.total_steps)
    acc_margin = (np.mean(ls_acc) - np.mean(dense_acc)) * 100.0
    ratio = np.mean(ls_steps) / max(np.mean(dense_steps), 1e-9)
    ok = acc_margin >= -0.5 and np.mean(ls_steps) <= np.mean(dense_steps)
    criterion(8, ok,
              f"(r=256, s=0.75) vs (r=64, s=0) over 5 seeds: accuracy "
              f"{np.mean(ls_acc):.3f} vs {np.mean(dense_acc):.3f} "
              f"({acc_margin:+.1f}pts, need >= -0.5); steps to 90% of dense "
              f"final: {np.mean(ls_steps):.1f} vs {np.mean(dense_steps):.1f} "
              f"(ratio {ratio:.2f}, need <= 1)")


# ---------------------------------------------------------------------------
# 9. determinism: byte-identical metrics across executions
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    payload = {
        "encoder": dict(vocab_size=60, d_model=16, n_heads=4, d_ff=32,
                        n_layers=2, max_seq_len=16, n_classes=4),
        "adapter": {"variant": "houlsby", "r": 4},
        "prune": {"method": "snip", "s": 0.4, "seed": 3},
        "optimizer": {"peak_lr": 1e-3, "epochs": 2, "batch_size": 16, "seed": 3},
        "data": {"task": dict(task="token_majority", vocab=60, seq_len=8,
                              n_classes=4, n_train=64, n_eval=32, seed=3)},
        "output_dir": str(tmp_path),
        "seed": 3,
    }
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as f:
        json.dump(payload, f)

    import subprocess
    import sys
    for name in ("a", "b"):
        out = str(tmp_path / name)
        for args in (["prune"], ["train", "--mask", os.path.join(out, "mask.sadm")]):
            proc = subprocess.run(
                [sys.executable, "-m", "sparseadapter.cli", args[0],
                 "--config", config_path, "--out", out, *args[1:]],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
    csv_a = open(str(tmp_path / "a" / "metrics.csv"), "rb").read()
    csv_b = open(str(tmp_path / "b" / "metrics.csv"), "rb").read()
    mask_a = open(str(tmp_path / "a" / "mask.sadm"), "rb").read()
    mask_b = open(str(tmp_path / "b" / "mask.sadm"), "rb").read()
    criterion(9, csv_a == csv_b and mask_a == mask_b,
              f"two OS-process executions of one (config, seed): metrics.csv "
              f"byte-identical ({csv_a == csv_b}), mask files byte-identical "
              f"({mask_a == mask_b})")


# ---------------------------------------------------------------------------
# 10. serialization round trips and the s=0 no-op equivalence
# ---------------------------------------------------------------------------

def test_criterion_10_serialization(tmp_path):
    model = adapter_model(SMALL_ENCODER, 8, seed=10)
    rng = np.random.default_rng(10)
    tokens = rng.integers(0, 300, (16, 8))
    labels = rng.integers(0, 4, 16)
    mask = compute_mask(model, "snip", 0.4, seed=10, batches=[(tokens, labels)])
    mp1, mp2 = str(tmp_path / "m1.sadm"), str(tmp_path / "m2.sadm")
    save_mask(mask, mp1)
    save_mask(load_mask(mp1), mp2)
    mask_ok = open(mp1, "rb").read() == open(mp2, "rb").read()

    cp1, cp2 = str(tmp_path / "c1.sacp"), str(tmp_path / "c2.sacp")
    save_checkpoint(model, cp1)
    clone = adapter_model(SMALL_ENCODER, 8, seed=11)
    load_checkpoint(clone, cp1)
    save_checkpoint(clone, cp2)
    ckpt_ok = open(cp1, "rb").read() == open(cp2, "rb").read()

    task = dict(task="token_majority", vocab=300, seq_len=10, n_classes=4,
                n_train=96, n_eval=48)
    _, dense = train_run(SMALL_ENCODER, task, 8, None, None, 21, 3e-3, 2)
    _, masked = train_run(SMALL_ENCODER, task, 8, "random", 0.0, 21, 3e-3, 2)
    noop_ok = dense.to_csv() == masked.to_csv()
    criterion(10, mask_ok and ckpt_ok and noop_ok,
              f"mask round-trip bit-exact ({mask_ok}), checkpoint round-trip "
              f"bit-exact ({ckpt_ok}), s=0 masked run metric-identical to "
              f"dense ({noop_ok})")
