"""Training tests: schedule shape, AdamW against a straight-line reference,
mask preservation through updates, frozen-backbone immutability, determinism."""

import csv
import io
import json
import math
import os
import threading
import weakref

import numpy as np
import pytest

from sparseadapter import autodiff as ad, training
from sparseadapter.adapters import AdapterSpec, insert_adapters
from sparseadapter.data import Split, SyntheticTaskSpec, TaskData, generate
from sparseadapter.model import EncoderConfig, Model, ParamGroup, build_encoder, \
    freeze_backbone, read_checkpoint, save_checkpoint
from sparseadapter.pruning import PruneMask, apply_mask, compute_mask, \
    score_random, prune_by_percentile
from sparseadapter.training import (ADAM_EPS, BETA1, BETA2, WEIGHT_DECAY, AdamState,
                                    OptimizerConfig, RunMetrics, StepRecord,
                                    TrainingDiverged, evaluate, lr_at,
                                    masked_adam_step, train)
from sparseadapter.autodiff import NumericError, Tensor
from oracles import reference_adamw
from probes import backbone_bytes, keep_adam_states

TASK = SyntheticTaskSpec(task="token_majority", vocab=60, seq_len=8, n_classes=4,
                         n_train=64, n_eval=32, seed=0)


def small_setup(seed=0, variant="houlsby", r=4):
    cfg = EncoderConfig(vocab_size=60, d_model=16, n_heads=4, d_ff=32,
                        n_layers=2, max_seq_len=16, n_classes=4)
    m = build_encoder(cfg, seed)
    insert_adapters(m, AdapterSpec(variant=variant, r=r), seed + 1)
    freeze_backbone(m)
    return m, generate(TASK)


def quick_opt(**kw):
    base = dict(peak_lr=1e-3, epochs=2, batch_size=16, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_endpoints():
    cfg = quick_opt()
    total = 100
    warmup = math.ceil(0.10 * total)
    assert lr_at(0, total, cfg) == 0.0
    assert lr_at(warmup, total, cfg) == pytest.approx(cfg.peak_lr)
    assert lr_at(total, total, cfg) == 0.0


def test_lr_linear_in_both_phases():
    cfg = quick_opt()
    total = 200
    warmup = math.ceil(0.10 * total)
    assert lr_at(warmup // 2, total, cfg) == pytest.approx(
        cfg.peak_lr * (warmup // 2) / warmup)
    mid = (warmup + total) // 2
    assert lr_at(mid, total, cfg) == pytest.approx(
        cfg.peak_lr * (total - mid) / (total - warmup))


def test_lr_step_beyond_total_rejected():
    with pytest.raises(ValueError):
        lr_at(101, 100, quick_opt())


def test_lr_when_warmup_is_every_step():
    # ceil(0.1 * 1) = 1: the one step is the end of warmup, at the peak
    cfg = quick_opt()
    assert lr_at(0, 1, cfg) == 0.0
    assert lr_at(1, 1, cfg) == cfg.peak_lr


# ---------------------------------------------------------------------------
# masked AdamW step
# ---------------------------------------------------------------------------

def _param(name, arr):
    arr = np.asarray(arr, dtype=np.float64)
    return ParamGroup(name, Tensor(arr, requires_grad=True), False)


def test_first_step_magnitude_textbook():
    pg = _param("w", [0.0])     # w = 0, so weight decay adds nothing
    state = AdamState.for_params({"w": pg})
    masked_adam_step({"w": pg}, {"w": np.array([1.0])}, None, state, lr=0.01)
    # bias-corrected m_hat = v_hat = 1 at t=1, so the update is lr/(1 + eps)
    assert pg.tensor.data[0] == pytest.approx(-0.01 / (1.0 + ADAM_EPS), rel=1e-12)


def test_matches_reference_adamw_over_many_steps():
    rng = np.random.default_rng(0)
    w0 = rng.normal(0, 1, (3, 2))
    grads = [rng.normal(0, 1, (3, 2)) for _ in range(25)]
    lrs = [0.01 * (1 + 0.1 * i) for i in range(25)]

    pg = _param("w", w0.copy())   # Tensor wraps without copying
    state = AdamState.for_params({"w": pg})
    for g, lr in zip(grads, lrs):
        masked_adam_step({"w": pg}, {"w": g}, None, state, lr)

    expected = reference_adamw(w0, grads, lrs, BETA1, BETA2, ADAM_EPS, WEIGHT_DECAY)
    assert np.max(np.abs(pg.tensor.data - expected)) < 1e-12


def test_masked_positions_and_moments_stay_zero():
    rng = np.random.default_rng(1)
    pg = _param("w", rng.normal(0, 1, 10))
    keep = np.array([True] * 5 + [False] * 5)
    pg.tensor.data[~keep] = 0.0
    mask = PruneMask("random", 0.5, 0, {"w": keep.copy()})
    state = AdamState.for_params({"w": pg})
    for i in range(20):
        masked_adam_step({"w": pg}, {"w": rng.normal(0, 1, 10)}, mask, state, lr=0.01)
        for arr in (pg.tensor.data, state.m["w"], state.v["w"]):
            assert arr[~keep].tobytes() == bytes(8 * 5)     # +0.0, never -0.0


def test_shape_mismatch_rejected():
    pg = _param("w", np.ones(3))
    state = AdamState.for_params({"w": pg})
    with pytest.raises(ValueError):
        masked_adam_step({"w": pg}, {"w": np.ones(4)}, None, state, 0.01)


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------

def test_zero_epochs_changes_nothing():
    model, data = small_setup()
    before = {n: g.tensor.data.copy() for n, g in model.groups.items()}
    metrics = train(model, data, quick_opt(epochs=0))
    assert metrics.records == []
    for name, g in model.groups.items():
        assert np.array_equal(g.tensor.data, before[name])


def test_train_determinism():
    def run():
        model, data = small_setup(seed=3)
        return train(model, data, quick_opt(seed=7)).to_csv()

    assert run() == run()


def test_zero_sparsity_mask_equals_dense_run():
    model_a, data = small_setup(seed=1)
    apply_mask(model_a, prune_by_percentile(score_random(model_a, 0), 0.0))
    masked = train(model_a, data, quick_opt(seed=5))

    model_b, data = small_setup(seed=1)
    dense = train(model_b, data, quick_opt(seed=5))

    assert [r.loss for r in masked.records] == [r.loss for r in dense.records]
    assert [r.accuracy for r in masked.records] == [r.accuracy for r in dense.records]


def test_frozen_backbone_bytes_unchanged():
    model, data = small_setup(seed=2)
    before = backbone_bytes(model)
    train(model, data, quick_opt(epochs=3, seed=2))
    assert backbone_bytes(model) == before


def test_mask_preserved_through_training():
    model, data = small_setup(seed=4)
    mask = compute_mask(model, "random", 0.5, seed=0)
    apply_mask(model, mask)
    train(model, data, quick_opt(epochs=3))
    for name, g in model.prunable_groups().items():
        assert np.all(g.tensor.data[~mask.masks[name]] == 0.0)


def test_adapter_weights_actually_move():
    model, data = small_setup(seed=6)
    before = {n: g.tensor.data.copy() for n, g in model.prunable_groups().items()}
    train(model, data, quick_opt(epochs=1))
    moved = any(not np.array_equal(g.tensor.data, before[n])
                for n, g in model.prunable_groups().items())
    assert moved


def test_metrics_structure():
    model, data = small_setup(seed=8)
    cfg = quick_opt(epochs=2, batch_size=16)
    metrics = train(model, data, cfg)
    steps_per_epoch = math.ceil(64 / 16)
    assert metrics.total_steps == 2 * steps_per_epoch
    train_steps = [r.step for r in metrics.records if r.split == "train"]
    assert train_steps == list(range(1, metrics.total_steps + 1))
    assert metrics.evals()
    assert metrics.evals()[-1].step == metrics.total_steps
    # csv header contract
    assert metrics.to_csv().splitlines()[0] == \
        "step,split,loss,accuracy,lr,kept_fraction"


def test_written_metrics_read_back():
    # every float in metrics.csv parses back to the bits it was written from,
    # and each row's kept_fraction is the run's one value in summary.json
    model, data = small_setup(seed=8)
    apply_mask(model, compute_mask(model, "random", 0.5, seed=0))
    metrics = train(model, data, quick_opt(epochs=2, batch_size=16))
    rows = list(csv.DictReader(io.StringIO(metrics.to_csv())))
    kept = json.loads(metrics.summary_json())["kept_fraction"]
    assert 0.0 < kept < 1.0
    assert len(rows) == len(metrics.records)
    for row, record in zip(rows, metrics.records):
        assert (int(row["step"]), row["split"]) == (record.step, record.split)
        for name in ("loss", "accuracy", "lr"):
            assert float(row[name]).hex() == getattr(record, name).hex(), name
        assert float(row["kept_fraction"]).hex() == kept.hex()


def test_checkpoint_persisted(tmp_path):
    model, data = small_setup(seed=9)
    path = str(tmp_path / "final.sacp")
    train(model, data, quick_opt(epochs=1))
    save_checkpoint(model, path)
    entries = read_checkpoint(path)
    assert set(entries) == set(model.groups)


def test_empty_dataset_rejected():
    model, data = small_setup()
    empty = TaskData(train=Split(np.zeros((0, 8), dtype=np.int64),
                                 np.zeros(0, dtype=np.int64)),
                     eval=data.eval)
    with pytest.raises(ValueError, match="empty"):
        train(model, empty, quick_opt())


def _run_on(cpus):
    model, data = small_setup(seed=3)
    apply_mask(model, compute_mask(model, "random", 0.5, seed=0))
    threads = threading.active_count()
    metrics = train(model, data, quick_opt(epochs=3, seed=7), cpus=cpus)
    assert threading.active_count() == threads
    return model, metrics


def test_overlapped_evals_match_evals_in_line(monkeypatch):
    # with 2 CPUs each eval runs on a worker thread while training goes on
    states = keep_adam_states(monkeypatch)
    model_1, inline = _run_on(1)
    model_2, overlapped = _run_on(2)
    assert len(states) == 2
    assert overlapped.to_csv() == inline.to_csv()
    assert overlapped.records == inline.records
    assert len(inline.evals()) == 6
    for moments in ("m", "v"):
        a, b = getattr(states[0], moments), getattr(states[1], moments)
        assert {n: x.tobytes() for n, x in a.items()} == \
            {n: x.tobytes() for n, x in b.items()}
    assert {n: g.tensor.data.tobytes() for n, g in model_1.groups.items()} == \
        {n: g.tensor.data.tobytes() for n, g in model_2.groups.items()}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("later_step_fails", [False, True])
def test_eval_divergence_reports_the_eval_step(monkeypatch, cpus, later_step_fails):
    # evals run at steps 2, 4, 6, 8; the one at step 4 diverges, and in the
    # second case so does the training step after it, while that eval may
    # still be in flight: the eval's step is the one reported
    model, data = small_setup(seed=5)
    calls = []

    def diverging_evaluate(m, *args):
        calls.append((m is model, threading.current_thread() is threading.main_thread()))
        if len(calls) == 2:
            raise NumericError("forced in the eval")
        return evaluate(m, *args)

    def diverging_step(params, grads, mask, state, *args):
        if later_step_fails and state.t == 4:
            raise NumericError("forced in step 5")
        return masked_adam_step(params, grads, mask, state, *args)

    monkeypatch.setattr(training, "evaluate", diverging_evaluate)
    monkeypatch.setattr(training, "masked_adam_step", diverging_step)
    threads = threading.active_count()
    with pytest.raises(TrainingDiverged) as info:
        train(model, data, quick_opt(epochs=2), cpus=cpus)
    assert info.value.step == 4
    assert "forced in the eval" in str(info.value)
    assert threading.active_count() == threads
    assert calls == [(cpus == 1, cpus == 1)] * 2


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_step_graph_is_freed_before_the_next_forward(monkeypatch, cpus):
    # each training loss holds its step's whole graph; a Tensor takes no weak
    # reference, but its value lives exactly as long as it does here
    losses, alive = [], []
    forward, cross_entropy = Model.forward, ad.cross_entropy_logits

    def watched_forward(model, tokens):
        if ad._grad_enabled and threading.current_thread() is threading.main_thread():
            alive.append(sum(ref() is not None for ref in losses))
        return forward(model, tokens)

    def watched_loss(logits, labels):
        loss = cross_entropy(logits, labels)
        if loss.requires_grad:
            losses.append(weakref.ref(loss.data))
        return loss

    monkeypatch.setattr(Model, "forward", watched_forward)
    monkeypatch.setattr(ad, "cross_entropy_logits", watched_loss)
    model, data = small_setup(seed=2)
    train(model, data, quick_opt(epochs=2), cpus=cpus)
    assert len(losses) == 8
    assert alive == [0] * 8


def test_available_cpus_without_an_affinity_call(monkeypatch):
    # macOS has no sched_getaffinity: the CPU count decides, 1 when unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, cpus in ((3, 3), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert training.available_cpus() == cpus


def test_evaluate_pure_and_deterministic():
    model, data = small_setup(seed=10)
    before = {n: g.tensor.data.copy() for n, g in model.groups.items()}
    a = evaluate(model, data.eval.tokens, data.eval.labels, 64)
    b = evaluate(model, data.eval.tokens, data.eval.labels, 64)
    assert a == b
    for name, g in model.groups.items():
        assert np.array_equal(g.tensor.data, before[name])


def test_evaluate_chance_level_for_constant_logits():
    model, data = small_setup(seed=11)
    # zero head weight and bias: logits identical across classes, argmax -> 0
    model.param("head.weight").data[...] = 0.0
    model.param("head.bias").data[...] = 0.0
    labels = np.arange(32) % 4   # balanced
    _, acc = evaluate(model, data.eval.tokens[:32], labels, 64)
    assert acc == pytest.approx(0.25)


def test_steps_to_accuracy():
    m = RunMetrics(records=[
        StepRecord(2, "eval", 1.0, 0.3, 0.1),
        StepRecord(4, "eval", 0.8, 0.6, 0.1),
        StepRecord(6, "eval", 0.7, 0.9, 0.1),
    ], total_steps=6)
    assert m.steps_to_accuracy(0.5) == 4
    assert m.steps_to_accuracy(0.95) is None
    assert m.final_eval_accuracy == 0.9
    assert json.loads(m.summary_json())["best_eval_accuracy"] == 0.9


SUMMARY_WITH_EVALS = """{
  "best_eval_accuracy": 0.9,
  "final_eval_accuracy": 0.9,
  "final_eval_loss": 0.7,
  "kept_fraction": 0.625,
  "steps_to_threshold": {
    "0.5": 4,
    "0.6": 4,
    "0.7": 6,
    "0.8": 6,
    "0.9": 6
  },
  "total_steps": 6
}
"""

SUMMARY_WITHOUT_EVALS = """{
  "best_eval_accuracy": null,
  "final_eval_accuracy": null,
  "final_eval_loss": null,
  "kept_fraction": 0.5,
  "steps_to_threshold": {
    "0.5": null,
    "0.6": null,
    "0.7": null,
    "0.8": null,
    "0.9": null
  },
  "total_steps": 4
}
"""


def test_summary_json_bytes():
    # summary.json as train writes it; the train records, one more accurate
    # than any eval, count toward none of the eval fields
    train_1 = StepRecord(1, "train", 1.25, 0.25, 0.05)
    with_evals = RunMetrics(records=[
        train_1,
        StepRecord(2, "eval", 1.0, 0.3, 0.1),
        StepRecord(4, "eval", 0.8, 0.6, 0.1),
        StepRecord(5, "train", 0.5, 0.95, 0.1),
        StepRecord(6, "eval", 0.7, 0.9, 0.1),
    ], kept_fraction=0.625, total_steps=6)
    assert with_evals.summary_json() == SUMMARY_WITH_EVALS
    without_evals = RunMetrics(records=[train_1], kept_fraction=0.5, total_steps=4)
    assert without_evals.summary_json() == SUMMARY_WITHOUT_EVALS
