"""The benchmark's own tests: each correctness check passes on real outputs
and fails on a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q

Outputs come from the command line on tiny configs, under perfbench/out/.
The last test is the one-off comparison of the ls-sweep workload with one and
two workers; it takes about half a minute.
"""

import contextlib
import io
import os
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from sparseadapter import autodiff as ad  # noqa: E402
from sparseadapter import cli  # noqa: E402

TINY_ENCODER = {"vocab_size": 200, "d_model": 32, "n_heads": 2, "d_ff": 64,
                "n_layers": 1, "max_seq_len": 16, "n_classes": 4}


def tiny_config(out: str, seed: int = 3) -> dict:
    return {
        "encoder": dict(TINY_ENCODER),
        "adapter": {"variant": "houlsby", "r": 8},
        "prune": {"method": "snip", "s": 0.4, "seed": seed},
        "optimizer": {"peak_lr": 0.01, "epochs": 6, "batch_size": 32, "seed": seed},
        "data": {"task": {"task": "token_majority", "vocab": 200, "seq_len": 12,
                          "n_classes": 4, "n_train": 256, "n_eval": 64, "seed": seed}},
        "output_dir": out,
        "seed": seed,
    }


@pytest.fixture
def work(request):
    path = HERE / "out" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


def run(plan) -> dict[str, str]:
    """Run a plan's round; stdout of each command kind."""
    out = {}
    for cmd in plan.round:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(cmd.argv) == 0, cmd.argv
        out[cmd.kind] = buf.getvalue()
    return out


@pytest.fixture
def desk(work):
    plan = workloads.plan_desk_train(work, 3, tiny_config(os.path.join(work, "desk")))
    return plan, run(plan)


def test_desk_outputs_pass(desk):
    plan, out = desk
    figures, fails = checks.verify_desk_train(plan, cli, ad, out["eval"])
    assert fails == []
    assert figures["final_eval_accuracy"] >= 0.5


def test_flipped_mask_bit_fails(desk):
    plan, out = desk
    path = os.path.join(plan.configs["desk"]["output_dir"], "mask.sadm")
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0x01
    open(path, "wb").write(bytes(blob))
    _, fails = checks.verify_desk_train(plan, cli, ad, out["eval"])
    assert any("kept" in f for f in fails)
    assert any("top-k" in f for f in fails)


def test_swapped_mask_bits_fail_top_k(desk):
    plan, out = desk
    path = os.path.join(plan.configs["desk"]["output_dir"], "mask.sadm")
    bits = checks.read_sadm(path)["groups"]
    last = bits[sorted(bits)[-1]]              # its bitmap ends the file
    blob = bytearray(open(path, "rb").read())
    base = len(blob) - (last.size + 7) // 8
    for idx in (np.flatnonzero(last)[-1], np.flatnonzero(~last)[-1]):
        blob[base + idx // 8] ^= 1 << (idx % 8)
    open(path, "wb").write(bytes(blob))
    _, fails = checks.verify_desk_train(plan, cli, ad, out["eval"])
    assert not any("kept" in f for f in fails)  # same popcount
    assert any("top-k" in f for f in fails)


def test_nonzero_pruned_weight_fails(desk):
    plan, out = desk
    cfg = plan.configs["desk"]
    ckpt = os.path.join(cfg["output_dir"], "checkpoint.sacp")
    mask = checks.read_sadm(os.path.join(cfg["output_dir"], "mask.sadm"))
    name, bits = next(iter(mask["groups"].items()))
    pruned = int(np.flatnonzero(~bits)[0])
    # locate the weights of `name` in the file and overwrite one pruned slot
    blob = bytearray(open(ckpt, "rb").read())
    groups = checks.read_sacp(ckpt)
    offset = 9
    for n, (arr, _) in groups.items():
        offset += 2 + len(n.encode()) + 1 + 4 * arr.ndim + 1
        if n == name:
            break
        offset += 8 * arr.size
    assert struct.unpack_from("<d", blob, offset + 8 * pruned)[0] == 0.0
    struct.pack_into("<d", blob, offset + 8 * pruned, 1e-3)
    open(ckpt, "wb").write(bytes(blob))
    _, fails = checks.verify_desk_train(plan, cli, ad, out["eval"])
    assert any("pruned weights" in f for f in fails)


def test_wrong_eval_output_fails(desk):
    plan, out = desk
    _, fails = checks.verify_desk_train(plan, cli, ad, "eval loss 1.0 accuracy 0.9999")
    assert any("eval command printed" in f for f in fails)


def test_readers_reject_truncated_files(desk):
    plan, _ = desk
    out = plan.configs["desk"]["output_dir"]
    for name, reader in (("mask.sadm", checks.read_sadm),
                         ("checkpoint.sacp", checks.read_sacp)):
        path = os.path.join(out, name)
        blob = open(path, "rb").read()
        for cut in (6, len(blob) // 2, len(blob) - 1):
            open(path, "wb").write(blob[:cut])
            with pytest.raises(ValueError):
                reader(path)


def test_gradient_checks_catch_wrong_values(desk):
    plan, _ = desk
    cfg = plan.configs["desk"]
    model, data = checks.build(cli, cfg)
    batches = checks.scoring_batches(data.train.tokens, data.train.labels, 3, 2, 32)
    grads = checks.summed_grads(ad, model, batches)
    rng = np.random.default_rng(0)
    assert checks.check_grad_fd(ad, model, batches, grads, rng) == []
    off = {n: g * 1.001 for n, g in grads.items()}
    assert checks.check_grad_fd(ad, model, batches, off, np.random.default_rng(0)) != []

    def summed_loss(_):
        total = None
        for tokens, labels in batches:
            term = model.loss(tokens, labels)
            total = term if total is None else ad.add(total, term)
        return total

    params = checks.prunable_params(model)
    hv = {n: t.data for n, t in ad.hvp(summed_loss, params,
                                       {n: ad.Tensor(g) for n, g in grads.items()}).items()}
    assert checks.check_hvp_fd(ad, model, batches, grads, hv) == []
    assert checks.check_hvp_fd(ad, model, batches, grads,
                               {n: h * 1.001 for n, h in hv.items()}) != []
    assert checks.check_hvp_symmetry(ad, model, batches[0], np.random.default_rng(1)) == []


def test_lr_formula_catches_a_wrong_schedule():
    rows = [{"step": str(s), "split": "train", "lr": repr(0.01)} for s in range(1, 9)]
    cfg = tiny_config("unused")
    cfg["optimizer"]["epochs"] = 1            # 256 rows / batch 32 = 8 steps
    _, fails = checks.check_training(rows, cfg, "")
    assert any("lr" in f for f in fails)


def test_missing_sweep_row_fails(work):
    cfg = tiny_config(os.path.join(work, "sweep"))
    cfg["adapter"]["r"] = 4
    plan = workloads.plan_ls_sweep(work, 3, cfg, values=(1, 2), seeds=1, workers=1)
    run(plan)
    figures, fails = checks.verify_ls_sweep(plan)
    assert fails == [] and figures["final_eval_accuracy"] > 0.35
    path = os.path.join(cfg["output_dir"], "sweep.csv")
    lines = open(path).read().splitlines()
    open(path, "w").write("\n".join(lines[:-1]) + "\n")
    _, fails = checks.verify_ls_sweep(plan)
    assert any("rows" in f for f in fails)
    open(path, "w").write("\n".join(lines[:1] + lines[2:] + lines[1:2]) + "\n")
    _, fails = checks.verify_ls_sweep(plan)
    assert fails != []


def test_ls_sweep_csv_is_identical_with_one_and_two_workers(work):
    csv = {}
    for workers in (1, 2):
        sub = os.path.join(work, f"w{workers}")
        os.makedirs(sub)
        plan = workloads.plan_ls_sweep(sub, 5, workers=workers)
        run(plan)
        _, fails = checks.verify_ls_sweep(plan)
        assert fails == []
        csv[workers] = open(os.path.join(plan.configs["base"]["output_dir"],
                                         "sweep.csv"), "rb").read()
    assert csv[1] == csv[2]
