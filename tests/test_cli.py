"""CLI tests: config round trip and strictness, subcommand pipelines on a
small config, sweep aggregation, artifact layout, error exit codes."""

import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sparseadapter import cli, training
from sparseadapter.adapters import AdapterSpec, LargeSparseConfig
from sparseadapter.autodiff import NumericError
from sparseadapter.cli import (DataConfig, ExperimentConfig, cmd_sweep, load_config,
                               main, parse_config, serialize_config)
from sparseadapter.data import SyntheticTaskSpec
from sparseadapter.model import EncoderConfig, save_checkpoint
from sparseadapter.pruning import PruneConfig
from sparseadapter.training import OptimizerConfig

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_config(tmp_path, **overrides) -> dict:
    payload = {
        "encoder": {"vocab_size": 60, "d_model": 16, "n_heads": 4, "d_ff": 32,
                    "n_layers": 2, "max_seq_len": 16, "n_classes": 4},
        "adapter": {"variant": "houlsby", "r": 4},
        "prune": {"method": "random", "s": 0.4, "seed": 0},
        "optimizer": {"peak_lr": 1e-3, "epochs": 1, "batch_size": 16, "seed": 0},
        "data": {"task": {"task": "token_majority", "vocab": 60, "seq_len": 8,
                          "n_classes": 4, "n_train": 48, "n_eval": 24, "seed": 0}},
        "output_dir": str(tmp_path / "out"),
        "seed": 0,
    }
    payload.update(overrides)
    return payload


def write_config(tmp_path, **overrides) -> str:
    path = str(tmp_path / "config.json")
    with open(path, "w") as f:
        json.dump(small_config(tmp_path, **overrides), f)
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_config_roundtrip(tmp_path):
    cfg = parse_config(small_config(tmp_path))
    again = parse_config(json.loads(serialize_config(cfg)))
    assert again == cfg


def test_unknown_keys_rejected(tmp_path):
    payload = small_config(tmp_path)
    payload["nope"] = 1
    with pytest.raises(ValueError, match="unknown keys"):
        parse_config(payload)
    payload = small_config(tmp_path)
    payload["optimizer"]["momentum"] = 0.9
    with pytest.raises(ValueError, match="optimizer"):
        parse_config(payload)


def test_config_naming_a_removed_adapter_field_is_an_error_line(tmp_path, capsys):
    config = write_config(tmp_path, adapter={"variant": "lora", "r": 4,
                                             "lora_zero_b": True})
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    assert err == "error: config.adapter: unknown keys ['lora_zero_b']\n"
    assert not (tmp_path / "p").exists()


def test_data_requires_exactly_one_source(tmp_path):
    payload = small_config(tmp_path)
    payload["data"] = {}
    with pytest.raises(ValueError, match="exactly one"):
        parse_config(payload)
    payload["data"] = {"path": "somewhere",
                       "task": {"task": "token_majority"}}
    with pytest.raises(ValueError, match="exactly one"):
        parse_config(payload)


def test_defaults_fill_in(tmp_path):
    payload = small_config(tmp_path)
    del payload["prune"]
    cfg = parse_config(payload)
    assert cfg.prune.method == "snip"
    assert cfg.optimizer.beta1 == 0.9
    assert cfg.optimizer.beta2 == 0.98
    assert cfg.optimizer.weight_decay == 0.1
    assert cfg.optimizer.warmup_fraction == 0.10


@pytest.mark.parametrize("cls,valid,bad", [
    (EncoderConfig, {}, {"d_model": 0}),
    (AdapterSpec, {}, {"variant": "nope"}),
    (PruneConfig, {}, {"s": 1.0}),
    (OptimizerConfig, {}, {"beta1": 1.0}),
    (SyntheticTaskSpec, {}, {"n_classes": 1}),
    (DataConfig, {"path": "data"}, {"task": SyntheticTaskSpec()}),
    (ExperimentConfig, {"data": DataConfig(path="data")}, {"seed": -1}),
    (LargeSparseConfig, {"r_base": 64, "scale_k": 2}, {"scale_k": 0}),
])
def test_config_checks_itself_when_made(cls, valid, bad):
    # so no config can exist, whether made, replaced or changed, that fails its checks
    with pytest.raises(ValueError):
        cls(**{**valid, **bad})
    cfg = cls(**valid)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, **bad)
    (key, value), = bad.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, key, value)


@pytest.mark.parametrize("section,key,value", [
    ("adapter", "r", "4"), ("adapter", "r", 4.5), ("adapter", "r", True),
    ("optimizer", "epochs", None), (None, "seed", "0"), ("prune", "s", "0.4"),
    ("prune", "score_batches", 2.5), ("adapter", "gaussian_std", float("inf")),
])
def test_mistyped_value_is_an_error_line(tmp_path, capsys, section, key, value):
    payload = small_config(tmp_path)
    (payload[section] if section else payload)[key] = value
    config = str(tmp_path / "config.json")
    with open(config, "w") as f:
        json.dump(payload, f)
    assert main(["prune", "--config", config]) == 1
    where = ".".join(p for p in ("config", section, key) if p)
    assert capsys.readouterr().err.startswith(f"error: {where}: expected ")


@pytest.mark.parametrize("where,seed", [
    ("prune.seed", 2**63), ("prune.seed", -1), ("optimizer.seed", -1),
    ("data.task.seed", -1), ("seed", 2**63), ("--seed", 2**63), ("--seed", -1),
])
def test_seed_outside_int64_is_an_error_line(tmp_path, capsys, where, seed):
    # numpy takes no negative seed, and a mask file stores the seed as an int64
    # whose -1 means "no seed"; the flag sets `seed` first
    payload = small_config(tmp_path)
    flags = ["--seed", str(seed)] if where == "--seed" else []
    if not flags:
        *path, key = where.split(".")
        node = payload
        for step in path:
            node = node[step]
        node[key] = seed
    config = str(tmp_path / "config.json")
    with open(config, "w") as f:
        json.dump(payload, f)
    out = str(tmp_path / "run")
    for command in ("prune", "train"):
        assert main([command, "--config", config, "--out", out, *flags]) == 1
        assert capsys.readouterr().err == \
            f"error: {where.lstrip('-')} must be in [0, 2**63), got {seed}\n"
    assert not os.path.exists(out)


def test_override_seeds(tmp_path):
    # --seed points the model init, prune and shuffle seeds at one value
    out = str(tmp_path / "run")
    assert main(["train", "--config", write_config(tmp_path), "--out", out,
                 "--seed", "42"]) == 0
    cfg = load_config(os.path.join(out, "config.json"))
    assert cfg.seed == cfg.prune.seed == cfg.optimizer.seed == 42
    assert cfg.data.task.seed == 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_prune_then_inspect(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["prune", "--config", config, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "global" in text
    mask_path = os.path.join(out, "mask.sadm")
    assert os.path.exists(mask_path)

    assert main(["inspect-mask", "--mask", mask_path]) == 0
    report = capsys.readouterr().out
    assert "method=random" in report
    assert "s=0.4" in report


def test_prune_prints_the_report_of_the_file_it_wrote(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["prune", "--config", write_config(tmp_path), "--out", out]) == 0
    printed = capsys.readouterr().out
    mask_path = os.path.join(out, "mask.sadm")
    assert main(["inspect-mask", "--mask", mask_path]) == 0
    assert printed == capsys.readouterr().out + f"wrote {mask_path}\n"


def test_prune_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["prune", "--config", config, "--out", out1]) == 0
    assert main(["prune", "--config", config, "--out", out2]) == 0
    a = open(os.path.join(out1, "mask.sadm"), "rb").read()
    b = open(os.path.join(out2, "mask.sadm"), "rb").read()
    assert a == b


@pytest.mark.parametrize("method", ["random", "magnitude", "er"])
def test_scoring_batches_are_built_only_for_a_score_that_reads_them(tmp_path, method):
    # a billion batches would take minutes and gigabytes to build; these
    # methods read none, so the mask is the one a single batch gives
    masks = []
    for score_batches in (1, 10**9):
        prune = {"method": method, "s": 0.4, "seed": 0, "score_batches": score_batches}
        out = tmp_path / str(score_batches)
        proc = subprocess.run(
            [sys.executable, "-m", "sparseadapter.cli", "prune", "--out", str(out),
             "--config", write_config(tmp_path, prune=prune)],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=10)
        assert proc.returncode == 0, proc.stderr
        masks.append((out / "mask.sadm").read_bytes())
    assert masks[0] == masks[1]


@pytest.mark.parametrize("method", ["snip", "grasp"])
def test_scoring_batches_that_cannot_fit_are_refused_up_front(tmp_path, method):
    # a billion batches of 16 rows of 8 tokens and a label is about 1.2 TB of
    # int64, more than any machine this runs on has: refused before drawing
    prune = {"method": method, "s": 0.4, "seed": 0, "score_batches": 10**9}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sparseadapter.cli", "prune", "--out", str(out),
         "--config", write_config(tmp_path, prune=prune)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: prune.score_batches=1000000000 ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_train_writes_all_artifacts(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["train", "--config", config, "--out", out]) == 0
    for name in ("config.json", "metrics.csv", "summary.json", "checkpoint.sacp"):
        assert os.path.exists(os.path.join(out, name)), name
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert "final_eval_accuracy" in summary
    assert "steps_to_threshold" in summary
    saved_cfg = load_config(os.path.join(out, "config.json"))
    assert saved_cfg == parse_config(small_config(tmp_path))


def test_train_with_mask_and_eval(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["prune", "--config", config, "--out", out]) == 0
    mask_path = os.path.join(out, "mask.sadm")
    assert main(["train", "--config", config, "--out", out,
                 "--mask", mask_path]) == 0
    assert main(["eval", "--config", config,
                 "--checkpoint", os.path.join(out, "checkpoint.sacp")]) == 0
    assert "accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--seed", "5"), ("--out", "elsewhere")])
def test_eval_refuses_flags_it_does_not_read(tmp_path, capsys, flag, value):
    # eval writes no file, and the checkpoint overwrites every seeded group
    with pytest.raises(SystemExit) as info:
        main(["eval", "--config", write_config(tmp_path),
              "--checkpoint", str(tmp_path / "c.sacp"), flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_usage_error_names_the_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--config", write_config(tmp_path),
              "--checkpoint", str(tmp_path / "c.sacp"), "--seed", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sparseadapter eval ")
    assert err.endswith("sparseadapter eval: error: unrecognized arguments: --seed 1\n")


def test_corrupt_mask_clean_error_no_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    bad = str(tmp_path / "bad.sadm")
    with open(bad, "wb") as f:
        f.write(b"JUNKJUNKJUNK")
    assert main(["train", "--config", config, "--out", out, "--mask", bad]) == 1
    assert "error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_truncated_files_are_error_lines(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["prune", "--config", config, "--out", out]) == 0
    assert main(["train", "--config", config, "--out", out]) == 0
    capsys.readouterr()
    checkpoint = open(os.path.join(out, "checkpoint.sacp"), "rb").read()
    bad = str(tmp_path / "bad")
    cuts = [checkpoint[:4], checkpoint[:5] + b"\x05"] + \
        [checkpoint[:n] for n in (0, 9, 11, 12, 40, len(checkpoint) // 2,
                                  len(checkpoint) - 1)]
    for blob in cuts:
        with open(bad, "wb") as f:
            f.write(blob)
        assert main(["eval", "--config", config, "--checkpoint", bad]) == 1
        assert "truncated checkpoint file" in capsys.readouterr().err
    mask = open(os.path.join(out, "mask.sadm"), "rb").read()
    for n in range(len(mask)):
        with open(bad, "wb") as f:
            f.write(mask[:n])
        assert main(["inspect-mask", "--mask", bad]) == 1
        assert capsys.readouterr().err.startswith("error: truncated mask file")


def corrupted(blob: bytes, corrupt: str) -> bytes:
    """A checkpoint whose first group has flag byte 7 ("flag") or a NaN or Inf
    first weight ("nan", "inf")."""
    blob = bytearray(blob)
    # the first group follows the magic, the version byte and the group count
    (n,) = struct.unpack_from("<H", blob, 9)
    flag = 11 + n + 1 + 4 * blob[11 + n]
    if corrupt == "flag":
        blob[flag] = 7
    else:
        struct.pack_into("<d", blob, flag + 1, float(corrupt))
    return bytes(blob)


@pytest.mark.parametrize("corrupt", ["flag", "nan", "inf"])
def test_corrupt_checkpoint_group_is_an_error_line(tmp_path, capsys, corrupt):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    assert main(["train", "--config", config, "--out", out]) == 0
    path = os.path.join(out, "checkpoint.sacp")
    blob = open(path, "rb").read()
    (n,) = struct.unpack_from("<H", blob, 9)
    name = blob[11:11 + n].decode()
    with open(path, "wb") as f:
        f.write(corrupted(blob, corrupt))
    capsys.readouterr()
    assert main(["eval", "--config", config, "--checkpoint", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"group '{name}'" in err


def test_mask_model_mismatch_names_group(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["prune", "--config", config, "--out", out]) == 0
    other = write_config(tmp_path, adapter={"variant": "houlsby", "r": 8})
    code = main(["train", "--config", other, "--out", str(tmp_path / "o2"),
                 "--mask", os.path.join(out, "mask.sadm")])
    assert code == 1
    assert "layer0" in capsys.readouterr().err


def test_checkpoint_of_another_width_names_the_group(tmp_path, capsys):
    # every group name matches, but the r=4 adapters do not fit an r=8 model
    path = str(tmp_path / "r4.sacp")
    save_checkpoint(cli.build_model(parse_config(small_config(tmp_path))), path)
    other = write_config(tmp_path, adapter={"variant": "houlsby", "r": 8})
    assert main(["eval", "--config", other, "--checkpoint", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: group 'layer0.attn.adapter.down.weight': checkpoint "
                          "shape (16, 4) != model shape (16, 8)")
    assert err.count("\n") == 1


def test_out_flag_is_where_the_files_go(tmp_path, monkeypatch):
    # the environment variable that once outranked --out redirects nothing
    config = write_config(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("SPARSEADAPTER_OUT", str(env_out))
    assert main(["prune", "--config", config, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "mask.sadm").exists()
    assert not env_out.exists()


def test_without_out_the_files_go_to_output_dir(tmp_path):
    config = write_config(tmp_path)
    assert main(["prune", "--config", config]) == 0
    assert os.listdir(tmp_path / "out") == ["mask.sadm"]


def test_train_metrics_byte_identical_across_runs(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["train", "--config", config, "--out", out1]) == 0
    assert main(["train", "--config", config, "--out", out2]) == 0
    a = open(os.path.join(out1, "metrics.csv"), "rb").read()
    b = open(os.path.join(out2, "metrics.csv"), "rb").read()
    assert a == b


def test_file_dataset_path(tmp_path):
    from sparseadapter.data import SyntheticTaskSpec, generate, write_jsonl
    task = SyntheticTaskSpec(task="token_majority", vocab=60, seq_len=8,
                             n_classes=4, n_train=48, n_eval=24, seed=0)
    data = generate(task)
    ddir = tmp_path / "dataset"
    ddir.mkdir()
    write_jsonl(data.train, str(ddir / "train.jsonl"))
    write_jsonl(data.eval, str(ddir / "eval.jsonl"))
    config = write_config(tmp_path, data={"path": str(ddir)})
    out = str(tmp_path / "run")
    assert main(["train", "--config", config, "--out", out]) == 0


DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_config_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(DEEP)
    assert main(["prune", "--config", str(path), "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_deeply_nested_dataset_record_is_an_error_line(tmp_path, capsys):
    ddir = tmp_path / "dataset"
    ddir.mkdir()
    for split in ("train", "eval"):
        (ddir / f"{split}.jsonl").write_text('{"tokens": ' + DEEP + ', "label": 0}\n')
    config = write_config(tmp_path, data={"path": str(ddir)})
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "train.jsonl:1: bad dataset record" in err


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("row,line,message", [
    ({"tokens": [3, 99, 4], "label": 1}, 3, "token 99 outside [0, encoder.vocab_size=60)"),
    # rows share one length, so the first row is already too long
    ({"tokens": [3] * 17, "label": 1}, 1,
     "sequence length 17 exceeds encoder.max_seq_len=16"),
    ({"tokens": [3, 5, 4], "label": 4}, 3, "label 4 outside [0, encoder.n_classes=4)"),
])
def test_dataset_that_does_not_fit_the_encoder_is_refused_up_front(tmp_path, capsys,
                                                                   row, line, message,
                                                                   command):
    # one field each: encoder.vocab_size, encoder.max_seq_len, encoder.n_classes;
    # the odd record sits on line 3 of train.jsonl, after a blank line. A
    # sweep refuses it before its pool starts, as train does before it writes
    ddir = tmp_path / "dataset"
    ddir.mkdir()
    good = json.dumps({"tokens": [1] * len(row["tokens"]), "label": 0})
    (ddir / "train.jsonl").write_text(f"{good}\n\n{json.dumps(row)}\n")
    (ddir / "eval.jsonl").write_text(f"{good}\n")
    config = write_config(tmp_path, data={"path": str(ddir)})
    out = tmp_path / "run"
    argv = [command, "--config", config, "--out", str(out)]
    if command == "sweep":
        argv += ["--sweep-axis", "sparsity", "--values", "0.4,0.6", "--seeds", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {ddir / 'train.jsonl'}:{line}: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def read_sweep(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]
            if not line.startswith("#")]
    return header, rows


def test_sweep_sparsity_axis(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "sparsity", "--values", "0.2,0.6",
                 "--seeds", "2"]) == 0
    header, rows = read_sweep(os.path.join(out, "sweep.csv"))
    assert header[:5] == ["method", "s", "r", "kept_fraction", "seeds"]
    assert len(rows) == 2
    assert [float(r["s"]) for r in rows] == [0.2, 0.6]
    assert all(int(r["seeds"]) == 2 for r in rows)
    # kept fraction falls as s rises
    assert float(rows[0]["kept_fraction"]) > float(rows[1]["kept_fraction"])


def test_sweep_method_axis_counts(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "method", "--values", "random,magnitude",
                 "--seeds", "2"]) == 0
    _, rows = read_sweep(os.path.join(out, "sweep.csv"))
    assert [r["method"] for r in rows] == ["random", "magnitude"]


def test_sweep_all_five_methods_aggregate(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "method",
                 "--values", "random,magnitude,er,snip,grasp",
                 "--seeds", "3"]) == 0
    _, rows = read_sweep(os.path.join(out, "sweep.csv"))
    assert len(rows) == 5           # 15 runs fold into 5 aggregate rows
    assert all(int(r["seeds"]) == 3 for r in rows)


def test_divergence_exit_code(tmp_path, capsys):
    config = write_config(
        tmp_path, optimizer={"peak_lr": 1e30, "epochs": 2, "batch_size": 16,
                             "seed": 0})
    assert main(["train", "--config", config, "--out", str(tmp_path / "d")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step ") and err.count("\n") == 1
    # the records of the steps before it, each with its eval, and no
    # checkpoint or summary
    step = int(err.split()[5].rstrip(":"))
    assert sorted(os.listdir(tmp_path / "d")) == ["config.json", "metrics.csv"]
    rows = list(csv.DictReader(open(tmp_path / "d" / "metrics.csv").read().splitlines()))
    assert [(int(r["step"]), r["split"]) for r in rows] == \
        [(s, split) for s in range(1, step) for split in ("train", "eval")]


def test_diverged_train_leaves_the_records_before_its_step(tmp_path, capsys, monkeypatch):
    # the eval of step 4 diverges; on 2 CPUs it overlaps training, which runs
    # on past it, yet both runs leave the same records: those of steps 1-3
    config = write_config(tmp_path, optimizer={"peak_lr": 1e-3, "epochs": 2,
                                               "batch_size": 16, "seed": 0})
    evaluate, written = training.evaluate, []
    for cpus in (1, 2):
        evals = []

        def diverging_evaluate(*args):
            evals.append(args)      # one eval per step here
            if len(evals) == 4:
                raise NumericError("forced in the eval")
            return evaluate(*args)

        monkeypatch.setattr(training, "available_cpus", lambda: cpus)
        monkeypatch.setattr(training, "evaluate", diverging_evaluate)
        out = tmp_path / f"cpus{cpus}"
        assert main(["train", "--config", config, "--out", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error: training diverged at step 4: forced in the eval\n"
        assert sorted(os.listdir(out)) == ["config.json", "metrics.csv"]
        written.append(open(out / "metrics.csv").read())
    assert written[0] == written[1]
    rows = list(csv.DictReader(written[0].splitlines()))
    assert [(r["step"], r["split"]) for r in rows] == \
        [(str(s), split) for s in (1, 2, 3) for split in ("train", "eval")]
    assert all(np.isfinite(float(r["loss"])) for r in rows)


@pytest.mark.parametrize("name", ["config.json", "metrics.csv", "summary.json",
                                  "checkpoint.sacp", "mask.sadm", "sweep.csv"])
def test_a_failed_move_leaves_the_earlier_file_and_no_temporary(tmp_path, capsys,
                                                                 monkeypatch, name):
    # the new bytes reach <name>.tmp; moving it onto <name> fails, the error
    # is one line, <name> keeps what it held and the temporary is gone
    config = write_config(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    (out / name).write_bytes(b"earlier")
    replace = os.replace

    def failing_replace(src, dst):
        if src == str(out / f"{name}.tmp"):
            raise OSError("forced in the move")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    command = {"mask.sadm": ["prune"],
               "sweep.csv": ["sweep", "--sweep-axis", "sparsity", "--values", "0.4",
                             "--seeds", "1"]}.get(name, ["train"])
    assert main([*command, "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: forced in the move\n"
    assert (out / name).read_bytes() == b"earlier"
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


@pytest.mark.parametrize("key,value", [("beta1", 1.0), ("beta2", 1.0), ("beta1", 2.0),
                                       ("beta1", -0.5), ("weight_decay", -0.5)])
def test_bad_adam_hyperparameter_is_an_error_line(tmp_path, capsys, key, value):
    # beta = 1 zeroes Adam's bias correction: a config error, not a divergence
    optimizer = {"peak_lr": 1e-3, "epochs": 1, "batch_size": 16, "seed": 0, key: value}
    config = write_config(tmp_path, optimizer=optimizer)
    assert main(["train", "--config", config, "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be " + ("in [0, 1)\n" if "beta" in key else ">= 0\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_divergence_exit_code(tmp_path, capsys, workers):
    config = write_config(
        tmp_path, optimizer={"peak_lr": 1e30, "epochs": 2, "batch_size": 16,
                             "seed": 0})
    out = str(tmp_path / "sweep")
    # two jobs, so that two workers do start a pool
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "sparsity", "--values", "0.4", "--seeds", "2",
                 "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step")
    assert err.count("\n") == 1
    assert "# aborted: TrainingDiverged" in open(os.path.join(out, "sweep.csv")).read()


def _dying_job(job):
    os._exit(1)


def test_dead_sweep_worker_is_an_error_line(tmp_path, capsys, monkeypatch):
    # a worker killed mid-job breaks the pool: exit 1 with one error line
    monkeypatch.setattr(cli, "_run_sweep_job", _dying_job)
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "sparsity", "--values", "0.4", "--seeds", "2",
                 "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "# aborted: BrokenProcessPool" in open(os.path.join(out, "sweep.csv")).read()


def test_config_too_large_to_allocate_is_an_error_line(tmp_path, capsys):
    # the ~116 TiB embedding table is refused from the config alone
    encoder = {**small_config(tmp_path)["encoder"], "vocab_size": 10**12}
    config = write_config(tmp_path, encoder=encoder)
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("variant", ["houlsby", "pfeiffer", "lora", "mam"])
def test_param_count_is_the_built_models(tmp_path, variant):
    # no two sizes alike, so that a size counted in place of another shows
    encoder = {"vocab_size": 61, "d_model": 16, "n_heads": 4, "d_ff": 24,
               "n_layers": 3, "max_seq_len": 13, "n_classes": 5}
    cfg = parse_config(small_config(tmp_path, encoder=encoder, adapter={
        "variant": variant, "r": 3, "prefix_len": 2}))
    groups = cli.build_model(cfg).groups.values()
    assert cli._param_count(cfg) == sum(g.tensor.size for g in groups)


def physical_memory(monkeypatch, pages: int) -> None:
    """Make the program see `pages` pages of 4 KiB as physical memory."""
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.get(name) or sysconf(name))


# with 16 pages (64 KiB) the small config's model (6,356 parameters, 50,848
# bytes) and data (72 rows of 8 tokens and a label, 5,184 bytes) fit; each
# case makes one size too big, and the error names the field that asks for it
OVERSIZED = {  # pages, prune and data.task changes, the error line's start
    "model": (1, {}, {},
              "config.encoder with config.adapter (6356 parameters) asks for 50848 bytes"),
    "data": (16, {}, {"n_train": 1000}, "data.task.n_train+n_eval=1024 asks for 73728 bytes"),
    "score_batches": (16, {"method": "snip", "score_batches": 100}, {},
                      "prune.score_batches=100 asks for 115200 bytes"),
}


@pytest.mark.parametrize("command,case", [("prune", "model"), ("prune", "data"),
                                          ("prune", "score_batches"), ("train", "model"),
                                          ("train", "data")])
def test_sizes_past_physical_memory_are_refused_up_front(tmp_path, capsys, monkeypatch,
                                                         command, case):
    pages, prune, task, field = OVERSIZED[case]
    payload = small_config(tmp_path)
    payload["prune"].update(prune)
    payload["data"]["task"].update(task)
    config = str(tmp_path / "big.json")
    with open(config, "w") as f:
        json.dump(payload, f)
    physical_memory(monkeypatch, pages)
    out = tmp_path / "run"
    assert main([command, "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {field}, more than physical memory\n"
    assert not out.exists()


def test_sweep_job_past_physical_memory_ends_the_sweep(tmp_path, capsys, monkeypatch):
    # the forked worker sees the same patched memory and refuses its model
    config = write_config(tmp_path)
    physical_memory(monkeypatch, 1)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config, "--out", str(out), "--sweep-axis",
                 "sparsity", "--values", "0.4", "--seeds", "1", "--workers", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: config.encoder with config.adapter ")
    assert (out / "sweep.csv").read_text().splitlines()[-1].startswith(
        "# aborted: ValueError: config.encoder with config.adapter ")


@pytest.mark.parametrize("adapter", [
    {"variant": "houlsby", "r": 4, "gaussian_std": 1e200},
    {"variant": "lora", "r": 4, "lora_alpha": 1e308},
])
def test_non_finite_scoring_exit_code(tmp_path, capsys, adapter):
    config = write_config(tmp_path, adapter=adapter,
                          prune={"method": "snip", "s": 0.4, "seed": 0})
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 3
    assert capsys.readouterr().err.startswith("error: non-finite values")


def grasp_config(tmp_path, **adapter) -> str:
    """The small config, pruned by grasp on two scoring batches."""
    return write_config(tmp_path, adapter={"variant": "houlsby", "r": 4, **adapter},
                        prune={"method": "grasp", "s": 0.4, "seed": 0, "score_batches": 2})


def test_grasp_mask_file_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    config = grasp_config(tmp_path)
    masks = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "available_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["prune", "--config", config, "--out", str(out)]) == 0
        masks.append((out / "mask.sadm").read_bytes())
    assert masks[0] == masks[1]


def test_non_finite_grasp_on_two_cpus_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the overflow happens on a scoring thread, which keeps the caller's numpy
    # error state, so no warning escapes, and the NumericError reaches main
    monkeypatch.setattr(cli, "available_cpus", lambda: 2)
    config = grasp_config(tmp_path, gaussian_std=1e200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite values") and err.count("\n") == 1


def test_sweep_job_non_finite_exit_code(tmp_path, capsys):
    config = write_config(tmp_path,
                          adapter={"variant": "houlsby", "r": 4, "gaussian_std": 1e200},
                          prune={"method": "snip", "s": 0.4, "seed": 0})
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "sparsity", "--values", "0.4", "--seeds", "2",
                 "--workers", "2"]) == 3
    assert capsys.readouterr().err.startswith("error: non-finite values")
    assert "# aborted: NumericError" in open(os.path.join(out, "sweep.csv")).read()


def test_infeasible_task_spec_is_an_error_line(tmp_path, capsys):
    config = write_config(tmp_path, data={"task": {
        "task": "token_majority", "vocab": 20, "n_classes": 2, "seq_len": 2,
        "n_train": 500, "n_eval": 100}})
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith("error: SyntheticTaskSpec(")


@pytest.mark.parametrize("key,value,cap", [("vocab", 100, "vocab_size=60"),
                                           ("seq_len", 17, "max_seq_len=16"),
                                           ("n_classes", 6, "n_classes=4")])
def test_task_that_does_not_fit_the_encoder_is_an_error_line(tmp_path, capsys, key, value,
                                                             cap):
    task = dict(small_config(tmp_path)["data"]["task"], **{key: value})
    out = tmp_path / "run"
    assert main(["train", "--config", write_config(tmp_path, data={"task": task}),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: data.task.{key}={value} exceeds encoder.{cap}\n"
    assert not out.exists()


def test_sweep_large_sparse_axis(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "large-sparse", "--values", "1,2",
                 "--seeds", "1"]) == 0
    _, rows = read_sweep(os.path.join(out, "sweep.csv"))
    assert [int(r["r"]) for r in rows] == [4, 8]
    assert [float(r["s"]) for r in rows] == [0.0, 0.5]


def test_sweep_parallel_matches_serial(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["sweep", "--config", config, "--out", out1,
                 "--sweep-axis", "sparsity", "--values", "0.4",
                 "--seeds", "2", "--workers", "1"]) == 0
    assert main(["sweep", "--config", config, "--out", out2,
                 "--sweep-axis", "sparsity", "--values", "0.4",
                 "--seeds", "2", "--workers", "2"]) == 0
    assert open(os.path.join(out1, "sweep.csv")).read() == \
        open(os.path.join(out2, "sweep.csv")).read()


def test_sweep_failure_preserves_partial_csv(tmp_path):
    cfg = parse_config(small_config(tmp_path, prune={"method": "random", "s": 0.99,
                                                     "seed": 0}))
    out = str(tmp_path / "sweep")
    with pytest.raises(ValueError, match="infeasible"):
        # a valid config whose second job fails at run time: Erdos-Renyi keeps
        # at least one weight in each of the 8 groups of 64, so not s = 0.99
        cmd_sweep(cfg, "method", ["random", "er"], out, seeds=1, workers=1)
    text = open(os.path.join(out, "sweep.csv")).read()
    assert "# aborted" in text
    assert text.splitlines()[0].startswith("method,")
    assert [r["method"] for r in read_sweep(os.path.join(out, "sweep.csv"))[1]] == \
        ["random"]


@pytest.mark.parametrize("axis,values", [("sparsity", "0.2,1.5"),
                                         ("large-sparse", "1,2,4"),
                                         ("sparsity", "0.4,0.40"),
                                         ("method", "snip,random,snip"),
                                         ("large-sparse", "2,2"),
                                         ("large-sparse", "1.5"),
                                         ("large-sparse", "0"),
                                         ("sparsity", "x")])
def test_sweep_bad_point_stops_before_any_job(tmp_path, capsys, axis, values):
    # 1.5 is no sparsity; k=4 takes r=4 to 16, which is not < d_model=16; a
    # repeated point would run one config twice and report it as two seeds;
    # k is a whole number >= 1, and "x" parses as no number at all
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out, "--sweep-axis", axis,
                 "--values", values, "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep value ") and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-1"),
                                        ("--workers", "0")])
def test_sweep_seeds_and_workers_must_be_positive(tmp_path, capsys, flag, value):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    counts = ["--seeds", "1", "--workers", "1"]
    counts[counts.index(flag) + 1] = value
    assert main(["sweep", "--config", config, "--out", out, "--sweep-axis",
                 "sparsity", "--values", "0.4", *counts]) == 1
    assert capsys.readouterr().err.startswith("error: --seeds and --workers must be >= 1")
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


def test_sweep_with_zero_epochs_is_an_error_line(tmp_path, capsys):
    # a sweep row reports final eval accuracy, and 0 epochs run no eval
    config = write_config(tmp_path, optimizer={"peak_lr": 1e-3, "epochs": 0,
                                               "batch_size": 16, "seed": 0})
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out, "--sweep-axis",
                 "sparsity", "--values", "0.2", "--seeds", "1"]) == 1
    assert capsys.readouterr().err == "error: a sweep needs optimizer.epochs >= 1, got 0\n"
    assert not os.path.exists(os.path.join(out, "sweep.csv"))


def in_process_pool(sizes: list):
    """A stand-in for ProcessPoolExecutor that records its size in `sizes`
    and runs the jobs in this process."""
    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    return Pool


@pytest.mark.parametrize("workers,seeds,pools", [("64", "2", [2]), ("2", "3", [2]),
                                                 ("3", "1", [1])])
def test_sweep_workers_capped_at_job_count(tmp_path, monkeypatch, workers, seeds, pools):
    # the pool never holds more workers than there are jobs
    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", in_process_pool(made))
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out, "--sweep-axis", "sparsity",
                 "--values", "0.4", "--seeds", seeds, "--workers", workers]) == 0
    assert made == pools
    assert read_sweep(os.path.join(out, "sweep.csv"))[1][0]["seeds"] == seeds


def test_sweep_shifted_seed_outside_int64_is_an_error_line(tmp_path, capsys):
    # the second run of a point adds SEED_STRIDE to every seed
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    seed = 2**63 - 1
    assert main(["sweep", "--config", config, "--out", out, "--seed", str(seed),
                 "--sweep-axis", "sparsity", "--values", "0.4", "--seeds", "2"]) == 1
    assert capsys.readouterr().err == \
        f"error: seed must be in [0, 2**63), got {seed + cli.SEED_STRIDE}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("workers,cpus,share", [("1", 4, 4), ("2", 4, 2), ("2", 2, 1),
                                                ("3", 2, 0)])
def test_sweep_job_gets_its_share_of_the_cpus(tmp_path, monkeypatch, workers, cpus, share):
    # a job overlaps its evals with training only with 2 CPUs to itself
    given = []
    real_train = cli.train

    def recording_train(*args, cpus, **kwargs):
        given.append(cpus)
        return real_train(*args, cpus=cpus, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", in_process_pool([]))
    monkeypatch.setattr(cli, "available_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "train", recording_train)
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out, "--sweep-axis", "sparsity",
                 "--values", "0.4", "--seeds", "3", "--workers", workers]) == 0
    assert given == [share] * 3


def test_sweep_kept_fraction_tracks_sparsity(tmp_path):
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "sparsity", "--values", "0.0,0.2,0.4,0.8",
                 "--seeds", "1"]) == 0
    _, rows = read_sweep(os.path.join(out, "sweep.csv"))
    dense = float(rows[0]["kept_fraction"])
    cfg = parse_config(small_config(tmp_path))
    from sparseadapter.cli import build_model
    model = build_model(cfg)
    n_bias = sum(model.groups[n].tensor.size for n in model.adapter_group_names
                 if n not in model.prunable_groups())
    denom = sum(g.tensor.size for g in model.groups.values())
    for row in rows:
        s = float(row["s"])
        slack = (s * n_bias + len(model.prunable_groups()) + 1) / denom
        assert abs(float(row["kept_fraction"]) - (1 - s) * dense) <= slack


def test_sweep_csv_floats_read_back(tmp_path, monkeypatch):
    # every float cell of sweep.csv parses back to the value it was written from
    written = []

    def recording_write(path, rows, aborted=None):
        written.extend(rows)
        return write_sweep_csv(path, rows, aborted)

    write_sweep_csv = cli._write_sweep_csv
    monkeypatch.setattr(cli, "_write_sweep_csv", recording_write)
    config = write_config(tmp_path)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", config, "--out", out,
                 "--sweep-axis", "sparsity", "--values", "0.2,0.6",
                 "--seeds", "2"]) == 0
    with open(os.path.join(out, "sweep.csv"), newline="") as f:
        header, *cells = list(csv.reader(f))
    assert header == cli.SWEEP_COLUMNS
    assert len(cells) == len(written) == 2
    floats = 0
    for row, values in zip(cells, written):
        for cell, value in zip(row, values, strict=True):
            if isinstance(value, float):
                floats += 1
                assert type(value) is float
                assert float(cell).hex() == value.hex()
            else:
                assert cell == str(value)
    assert floats == 2 * 6      # s, kept_fraction and four aggregate statistics
