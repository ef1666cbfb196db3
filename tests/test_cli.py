"""CLI tests: config round trip and strictness, subcommand pipelines on a
small config, sweep aggregation, artifact layout, error exit codes."""

import csv
import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from sparseadapter import cli
from sparseadapter.cli import (ExperimentConfig, cmd_sweep, load_config, main,
                               parse_config, serialize_config)


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


def test_prune_is_byte_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["prune", "--config", config, "--out", out1]) == 0
    assert main(["prune", "--config", config, "--out", out2]) == 0
    a = open(os.path.join(out1, "mask.sadm"), "rb").read()
    b = open(os.path.join(out2, "mask.sadm"), "rb").read()
    assert a == b


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


def test_env_var_overrides_out(tmp_path, monkeypatch):
    config = write_config(tmp_path)
    env_out = str(tmp_path / "env_out")
    monkeypatch.setenv("SPARSEADAPTER_OUT", env_out)
    assert main(["prune", "--config", config, "--out", str(tmp_path / "flag")]) == 0
    assert os.path.exists(os.path.join(env_out, "mask.sadm"))
    assert not os.path.exists(os.path.join(str(tmp_path / "flag"), "mask.sadm"))


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
    assert "diverged at step" in capsys.readouterr().err


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
    # numpy refuses the ~116 TiB embedding table before allocating any of it
    encoder = {**small_config(tmp_path)["encoder"], "vocab_size": 10**12}
    config = write_config(tmp_path, encoder=encoder)
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("adapter", [
    {"variant": "houlsby", "r": 4, "gaussian_std": 1e200},
    {"variant": "lora", "r": 4, "lora_alpha": 1e308},
])
def test_non_finite_scoring_exit_code(tmp_path, capsys, adapter):
    config = write_config(tmp_path, adapter=adapter,
                          prune={"method": "snip", "s": 0.4, "seed": 0})
    assert main(["prune", "--config", config, "--out", str(tmp_path / "p")]) == 3
    assert capsys.readouterr().err.startswith("error: non-finite values")


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
                                                 ("3", "1", [])])
def test_sweep_workers_capped_at_job_count(tmp_path, monkeypatch, workers, seeds, pools):
    # one job runs on the serial path, with no pool at all
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
