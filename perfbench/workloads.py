"""The benchmark's three workloads: their configs, their command rounds and
the set-up each command repeats.

Every input is a pure function of the workload seed. The program only sees
what a user would give it: JSON config files, a JSONL dataset directory and
command-line arguments.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

# The README's desk-scale encoder.
DESK_ENCODER = {"vocab_size": 1000, "d_model": 128, "n_heads": 4, "d_ff": 256,
                "n_layers": 4, "max_seq_len": 32, "n_classes": 4}
# A small encoder, where per-op Python overhead outweighs numpy compute.
SMALL_ENCODER = {"vocab_size": 1000, "d_model": 64, "n_heads": 4, "d_ff": 128,
                 "n_layers": 2, "max_seq_len": 32, "n_classes": 4}

VARIANTS = ("houlsby", "pfeiffer", "lora", "mam")
METHODS = ("random", "magnitude", "er", "snip", "grasp")
LS_VALUES = (1, 2, 4)
LS_SEEDS = 2
LS_WORKERS = 2


@dataclass
class Command:
    kind: str          # prune | train | eval | sweep
    tag: str           # which config it runs, e.g. "lora/grasp"
    argv: list[str]


@dataclass
class Plan:
    """One workload instance: the round of commands and what they read."""

    name: str
    seed: int
    work: str
    configs: dict[str, dict]            # tag -> config payload
    round: list[Command]
    setup_tags: list[str]               # configs whose set-up a round repeats
    nominal_round_s: float              # a round's wall time on the baseline VM
    sweep_values: tuple = ()            # large-sparse k of a sweep round
    sweep_seeds: int = 0

    @property
    def sweep_jobs(self) -> int:
        return len(self.sweep_values) * self.sweep_seeds


def _task(kind: str, seed: int) -> dict:
    return {"task": kind, "vocab": 1000, "seq_len": 12, "n_classes": 4,
            "n_train": 512, "n_eval": 256, "seed": seed}


def desk_config(seed: int, out: str) -> dict:
    """The README config with every seed set to the workload seed."""
    return {
        "encoder": dict(DESK_ENCODER),
        "adapter": {"variant": "houlsby", "r": 64},
        "prune": {"method": "snip", "s": 0.4, "seed": seed},
        "optimizer": {"peak_lr": 0.003, "epochs": 5, "batch_size": 32, "seed": seed},
        "data": {"task": _task("token_majority", seed)},
        "output_dir": out,
        "seed": seed,
    }


def variant_config(variant: str, method: str, seed: int, data_dir: str,
                   out: str) -> dict:
    return {
        "encoder": dict(DESK_ENCODER),
        "adapter": {"variant": variant, "r": 64},
        "prune": {"method": method, "s": 0.6, "seed": seed, "score_batches": 4},
        "optimizer": {"peak_lr": 0.003, "epochs": 5, "batch_size": 32, "seed": seed},
        "data": {"path": data_dir},
        "output_dir": out,
        "seed": seed,
    }


def sweep_config(seed: int, out: str) -> dict:
    return {
        "encoder": dict(SMALL_ENCODER),
        "adapter": {"variant": "houlsby", "r": 8},
        "prune": {"method": "snip", "s": 0.0, "seed": seed},
        "optimizer": {"peak_lr": 0.003, "epochs": 5, "batch_size": 32, "seed": seed},
        "data": {"task": _task("token_majority", seed)},
        "output_dir": out,
        "seed": seed,
    }


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def write_split_jsonl(tokens, labels, path: str) -> None:
    """Dataset records as the README's "Datasets" paragraph describes them."""
    with open(path, "w", encoding="utf-8") as f:
        for row, label in zip(tokens, labels):
            f.write(json.dumps({"tokens": [int(t) for t in row],
                                "label": int(label)}) + "\n")


def plan_desk_train(work: str, seed: int, cfg: dict | None = None) -> Plan:
    """prune, train under the mask, eval the checkpoint; `cfg` stands in for
    the README config in the benchmark's own tests."""
    cfg = cfg if cfg is not None else desk_config(seed, os.path.join(work, "desk"))
    out = cfg["output_dir"]
    cfg_path = os.path.join(work, "desk.json")
    write_json(cfg_path, cfg)
    mask = os.path.join(out, "mask.sadm")
    ckpt = os.path.join(out, "checkpoint.sacp")
    return Plan("desk-train", seed, work, {"desk": cfg}, [
        Command("prune", "desk", ["prune", "--config", cfg_path, "--out", out]),
        Command("train", "desk", ["train", "--config", cfg_path, "--out", out,
                                  "--mask", mask]),
        Command("eval", "desk", ["eval", "--config", cfg_path, "--checkpoint", ckpt]),
    ], ["desk"], 17.5)


def plan_score_variants(work: str, seed: int) -> Plan:
    from sparseadapter.data import SyntheticTaskSpec, generate

    data_dir = os.path.join(work, "data")
    os.makedirs(data_dir, exist_ok=True)
    spec = _task("keyed_lookup", seed)
    data = generate(SyntheticTaskSpec(**spec))
    write_split_jsonl(data.train.tokens, data.train.labels,
                      os.path.join(data_dir, "train.jsonl"))
    write_split_jsonl(data.eval.tokens, data.eval.labels,
                      os.path.join(data_dir, "eval.jsonl"))
    configs, commands = {}, []
    for variant in VARIANTS:
        for method in METHODS:
            tag = f"{variant}/{method}"
            out = os.path.join(work, "masks", f"{variant}-{method}")
            cfg = variant_config(variant, method, seed, data_dir, out)
            path = os.path.join(work, f"{variant}-{method}.json")
            write_json(path, cfg)
            configs[tag] = cfg
            commands.append(Command("prune", tag,
                                    ["prune", "--config", path, "--out", out]))
    return Plan("score-variants", seed, work, configs, commands,
                [f"{v}/snip" for v in VARIANTS], 9.0)


def plan_ls_sweep(work: str, seed: int, cfg: dict | None = None,
                  values: tuple = LS_VALUES, seeds: int = LS_SEEDS,
                  workers: int = LS_WORKERS) -> Plan:
    """One large-sparse sweep; the keywords serve the benchmark's own tests."""
    cfg_path = os.path.join(work, "sweep.json")
    cfg = cfg if cfg is not None else sweep_config(seed, os.path.join(work, "sweep"))
    out = cfg["output_dir"]
    write_json(cfg_path, cfg)
    argv = ["sweep", "--config", cfg_path, "--sweep-axis", "large-sparse",
            "--values", ",".join(str(k) for k in values),
            "--seeds", str(seeds), "--workers", str(workers), "--out", out]
    # each job sets up at its own width r = k * r_base
    configs = {}
    for k in values:
        job = json.loads(json.dumps(cfg))
        job["adapter"]["r"] = k * cfg["adapter"]["r"]
        job["prune"]["s"] = 1.0 - 1.0 / k
        configs[f"k{k}"] = job
    configs["base"] = cfg
    return Plan("ls-sweep", seed, work, configs, [Command("sweep", "base", argv)],
                [f"k{k}" for k in values], 12.5, sweep_values=values, sweep_seeds=seeds)


PLANS = {
    "desk-train": plan_desk_train,
    "score-variants": plan_score_variants,
    "ls-sweep": plan_ls_sweep,
}
