"""Experiment front door: declarative JSON configs and the prune / train /
sweep / eval / inspect-mask subcommands.

Every successful run leaves a re-runnable set of artifacts in the output
directory: the exact config, the step metrics CSV, a summary JSON, and the
final checkpoint. With --workers above 1, sweep jobs run in worker
processes, at most --workers and at most one per job; with --workers 1 they
run one after another in the calling process. Either way the coordinator
aggregates them into one CSV. Each job gets an equal share of the CPUs, which
decides whether its evaluations overlap its training (see
sparseadapter.training).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import typing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adapters import AdapterSpec, LargeSparseConfig, insert_adapters
from .autodiff import NumericError
from .data import SyntheticTaskSpec, TaskData, generate, load_dir
from .model import EncoderConfig, Model, build_encoder, freeze_backbone, \
    load_checkpoint, save_checkpoint
from .pruning import PruneConfig, apply_mask, compute_mask, load_mask, save_mask
from .training import OptimizerConfig, available_cpus, evaluate, train

OUT_ENV_VAR = "SPARSEADAPTER_OUT"
SEED_STRIDE = 10007  # run-index offset applied to every seed in a sweep


@dataclass
class DataConfig:
    path: str | None = None
    task: SyntheticTaskSpec | None = None

    def validate(self) -> None:
        if (self.path is None) == (self.task is None):
            raise ValueError("data must set exactly one of 'path' or 'task'")


@dataclass
class ExperimentConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    adapter: AdapterSpec = field(default_factory=AdapterSpec)
    prune: PruneConfig = field(default_factory=PruneConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    output_dir: str = "runs"
    seed: int = 0

    def validate(self) -> None:
        self.adapter.validate(self.encoder.d_model)
        seeds = {"seed": self.seed, "prune.seed": self.prune.seed,
                 "optimizer.seed": self.optimizer.seed}
        if self.data.task is not None:
            seeds["data.task.seed"] = self.data.task.seed
        for name, seed in seeds.items():    # numpy refuses < 0; SADM stores an int64
            if not 0 <= seed < 2**63:
                raise ValueError(f"{name} must be in [0, 2**63), got {seed}")


def _from_dict(cls, payload, where: str):
    """Build and validate dataclass `cls` from a JSON object, checking each
    value against its field's annotation. A nested dataclass left out is
    built from {}, so its defaults are validated too."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: expected an object, got {type(payload).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {key: _from_json(hints[key], value, f"{where}.{key}")
              for key, value in payload.items()}
    for name in hints:
        if name not in payload and dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _from_dict(hints[name], {}, f"{where}.{name}")
    obj = cls(**kwargs)
    if hasattr(obj, "validate"):
        obj.validate()
    return obj


def _from_json(hint, value, where: str):
    args = typing.get_args(hint)
    if type(None) in args:              # `T | None`
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, where)
    if hint is float:
        # An int stays an int, so the config serializes back to the same
        # bytes; the bound is False for NaN, +-Infinity and ints past float range.
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is hint        # exact: a JSON bool is not an int
    if not ok:
        raise ValueError(f"{where}: expected {hint.__name__}, got {value!r:.40}")
    return value


def parse_config(payload: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed JSON object."""
    return _from_dict(ExperimentConfig, payload, "config")


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return parse_config(payload)


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"


def _map_seeds(cfg: ExperimentConfig, fn) -> ExperimentConfig:
    """The checked config with `fn` applied to the model init, prune, and
    shuffle seeds."""
    cfg = replace(cfg, seed=fn(cfg.seed),
                  prune=replace(cfg.prune, seed=fn(cfg.prune.seed)),
                  optimizer=replace(cfg.optimizer, seed=fn(cfg.optimizer.seed)))
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Pipeline pieces shared by the subcommands
# ---------------------------------------------------------------------------

def build_model(cfg: ExperimentConfig) -> Model:
    model = build_encoder(cfg.encoder, cfg.seed)
    insert_adapters(model, cfg.adapter, cfg.seed + 1)
    freeze_backbone(model)
    return model


def load_data(cfg: ExperimentConfig) -> TaskData:
    if cfg.data.task is not None:
        return generate(cfg.data.task)
    return load_dir(cfg.data.path)


def scoring_batches(cfg: ExperimentConfig, dataset: TaskData) -> list[tuple]:
    """Deterministic mini-batches of training data for snip/grasp scoring."""
    rng = np.random.default_rng(cfg.prune.seed)
    n = len(dataset.train.labels)
    batches = []
    for _ in range(cfg.prune.score_batches):
        idx = rng.choice(n, size=min(cfg.optimizer.batch_size, n), replace=False)
        batches.append((dataset.train.tokens[idx], dataset.train.labels[idx]))
    return batches


def make_mask(cfg: ExperimentConfig, model: Model, dataset: TaskData):
    return compute_mask(model, cfg.prune.method, cfg.prune.s, cfg.prune.seed,
                        batches=scoring_batches(cfg, dataset),
                        snip_abs=cfg.prune.snip_abs)


def resolve_out(flag_value: str | None, cfg: ExperimentConfig) -> str:
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return env
    if flag_value:
        return flag_value
    return cfg.output_dir


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_prune(cfg: ExperimentConfig, out_dir: str) -> str:
    model = build_model(cfg)
    dataset = load_data(cfg)
    mask = make_mask(cfg, model, dataset)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "mask.sadm")
    save_mask(mask, path)
    print(f"method={mask.method} s={mask.s} seed={mask.seed}")
    for name, kept, total in mask.group_stats():
        print(f"  {name}: kept {kept}/{total} (sparsity {1 - kept / total:.4f})")
    print(f"global: kept {mask.kept()}/{mask.total()} "
          f"(sparsity {1 - mask.kept_fraction():.4f})")
    print(f"wrote {path}")
    return path


def cmd_train(cfg: ExperimentConfig, out_dir: str, mask_path: str | None) -> dict:
    model = build_model(cfg)
    if mask_path:
        apply_mask(model, load_mask(mask_path))
    dataset = load_data(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as f:
        f.write(serialize_config(cfg))
    metrics = train(model, dataset, cfg.optimizer)
    save_checkpoint(model, os.path.join(out_dir, "checkpoint.sacp"))
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as f:
        f.write(metrics.to_csv())
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as f:
        f.write(metrics.summary_json())
    summary = metrics.summary()
    print(f"final eval accuracy: {summary['final_eval_accuracy']}")
    print(f"artifacts in {out_dir}")
    return summary


def cmd_eval(cfg: ExperimentConfig, checkpoint_path: str) -> tuple[float, float]:
    model = build_model(cfg)
    load_checkpoint(model, checkpoint_path)
    dataset = load_data(cfg)
    loss, acc = evaluate(model, dataset.eval.tokens, dataset.eval.labels,
                         cfg.optimizer.batch_size)
    print(f"eval loss {loss:.6f} accuracy {acc:.4f}")
    return loss, acc


def cmd_inspect_mask(path: str) -> None:
    mask = load_mask(path)
    print(f"method={mask.method} s={mask.s} seed={mask.seed} "
          f"groups={len(mask.masks)}")
    for name, kept, total in mask.group_stats():
        print(f"  {name}: {total} bits, kept {kept} "
              f"(sparsity {1 - kept / total:.4f})")
    total = mask.total()
    print(f"global sparsity {1 - mask.kept_fraction():.4f} over {total} bits")


# -- sweep ------------------------------------------------------------------

def _sweep_point(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """The checked config of one point of the sweep axis."""
    method, s, r = cfg.prune.method, cfg.prune.s, cfg.adapter.r
    if axis == "sparsity":
        s = float(value)
    elif axis == "method":
        method = value
    elif axis == "large-sparse":
        ls = LargeSparseConfig(r, int(value))
        s, r = ls.s, ls.r
    else:
        raise ValueError(f"unknown sweep axis '{axis}'")
    return parse_config(dataclasses.asdict(
        replace(cfg, adapter=replace(cfg.adapter, r=r),
                prune=replace(cfg.prune, method=method, s=s))))


def _run_sweep_job(job: tuple[ExperimentConfig, int]) -> tuple[float, float, int]:
    """One (point, seed) training run on the given count of CPUs; executed in
    a worker process. Returns the kept fraction, the final eval accuracy and
    the first step that reached 90% of it."""
    cfg, cpus = job
    model = build_model(cfg)
    dataset = load_data(cfg)
    apply_mask(model, make_mask(cfg, model, dataset))
    metrics = train(model, dataset, cfg.optimizer, cpus=cpus)
    final = metrics.final_eval_accuracy
    return metrics.kept_fraction, final, metrics.steps_to_accuracy(0.9 * final)


SWEEP_COLUMNS = ["method", "s", "r", "kept_fraction", "seeds",
                 "final_acc_mean", "final_acc_std",
                 "steps_to_threshold_mean", "steps_to_threshold_std"]


def _sweep_rows(points: list[ExperimentConfig], results: list[tuple],
                seeds: int) -> list[tuple]:
    """One row of SWEEP_COLUMNS per point whose runs all finished. `results`
    is in job order, which holds each point's `seeds` runs in a row."""
    ddof = 1 if seeds > 1 else 0
    rows = []
    for i, point in enumerate(points[:len(results) // seeds]):
        kept, accs, stss = zip(*results[i * seeds:(i + 1) * seeds])
        accs, stss = np.array(accs), np.array(stss, dtype=np.float64)
        rows.append((point.prune.method, point.prune.s, point.adapter.r, kept[0],
                     seeds, float(accs.mean()), float(accs.std(ddof=ddof)),
                     float(stss.mean()), float(stss.std(ddof=ddof))))
    return rows


def _write_sweep_csv(path: str, rows: list[tuple], aborted: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([SWEEP_COLUMNS, *rows])
        if aborted:
            f.write(f"# aborted: {aborted}\n")


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[str], out_dir: str,
              seeds: int = 3, workers: int = 1) -> str:
    if seeds < 1 or workers < 1:
        raise ValueError(f"--seeds and --workers must be >= 1, got {seeds} and {workers}")
    if cfg.optimizer.epochs < 1:    # no eval runs, so a row has no final accuracy
        raise ValueError(f"a sweep needs optimizer.epochs >= 1, got {cfg.optimizer.epochs}")
    points: list[ExperimentConfig] = []
    for v in values:                # all before any job runs
        try:
            point = _sweep_point(cfg, axis, v)
            if point in points:     # its runs would count as extra seeds of one point
                raise ValueError("repeats an earlier point")
        except ValueError as exc:
            raise ValueError(f"sweep value {v!r}: {exc}") from None
        points.append(point)
    # the k-th run of a point gets independent seeds
    jobs = [_map_seeds(point, lambda s: s + k * SEED_STRIDE)
            for point in points for k in range(seeds)]
    workers = min(workers, len(jobs))   # the pool forks all its workers at once
    cpus = available_cpus() // workers  # each job's share while the pool runs
    jobs = [(job, cpus) for job in jobs]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")

    results: list[tuple] = []
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for res in pool.map(_run_sweep_job, jobs):
                    results.append(res)
        else:
            for job in jobs:
                results.append(_run_sweep_job(job))
    except Exception as exc:
        _write_sweep_csv(csv_path, _sweep_rows(points, results, seeds),
                         aborted=f"{type(exc).__name__}: {exc}")
        raise
    _write_sweep_csv(csv_path, _sweep_rows(points, results, seeds))
    print(f"wrote {csv_path} ({len(points)} points x {seeds} seeds)")
    return csv_path


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to experiment JSON")
    p.add_argument("--out", default=None,
                   help=f"output directory (env {OUT_ENV_VAR} overrides)")
    p.add_argument("--seed", type=int, default=None,
                   help="override model/prune/shuffle seeds with one value")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparseadapter",
        description="Prune adapter modules at initialization and fine-tune the rest.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="score, threshold, and write a mask file")
    _add_common(p)

    p = sub.add_parser("train", help="fine-tune (optionally under a mask)")
    _add_common(p)
    p.add_argument("--mask", default=None, help="path to a mask file")

    p = sub.add_parser("sweep", help="grid of prune+train runs, aggregated CSV")
    _add_common(p)
    p.add_argument("--sweep-axis", required=True,
                   choices=["sparsity", "method", "large-sparse"])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--seeds", type=int, default=3, help="runs per point")
    p.add_argument("--workers", type=int, default=1, help="parallel jobs")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the eval split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("inspect-mask", help="report the contents of a mask file")
    p.add_argument("--mask", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "inspect-mask":
            cmd_inspect_mask(args.mask)
            return 0
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = _map_seeds(cfg, lambda _: args.seed)
        out_dir = resolve_out(args.out, cfg)
        if args.command == "prune":
            cmd_prune(cfg, out_dir)
        elif args.command == "train":
            cmd_train(cfg, out_dir, args.mask)
        elif args.command == "sweep":
            cmd_sweep(cfg, args.sweep_axis, args.values.split(","), out_dir,
                      seeds=args.seeds, workers=args.workers)
        elif args.command == "eval":
            cmd_eval(cfg, args.checkpoint)
        return 0
    except NumericError as exc:         # training.TrainingDiverged included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
