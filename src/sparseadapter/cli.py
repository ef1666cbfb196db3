"""Experiment front door: declarative JSON configs and the prune / train /
sweep / eval / inspect-mask subcommands.

Every successful run leaves a re-runnable set of artifacts in the output
directory: the exact config, the step metrics CSV, a summary JSON, and the
final checkpoint. Sweep jobs run in worker processes, at most --workers and
at most one per job, and the coordinator aggregates them into one CSV. Each
job gets an equal share of the CPUs, which decides whether its evaluations
overlap its training (see sparseadapter.training).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import typing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .adapters import AdapterSpec, LargeSparseConfig, insert_adapters
from .autodiff import NumericError
from .data import Split, SyntheticTaskSpec, TaskData, generate, load_dir, \
    record_line
from .model import EncoderConfig, Model, _write_file, build_encoder, freeze_backbone, \
    load_checkpoint, save_checkpoint
from .parallel import available_cpus
from .pruning import PruneConfig, apply_mask, compute_mask, load_mask, save_mask
from .training import OptimizerConfig, TrainingDiverged, evaluate, train

SEED_STRIDE = 10007  # run-index offset applied to every seed in a sweep


@dataclass(frozen=True)
class DataConfig:
    path: str | None = None
    task: SyntheticTaskSpec | None = None

    def __post_init__(self):
        if (self.path is None) == (self.task is None):
            raise ValueError("data must set exactly one of 'path' or 'task'")


@dataclass(frozen=True)
class ExperimentConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    adapter: AdapterSpec = field(default_factory=AdapterSpec)
    prune: PruneConfig = field(default_factory=PruneConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    data: DataConfig = field(default_factory=DataConfig)
    output_dir: str = "runs"
    seed: int = 0

    def __post_init__(self):
        self.adapter.check_width(self.encoder.d_model)
        task = self.data.task
        for need, cap in (("vocab", "vocab_size"), ("seq_len", "max_seq_len"),
                          ("n_classes", "n_classes")):
            if task is not None and getattr(task, need) > getattr(self.encoder, cap):
                raise ValueError(f"data.task.{need}={getattr(task, need)} exceeds "
                                 f"encoder.{cap}={getattr(self.encoder, cap)}")
        seeds = {"seed": self.seed, "prune.seed": self.prune.seed,
                 "optimizer.seed": self.optimizer.seed}
        if task is not None:
            seeds["data.task.seed"] = task.seed
        for name, seed in seeds.items():    # numpy refuses < 0; SADM stores an int64
            if not 0 <= seed < 2**63:
                raise ValueError(f"{name} must be in [0, 2**63), got {seed}")


def _from_dict(cls, payload, where: str):
    """Build dataclass `cls` from a JSON object, checking each value against
    its field's annotation; `cls` itself checks what the values mean."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where}: expected an object, got {type(payload).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _from_json(hints[key], value, f"{where}.{key}")
                  for key, value in payload.items()})


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
    """Build an ExperimentConfig from a parsed JSON object."""
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
    """`cfg` with `fn` applied to the model init, prune, and shuffle seeds."""
    return replace(cfg, seed=fn(cfg.seed),
                   prune=replace(cfg.prune, seed=fn(cfg.prune.seed)),
                   optimizer=replace(cfg.optimizer, seed=fn(cfg.optimizer.seed)))


# ---------------------------------------------------------------------------
# Pipeline pieces shared by the subcommands
# ---------------------------------------------------------------------------

def _refuse_past_memory(what: str, need: int) -> None:
    """Refuse the `need` bytes that `what` asks for when they exceed physical
    memory; each caller asks before it allocates any of them."""
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ValueError(f"{what} asks for {need} bytes, more than physical memory")


def _param_count(cfg: ExperimentConfig) -> int:
    """The float64 elements of `build_model(cfg)`'s groups, from the config
    alone: the encoder's (see `build_encoder`) and the variant's adapters'."""
    enc, spec = cfg.encoder, cfg.adapter
    d, ff, r = enc.d_model, enc.d_ff, spec.r
    layer = 4 * d * d + 2 * d * ff + 9 * d + ff      # norms, q/k/v/o, fc1, fc2
    bottleneck = 2 * d * r + r + d
    adapters = {"houlsby": 2 * bottleneck, "pfeiffer": bottleneck, "lora": 4 * d * r,
                "mam": bottleneck + 2 * spec.prefix_len * d}[spec.variant]
    return ((enc.vocab_size + enc.max_seq_len + 2) * d + (d + 1) * enc.n_classes
            + enc.n_layers * (layer + adapters))


def build_model(cfg: ExperimentConfig) -> Model:
    n = _param_count(cfg)
    _refuse_past_memory(f"config.encoder with config.adapter ({n} parameters)", 8 * n)
    model = build_encoder(cfg.encoder, cfg.seed)
    insert_adapters(model, cfg.adapter, cfg.seed + 1)
    freeze_backbone(model)
    return model


def _check_fits(split: Split, path: str, enc: EncoderConfig) -> None:
    """Refuse a file split that holds a row the encoder cannot take, naming
    the row's line and the config field it breaks."""
    tokens, labels = split.tokens, split.labels
    bad_tokens = (tokens < 0) | (tokens >= enc.vocab_size)
    bad_labels = (labels < 0) | (labels >= enc.n_classes)
    if tokens.shape[1] > enc.max_seq_len:     # every row has the same length
        row, what = 0, (f"sequence length {tokens.shape[1]} exceeds "
                        f"encoder.max_seq_len={enc.max_seq_len}")
    elif bad_tokens.any():
        row = int(np.argmax(bad_tokens.any(axis=1)))
        what = (f"token {tokens[row][bad_tokens[row]][0]} outside "
                f"[0, encoder.vocab_size={enc.vocab_size})")
    elif bad_labels.any():
        row = int(np.argmax(bad_labels))
        what = f"label {labels[row]} outside [0, encoder.n_classes={enc.n_classes})"
    else:
        return
    raise ValueError(f"{path}:{record_line(path, row)}: {what}")


def load_data(cfg: ExperimentConfig) -> TaskData:
    """The config's dataset; a synthetic task fits the encoder by the config's
    own check and is refused here if its rows exceed physical memory, and a
    file dataset is checked here, before any file is written."""
    task = cfg.data.task
    if task is not None:
        _refuse_past_memory(f"data.task.n_train+n_eval={task.n_train + task.n_eval}",
                            (task.n_train + task.n_eval) * (task.seq_len + 1) * 8)
        return generate(task)
    data = load_dir(cfg.data.path)
    for name, split in (("train", data.train), ("eval", data.eval)):
        _check_fits(split, os.path.join(cfg.data.path, f"{name}.jsonl"), cfg.encoder)
    return data


def scoring_batches(cfg: ExperimentConfig, dataset: TaskData) -> list[tuple]:
    """Deterministic mini-batches of training data for snip/grasp scoring;
    a count whose int64 tokens and labels exceed physical memory is refused."""
    rng = np.random.default_rng(cfg.prune.seed)
    n = len(dataset.train.labels)
    rows = min(cfg.optimizer.batch_size, n)
    _refuse_past_memory(f"prune.score_batches={cfg.prune.score_batches}",
                        cfg.prune.score_batches * rows * (dataset.train.tokens.shape[1] + 1) * 8)
    batches = []
    for _ in range(cfg.prune.score_batches):
        idx = rng.choice(n, size=rows, replace=False)
        batches.append((dataset.train.tokens[idx], dataset.train.labels[idx]))
    return batches


def make_mask(cfg: ExperimentConfig, model: Model, dataset: TaskData, cpus: int):
    """The mask of `cfg.prune`, scored on `cpus` CPUs; only snip and grasp
    read scoring batches, so only they get them built."""
    batches = scoring_batches(cfg, dataset) if cfg.prune.method in ("snip", "grasp") else ()
    return compute_mask(model, cfg.prune.method, cfg.prune.s, cfg.prune.seed,
                        batches=batches, snip_abs=cfg.prune.snip_abs, cpus=cpus)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_prune(cfg: ExperimentConfig, out_dir: str) -> None:
    mask = make_mask(cfg, build_model(cfg), load_data(cfg), available_cpus())
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "mask.sadm")
    save_mask(mask, path)
    cmd_inspect_mask(path)      # the report of the file as written
    print(f"wrote {path}")


def cmd_train(cfg: ExperimentConfig, out_dir: str, mask_path: str | None) -> None:
    model = build_model(cfg)
    if mask_path:
        apply_mask(model, load_mask(mask_path))
    dataset = load_data(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _write_file(os.path.join(out_dir, "config.json"), serialize_config(cfg))
    try:
        metrics = train(model, dataset, cfg.optimizer)
    except TrainingDiverged as exc:     # the records before it, and no checkpoint
        _write_file(os.path.join(out_dir, "metrics.csv"), exc.metrics.to_csv())
        raise
    save_checkpoint(model, os.path.join(out_dir, "checkpoint.sacp"))
    _write_file(os.path.join(out_dir, "metrics.csv"), metrics.to_csv())
    _write_file(os.path.join(out_dir, "summary.json"), metrics.summary_json())
    print(f"final eval accuracy: {metrics.final_eval_accuracy}")
    print(f"artifacts in {out_dir}")


def cmd_eval(cfg: ExperimentConfig, checkpoint_path: str) -> None:
    model = build_model(cfg)
    load_checkpoint(model, checkpoint_path)
    dataset = load_data(cfg)
    loss, acc = evaluate(model, dataset.eval.tokens, dataset.eval.labels,
                         cfg.optimizer.batch_size)
    print(f"eval loss {loss:.6f} accuracy {acc:.4f}")


def cmd_inspect_mask(path: str) -> None:
    mask = load_mask(path)
    print(f"method={mask.method} s={mask.s} seed={mask.seed} groups={len(mask.masks)}")
    for name, kept, total in mask.group_stats():
        print(f"  {name}: kept {kept}/{total} (sparsity {1 - kept / total:.4f})")
    print(f"global: kept {mask.kept()}/{mask.total()} "
          f"(sparsity {1 - mask.kept_fraction():.4f})")


# -- sweep ------------------------------------------------------------------

def _sweep_point(cfg: ExperimentConfig, axis: str, value: str) -> ExperimentConfig:
    """The config of one point of the sweep axis."""
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
    return replace(cfg, adapter=replace(cfg.adapter, r=r),
                   prune=replace(cfg.prune, method=method, s=s))


def _run_sweep_job(job: tuple[ExperimentConfig, int]) -> tuple[float, float, int]:
    """One (point, seed) training run on the given count of CPUs; executed in
    a worker process. Returns the kept fraction, the final eval accuracy and
    the first step that reached 90% of it."""
    cfg, cpus = job
    model = build_model(cfg)
    dataset = load_data(cfg)
    apply_mask(model, make_mask(cfg, model, dataset, cpus))
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
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([SWEEP_COLUMNS, *rows])
    _write_file(path, text.getvalue() + (f"# aborted: {aborted}\n" if aborted else ""))


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list[str], out_dir: str,
              seeds: int, workers: int) -> str:
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
    if cfg.data.path is not None:   # no sweep axis changes the encoder or the data
        load_data(cfg)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")

    results: list[tuple] = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(_run_sweep_job, jobs):
                results.append(res)
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

# each character that str.splitlines breaks at, as its escape sequence
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparseadapter",
        description="Prune adapter modules at initialization and fine-tune the rest.")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to experiment JSON")
    run = argparse.ArgumentParser(add_help=False, parents=[config])
    run.add_argument("--out", default=None,
                     help="output directory (default: the config's output_dir)")
    run.add_argument("--seed", type=int, default=None,
                     help="override model/prune/shuffle seeds with one value")

    sub.add_parser("prune", parents=[run], help="score, threshold, and write a mask file")

    p = sub.add_parser("train", parents=[run], help="fine-tune (optionally under a mask)")
    p.add_argument("--mask", default=None, help="path to a mask file")

    p = sub.add_parser("sweep", parents=[run], help="grid of prune+train runs, aggregated CSV")
    p.add_argument("--sweep-axis", required=True,
                   choices=["sparsity", "method", "large-sparse"])
    p.add_argument("--values", required=True,
                   help="comma-separated axis values")
    p.add_argument("--seeds", type=int, default=3, help="runs per point")
    p.add_argument("--workers", type=int, default=1, help="parallel jobs")

    p = sub.add_parser("eval", parents=[config],
                       help="evaluate a checkpoint on the eval split")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("inspect-mask", help="report the contents of a mask file")
    p.add_argument("--mask", required=True)

    args, rest = parser.parse_known_args(argv)
    if rest:    # reported with the usage of the subcommand they were given to
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        if args.command == "inspect-mask":
            cmd_inspect_mask(args.mask)
            return 0
        cfg = load_config(args.config)
        if args.command == "eval":
            cmd_eval(cfg, args.checkpoint)
            return 0
        if args.seed is not None:
            cfg = _map_seeds(cfg, lambda _: args.seed)
        out_dir = args.out or cfg.output_dir
        if args.command == "prune":
            cmd_prune(cfg, out_dir)
        elif args.command == "train":
            cmd_train(cfg, out_dir, args.mask)
        else:
            cmd_sweep(cfg, args.sweep_axis, args.values.split(","), out_dir,
                      seeds=args.seeds, workers=args.workers)
        return 0
    except (NumericError, ValueError, OSError, MemoryError, BrokenExecutor) as exc:
        # one line, even where the message quotes a name with a line break in it
        print(f"error: {str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 1   # TrainingDiverged included


if __name__ == "__main__":
    sys.exit(main())
