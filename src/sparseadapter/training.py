"""Masked fine-tuning loop: Adam with decoupled weight decay, linear warmup
then linear decay, frozen backbone, and mask-preserving updates.

After every optimizer step the weights AND both Adam moments are re-zeroed at
masked positions, so pruned slots can never leak back through momentum.

When a run has at least 2 CPUs to itself, each evaluation inside `train`
overlaps the training steps that follow it: a worker thread evaluates a
shadow of the model, which shares the frozen arrays and holds a copy of the
trainable groups as they were at the eval step. At most one evaluation is in
flight. The records, their order and every bit are those of an evaluation in
line, and each thread still runs single-threaded BLAS.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .adapters import kept_param_fraction
from .model import Model
from .pruning import PruneMask

ADAM_EPS = 1e-8


class TrainingDiverged(ad.NumericError):
    """A non-finite value at a training step. (step, cause) are the pickled
    arguments, so the error survives the trip back from a sweep worker."""

    def __init__(self, step: int, cause: Exception):
        super().__init__(step, cause)
        self.step = step

    def __str__(self) -> str:
        return f"training diverged at step {self.step}: {self.args[1]}"


@dataclass
class OptimizerConfig:
    beta1: float = 0.9
    beta2: float = 0.98
    weight_decay: float = 0.1
    peak_lr: float = 1e-3
    warmup_fraction: float = 0.10
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be > 0")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        for name in ("beta1", "beta2"):     # 1 - beta**t is 0 at beta = 1
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def lr_at(step: int, total_steps: int, cfg: OptimizerConfig) -> float:
    """Linear 0 -> peak over the first ceil(warmup_fraction * total) steps,
    then linear decay to 0 at total_steps."""
    if step > total_steps:
        raise ValueError(f"step {step} > total_steps {total_steps}")
    warmup = math.ceil(cfg.warmup_fraction * total_steps)
    if warmup > 0 and step < warmup:
        return cfg.peak_lr * step / warmup
    if total_steps == warmup:
        return cfg.peak_lr if step == warmup else 0.0
    return cfg.peak_lr * (total_steps - step) / (total_steps - warmup)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m={n: np.zeros(p.tensor.shape) for n, p in params.items()},
                   v={n: np.zeros(p.tensor.shape) for n, p in params.items()})


def masked_adam_step(params, grads: dict[str, np.ndarray],
                     mask: PruneMask | None, state: AdamState,
                     cfg: OptimizerConfig, lr: float) -> None:
    """One AdamW step over the trainable groups; masked slots stay exactly zero.

    `params` is a mapping name -> ParamGroup (trainable only); `grads` holds
    plain arrays of matching shapes.
    """
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, pg in params.items():
        g = grads[name]
        w = pg.tensor.data
        if g.shape != w.shape:
            raise ValueError(f"group '{name}': grad shape {g.shape} != {w.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS) + cfg.weight_decay * w
        w -= lr * update
        if mask is not None and name in mask.masks:
            dead = ~mask.masks[name]
            w[dead] = 0.0
            m[dead] = 0.0
            v[dead] = 0.0
        if not np.all(np.isfinite(w)):
            raise ad.NumericError(f"non-finite update for group '{name}'")


@dataclass
class StepRecord:
    step: int
    split: str
    loss: float
    accuracy: float
    lr: float


@dataclass
class RunMetrics:
    records: list[StepRecord] = field(default_factory=list)
    kept_fraction: float = 1.0
    total_steps: int = 0

    def eval_history(self) -> list[tuple[int, float]]:
        return [(r.step, r.accuracy) for r in self.records if r.split == "eval"]

    @property
    def final_eval_accuracy(self) -> float | None:
        hist = self.eval_history()
        return hist[-1][1] if hist else None

    @property
    def best_eval_accuracy(self) -> float | None:
        hist = self.eval_history()
        return max(a for _, a in hist) if hist else None

    @property
    def final_eval_loss(self) -> float | None:
        losses = [r.loss for r in self.records if r.split == "eval"]
        return losses[-1] if losses else None

    def steps_to_accuracy(self, threshold: float) -> int | None:
        """First step whose eval accuracy reaches `threshold`, else None."""
        for step, acc in self.eval_history():
            if acc >= threshold:
                return step
        return None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "split", "loss", "accuracy", "lr", "kept_fraction"])
        writer.writerows([r.step, r.split, r.loss, r.accuracy, r.lr, self.kept_fraction]
                         for r in self.records)
        return buf.getvalue()

    def summary(self) -> dict:
        thresholds = {f"{t:.1f}": self.steps_to_accuracy(t)
                      for t in (0.5, 0.6, 0.7, 0.8, 0.9)}
        return {
            "final_eval_accuracy": self.final_eval_accuracy,
            "best_eval_accuracy": self.best_eval_accuracy,
            "final_eval_loss": self.final_eval_loss,
            "total_steps": self.total_steps,
            "kept_fraction": self.kept_fraction,
            "steps_to_threshold": thresholds,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"


def evaluate(model: Model, tokens: np.ndarray, labels: np.ndarray,
             batch_size: int) -> tuple[float, float]:
    """Mean loss and accuracy over a split; never mutates the model. The
    loss's last bits depend on how `batch_size` splits the rows."""
    n = len(labels)
    if n == 0:
        raise ValueError("evaluate: empty dataset")
    loss_sum = 0.0
    correct = 0
    # overflow warnings are redundant here: any non-finite value raises NumericError
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, batch_size):
            tb = tokens[start:start + batch_size]
            lb = labels[start:start + batch_size]
            logits = model.forward(tb)
            loss_sum += ad.cross_entropy_logits(logits, lb).item() * len(lb)
            correct += int(np.sum(np.argmax(logits.data, axis=1) == lb))
    return loss_sum / n, correct / n


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


class _Evals:
    """The evaluations of one `train` call. With a `pool`, each runs there on
    a shadow of the model while training goes on; without one, in line."""

    def __init__(self, model: Model, split, batch_size: int,
                 pool: ThreadPoolExecutor | None):
        self.split, self.batch_size, self.pool = split, batch_size, pool
        self.model = model
        self.pending: tuple[StepRecord, Future] | None = None
        if pool is not None:
            frozen = {id(pg.tensor): pg.tensor for pg in model.groups.values()
                      if not pg.trainable}
            self.model = copy.deepcopy(model, frozen)
            self.copies = [(self.model.groups[n].tensor.data, pg.tensor.data)
                           for n, pg in model.trainable_groups().items()]

    def _evaluate(self) -> tuple[float, float]:
        return evaluate(self.model, self.split.tokens, self.split.labels,
                        self.batch_size)

    @staticmethod
    def _fill(record: StepRecord, result) -> None:
        try:
            record.loss, record.accuracy = result()
        except ad.NumericError as exc:
            raise TrainingDiverged(record.step, exc) from exc

    def submit(self, record: StepRecord) -> None:
        """Fill `record` with the loss and accuracy of the model as it is now."""
        if self.pool is None:
            self._fill(record, self._evaluate)
            return
        self.drain()
        for shadow, live in self.copies:
            np.copyto(shadow, live)
        self.pending = record, self.pool.submit(self._evaluate)

    def drain(self) -> None:
        """Wait for the evaluation in flight, if any, and fill its record."""
        if self.pending is not None:
            record, future = self.pending
            self.pending = None
            self._fill(record, future.result)


def train(model: Model, dataset, cfg: OptimizerConfig, *, evals_per_epoch: int = 2,
          cpus: int | None = None) -> RunMetrics:
    """Fine-tune the trainable groups; deterministic in cfg.seed.

    The model is expected to be frozen via freeze_backbone (adapters + head
    trainable). `dataset` carries .train and .eval splits (see
    sparseadapter.data). The mask, if any, is the one `apply_mask` registered
    on the model; every step re-enforces it. `cpus` is the number of CPUs the
    run has to itself (default: every CPU this process may use); with 2 or
    more, each evaluation overlaps the following training steps.
    """
    cfg.validate()
    if len(dataset.train.labels) == 0:
        raise ValueError("train: empty training split")
    active_mask = model.mask

    params = model.trainable_groups()
    state = AdamState.for_params(params)

    n = len(dataset.train.labels)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    metrics = RunMetrics(kept_fraction=kept_param_fraction(model, active_mask),
                         total_steps=total_steps)
    if cfg.epochs == 0:
        return metrics

    eval_every = max(1, steps_per_epoch // max(1, evals_per_epoch))
    overlap = (available_cpus() if cpus is None else cpus) >= 2
    rng = np.random.default_rng(cfg.seed)
    step = 0
    with ThreadPoolExecutor(max_workers=1) as pool:    # joined on every exit
        evals = _Evals(model, dataset.eval, cfg.batch_size, pool if overlap else None)
        for _ in range(cfg.epochs):
            perm = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                tokens = dataset.train.tokens[idx]
                labels = dataset.train.labels[idx]
                step += 1
                try:
                    # overflow warnings are redundant here: any non-finite value
                    # raises NumericError, reported below with the step number
                    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        logits = model.forward(tokens)
                        loss = ad.cross_entropy_logits(logits, labels)
                        grads = ad.backward(loss,
                                            {n_: p.tensor for n_, p in params.items()})
                        lr = lr_at(step, total_steps, cfg)
                        masked_adam_step(params, {n_: g.data for n_, g in grads.items()},
                                         active_mask, state, cfg, lr)
                except ad.NumericError as exc:
                    evals.drain()       # an earlier eval's divergence comes first
                    raise TrainingDiverged(step, exc) from exc
                acc = float(np.mean(np.argmax(logits.data, axis=1) == labels))
                metrics.records.append(StepRecord(step, "train", loss.item(), acc, lr))
                if step % eval_every == 0 or step == total_steps:
                    record = StepRecord(step, "eval", math.nan, math.nan, lr)
                    metrics.records.append(record)     # its slot, filled by evals
                    evals.submit(record)
        evals.drain()
    return metrics
