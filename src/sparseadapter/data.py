"""Synthetic classification tasks and the line-delimited dataset format.

Three task families stand in for real fine-tuning corpora:

  * token_majority - the label is the class whose marker tokens dominate the
    sequence (learnable from bag-of-tokens statistics)
  * keyed_lookup   - a key token at position 0 rotates the majority label,
    so the answer needs a key x content interaction
  * parity_window  - the label is the parity of the count of a marker token

Generators are deterministic in their seed and guarantee train/eval rows are
disjoint. Files use one JSON record per line: {"tokens": [...], "label": k}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import _write_file

TASKS = ("token_majority", "keyed_lookup", "parity_window")

MARKERS_PER_CLASS = 8
MARKER_RATE = 0.45   # chance a position carries a class marker
PARITY_RATE = 0.25
# Duplicate rows are redrawn; a spec with too few distinct rows fails after
# this many draws per requested row instead of looping forever.
MAX_DRAWS_PER_ROW = 100


@dataclass(frozen=True)
class SyntheticTaskSpec:
    task: str = "token_majority"
    vocab: int = 1000
    seq_len: int = 12
    n_classes: int = 4
    n_train: int = 512
    n_eval: int = 256
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task '{self.task}'")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.vocab < self.n_classes * MARKERS_PER_CLASS + self.n_classes + 2:
            raise ValueError("vocab too small for marker and key tokens")
        if self.seq_len < 2 or self.n_train < 1 or self.n_eval < 1:
            raise ValueError("seq_len must be >= 2 and split sizes >= 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must be in [0, 1]")


@dataclass
class Split:
    tokens: np.ndarray   # (n, seq_len) int64
    labels: np.ndarray   # (n,) int64


@dataclass
class TaskData:
    train: Split
    eval: Split


def _majority_class(row: np.ndarray, n_classes: int) -> int:
    counts = [int(np.sum((row >= c * MARKERS_PER_CLASS) &
                         (row < (c + 1) * MARKERS_PER_CLASS)))
              for c in range(n_classes)]
    return int(np.argmax(counts))


def _sample_row(spec: SyntheticTaskSpec, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    bg_lo = spec.n_classes * MARKERS_PER_CLASS
    bg_hi = spec.vocab - spec.n_classes   # top tokens reserved as keys

    if spec.task == "parity_window":
        is_marker = rng.random(spec.seq_len) < PARITY_RATE
        row = rng.integers(1, bg_hi, spec.seq_len)
        row[is_marker] = 0
        return row, int(np.sum(is_marker)) % 2

    target = int(rng.integers(spec.n_classes))
    is_marker = rng.random(spec.seq_len) < MARKER_RATE
    row = rng.integers(bg_lo, bg_hi, spec.seq_len)
    row[is_marker] = rng.integers(target * MARKERS_PER_CLASS,
                                  (target + 1) * MARKERS_PER_CLASS,
                                  int(np.sum(is_marker)))

    if spec.task == "keyed_lookup":
        key = int(rng.integers(spec.n_classes))
        row[0] = spec.vocab - 1 - key
        # label stays a pure function of the final row
        return row, (_majority_class(row[1:], spec.n_classes) + key) % spec.n_classes
    return row, _majority_class(row, spec.n_classes)


def generate(spec: SyntheticTaskSpec) -> TaskData:
    """Generate disjoint train/eval splits, deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_eval
    rows = np.zeros((total, spec.seq_len), dtype=np.int64)
    labels = np.zeros(total, dtype=np.int64)
    seen: set[bytes] = set()
    i = 0
    for _ in range(MAX_DRAWS_PER_ROW * total):
        row, label = _sample_row(spec, rng)
        key = row.tobytes()
        if key in seen:
            continue
        seen.add(key)
        rows[i] = row
        labels[i] = label
        i += 1
        if i == total:
            break
    else:
        raise ValueError(f"{spec}: found {i} distinct rows in "
                         f"{MAX_DRAWS_PER_ROW * total} draws, needs n_train + n_eval "
                         f"= {total}; raise vocab or seq_len, or lower the split sizes")
    if spec.noise_rate > 0:
        flip = rng.random(total) < spec.noise_rate
        labels[flip] = rng.integers(spec.n_classes, size=int(np.sum(flip)))
    return TaskData(train=Split(rows[:spec.n_train], labels[:spec.n_train]),
                    eval=Split(rows[spec.n_train:], labels[spec.n_train:]))


def write_jsonl(split: Split, path: str) -> None:
    _write_file(path, "".join(json.dumps({"tokens": [int(t) for t in row],
                                          "label": int(label)}) + "\n"
                              for row, label in zip(split.tokens, split.labels)))


def read_jsonl(path: str) -> Split:
    tokens: list[list[int]] = []
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                # exact types as for config values (a bool is no int), and int64 range
                if type(rec["tokens"]) is not list or not rec["tokens"] or not all(
                        type(t) is int and abs(t) < 2**63 for t in rec["tokens"] + [rec["label"]]):
                    raise ValueError("tokens must be a non-empty list of ints and label an int")
                tokens.append(rec["tokens"])
                labels.append(rec["label"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad dataset record: {exc}") from exc
    if not tokens:
        raise ValueError(f"{path}: empty dataset")
    widths = {len(t) for t in tokens}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent sequence lengths {sorted(widths)}")
    return Split(np.asarray(tokens, dtype=np.int64), np.asarray(labels, dtype=np.int64))


def record_line(path: str, row: int) -> int:
    """The line number of record `row` (from 0) of a dataset file, whose
    blank lines read_jsonl skips."""
    with open(path, "r", encoding="utf-8") as f:
        return [n for n, line in enumerate(f, 1) if line.strip()][row]


def load_dir(path: str) -> TaskData:
    """Read a dataset directory holding train.jsonl and eval.jsonl."""
    import os
    return TaskData(train=read_jsonl(os.path.join(path, "train.jsonl")),
                    eval=read_jsonl(os.path.join(path, "eval.jsonl")))
