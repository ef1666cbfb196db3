"""Score prunable weights at initialization, threshold at the target sparsity,
and emit an immutable binary mask.

All score maps are canonicalized to "higher = more important" before the
percentile cut, so a single keep-the-top rule serves every method:

  * random     - iid Uniform(0,1)
  * magnitude  - |w|
  * snip       - w * g   (g: loss gradient on scoring batches; the raw
                 sensitivity -w*g is negated so low loss-effect is dropped);
                 ``snip_abs`` switches to |w * g|
  * grasp      - w * h   (h = H g = sum_b H_b g; each H_b g is the row-weighted
                 sum of the hvps of the batch's two fixed halves, rows
                 [0, ceil(b/2)) and the rest, whatever the CPU count)
  * er         - no elementwise score; per-layer random topology with
                 size-dependent sparsity allocation

Ties at the threshold break by ascending (group name, element index) so every
mask is deterministic and hits its kept count exactly.

snip and grasp take the CPU count of their job: with 2 or more and at least 2
pieces of work, the per-batch gradients and the per-half hvps run on two
threads (`sparseadapter.parallel`), and the results are summed in (batch,
half) order, so the bits are those of a run on one CPU.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import Model, _Reader, _write_file
from .parallel import map_in_order

MASK_MAGIC = b"SADM"
MASK_VERSION = 1


def round_half_up(x: float) -> int:
    """Kept-count rounding, pinned so exact-sparsity checks are well defined."""
    return int(math.floor(x + 0.5))


@dataclass
class ScoreMap:
    """Per-element importance scores for every prunable group (higher = kept)."""

    method: str
    scores: dict[str, np.ndarray]

    def __post_init__(self):
        for name, arr in self.scores.items():
            if not np.all(np.isfinite(arr)):
                raise ad.NumericError(f"non-finite scores for group '{name}'")


@dataclass(frozen=True)
class PruneMask:
    """Immutable binary keep-mask per prunable group."""

    method: str
    s: float
    seed: int | None
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name, arr in self.masks.items():
            if arr.size == 0:       # every prunable weight has an element
                raise ValueError(f"mask group '{name}' has no elements")
            arr.setflags(write=False)

    @cached_property
    def keep(self) -> dict[str, np.ndarray]:
        """Each group's mask as read-only float64 1.0 (kept) and 0.0, made
        once; the optimizer multiplies the group's gradient by it."""
        keep = {name: arr.astype(np.float64) for name, arr in self.masks.items()}
        for arr in keep.values():
            arr.setflags(write=False)
        return keep

    def total(self) -> int:
        return sum(a.size for a in self.masks.values())

    def kept(self) -> int:
        return sum(int(np.count_nonzero(a)) for a in self.masks.values())

    def kept_fraction(self) -> float:
        n = self.total()
        return self.kept() / n if n else 0.0

    def group_stats(self) -> list[tuple[str, int, int]]:
        """(name, kept, total) per group, name-sorted."""
        return [(n, int(np.count_nonzero(self.masks[n])), self.masks[n].size)
                for n in sorted(self.masks)]


def _prunable(model: Model) -> dict[str, np.ndarray]:
    groups = {n: g.tensor.data for n, g in model.prunable_groups().items()}
    if not groups:
        raise ValueError("model has no prunable parameter groups")
    return groups


# ---------------------------------------------------------------------------
# Score functions
# ---------------------------------------------------------------------------

def score_random(model: Model, seed: int) -> ScoreMap:
    rng = np.random.default_rng(seed)
    scores = {n: rng.uniform(0.0, 1.0, w.shape)
              for n, w in sorted(_prunable(model).items())}
    return ScoreMap("random", scores)


def score_magnitude(model: Model) -> ScoreMap:
    return ScoreMap("magnitude", {n: np.abs(w) for n, w in _prunable(model).items()})


def _sum_grads(model: Model, batches, cpus: int = 1) -> dict[str, np.ndarray]:
    params = {n: g.tensor for n, g in model.prunable_groups().items()}
    total: dict[str, np.ndarray] = {n: np.zeros(t.shape) for n, t in params.items()}
    grads_of = lambda batch: ad.backward(model.loss(*batch), params)
    for grads in map_in_order(grads_of, batches, cpus):
        for n in total:
            total[n] += grads[n].data
    return total


def score_snip(model: Model, batches: Sequence, snip_abs: bool = False,
               cpus: int = 1) -> ScoreMap:
    """Loss-sensitivity scores from gradients summed over the scoring batches."""
    if not batches:
        raise ValueError("snip scoring needs at least one batch")
    grads = _sum_grads(model, batches, cpus)
    weights = _prunable(model)
    if snip_abs:
        scores = {n: np.abs(weights[n] * grads[n]) for n in weights}
    else:
        scores = {n: weights[n] * grads[n] for n in weights}
    return ScoreMap("snip", scores)


def _halves(batches: Sequence) -> list[tuple]:
    """(tokens, labels, weight) of rows [0, ceil(b/2)) and the rest of each
    batch in order, weighted by their share of its b rows, so the weighted
    sum of the halves' mean losses is the batch's; a batch under 2 rows
    stays whole."""
    pieces = []
    for tokens, labels in batches:
        b = len(labels)
        if b < 2:
            pieces.append((tokens, labels, 1.0))
            continue
        cut = -(-b // 2)
        pieces += [(tokens[:cut], labels[:cut], cut / b),
                   (tokens[cut:], labels[cut:], (b - cut) / b)]
    return pieces


def score_grasp(model: Model, batches: Sequence, cpus: int = 1) -> ScoreMap:
    """Gradient-flow scores from h = H g = sum_b H_b g, one forward and one
    backward per half-batch hvp; g, the summed gradient, must be complete
    before the first hvp."""
    if not batches:
        raise ValueError("grasp scoring needs at least one batch")
    params = {n: g.tensor for n, g in model.prunable_groups().items()}
    direction = {n: Tensor(g) for n, g in _sum_grads(model, batches, cpus).items()}

    def weighted_hvp(piece):
        tokens, labels, weight = piece
        hv = ad.hvp(lambda p: model.loss(tokens, labels), params, direction)
        return {n: weight * t.data for n, t in hv.items()}

    h = {n: np.zeros(t.shape) for n, t in params.items()}
    for hv in map_in_order(weighted_hvp, _halves(batches), cpus):
        for n in h:
            h[n] += hv[n]
    return ScoreMap("grasp", {n: params[n].data * h[n] for n in params})


# ---------------------------------------------------------------------------
# Erdos-Renyi allocation: larger layers get higher sparsity
# ---------------------------------------------------------------------------

def er_sparsities(groups: Sequence[tuple[int, int]], s_global: float) -> list[float]:
    """Per-group sparsities s_g = eps * (1 - (n_in+n_out)/(n_in*n_out)).

    eps is solved so the expected kept total matches (1 - s_global) * N. A
    group whose demanded sparsity exceeds the feasible bound is pinned to keep
    a single element and eps is re-solved over the rest until fixpoint.
    """
    if not 0.0 <= s_global < 1.0:
        raise ValueError(f"s_global must be in [0, 1), got {s_global}")
    for n_in, n_out in groups:
        if n_in < 1 or n_out < 1:
            raise ValueError("n_in and n_out must be >= 1")

    sizes = np.array([n_in * n_out for n_in, n_out in groups], dtype=np.float64)
    factors = np.array([1.0 - (n_in + n_out) / (n_in * n_out)
                        for n_in, n_out in groups])
    n_total = float(sizes.sum())
    target_kept = (1.0 - s_global) * n_total

    # cap: keep at least one element per group, so s_g < 1 strictly
    caps = 1.0 - 1.0 / sizes
    pinned = np.zeros(len(groups), dtype=bool)
    spars = np.zeros(len(groups))
    for _ in range(len(groups) + 1):
        free = ~pinned & (factors > 0)
        denom = float((factors[free] * sizes[free]).sum())
        removable = n_total - target_kept - float((spars[pinned] * sizes[pinned]).sum())
        if denom <= 0.0:
            if removable > 1e-9:
                raise ValueError(
                    f"s_global={s_global} infeasible under per-group clamping")
            break
        eps = removable / denom
        if eps < 0.0:
            eps = 0.0
        spars[free] = eps * factors[free]
        overflow = free & (spars > caps)
        if not overflow.any():
            break
        spars[overflow] = caps[overflow]
        pinned |= overflow
    else:
        raise RuntimeError("er_sparsities failed to reach a fixpoint")

    if np.any(spars > caps + 1e-12):
        raise ValueError(f"s_global={s_global} infeasible under per-group clamping")
    return [float(s) for s in spars]


def score_er(model: Model, s_global: float, seed: int) -> PruneMask:
    """Random per-layer topology at the ER sparsity allocation."""
    weights = _prunable(model)
    names = sorted(weights)
    spars = er_sparsities([weights[n].shape for n in names], s_global)

    rng = np.random.default_rng(seed)
    masks: dict[str, np.ndarray] = {}
    for name, s_g in zip(names, spars):
        size = weights[name].size
        kept = round_half_up((1.0 - s_g) * size)
        flat = np.zeros(size, dtype=bool)
        flat[rng.permutation(size)[:kept]] = True
        masks[name] = flat.reshape(weights[name].shape)
    return PruneMask("er", float(s_global), seed, masks)


# ---------------------------------------------------------------------------
# Percentile masking and application
# ---------------------------------------------------------------------------

def prune_by_percentile(scores: ScoreMap, s: float, seed: int | None = None) -> PruneMask:
    """Keep the globally top-scoring round((1-s)*N) elements across all groups."""
    if not 0.0 <= s < 1.0:
        raise ValueError(f"sparsity s must be in [0, 1), got {s}")
    names = sorted(scores.scores)
    flat = np.concatenate([scores.scores[n].reshape(-1) for n in names])
    kept = round_half_up((1.0 - s) * flat.size)

    # stable sort on descending score = ties resolved by ascending flat position,
    # i.e. ascending (group name, element index)
    order = np.argsort(-flat, kind="stable")
    keep_idx = order[:kept]
    keep = np.zeros(flat.size, dtype=bool)
    keep[keep_idx] = True

    masks: dict[str, np.ndarray] = {}
    off = 0
    for n in names:
        size = scores.scores[n].size
        masks[n] = keep[off:off + size].reshape(scores.scores[n].shape)
        off += size
    return PruneMask(scores.method, float(s), seed, masks)


def apply_mask(model: Model, mask: PruneMask) -> None:
    """Check a mask against the prunable groups, shape flat group arrays (as
    `load_mask` returns them) to their weights, zero the masked weights and
    register the mask so training keeps them zero."""
    prunable = model.prunable_groups()
    odd = sorted(set(prunable) ^ set(mask.masks))
    if odd:
        side = "missing from the mask" if odd[0] in prunable else "unknown to the model"
        raise ValueError(f"mask/model mismatch at group '{odd[0]}': {side}")
    shapes = {n: g.tensor.shape for n, g in prunable.items()}
    for name, m in mask.masks.items():
        if m.shape not in (shapes[name], (math.prod(shapes[name]),)):
            raise ValueError(f"mask/model mismatch at group '{name}': mask shape "
                             f"{m.shape}, weight shape {shapes[name]}")
    if any(m.shape != shapes[n] for n, m in mask.masks.items()):
        mask = replace(mask, masks={n: m.reshape(shapes[n])
                                    for n, m in mask.masks.items()})
    for name, m in mask.masks.items():
        prunable[name].tensor.data[~m] = 0.0
    model.mask = mask


PRUNE_METHODS = ("random", "magnitude", "er", "snip", "grasp")


@dataclass(frozen=True)
class PruneConfig:
    """The `compute_mask` arguments of a run, plus how many training batches
    snip and grasp score on."""

    method: str = "snip"
    s: float = 0.4
    seed: int = 0
    snip_abs: bool = False
    score_batches: int = 1

    def __post_init__(self):
        if self.method not in PRUNE_METHODS:
            raise ValueError(f"unknown prune method '{self.method}'")
        if not 0.0 <= self.s < 1.0:
            raise ValueError("prune.s must be in [0, 1)")
        if self.score_batches < 1:
            raise ValueError("prune.score_batches must be >= 1")


def compute_mask(model: Model, method: str, s: float, seed: int,
                 batches: Sequence = (), snip_abs: bool = False,
                 cpus: int = 1) -> PruneMask:
    """Method dispatch used by the CLI and sweeps; snip and grasp score on
    `cpus` CPUs, the number the job has to itself."""
    # overflow warnings are redundant here: ScoreMap rejects non-finite scores
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method == "random":
            return prune_by_percentile(score_random(model, seed), s, seed)
        if method == "magnitude":
            return prune_by_percentile(score_magnitude(model), s, seed)
        if method == "snip":
            return prune_by_percentile(
                score_snip(model, batches, snip_abs=snip_abs, cpus=cpus), s, seed)
        if method == "grasp":
            return prune_by_percentile(score_grasp(model, batches, cpus=cpus), s, seed)
        if method == "er":
            return score_er(model, s, seed)
    raise ValueError(f"unknown pruning method '{method}'")


# ---------------------------------------------------------------------------
# Mask file: "SADM" magic, version, method tag, s, seed, then per group the
# name, element count, and the little-endian bit-packed mask, whose padding
# bits are zero so that a load and a save give back the same bytes.
# ---------------------------------------------------------------------------

def save_mask(mask: PruneMask, path: str) -> None:
    tag = mask.method.encode("utf-8")
    parts = [MASK_MAGIC, struct.pack("<BB", MASK_VERSION, len(tag)), tag,
             struct.pack("<dqI", mask.s, -1 if mask.seed is None else mask.seed,
                         len(mask.masks))]
    for name in sorted(mask.masks):
        raw = name.encode("utf-8")
        m = mask.masks[name]
        parts += [struct.pack("<H", len(raw)), raw, struct.pack("<Q", m.size),
                  np.packbits(m.reshape(-1), bitorder="little").tobytes()]
    _write_file(path, b"".join(parts))


def load_mask(path: str) -> PruneMask:
    """Read a mask file; group arrays come back flat (`apply_mask` shapes them)."""
    r = _Reader(path, "mask")
    r.header(MASK_MAGIC, MASK_VERSION)
    method = r.text("B", "method tag")
    s, seed, count = r.fields("dqI", "mask header fields")
    masks: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.group_name()
        (size,) = r.fields("Q", f"element count of group '{name}'")
        packed = r.take((size + 7) // 8, f"bitmap of group '{name}'")
        if size % 8 and packed[-1] >> size % 8:
            raise ValueError(f"padding bits set in bitmap of group '{name}'")
        masks[name] = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=size,
                                    bitorder="little").astype(bool)
    r.done()
    return PruneMask(method, float(s), None if seed == -1 else int(seed), masks)
