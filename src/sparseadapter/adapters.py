"""Adapter variants plugged into the encoder, and their budget `kept_param_fraction`.

Every delta site is one call, ``site(base, x)`` = base + delta(x) (He et al.,
2022): the caller computes the backbone's own output `base`, and the variants
differ only in where it reads `x`.
  * houlsby  - serial bottleneck after attention and after FFN, every layer
               (x = base)
  * pfeiffer - serial bottleneck after FFN only (x = base)
  * lora     - rank decomposition beside the attention q/v projections
               (base = the projection, x = its input)
  * mam      - parallel bottleneck at FFN (base = the FFN output, x = its
               input) plus learned prefix key/value rows, which `PrefixSite`
               puts in front of each sequence's own key/value rows

Adapter weight matrices are the prunable parameter set; biases and prefix
vectors are trainable but never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import Model

VARIANTS = ("houlsby", "pfeiffer", "lora", "mam")

PREFIX_INIT_STD = 0.5  # prefix vectors act as extra key/value rows, so O(1) scale


@dataclass
class AdapterSpec:
    """Which adapter variant to insert and how wide to make it.

    Both projections are drawn from Gaussian(0, gaussian_std) instead of the
    conventional zero up-projection: zero weights would give identically zero
    magnitude and loss-sensitivity scores, making pruning at initialization
    degenerate. ``lora_zero_b`` restores zero-init B for non-pruning baselines.
    """

    variant: str = "houlsby"
    r: int = 64
    lora_alpha: float = 16.0
    prefix_len: int = 4
    gaussian_std: float = 1e-2
    lora_zero_b: bool = False

    def validate(self, d_model: int | None = None) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown adapter variant '{self.variant}'")
        if self.r < 1:
            raise ValueError("bottleneck dimension r must be >= 1")
        if self.gaussian_std <= 0:
            raise ValueError("gaussian_std must be > 0")
        if self.variant == "mam" and self.prefix_len < 1:
            raise ValueError("mam requires prefix_len >= 1")
        if d_model is not None and self.r >= d_model:
            raise ValueError(f"bottleneck r={self.r} must be < d_model={d_model}")


@dataclass
class LargeSparseConfig:
    """Width-for-density trade at a fixed trainable-kept budget: scale the
    bottleneck by k and raise sparsity to 1 - 1/k."""

    r_base: int
    scale_k: int
    r: int = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        if self.scale_k < 1:
            raise ValueError("scale factor k must be >= 1")
        self.r = self.scale_k * self.r_base
        self.s = 1.0 - 1.0 / self.scale_k


class BottleneckAdapter:
    """Bottleneck delta W_up . gelu(W_down . x + b_down) + b_up, times `scale`.

    A serial site reads x = base; a ``parallel`` site (mam) reads the FFN's
    input and is scaled like LoRA by alpha/r.
    """

    def __init__(self, down_w: Tensor, down_b: Tensor, up_w: Tensor, up_b: Tensor,
                 parallel: bool = False, scale: float = 1.0):
        self.down_w = down_w
        self.down_b = down_b
        self.up_w = up_w
        self.up_b = up_b
        self.parallel = parallel
        self.scale = scale

    def delta(self, x: Tensor) -> Tensor:
        hidden = ad.gelu(ad.affine(x, self.down_w, self.down_b))
        out = ad.affine(hidden, self.up_w, self.up_b)
        return out if self.scale == 1.0 else ad.scale(out, self.scale)

    def __call__(self, base: Tensor, x: Tensor) -> Tensor:
        return ad.add(base, self.delta(x))


class LoraProjection:
    """(alpha/r) * x @ A @ B beside one attention projection of x."""

    def __init__(self, a: Tensor, b: Tensor, alpha: float, r: int):
        self.a = a
        self.b = b
        self.scaling = alpha / r

    def delta(self, x: Tensor) -> Tensor:
        return ad.scale(ad.matmul(ad.matmul(x, self.a), self.b), self.scaling)

    def __call__(self, base: Tensor, x: Tensor) -> Tensor:
        return ad.add(base, self.delta(x))


class PrefixSite:
    """Learned (P, d) prefix key/value rows, put in front of each sequence's own
    (seq, d) key/value rows, so that every query also attends to them."""

    def __init__(self, key: Tensor, value: Tensor):
        self.key = key
        self.value = value

    @staticmethod
    def _rows(prefix: Tensor, t: Tensor, bsz: int) -> Tensor:
        n_pre, d = prefix.shape
        rows = ad.concat([ad.broadcast_to(ad.reshape(prefix, (1, n_pre, d)), (bsz, n_pre, d)),
                          ad.reshape(t, (bsz, -1, d))], 1)
        return ad.reshape(rows, (-1, d))

    def key_heads(self, k: Tensor, bsz: int) -> Tensor:
        return self._rows(self.key, k, bsz)

    def value_heads(self, v: Tensor, bsz: int) -> Tensor:
        return self._rows(self.value, v, bsz)


def _add_bottleneck(model: Model, rng: np.random.Generator, site: str,
                    spec: AdapterSpec, parallel: bool = False,
                    scale: float = 1.0) -> None:
    d, r = model.cfg.d_model, spec.r
    dw = model.add_group(f"{site}.down.weight",
                         rng.normal(0.0, spec.gaussian_std, (d, r)),
                         prunable=True, adapter=True)
    db = model.add_group(f"{site}.down.bias", np.zeros(r), adapter=True)
    uw = model.add_group(f"{site}.up.weight",
                         rng.normal(0.0, spec.gaussian_std, (r, d)),
                         prunable=True, adapter=True)
    ub = model.add_group(f"{site}.up.bias", np.zeros(d), adapter=True)
    model.adapter_sites[site] = BottleneckAdapter(
        dw.tensor, db.tensor, uw.tensor, ub.tensor, parallel=parallel, scale=scale)


def _add_lora(model: Model, rng: np.random.Generator, proj: str,
              spec: AdapterSpec) -> None:
    d, r = model.cfg.d_model, spec.r
    a = model.add_group(f"{proj}.lora.A", rng.normal(0.0, spec.gaussian_std, (d, r)),
                        prunable=True, adapter=True)
    b_init = np.zeros((r, d)) if spec.lora_zero_b else \
        rng.normal(0.0, spec.gaussian_std, (r, d))
    b = model.add_group(f"{proj}.lora.B", b_init, prunable=True, adapter=True)
    model.adapter_sites[f"{proj}.lora"] = LoraProjection(a.tensor, b.tensor,
                                                         spec.lora_alpha, r)


def insert_adapters(model: Model, spec: AdapterSpec, seed: int) -> None:
    """Register adapter parameter groups and wire them into the forward pass."""
    spec.validate(model.cfg.d_model)
    if model.adapter_spec is not None:
        raise ValueError("model already has adapters")

    rng = np.random.default_rng(seed)
    for i in range(model.cfg.n_layers):
        pre = f"layer{i}"
        if spec.variant == "houlsby":
            _add_bottleneck(model, rng, f"{pre}.attn.adapter", spec)
            _add_bottleneck(model, rng, f"{pre}.ffn.adapter", spec)
        elif spec.variant == "pfeiffer":
            _add_bottleneck(model, rng, f"{pre}.ffn.adapter", spec)
        elif spec.variant == "lora":
            _add_lora(model, rng, f"{pre}.attn.q", spec)
            _add_lora(model, rng, f"{pre}.attn.v", spec)
        elif spec.variant == "mam":
            _add_bottleneck(model, rng, f"{pre}.ffn.adapter", spec, parallel=True,
                            scale=spec.lora_alpha / spec.r)
            key = model.add_group(f"{pre}.attn.prefix.key",
                                  rng.normal(0.0, PREFIX_INIT_STD,
                                             (spec.prefix_len, model.cfg.d_model)),
                                  adapter=True)
            val = model.add_group(f"{pre}.attn.prefix.value",
                                  rng.normal(0.0, PREFIX_INIT_STD,
                                             (spec.prefix_len, model.cfg.d_model)),
                                  adapter=True)
            model.adapter_sites[f"{pre}.attn.prefix"] = PrefixSite(key.tensor, val.tensor)
    model.adapter_spec = spec


def kept_param_fraction(model: Model, mask=None) -> float:
    """The parameter budget: adapter elements the mask keeps (biases and prefix
    vectors are never masked) over every element of every group. Unlike
    `PruneMask.kept_fraction`, the denominator is the whole model."""
    masks = mask.masks if mask is not None else {}
    kept = sum(int(np.count_nonzero(masks[n])) if n in masks
               else model.groups[n].tensor.size for n in model.adapter_group_names)
    total = sum(g.tensor.size for g in model.groups.values())
    return kept / total if total else 0.0
