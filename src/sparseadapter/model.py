"""Miniature transformer encoder with named, freezable parameter groups.

A pre-layer-norm classifier stands in for a big pretrained backbone: token +
position embeddings (`take_rows`), attention (one fused op) and FFN blocks on
a (batch * seq, d) residual stream, a final norm, mean pooling, a linear head.
Adapters hook in through ``adapter_sites``: q/v projections (lora), prefix
keys/values (mam), after attention (houlsby) and at the FFN (houlsby, pfeiffer, mam).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_MAGIC = b"SACP"
CHECKPOINT_VERSION = 1


@dataclass
class EncoderConfig:
    """Shape of the frozen backbone. Defaults are the desk-scale setup."""

    vocab_size: int = 1000
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 256
    n_layers: int = 4
    max_seq_len: int = 64
    n_classes: int = 4

    def validate(self) -> None:
        for name in ("vocab_size", "d_model", "n_heads", "d_ff", "n_layers",
                     "max_seq_len", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"EncoderConfig.{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})")


@dataclass
class ParamGroup:
    """One named weight tensor plus its training/pruning flags."""

    name: str
    tensor: Tensor
    trainable: bool
    prunable: bool

    def __post_init__(self):
        if self.prunable and not self.trainable:
            raise ValueError(f"group '{self.name}': prunable implies trainable")


class Model:
    """Parameter registry plus the encoder forward pass."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.groups: dict[str, ParamGroup] = {}
        self.adapter_group_names: set[str] = set()
        self.head_group_names: set[str] = set()
        self.adapter_spec = None          # set by insert_adapters
        self.adapter_sites: dict[str, object] = {}
        self.mask = None                  # set by apply_mask

    # -- registry ----------------------------------------------------------

    def add_group(self, name: str, data: np.ndarray, *, trainable: bool = True,
                  prunable: bool = False, adapter: bool = False,
                  head: bool = False) -> ParamGroup:
        if name in self.groups:
            raise ValueError(f"duplicate parameter group '{name}'")
        pg = ParamGroup(name, Tensor(data, requires_grad=trainable),
                        trainable, prunable)
        self.groups[name] = pg
        if adapter:
            self.adapter_group_names.add(name)
        if head:
            self.head_group_names.add(name)
        return pg

    def param(self, name: str) -> Tensor:
        return self.groups[name].tensor

    def set_trainable(self, name: str, trainable: bool) -> None:
        pg = self.groups[name]
        pg.trainable = trainable
        pg.tensor.requires_grad = trainable

    def trainable_groups(self) -> dict[str, ParamGroup]:
        return {n: g for n, g in self.groups.items() if g.trainable}

    def prunable_groups(self) -> dict[str, ParamGroup]:
        return {n: g for n, g in self.groups.items() if g.prunable}

    def backbone_group_names(self) -> list[str]:
        skip = self.adapter_group_names | self.head_group_names
        return [n for n in self.groups if n not in skip]

    def backbone_bytes(self) -> bytes:
        return b"".join(self.groups[n].tensor.data.tobytes()
                        for n in self.backbone_group_names())

    # -- forward -----------------------------------------------------------

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits of shape (batch, n_classes) for an int token batch (batch, seq)."""
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"token batch must be 2-D, got shape {tokens.shape}")
        bsz, seq = tokens.shape
        if seq > cfg.max_seq_len:
            raise ValueError(f"sequence length {seq} exceeds max_seq_len {cfg.max_seq_len}")
        if tokens.min() < 0 or tokens.max() >= cfg.vocab_size:
            raise ValueError("token id outside [0, vocab_size)")

        x = ad.add(ad.take_rows(self.param("embed.tokens"), tokens.reshape(-1)),
                   ad.take_rows(self.param("embed.positions"), np.tile(np.arange(seq), bsz)))
        for i in range(cfg.n_layers):
            pre = f"layer{i}"
            ln1 = ad.layer_norm(x, self.param(f"{pre}.attn.ln.gamma"),
                                self.param(f"{pre}.attn.ln.beta"))
            q, k, v = (self._project(ln1, f"{pre}.attn.{proj}") for proj in "qkv")
            site = self.adapter_sites.get(f"{pre}.attn.prefix")
            kv = () if site is None else (site.key_heads(bsz), site.value_heads(bsz))
            attn_out = ad.affine(ad.attention(q, k, v, bsz, cfg.n_heads, kv),
                                 self.param(f"{pre}.attn.o.weight"),
                                 self.param(f"{pre}.attn.o.bias"))

            site = self.adapter_sites.get(f"{pre}.attn.adapter")
            if site is not None:
                attn_out = site(attn_out)
            x = ad.add(x, attn_out)

            ln2 = ad.layer_norm(x, self.param(f"{pre}.ffn.ln.gamma"),
                                self.param(f"{pre}.ffn.ln.beta"))
            ffn = ad.affine(ad.gelu(ad.affine(ln2, self.param(f"{pre}.ffn.fc1.weight"),
                                              self.param(f"{pre}.ffn.fc1.bias"))),
                            self.param(f"{pre}.ffn.fc2.weight"),
                            self.param(f"{pre}.ffn.fc2.bias"))

            site = self.adapter_sites.get(f"{pre}.ffn.adapter")
            if site is None:
                out = ffn
            elif getattr(site, "parallel", False):
                out = ad.add(ffn, site.delta(ln2))
            else:
                out = site(ffn)
            x = ad.add(x, out)

        hf = ad.layer_norm(x, self.param("final_ln.gamma"), self.param("final_ln.beta"))
        pooled = ad.scale(ad.tsum(ad.reshape(hf, (bsz, seq, -1)), axes=(1,)), 1.0 / seq)
        return ad.affine(pooled, self.param("head.weight"), self.param("head.bias"))

    def _project(self, x2: Tensor, name: str) -> Tensor:
        lora = self.adapter_sites.get(f"{name}.lora")
        if lora is not None:
            return lora(x2)
        return ad.affine(x2, self.param(f"{name}.weight"), self.param(f"{name}.bias"))

    def loss(self, tokens: np.ndarray, labels: np.ndarray) -> Tensor:
        return ad.cross_entropy_logits(self.forward(tokens), labels)


def _xavier(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(2.0 / (n_in + n_out)), size=(n_in, n_out))


def build_encoder(cfg: EncoderConfig, seed: int) -> Model:
    """Deterministically initialized encoder; every backbone group starts trainable."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    m = Model(cfg)
    d = cfg.d_model

    m.add_group("embed.tokens", _xavier(rng, cfg.vocab_size, d))
    m.add_group("embed.positions", _xavier(rng, cfg.max_seq_len, d))
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        for sub in ("attn", "ffn"):
            m.add_group(f"{pre}.{sub}.ln.gamma", np.ones(d))
            m.add_group(f"{pre}.{sub}.ln.beta", np.zeros(d))
        for proj in ("q", "k", "v", "o"):
            m.add_group(f"{pre}.attn.{proj}.weight", _xavier(rng, d, d))
            m.add_group(f"{pre}.attn.{proj}.bias", np.zeros(d))
        m.add_group(f"{pre}.ffn.fc1.weight", _xavier(rng, d, cfg.d_ff))
        m.add_group(f"{pre}.ffn.fc1.bias", np.zeros(cfg.d_ff))
        m.add_group(f"{pre}.ffn.fc2.weight", _xavier(rng, cfg.d_ff, d))
        m.add_group(f"{pre}.ffn.fc2.bias", np.zeros(d))
    m.add_group("final_ln.gamma", np.ones(d))
    m.add_group("final_ln.beta", np.zeros(d))
    m.add_group("head.weight", _xavier(rng, d, cfg.n_classes), head=True)
    m.add_group("head.bias", np.zeros(cfg.n_classes), head=True)
    return m


def freeze_backbone(model: Model) -> None:
    """Mark every non-adapter, non-head group untrainable; adapters/head untouched."""
    for name in model.backbone_group_names():
        model.set_trainable(name, False)


# ---------------------------------------------------------------------------
# Checkpoint file: "SACP" magic, version byte, then per group its name, shape,
# trainable flag, and raw little-endian float64 data.
# ---------------------------------------------------------------------------

def save_checkpoint(model: Model, path: str) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<B", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(model.groups)))
        for name, pg in model.groups.items():
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<B", pg.tensor.ndim))
            for dim in pg.tensor.shape:
                f.write(struct.pack("<I", dim))
            f.write(struct.pack("<B", 1 if pg.trainable else 0))
            f.write(pg.tensor.data.astype("<f8").tobytes())


class _Reader:
    """Bounded little-endian reader over the bytes of one SACP or SADM file.

    Every read names what it is for, and a read past the end raises
    ValueError instead of reaching struct or numpy with a bad offset.
    """

    def __init__(self, blob: bytes, kind: str):
        self.view = memoryview(blob)
        self.kind = kind
        self.off = 0
        self.names: set[str] = set()

    def take(self, n: int, what: str) -> memoryview:
        end = self.off + n
        if end > len(self.view):
            raise ValueError(f"truncated {self.kind} file: need {end} bytes for {what}, "
                             f"file has {len(self.view)}")
        chunk = self.view[self.off:end]
        self.off = end
        return chunk

    def fields(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, len_fmt: str, what: str) -> str:
        """A UTF-8 string after a length field of format `len_fmt`."""
        (n,) = self.fields(len_fmt, f"{what} length")
        return str(self.take(n, what), "utf-8")

    def group_name(self) -> str:
        """The next group's name, which no earlier group of the file may have."""
        name = self.text("H", "group name")
        if name in self.names:
            raise ValueError(f"repeated group '{name}' in {self.kind} file")
        self.names.add(name)
        return name

    def header(self, magic: bytes, version: int) -> None:
        got, ver = self.fields("4sB", "header")
        if got != magic:
            raise ValueError(f"bad {self.kind} magic {got!r}")
        if ver != version:
            raise ValueError(f"unsupported {self.kind} version {ver}")

    def done(self) -> None:
        if self.off != len(self.view):
            raise ValueError(f"trailing bytes in {self.kind} file: parsed {self.off}, "
                             f"file has {len(self.view)}")


def read_checkpoint(path: str) -> dict[str, tuple[np.ndarray, bool]]:
    """Parse a checkpoint into {name: (array, trainable)}."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), "checkpoint")
    r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    (count,) = r.fields("I", "group count")
    out: dict[str, tuple[np.ndarray, bool]] = {}
    for _ in range(count):
        name = r.group_name()
        (ndim,) = r.fields("B", f"rank of group '{name}'")
        shape = r.fields(f"{ndim}I", f"shape of group '{name}'")
        (trainable,) = r.fields("B", f"trainable flag of group '{name}'")
        if trainable not in (0, 1):
            raise ValueError(f"trainable flag {trainable} of group '{name}' in "
                             f"checkpoint file is neither 0 nor 1")
        raw = r.take(8 * math.prod(shape), f"weights of group '{name}'")
        arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite weights in group '{name}' of checkpoint file")
        out[name] = (arr, bool(trainable))
    r.done()
    return out


def load_checkpoint(model: Model, path: str) -> None:
    """Load a checkpoint into a structurally identical model."""
    entries = read_checkpoint(path)
    if set(entries) != set(model.groups):
        missing = set(model.groups) - set(entries)
        extra = set(entries) - set(model.groups)
        raise ValueError(f"checkpoint/model group mismatch (missing={sorted(missing)}, "
                         f"extra={sorted(extra)})")
    for name, (arr, trainable) in entries.items():
        pg = model.groups[name]
        if arr.shape != pg.tensor.shape:
            raise ValueError(f"group '{name}': checkpoint shape {arr.shape} != "
                             f"model shape {pg.tensor.shape}")
        pg.tensor.data[...] = arr
        model.set_trainable(name, trainable)
