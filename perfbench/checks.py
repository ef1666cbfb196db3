"""Correctness checks on the outputs of each workload, computed apart from the
program.

The file readers follow the README's "File formats" section, parameter
counts come from the encoder and adapter shapes, and top-k selection uses
the benchmark's own sort with the (group name, element index) tie rule.
Gradients, Hessian-vector products and forward passes come from the
program's engine, so each of those is held against a finite difference or a
symmetry the exact Hessian must have. Every check returns a list of
failures; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import struct

import numpy as np

# Final accuracy must beat 1/n_classes by this much: the README run, and the
# mean over the large-sparse points (a smaller encoder, sparser at larger k,
# where a seed can leave k=4 near chance).
CHANCE_MARGIN = 0.25
SWEEP_CHANCE_MARGIN = 0.05
FD_STEP = 1e-5
FD_RTOL = 1e-4
HVP_FD_RTOL = 1e-4
SYMMETRY_RTOL = 1e-9


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------

class _Blob:
    """Bounded little-endian reader over one file's bytes."""

    def __init__(self, path: str):
        with open(path, "rb") as f:
            self.data = f.read()
        self.off = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise ValueError(f"{self.path}: truncated at {what}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def done(self) -> None:
        if self.off != len(self.data):
            raise ValueError(f"{self.path}: {len(self.data) - self.off} trailing bytes")


def read_sadm(path: str) -> dict:
    """magic, version, method tag, s, seed, group count; per group name,
    element count and the little-endian bit-packed keep-mask."""
    b = _Blob(path)
    if b.take(4, "magic") != b"SADM":
        raise ValueError(f"{path}: not a SADM file")
    (version,) = b.unpack("B", "version")
    (tlen,) = b.unpack("B", "method tag length")
    method = b.take(tlen, "method tag").decode("utf-8")
    (s,) = b.unpack("d", "sparsity")
    (seed,) = b.unpack("q", "seed")
    (count,) = b.unpack("I", "group count")
    groups = {}
    for _ in range(count):
        (nlen,) = b.unpack("H", "group name length")
        name = b.take(nlen, "group name").decode("utf-8")
        (size,) = b.unpack("Q", "element count")
        packed = np.frombuffer(b.take((size + 7) // 8, "bitmap"), dtype=np.uint8)
        bits = np.unpackbits(packed, bitorder="little")
        if np.any(bits[size:]):
            raise ValueError(f"{path}: padding bits set in group '{name}'")
        groups[name] = bits[:size].astype(bool)
    b.done()
    return {"version": version, "method": method, "s": s,
            "seed": None if seed == -1 else seed, "groups": groups}


def read_sacp(path: str) -> dict[str, tuple[np.ndarray, bool]]:
    """magic, version, group count; per group name, shape, trainable flag
    and raw little-endian float64 weights."""
    b = _Blob(path)
    if b.take(4, "magic") != b"SACP":
        raise ValueError(f"{path}: not a SACP file")
    b.unpack("B", "version")
    (count,) = b.unpack("I", "group count")
    out = {}
    for _ in range(count):
        (nlen,) = b.unpack("H", "group name length")
        name = b.take(nlen, "group name").decode("utf-8")
        (ndim,) = b.unpack("B", "rank")
        shape = b.unpack(f"{ndim}I", "shape") if ndim else ()
        (trainable,) = b.unpack("B", "trainable flag")
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(b.take(8 * n, "weights"), dtype="<f8").reshape(shape)
        out[name] = (arr, bool(trainable))
    b.done()
    return out


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file under a directory, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Shapes and counts
# ---------------------------------------------------------------------------

def prunable_shapes(encoder: dict, adapter: dict) -> dict[str, tuple[int, int]]:
    """Adapter weight matrices, the prunable set, for one variant."""
    d, r = encoder["d_model"], adapter["r"]
    out = {}
    for i in range(encoder["n_layers"]):
        if adapter["variant"] == "lora":
            for proj in ("q", "v"):
                out[f"layer{i}.attn.{proj}.lora.A"] = (d, r)
                out[f"layer{i}.attn.{proj}.lora.B"] = (r, d)
            continue
        sites = ["ffn"] if adapter["variant"] != "houlsby" else ["attn", "ffn"]
        for site in sites:
            out[f"layer{i}.{site}.adapter.down.weight"] = (d, r)
            out[f"layer{i}.{site}.adapter.up.weight"] = (r, d)
    return out


def param_counts(encoder: dict, adapter: dict) -> dict[str, int]:
    d, ff, n = encoder["d_model"], encoder["d_ff"], encoder["n_layers"]
    r = adapter["r"]
    per_layer = 2 * 2 * d + 4 * (d * d + d) + (d * ff + ff) + (ff * d + d)
    backbone = (encoder["vocab_size"] + encoder["max_seq_len"]) * d + n * per_layer + 2 * d
    head = d * encoder["n_classes"] + encoder["n_classes"]
    bottleneck = d * r + r + r * d + d
    variant = adapter["variant"]
    if variant == "houlsby":
        total = n * 2 * bottleneck
    elif variant == "pfeiffer":
        total = n * bottleneck
    elif variant == "lora":
        total = n * 2 * 2 * d * r
    else:
        total = n * (bottleneck + 2 * adapter.get("prefix_len", 4) * d)
    prunable = sum(a * b for a, b in prunable_shapes(encoder, adapter).values())
    return {"backbone": backbone, "head": head, "adapter": total, "prunable": prunable}


def expected_kept_fraction(encoder: dict, adapter: dict, s: float) -> float:
    c = param_counts(encoder, adapter)
    kept = c["adapter"] - c["prunable"] + round_half_up((1.0 - s) * c["prunable"])
    return kept / (c["backbone"] + c["adapter"] + c["head"])


def expected_lr(step: int, total: int, peak: float, warmup_fraction: float) -> float:
    """Linear warmup over the first ceil(fraction * total) steps, then linear
    decay to zero at the last step."""
    warmup = math.ceil(warmup_fraction * total)
    if step < warmup:
        return peak * step / warmup
    if total == warmup:
        return peak
    return peak * (total - step) / (total - warmup)


def top_k(scores: dict[str, np.ndarray], kept: int) -> dict[str, np.ndarray]:
    """Keep the `kept` highest scores; ties go to the lower (group, index)."""
    names = sorted(scores)
    flat = np.concatenate([scores[n].reshape(-1) for n in names])
    position = np.arange(flat.size)
    order = np.lexsort((position, -flat))   # last key is the primary one
    keep = np.zeros(flat.size, dtype=bool)
    keep[order[:kept]] = True
    out, off = {}, 0
    for n in names:
        out[n] = keep[off:off + scores[n].size]
        off += scores[n].size
    return out


# ---------------------------------------------------------------------------
# Engine-side recomputation
# ---------------------------------------------------------------------------

def scoring_batches(tokens: np.ndarray, labels: np.ndarray, seed: int,
                    count: int, batch_size: int) -> list[tuple]:
    """The README's scoring batches: `count` draws without replacement."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    out = []
    for _ in range(count):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        out.append((tokens[idx], labels[idx]))
    return out


def build(cli, payload: dict):
    """A fresh model and dataset for a config, made the way a command makes them."""
    cfg = cli.parse_config(payload)
    return cli.build_model(cfg), cli.load_data(cfg)


def prunable_params(model) -> dict:
    return {n: g.tensor for n, g in model.groups.items() if g.prunable}


def summed_grads(ad, model, batches) -> dict[str, np.ndarray]:
    params = prunable_params(model)
    total = {n: np.zeros(t.shape) for n, t in params.items()}
    for tokens, labels in batches:
        grads = ad.backward(model.loss(tokens, labels), params)
        for n in total:
            total[n] += grads[n].data
    return total


def batch_loss(ad, model, batches) -> float:
    with ad.no_grad():
        return sum(model.loss(t, l).item() for t, l in batches)


def check_grad_fd(ad, model, batches, grads, rng, n_coords: int = 4) -> list[str]:
    """Central differences of the loss against the gradient at sampled weights."""
    fails = []
    names = sorted(grads)
    for _ in range(n_coords):
        name = names[int(rng.integers(len(names)))]
        g = grads[name].reshape(-1)
        # sample among the larger gradients so the difference is well resolved
        big = np.flatnonzero(np.abs(g) >= np.quantile(np.abs(g), 0.9))
        idx = int(big[int(rng.integers(big.size))])
        w = model.groups[name].tensor.data.reshape(-1)
        orig = w[idx]
        w[idx] = orig + FD_STEP
        plus = batch_loss(ad, model, batches)
        w[idx] = orig - FD_STEP
        minus = batch_loss(ad, model, batches)
        w[idx] = orig
        fd = (plus - minus) / (2 * FD_STEP)
        if abs(fd - g[idx]) > FD_RTOL * abs(g[idx]) + 1e-10:
            fails.append(f"gradient of {name}[{idx}]: engine {g[idx]!r}, "
                         f"central difference {fd!r}")
    return fails


def check_hvp_fd(ad, model, batches, direction, hv) -> list[str]:
    """(grad(w + e d) - grad(w - e d)) / 2e against the exact H d."""
    params = prunable_params(model)
    scale = float(max(np.max(np.abs(d)) for d in direction.values()))
    eps = 1e-4 / scale
    for n, t in params.items():
        t.data += eps * direction[n]
    plus = summed_grads(ad, model, batches)
    for n, t in params.items():
        t.data -= 2 * eps * direction[n]
    minus = summed_grads(ad, model, batches)
    for n, t in params.items():
        t.data += eps * direction[n]
    diff = np.sqrt(sum(np.sum(((plus[n] - minus[n]) / (2 * eps) - hv[n]) ** 2)
                       for n in params))
    norm = np.sqrt(sum(np.sum(hv[n] ** 2) for n in params))
    if not diff <= HVP_FD_RTOL * norm:
        return [f"H.g: |finite difference - exact| = {diff:.3e}, |H.g| = {norm:.3e}"]
    return []


def check_hvp_symmetry(ad, model, batch, rng) -> list[str]:
    params = prunable_params(model)
    u = {n: rng.normal(size=t.shape) for n, t in params.items()}
    v = {n: rng.normal(size=t.shape) for n, t in params.items()}

    def loss_fn(_):
        return model.loss(*batch)

    hu = ad.hvp(loss_fn, params, {n: ad.Tensor(a) for n, a in u.items()})
    hv = ad.hvp(loss_fn, params, {n: ad.Tensor(a) for n, a in v.items()})
    u_hv = sum(float(np.sum(u[n] * hv[n].data)) for n in params)
    v_hu = sum(float(np.sum(v[n] * hu[n].data)) for n in params)
    if abs(u_hv - v_hu) > SYMMETRY_RTOL * (abs(u_hv) + abs(v_hu)):
        return [f"Hessian not symmetric: u.Hv = {u_hv!r}, v.Hu = {v_hu!r}"]
    return []


# ---------------------------------------------------------------------------
# Per-output checks
# ---------------------------------------------------------------------------

def check_mask_file(path: str, cfg: dict) -> tuple[dict | None, list[str]]:
    """Header, group layout and popcount of one mask against its config."""
    try:
        mask = read_sadm(path)
    except (OSError, ValueError) as exc:
        return None, [f"mask {path}: {exc}"]
    fails = []
    prune = cfg["prune"]
    shapes = prunable_shapes(cfg["encoder"], cfg["adapter"])
    sizes = {n: len(bits) for n, bits in mask["groups"].items()}
    if sizes != {n: a * b for n, (a, b) in shapes.items()}:
        fails.append(f"mask {path}: groups {sorted(sizes)} do not match the shapes")
    if (mask["method"], mask["s"], mask["seed"]) != (prune["method"], prune["s"],
                                                     prune["seed"]):
        fails.append(f"mask {path}: header {mask['method']}/{mask['s']}/{mask['seed']}")
    total = sum(a * b for a, b in shapes.values())
    want = round_half_up((1.0 - prune["s"]) * total)
    got = sum(int(np.count_nonzero(b)) for b in mask["groups"].values())
    slack = len(shapes) if prune["method"] == "er" else 0
    if abs(got - want) > slack:
        fails.append(f"mask {path}: kept {got}, expected {want} (slack {slack})")
    return mask, fails


def check_mask_is_top_k(mask: dict, scores: dict[str, np.ndarray], what: str) -> list[str]:
    kept = sum(int(np.count_nonzero(b)) for b in mask["groups"].values())
    want = top_k(scores, kept)
    bad = [n for n in want if not np.array_equal(want[n], mask["groups"].get(n))]
    return [f"{what}: mask differs from top-k of the scores in {bad[:3]}"] if bad else []


def check_checkpoint(path: str, cfg: dict, mask: dict, fresh_model) -> list[str]:
    try:
        groups = read_sacp(path)
    except (OSError, ValueError) as exc:
        return [f"checkpoint {path}: {exc}"]
    fails = []
    if set(groups) != set(fresh_model.groups):
        return [f"checkpoint {path}: groups differ from a fresh build"]
    skip = fresh_model.adapter_group_names | fresh_model.head_group_names
    for name, pg in fresh_model.groups.items():
        arr, trainable = groups[name]
        if name in skip:
            if not trainable:
                fails.append(f"checkpoint: '{name}' saved frozen")
        elif trainable or arr.tobytes() != pg.tensor.data.astype("<f8").tobytes():
            fails.append(f"checkpoint: backbone group '{name}' changed")
    for name, bits in mask["groups"].items():
        w = groups[name][0].reshape(-1)
        if np.any(w[~bits] != 0.0):
            fails.append(f"checkpoint: pruned weights of '{name}' are not zero")
    return fails


def read_metrics_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_training(rows: list[dict], cfg: dict, eval_stdout: str) -> tuple[float | None, list[str]]:
    opt, task = cfg["optimizer"], cfg["data"]["task"]
    total = opt["epochs"] * math.ceil(task["n_train"] / opt["batch_size"])
    fails = []
    train_rows = [r for r in rows if r["split"] == "train"]
    eval_rows = [r for r in rows if r["split"] == "eval"]
    if [int(r["step"]) for r in train_rows] != list(range(1, total + 1)):
        fails.append(f"metrics.csv: train steps are not 1..{total}")
    for r in rows:
        want = expected_lr(int(r["step"]), total, opt["peak_lr"], 0.10)
        if abs(float(r["lr"]) - want) > 1e-12 * opt["peak_lr"]:
            fails.append(f"metrics.csv: lr {r['lr']} at step {r['step']}, expected {want!r}")
            break
    if not eval_rows or int(eval_rows[-1]["step"]) != total:
        return None, fails + ["metrics.csv: no eval row at the last step"]
    final = float(eval_rows[-1]["accuracy"])
    printed = f"eval loss {float(eval_rows[-1]['loss']):.6f} accuracy {final:.4f}"
    if printed not in eval_stdout:
        fails.append(f"eval command printed {eval_stdout.strip()!r}, "
                     f"final eval row gives {printed!r}")
    chance = 1.0 / cfg["encoder"]["n_classes"]
    if not final >= chance + CHANCE_MARGIN:
        fails.append(f"final eval accuracy {final} does not beat chance {chance} "
                     f"by {CHANCE_MARGIN}")
    return final, fails


SWEEP_NEEDS = ("method", "s", "r", "kept_fraction", "seeds", "final_acc_mean")


def check_sweep_csv(path: str, cfg: dict, values, seeds: int) -> tuple[float | None, list[str]]:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        return None, [f"sweep.csv: {exc}"]
    if "# aborted" in text:
        return None, ["sweep.csv: sweep aborted"]
    rows = list(csv.DictReader(text.splitlines()))
    if not rows or any(c not in rows[0] for c in SWEEP_NEEDS):
        return None, ["sweep.csv: missing columns"]
    if len(rows) != len(values):
        return None, [f"sweep.csv: {len(rows)} rows for {len(values)} points"]
    fails = []
    r_base = cfg["adapter"]["r"]
    accs = []
    for row, k in zip(rows, values):
        r, s = k * r_base, 1.0 - 1.0 / k
        if (row["method"], int(row["r"]), float(row["s"]), int(row["seeds"])) != \
                (cfg["prune"]["method"], r, s, seeds):
            fails.append(f"sweep.csv: row for k={k} reads {row}")
            continue
        want = expected_kept_fraction(cfg["encoder"], {**cfg["adapter"], "r": r}, s)
        if abs(float(row["kept_fraction"]) - want) > 1e-12 * want:
            fails.append(f"sweep.csv: kept_fraction {row['kept_fraction']} at k={k}, "
                         f"expected {want!r}")
        accs.append(float(row["final_acc_mean"]))
    if not accs:
        return None, fails
    mean = float(np.mean(accs))
    chance = 1.0 / cfg["encoder"]["n_classes"]
    if not mean >= chance + SWEEP_CHANCE_MARGIN:
        fails.append(f"sweep.csv: mean accuracy {mean} does not beat chance {chance} "
                     f"by {SWEEP_CHANCE_MARGIN}")
    return mean, fails


# ---------------------------------------------------------------------------
# Workload verdicts: (figures read from the outputs, failures)
# ---------------------------------------------------------------------------

def verify_desk_train(plan, cli, ad, eval_stdout: str) -> tuple[dict, list[str]]:
    cfg = plan.configs["desk"]
    out = cfg["output_dir"]
    mask, fails = check_mask_file(os.path.join(out, "mask.sadm"), cfg)
    model, data = build(cli, cfg)
    prune = cfg["prune"]
    batches = scoring_batches(data.train.tokens, data.train.labels, prune["seed"],
                              prune.get("score_batches", 1),
                              cfg["optimizer"]["batch_size"])
    if mask is not None:
        fails += check_checkpoint(os.path.join(out, "checkpoint.sacp"), cfg, mask, model)
    grads = summed_grads(ad, model, batches)
    if mask is not None:
        scores = {n: model.groups[n].tensor.data * g for n, g in grads.items()}
        fails += check_mask_is_top_k(mask, scores, "snip mask")
    fails += check_grad_fd(ad, model, batches, grads, np.random.default_rng(plan.seed))
    try:
        rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
    except OSError as exc:
        return {}, fails + [f"metrics.csv: {exc}"]
    final, more = check_training(rows, cfg, eval_stdout)
    return {"final_eval_accuracy": final}, fails + more


def verify_score_variants(plan, cli, ad) -> tuple[dict, list[str]]:
    from workloads import VARIANTS

    fails, masks = [], {}
    for tag, cfg in plan.configs.items():
        masks[tag], more = check_mask_file(
            os.path.join(cfg["output_dir"], "mask.sadm"), cfg)
        fails += more
    for variant in VARIANTS:
        tag = f"{variant}/magnitude"
        if masks[tag] is not None:
            model, _ = build(cli, plan.configs[tag])
            scores = {n: np.abs(t.data) for n, t in prunable_params(model).items()}
            fails += check_mask_is_top_k(masks[tag], scores, f"{tag} mask")

    # GraSP: h = H g with g summed over the scoring batches, one graph per batch
    cfg = plan.configs["houlsby/grasp"]
    model, data = build(cli, cfg)
    batches = scoring_batches(data.train.tokens, data.train.labels,
                              cfg["prune"]["seed"], cfg["prune"]["score_batches"],
                              cfg["optimizer"]["batch_size"])
    grads = summed_grads(ad, model, batches)

    def summed_loss(_):
        total = None
        for tokens, labels in batches:
            term = model.loss(tokens, labels)
            total = term if total is None else ad.add(total, term)
        return total

    params = prunable_params(model)
    hv = {n: t.data for n, t in ad.hvp(summed_loss, params,
                                       {n: ad.Tensor(g) for n, g in grads.items()}).items()}
    if masks["houlsby/grasp"] is not None:
        scores = {n: params[n].data * h for n, h in hv.items()}
        fails += check_mask_is_top_k(masks["houlsby/grasp"], scores, "grasp mask")
    fails += check_hvp_fd(ad, model, batches, grads, hv)
    fails += check_hvp_symmetry(ad, model, batches[0], np.random.default_rng(plan.seed))
    return {}, fails


def verify_ls_sweep(plan) -> tuple[dict, list[str]]:
    cfg = plan.configs["base"]
    final, fails = check_sweep_csv(os.path.join(cfg["output_dir"], "sweep.csv"), cfg,
                                   plan.sweep_values, plan.sweep_seeds)
    return {"final_eval_accuracy": final}, fails
