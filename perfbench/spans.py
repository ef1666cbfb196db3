"""Traced runs: spans around the calls into each of sparseadapter's modules.

Each public function is wrapped where its caller looks it up: engine ops as
attributes of `sparseadapter.autodiff` (which is also where the engine's own
ops and vjp closures find each other), the names `cli` imports in
`sparseadapter.cli`, and the names other modules import in theirs. The
encoder's forward pass and the adapter-site methods it calls are wrapped on
their classes. The untraced run imports nothing from here and wraps nothing.

Spans live in memory as (name, parent, start, end) rows in the order they
open and are written out when the run ends. Sweep jobs run in forked
workers, which write their own rows once per job. A span's self time is its
duration minus that of its child spans. `Tracer.reduce` turns the rows into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("cli", "data", "model", "adapters", "autodiff", "pruning", "training")
# private functions that still mark a layer boundary worth a span
PRIVATE_BOUNDARIES = {("cli", "_run_sweep_job"), ("pruning", "_sum_grads")}
SKIP = {("autodiff", "no_grad")}    # a context manager, not a call
SITE_METHODS = {"BottleneckAdapter": ("__call__", "delta"),
                "LoraProjection": ("__call__", "delta"),
                "PrefixSite": ("key_heads", "value_heads")}
NOT_OPS = ("autodiff.backward", "autodiff.hvp")
BENCH = "bench."     # the tracer's own work, taken out of every timing

# Engine ops that every workload calls. BENCHMARK.json lists these; the
# trace file holds every op.
COMMON_OPS = ("add", "neg", "sub", "mul", "scale", "add_scalar", "matmul",
              "swap_last2", "permute", "reshape", "tsum", "broadcast_to", "tanh",
              "powc", "affine", "bias_add", "softmax_last", "cross_entropy_logits",
              "layer_norm", "gelu")
VARIANTS = ("houlsby", "pfeiffer", "lora", "mam")
TIMINGS = {      # metric -> span
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.hvp_ms": "autodiff.hvp",
    "model.forward_grad_ms": "model.forward_grad",
    "model.forward_nograd_ms": "model.forward_nograd",
    "model.checkpoint_write_ms": "model.save_checkpoint",
    "model.checkpoint_read_ms": "model.load_checkpoint",
    "pruning.score_random_ms": "pruning.score_random",
    "pruning.score_magnitude_ms": "pruning.score_magnitude",
    "pruning.score_er_ms": "pruning.score_er",
    "pruning.score_snip_ms": "pruning.score_snip",
    "pruning.score_grasp_ms": "pruning.score_grasp",
    "pruning.sum_grads_ms": "pruning.sum_grads",
    "pruning.percentile_ms": "pruning.prune_by_percentile",
    "pruning.mask_write_ms": "pruning.save_mask",
    "pruning.mask_read_ms": "pruning.load_mask",
    "training.adam_step_ms": "training.masked_adam_step",
    "training.evaluate_ms": "training.evaluate",
    "data.generate_ms": "data.generate",
    "data.load_dir_ms": "data.load_dir",
    "cli.build_model_ms": "cli.build_model",
    "cli.load_data_ms": "cli.load_data",
    "cli.make_mask_ms": "cli.make_mask",
    "cli.prune_ms": "cli.cmd_prune",
    "cli.train_ms": "cli.cmd_train",
    "cli.eval_ms": "cli.cmd_eval",
    "cli.sweep_ms": "cli.cmd_sweep",
}
MEDIANS = {     # recorded value -> unit
    "autodiff.hvp_graph_nodes": "count",
    "model.graph_nodes": "count",
    "model.checkpoint_bytes": "bytes",
    "pruning.mask_bytes": "bytes",
    "cli.sweep.worker_cpu_s": "s",
    "cli.sweep.worker_busy_share": "fraction",
    **{f"adapters.{v}.prunable_params": "count" for v in VARIANTS},
}
# What BENCHMARK.json lists: the timings every workload makes, and counts an
# engine change could move (they read 0 where a workload skips the layer).
# Counts fixed by a workload's config stay in the trace file.
REPORTED = (
    [f"autodiff.op.{op}.{m}" for op in COMMON_OPS for m in ("calls", "self_ms")]
    + ["autodiff.backward_ms", "autodiff.ops_per_step", "autodiff.hvp_graph_nodes",
       "model.forward_grad_ms", "model.graph_nodes", "model.checkpoint_bytes",
       "adapters.houlsby.site_ms", "pruning.score_snip_ms", "pruning.percentile_ms",
       "pruning.mask_bytes", "cli.build_model_ms", "cli.load_data_ms"]
)


class Tracer:
    def __init__(self, part_dir: Path):
        self.part_dir = Path(part_dir)
        self.owner = os.getpid()
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self.variant = None
        self.jobs = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def span(self, fn, name: str):
        """`fn` wrapped in a span; the hot path of engine ops."""
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        nid = self.ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def rows(self) -> dict:
        return {"names": list(self.names),
                "values": {k: list(v) for k, v in self.values.items()},
                "name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": np.array(self.start, dtype=np.int64),
                "end": np.array(self.end, dtype=np.int64)}

    def dump(self, path: Path) -> None:
        r = self.rows()
        meta = json.dumps({"names": r.pop("names"), "values": r.pop("values")})
        np.savez(path, meta=np.array(meta), **r)

    # -- installing --------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        pkg = {m: sys.modules[f"sparseadapter.{m}"] for m in MODULES}
        ad = pkg["autodiff"]
        special = {
            "model.save_checkpoint": self._with_size("model.checkpoint_bytes"),
            "pruning.save_mask": self._with_size("pruning.mask_bytes"),
            "cli.build_model": self._count_prunable,
            "cli.cmd_sweep": self._sweep_rusage,
            "cli._run_sweep_job": self._worker_job,
            "autodiff.backward": self._hvp_graph(ad),
        }
        self.part_dir.mkdir(parents=True, exist_ok=True)
        wrapped: dict[int, object] = {}
        for mod in pkg.values():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or not fn.__module__.startswith("sparseadapter."):
                    continue
                home = fn.__module__.split(".")[1]
                if (home, fn.__name__) in SKIP or (
                        fn.__name__.startswith("_")
                        and (home, fn.__name__) not in PRIVATE_BOUNDARIES):
                    continue
                if id(fn) not in wrapped:
                    traced = self.span(fn, f"{home}.{fn.__name__.lstrip('_')}")
                    extra = special.get(f"{home}.{fn.__name__}")
                    wrapped[id(fn)] = extra(traced) if extra else traced
                self._patch(mod, attr, wrapped[id(fn)])
        model_cls = pkg["model"].Model
        self._patch(model_cls, "forward", self._forward(model_cls.forward, ad))
        self._patch(model_cls, "loss", self.span(model_cls.loss, "model.loss"))
        for cls_name, methods in SITE_METHODS.items():
            cls = getattr(pkg["adapters"], cls_name)
            for meth in methods:
                self._patch(cls, meth, self._site(cls.__dict__[meth], f"{cls_name}.{meth}"))
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    # -- wrappers that also record a value -----------------------------------------

    def _graph_size(self, ad):
        return self.span(lambda out: len(ad.Tape.from_output(out).nodes), BENCH + "tape")

    def _forward(self, forward, ad):
        grad = self.span(forward, "model.forward_grad")
        nograd = self.span(forward, "model.forward_nograd")
        graph_size = self._graph_size(ad)

        @functools.wraps(forward)
        def traced(model, tokens):
            spec = model.adapter_spec
            self.variant = spec.variant if spec is not None else None
            if not ad._grad_enabled:
                return nograd(model, tokens)
            out = grad(model, tokens)
            self.values["model.graph_nodes"].append(graph_size(out))
            return out

        return traced

    def _site(self, method, label: str):
        """Adapter-site spans carry the variant of the model being run."""
        per_variant: dict = {}

        @functools.wraps(method)
        def traced(*args, **kwargs):
            fn = per_variant.get(self.variant)
            if fn is None:
                fn = per_variant[self.variant] = self.span(
                    method, f"adapters.site.{self.variant}.{label}")
            return fn(*args, **kwargs)

        return traced

    def _hvp_graph(self, ad):
        """Count the nodes that the second backward of an hvp walks."""
        graph_size = self._graph_size(ad)

        def wrap(traced):
            @functools.wraps(traced)
            def backward(loss, params, create_graph=False):
                hvp_id = self.ids.get("autodiff.hvp")
                if not create_graph and self.stack and self.name[self.stack[-1]] == hvp_id:
                    self.values["autodiff.hvp_graph_nodes"].append(graph_size(loss))
                return traced(loss, params, create_graph)
            return backward
        return wrap

    def _with_size(self, key: str):
        """Record the size of the file a writer's second argument names."""
        def wrap(traced):
            @functools.wraps(traced)
            def call(obj, path):
                out = traced(obj, path)
                self.values[key].append(os.path.getsize(path))
                return out
            return call
        return wrap

    def _count_prunable(self, traced):
        @functools.wraps(traced)
        def build_model(cfg):
            model = traced(cfg)
            n = sum(g.tensor.size for g in model.groups.values() if g.prunable)
            self.values[f"adapters.{cfg.adapter.variant}.prunable_params"].append(n)
            return model
        return build_model

    def _sweep_rusage(self, traced):
        """Worker CPU from the children's rusage: the pool has joined its
        workers by the time the sweep command returns."""
        @functools.wraps(traced)
        def cmd_sweep(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            try:
                return traced(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
                self.values["cli.sweep.worker_cpu_s"].append(cpu)
                self.values["cli.sweep.worker_busy_share"].append(
                    cpu / (kwargs.get("workers", 1) * wall))
        return cmd_sweep

    def _worker_job(self, traced):
        @functools.wraps(traced)
        def run_sweep_job(job):
            if os.getpid() == self.owner:
                return traced(job)
            # a forked worker: keep only this job's rows, and write them out
            for arr in (self.name, self.parent, self.start, self.end):
                del arr[:]
            self.stack.clear()
            self.values.clear()
            try:
                return traced(job)
            finally:
                self.jobs += 1
                self.dump(self.part_dir / f"{os.getpid()}-{self.jobs}.npz")
        return run_sweep_job

    # -- reduction -----------------------------------------------------------------

    def parts(self) -> list[dict]:
        """The rows every process wrote out, this one's included."""
        out = []
        for path in sorted(self.part_dir.glob("*.npz")):
            with np.load(path) as z:
                meta = json.loads(str(z["meta"]))
                out.append({**meta, **{k: z[k] for k in ("name", "parent", "start", "end")}})
        return out

    def reduce(self, rounds: int) -> dict:
        """Per-layer metrics of `rounds` traced rounds: {"detail": every
        metric with its sample count, "metrics": the ones BENCHMARK.json lists}."""
        acc = _Accumulator()
        for part in self.parts():
            acc.add(part)
        return acc.metrics(rounds)


class _Accumulator:
    def __init__(self):
        self.durations = defaultdict(list)     # span name -> ms, tracer time removed
        self.self_ms = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = defaultdict(list)
        self.steps = []                        # (ms, engine ops)
        self.site_ms = defaultdict(list)       # variant -> ms per forward
        self.eval_ms = self.train_ms = 0.0

    def add(self, part: dict) -> None:
        for k, v in part["values"].items():
            self.values[k].extend(v)
        names, n = part["names"], len(part["name"])
        if n == 0:
            return
        label = [names[k] for k in part["name"]]
        parent, start, end = part["parent"], part["start"], part["end"]
        dur = (end - start) / 1e6
        has_parent = parent >= 0
        self_ms = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                    minlength=n)
        is_bench = np.array([s.startswith(BENCH) for s in label])
        bench_in = np.zeros(n)
        for i in np.flatnonzero(is_bench):
            p = parent[i]
            while p >= 0:
                bench_in[p] += dur[i]
                p = parent[p]
        net = dur - bench_in
        children = defaultdict(list)
        for i in np.flatnonzero(has_parent):
            children[int(parent[i])].append(int(i))

        for i, s in enumerate(label):
            self.durations[s].append(net[i])
            self.self_ms[s] += self_ms[i]
            self.calls[s] += 1
        is_op = np.array([s.startswith("autodiff.") and s not in NOT_OPS for s in label])
        bench_ms = np.where(is_bench, dur, 0.0)
        for i, s in enumerate(label):
            if s.startswith("model.forward"):
                sites = [j for j in children[i] if label[j].startswith("adapters.site.")]
                if sites:
                    self.site_ms[label[sites[0]].split(".")[2]].append(
                        sum(net[j] for j in sites))
            if s != "training.train":
                continue
            self.train_ms += net[i]
            self.eval_ms += sum(net[j] for j in children[i]
                                if label[j] == "training.evaluate")
            first = None
            for j in children[i]:
                if label[j] == "model.forward_grad":
                    first = j
                elif label[j] == "training.masked_adam_step" and first is not None:
                    # rows are in start order: the step's spans are first..stop-1
                    stop = int(np.searchsorted(start, end[j], side="left"))
                    ms = (end[j] - start[first]) / 1e6 - bench_ms[first:stop].sum()
                    self.steps.append((ms, int(is_op[first:stop].sum())))
                    first = None

    def metrics(self, rounds: int) -> dict:
        detail = {}
        for s in sorted(self.calls):
            if s.startswith("autodiff.") and s not in NOT_OPS:
                op = s.split(".", 1)[1]
                detail[f"autodiff.op.{op}.calls"] = _value(self.calls[s] / rounds, "count")
                detail[f"autodiff.op.{op}.self_ms"] = _value(self.self_ms[s] / rounds, "ms")
        for op in COMMON_OPS:
            detail.setdefault(f"autodiff.op.{op}.calls", _value(0, "count"))
            detail.setdefault(f"autodiff.op.{op}.self_ms", _value(0.0, "ms"))
        for metric, span in TIMINGS.items():
            detail[metric] = _timing(self.durations.get(span, []))
        for metric, unit in MEDIANS.items():
            detail[metric] = _median(self.values.get(metric, []), unit)
        for v in VARIANTS:
            detail[f"adapters.{v}.site_ms"] = _timing(self.site_ms.get(v, []))
        detail["training.step_ms"] = _timing([ms for ms, _ in self.steps])
        detail["autodiff.ops_per_step"] = _median([k for _, k in self.steps], "count")
        detail["training.steps"] = _value(len(self.steps) / rounds, "count")
        detail["training.eval_share"] = _value(
            self.eval_ms / self.train_ms if self.train_ms else 0.0, "fraction")
        detail["cli.sweep.jobs"] = _value(self.calls.get("cli.run_sweep_job", 0) / rounds,
                                          "count")
        metrics = {}
        for name in REPORTED:
            d = detail[name]
            metrics[name] = {"value": d["value"] if d["value"] is not None else 0,
                             "unit": d["unit"]}
        return {"detail": detail, "metrics": metrics}


def _value(x, unit: str) -> dict:
    return {"value": x, "unit": unit, "n": 1}


def _median(xs: list, unit: str) -> dict:
    return {"value": statistics.median(xs) if xs else 0, "unit": unit, "n": len(xs)}


def _timing(xs: list[float]) -> dict:
    """Median, and where there are 40 or more samples the highest percentile
    that has at least ten samples beyond it."""
    out = {"value": float(statistics.median(xs)) if xs else None, "unit": "ms",
           "n": len(xs)}
    if len(xs) >= 40:
        q = 100 * (len(xs) - 10) // len(xs)
        rank = -(-q * len(xs) // 100)          # ceil(q% of n), 1-based
        out[f"p{q}"] = float(sorted(xs)[rank - 1])
    return out
