"""Run one benchmark workload through sparseadapter's command line.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from its `src/`.
The workload's commands go through `sparseadapter.cli.main` in this fresh
interpreter, closed loop, in as many whole rounds as fit in `--seconds` at
the workload's nominal round length. The outputs are then checked apart from
the program. The last line of standard output is one JSON object with the
verdict and the metrics: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. A traced run makes the untraced rounds
first and then the same rounds traced, so that it can report the tracing
overhead. Everything a run writes stays under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 31
WORKLOADS = ("desk-train", "score-variants", "ls-sweep")

E2E_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import the checkout's sparseadapter before numpy, as its console entry
    point does, so that the package's BLAS thread pin applies."""
    if not (SRC / "sparseadapter" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sparseadapter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from sparseadapter import autodiff, cli
    return cli, autodiff


def blas_threads(np) -> int | None:
    """Threads the bundled OpenBLAS will actually use, asked of the library."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so*")
    for path in sorted(glob.glob(pattern)):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    src_lines = 0
    for path in sorted((SRC / "sparseadapter").rglob("*.py")):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(np),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "src_lines": src_lines}


def run_command(cli, cmd) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(cmd.argv)
    except Exception:  # a traceback is one failed operation; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return {"kind": cmd.kind, "tag": cmd.tag, "wall_s": time.perf_counter() - t0,
            "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_rounds(cli, checks, plan, seconds: float) -> list[dict]:
    """As many whole rounds as fit in `seconds` at the workload's nominal
    round length, at least one. The count does not depend on how fast this
    run goes, so every run of a workload makes the same operations."""
    rounds = []
    for _ in range(max(1, int(seconds // plan.nominal_round_s))):
        t0 = time.perf_counter()
        commands = [run_command(cli, c) for c in plan.round]
        wall = time.perf_counter() - t0
        rounds.append({"wall_s": wall, "commands": commands, "rss_mb": peak_rss_mb(),
                       "digest": checks.tree_digest(plan.work)})
    return rounds


def measure_setup(cli, plan) -> list[float]:
    """What each command does before its first step: parse the config, build
    the model with adapters, generate or load the data."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for tag in plan.setup_tags:
            cfg = cli.parse_config(plan.configs[tag])
            cli.build_model(cfg)
            cli.load_data(cfg)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest child. It is
    read after the first round: the heap keeps growing a little with every
    round, which would tie the figure to the round count."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def workload_figures(plan, rounds) -> dict:
    """The workload's own end-to-end figures, each a median over rounds."""
    def med(pick):
        return statistics.median(sum(c["wall_s"] for c in r["commands"] if pick(c))
                                 for r in rounds)

    cfg = next(iter(plan.configs.values()))
    if plan.name == "desk-train":
        opt, task = cfg["optimizer"], cfg["data"]["task"]
        return {
            "prune_s": (med(lambda c: c["kind"] == "prune"), "s"),
            "train_samples_per_s": (opt["epochs"] * task["n_train"]
                                    / med(lambda c: c["kind"] == "train"), "samples/s"),
            "eval_samples_per_s": (task["n_eval"] / med(lambda c: c["kind"] == "eval"),
                                   "samples/s"),
        }
    if plan.name == "score-variants":
        return {
            "prune_s": (med(lambda c: c["kind"] == "prune"), "s"),
            "grasp_prune_s": (med(lambda c: c["tag"].endswith("/grasp")), "s"),
        }
    return {"sweep_runs_per_min": (60.0 * plan.sweep_jobs
                                   / med(lambda c: c["kind"] == "sweep"), "runs/min")}


def verify(plan, rounds, cli, ad, checks) -> tuple[dict, list[str]]:
    fails = []
    for r in rounds:
        for c in r["commands"]:
            if c["rc"] != 0:
                fails.append(f"{c['kind']} {c['tag']} exited {c['rc']}: "
                             f"{c['stderr'].strip()[-300:]}")
    if any(r["digest"] != rounds[0]["digest"] for r in rounds):
        fails.append("outputs differ between rounds of the same inputs")
    if plan.name == "desk-train":
        eval_out = next(c["stdout"] for c in rounds[-1]["commands"] if c["kind"] == "eval")
        figures, more = checks.verify_desk_train(plan, cli, ad, eval_out)
    elif plan.name == "score-variants":
        figures, more = checks.verify_score_variants(plan, cli, ad)
    else:
        figures, more = checks.verify_ls_sweep(plan)
    return figures, fails + more


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, ad = load_program()
    import checks
    import workloads

    env = environment()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        plan = workloads.PLANS[args.workload](str(work), args.seed)
        setup = measure_setup(cli, plan)
        rounds = run_rounds(cli, checks, plan, args.seconds)
        traced_rounds, layers = [], None
        if args.trace:
            import spans
            span_dir = OUT / f"spans-{args.workload}-seed{args.seed}"
            shutil.rmtree(span_dir, ignore_errors=True)
            tracer = spans.Tracer(span_dir)
            with tracer.installed():
                traced_rounds = run_rounds(cli, checks, plan, args.seconds)
            tracer.dump(span_dir / "main.npz")
            layers = tracer.reduce(len(traced_rounds))
            layers["tracing_overhead"] = (
                statistics.median(r["wall_s"] for r in traced_rounds)
                / statistics.median(r["wall_s"] for r in rounds) - 1.0)
        figures, fails = verify(plan, rounds + traced_rounds, cli, ad, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = {"setup_s": statistics.median(setup),
           "round_s": statistics.median(r["wall_s"] for r in rounds),
           "peak_rss_mb": rounds[0]["rss_mb"]}
    table = {k: (v, E2E_UNITS[k]) for k, v in e2e.items()}
    table.update(workload_figures(plan, rounds))
    if figures.get("final_eval_accuracy") is not None:
        table["final_eval_accuracy"] = (figures["final_eval_accuracy"], "fraction")
    attempted = sum(len(r["commands"]) for r in rounds + traced_rounds)
    failed = sum(1 for r in rounds + traced_rounds for c in r["commands"] if c["rc"] != 0)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": not fails,
        "failures": fails, "attempted": attempted, "failed": failed,
        "setup_s": setup, "end_to_end": {k: {"value": v, "unit": u}
                                         for k, (v, u) in table.items()},
        "rounds": [{"wall_s": r["wall_s"],
                    "commands": [{k: c[k] for k in ("kind", "tag", "wall_s", "rc")}
                                 for c in r["commands"]]} for r in rounds],
    }
    if layers is not None:
        record["per_layer"] = layers
    result = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{attempted} commands, {failed} failed")
    for name, (value, unit) in table.items():
        print(f"  {name:<24} {value:12.4f} {unit}")
    if layers is not None:
        print(f"  tracing overhead {100 * layers['tracing_overhead']:.1f}% of round_s; "
              f"per-layer detail in {result.relative_to(ROOT)}")
    for line in fails:
        print(f"  FAIL {line}")

    if args.trace:
        metrics = layers["metrics"]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
