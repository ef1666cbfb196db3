"""The benchmark's traced run wraps the adapter-site methods and module
functions by name: a renamed site method is a KeyError there, and a renamed
private boundary is skipped without a word. This runs one forward and
backward per variant under its tracer, and checks both private boundaries."""

import sys
from pathlib import Path

import numpy as np

import sparseadapter.autodiff as ad
from sparseadapter import cli, pruning  # the tracer wraps every module
from sparseadapter.adapters import VARIANTS, AdapterSpec, insert_adapters
from sparseadapter.model import EncoderConfig, build_encoder, freeze_backbone

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_tracer_times_every_variant_adapter_sites(tmp_path):
    cfg = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, d_ff=32, n_layers=1,
                        max_seq_len=8, n_classes=4)
    rng = np.random.default_rng(0)
    tokens, labels = rng.integers(0, 50, (2, 6)), rng.integers(0, 4, 2)
    tracer = spans.Tracer(tmp_path)
    with tracer.installed():
        for variant in VARIANTS:
            m = build_encoder(cfg, 0)
            insert_adapters(m, AdapterSpec(variant=variant, r=4), 1)
            freeze_backbone(m)
            params = {n: g.tensor for n, g in m.trainable_groups().items()}
            ad.backward(m.loss(tokens, labels), params)
    tracer.dump(tmp_path / "main.npz")
    detail = tracer.reduce(1)["detail"]
    for variant in VARIANTS:
        assert detail[f"adapters.{variant}.site_ms"]["n"] >= 1, variant


def test_tracer_wraps_the_private_boundaries(tmp_path):
    # the tracer skips a private boundary whose name it no longer finds
    with spans.Tracer(tmp_path).installed():
        assert hasattr(cli._run_sweep_job, "__wrapped__")
        assert hasattr(pruning._sum_grads, "__wrapped__")
