"""Desk-scale lab for pruning adapter modules at initialization."""

import os as _os

# Desk-scale matrices are too small for threaded BLAS to pay off; keep runs
# single-threaded (and timing-stable) unless the user said otherwise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .adapters import AdapterSpec, LargeSparseConfig, insert_adapters, \
    kept_param_fraction
from .autodiff import Tape, Tensor, backward, hvp, no_grad
from .data import SyntheticTaskSpec, TaskData, generate
from .model import EncoderConfig, Model, ParamGroup, build_encoder, \
    freeze_backbone, load_checkpoint, save_checkpoint
from .pruning import PruneMask, ScoreMap, apply_mask, compute_mask, \
    er_sparsities, load_mask, prune_by_percentile, save_mask, score_er, \
    score_grasp, score_magnitude, score_random, score_snip
from .training import OptimizerConfig, RunMetrics, evaluate, lr_at, \
    masked_adam_step, train

__all__ = [
    "AdapterSpec", "EncoderConfig", "LargeSparseConfig", "Model",
    "OptimizerConfig", "ParamGroup", "PruneMask", "RunMetrics", "ScoreMap",
    "SyntheticTaskSpec", "Tape", "TaskData", "Tensor", "apply_mask",
    "backward", "build_encoder", "compute_mask", "er_sparsities",
    "evaluate", "freeze_backbone", "generate", "hvp", "insert_adapters",
    "kept_param_fraction", "load_checkpoint", "load_mask", "lr_at",
    "masked_adam_step", "no_grad", "prune_by_percentile", "save_checkpoint",
    "save_mask", "score_er", "score_grasp", "score_magnitude",
    "score_random", "score_snip", "train",
]


def _pin_blas(threads: str) -> None:
    """OpenBLAS reads the variables only when it loads, which numpy may have
    done before this package: set the count on the bundled library itself."""
    import ctypes
    import glob
    import numpy
    libs = _os.path.join(_os.path.dirname(numpy.__file__), _os.pardir, "numpy.libs")
    for path in sorted(glob.glob(_os.path.join(libs, "libscipy_openblas*.so*"))):
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None and threads.isdigit() and int(threads) > 0:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(int(threads))


_pin_blas(_os.environ["OPENBLAS_NUM_THREADS"])
