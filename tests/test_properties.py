"""Property tests for the outside inputs: SACP checkpoints, SADM masks and
JSON configs. Whatever the bytes or values, a reader either returns a valid
object or raises ValueError; nothing else escapes. Through `main`, every such
input ends in exit code 0, 1 or 3, and a failure in one `error:` line."""

import contextlib
import io
import json
import os
import pathlib
import resource
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sparseadapter.adapters import AdapterSpec, insert_adapters
from sparseadapter.cli import build_model, main, parse_config, serialize_config
from sparseadapter.model import EncoderConfig, build_encoder, freeze_backbone, \
    read_checkpoint, save_checkpoint
from sparseadapter.pruning import PruneMask, load_mask, save_mask
from test_cli import DEEP, corrupted, small_config


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


def read_blob(reader, blob: bytes, scratch):
    path = scratch / "blob.bin"
    path.write_bytes(blob)
    return reader(str(path))


def check_checkpoint(blob: bytes, scratch) -> None:
    try:
        out = read_blob(read_checkpoint, blob, scratch)
    except ValueError:
        return
    for name, (arr, trainable) in out.items():
        assert isinstance(name, str)
        assert arr.dtype == np.float64 and arr.flags.writeable
        assert isinstance(trainable, bool)


def check_mask(blob: bytes, scratch) -> None:
    try:
        mask = read_blob(load_mask, blob, scratch)
    except ValueError:
        return
    assert isinstance(mask, PruneMask)
    assert isinstance(mask.method, str) and isinstance(mask.s, float)
    for arr in mask.masks.values():
        assert arr.dtype == bool and arr.ndim == 1


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch) -> bytes:
    cfg = EncoderConfig(vocab_size=4, d_model=2, n_heads=1, d_ff=2, n_layers=1,
                        max_seq_len=2, n_classes=2)
    model = build_encoder(cfg, 0)
    insert_adapters(model, AdapterSpec(variant="houlsby", r=1), 1)
    freeze_backbone(model)
    path = scratch / "real.sacp"
    save_checkpoint(model, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def mask_bytes(scratch) -> bytes:
    rng = np.random.default_rng(0)
    mask = PruneMask("snip", 0.4, 3,
                     {"a.weight": rng.random(11) < 0.5, "b.weight": rng.random(3) < 0.5})
    path = scratch / "real.sadm"
    save_mask(mask, str(path))
    return path.read_bytes()


def test_every_checkpoint_truncation_is_reported(checkpoint_bytes, scratch):
    for cut in range(len(checkpoint_bytes)):
        with pytest.raises(ValueError, match="truncated checkpoint file"):
            read_blob(read_checkpoint, checkpoint_bytes[:cut], scratch)


def test_every_mask_truncation_is_reported(mask_bytes, scratch):
    for cut in range(len(mask_bytes)):
        with pytest.raises(ValueError, match="truncated mask file"):
            read_blob(load_mask, mask_bytes[:cut], scratch)


def flips(blob: bytes):
    for bit in range(8 * len(blob)):
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        yield bytes(out)


def test_every_checkpoint_bit_flip(checkpoint_bytes, scratch):
    for blob in flips(checkpoint_bytes):
        check_checkpoint(blob, scratch)


def test_every_mask_bit_flip(mask_bytes, scratch):
    for blob in flips(mask_bytes):
        check_mask(blob, scratch)


def with_header(magic: bytes):
    return st.one_of(st.binary(max_size=64),
                     st.binary(max_size=64).map(lambda b: magic + b"\x01" + b))


@settings(deadline=None)
@given(blob=with_header(b"SACP"))
@example(blob=b"SACP")
@example(blob=b"SACP\x01\x05")
def test_any_bytes_as_checkpoint(blob, scratch):
    check_checkpoint(blob, scratch)


@settings(deadline=None)
@given(blob=with_header(b"SADM"))
def test_any_bytes_as_mask(blob, scratch):
    check_mask(blob, scratch)


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------

TASK = {"task": "token_majority", "vocab": 60, "seq_len": 8, "n_classes": 4,
        "n_train": 48, "n_eval": 24, "seed": 0}


def base_payload(data: dict) -> dict:
    return {
        "encoder": {"vocab_size": 60, "d_model": 16, "n_heads": 4, "d_ff": 32,
                    "n_layers": 2, "max_seq_len": 16, "n_classes": 4},
        "adapter": {"variant": "houlsby", "r": 4, "prefix_len": 4, "gaussian_std": 0.01},
        "prune": {"method": "snip", "s": 0.4, "seed": 0, "snip_abs": False,
                  "score_batches": 1},
        "optimizer": {"peak_lr": 1e-3, "epochs": 1, "batch_size": 16, "seed": 0},
        "data": data,
        "output_dir": "out",
        "seed": 0,
    }


BASES = [base_payload({"task": dict(TASK)}), base_payload({"path": "dataset"})]


def leaf_paths(obj, prefix=()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


LEAVES = [(i, path) for i, base in enumerate(BASES) for path in leaf_paths(base)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def test_base_payloads_are_valid():
    for base in BASES:
        parse_config(json.loads(json.dumps(base)))


@settings(deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=JSON_VALUES)
@example(leaf=(0, ("adapter", "r")), value="4")
@example(leaf=(0, ("adapter", "r")), value=4.5)
@example(leaf=(0, ("adapter", "r")), value=True)
@example(leaf=(0, ("optimizer", "epochs")), value=None)
@example(leaf=(0, ("seed",)), value="0")
@example(leaf=(0, ("prune", "s")), value="0.4")
@example(leaf=(0, ("prune", "score_batches")), value=2.5)
@example(leaf=(0, ("adapter", "gaussian_std")), value=float("inf"))
@example(leaf=(0, ("optimizer", "peak_lr")), value=10 ** 400)
def test_config_leaf_replaced_by_any_json_value(leaf, value):
    """Only parse_config runs: a random size must never build a model."""
    index, path = leaf
    payload = json.loads(json.dumps(BASES[index]))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        cfg = parse_config(payload)
    except ValueError:
        return
    assert parse_config(json.loads(serialize_config(cfg))) == cfg


# ---------------------------------------------------------------------------
# exit codes of main for any config value, checkpoint or mask bytes
# ---------------------------------------------------------------------------

# the tests/test_cli.py small config with every default spelled out, so that
# each field is a leaf
CLI_CONFIG = json.loads(serialize_config(parse_config(small_config(pathlib.Path("unused")))))
CLI_LEAVES = list(leaf_paths(CLI_CONFIG))
SENTINEL = "\x00leaf"


def _cli_files() -> tuple[bytes, bytes]:
    """A checkpoint that `eval` of CLI_CONFIG loads, and a mask file."""
    model = build_model(parse_config(CLI_CONFIG))
    rng = np.random.default_rng(0)
    mask = PruneMask("random", 0.4, 0, {n: rng.random(g.tensor.size) < 0.5
                                        for n, g in model.prunable_groups().items()})
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(model, os.path.join(d, "c"))
        save_mask(mask, os.path.join(d, "m"))
        return (pathlib.Path(d, "c").read_bytes(), pathlib.Path(d, "m").read_bytes())


CLI_CHECKPOINT, CLI_MASK = _cli_files()
# one group 'g' of 0 elements, which no prunable weight has
EMPTY_GROUP_MASK = (b"SADM\x01\x06random" + struct.pack("<dqI", 0.4, 0, 1)
                    + struct.pack("<H", 1) + b"g" + struct.pack("<Q", 0))


@contextlib.contextmanager
def memory_cap(headroom: int = 256 << 20):
    """Cap this process's address space at its current size plus `headroom`, so
    that a config too large for the machine ends in MemoryError (exit 1)
    instead of the OOM killer; Linux only, elsewhere no cap."""
    if not os.path.exists("/proc/self/statm"):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as f:
        size = int(f.read().split()[0]) * resource.getpagesize()
    cap = size + headroom if hard == resource.RLIM_INFINITY else min(size + headroom, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def check_exit_code(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with memory_cap():
            code = main(argv)
    event(f"exit code {code}")
    assert code in (0, 1, 3), code
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
            err.getvalue()


def overwritten(valid: bytes):
    """`valid` with a run of bytes replaced at some offset."""
    return st.tuples(st.integers(0, len(valid) - 1), st.binary(min_size=1, max_size=8)).map(
        lambda at: valid[:at[0]] + at[1] + valid[at[0] + len(at[1]):])


@settings(deadline=None, max_examples=300)
@given(leaf=st.sampled_from(CLI_LEAVES), text=JSON_VALUES.map(json.dumps))
@example(leaf=("encoder", "d_model"), text=DEEP)
@example(leaf=("prune", "s"), text="1.0")
@example(leaf=("prune", "seed"), text="9223372036854775808")
@example(leaf=("adapter", "variant"), text=json.dumps("a\nb"))
def test_prune_exit_code_for_any_config_value(leaf, text, scratch):
    payload = json.loads(json.dumps(CLI_CONFIG))
    node = payload
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = SENTINEL
    config = scratch / "any.json"
    config.write_text(json.dumps(payload).replace(json.dumps(SENTINEL), text))
    check_exit_code(["prune", "--config", str(config), "--out", str(scratch / "prune")])


@settings(deadline=None, max_examples=200)
@given(blob=with_header(b"SACP") | overwritten(CLI_CHECKPOINT))
@example(blob=CLI_CHECKPOINT)
@example(blob=corrupted(CLI_CHECKPOINT, "nan"))
@example(blob=corrupted(CLI_CHECKPOINT, "flag"))
def test_eval_exit_code_for_any_checkpoint_bytes(blob, scratch):
    config = scratch / "cli.json"
    config.write_text(json.dumps(CLI_CONFIG))
    checkpoint = scratch / "any.sacp"
    checkpoint.write_bytes(blob)
    check_exit_code(["eval", "--config", str(config), "--checkpoint", str(checkpoint)])


@settings(deadline=None, max_examples=300)
@given(blob=with_header(b"SADM") | overwritten(CLI_MASK))
@example(blob=CLI_MASK)
@example(blob=EMPTY_GROUP_MASK)
@example(blob=CLI_MASK[:395] + b"\n\x01" + CLI_MASK[397:])
def test_inspect_mask_exit_code_for_any_bytes(blob, scratch):
    mask = scratch / "any.sadm"
    mask.write_bytes(blob)
    check_exit_code(["inspect-mask", "--mask", str(mask)])
