"""Encoder tests: shape contracts, determinism, freeze semantics, checkpoint
round trips."""

import os
import struct

import numpy as np
import pytest

import sparseadapter.autodiff as ad
from sparseadapter.adapters import AdapterSpec, insert_adapters
from sparseadapter.model import (EncoderConfig, _write_file, build_encoder,
                                 freeze_backbone, load_checkpoint, read_checkpoint,
                                 save_checkpoint)

SMALL = EncoderConfig(vocab_size=50, d_model=16, n_heads=4, d_ff=32, n_layers=2,
                      max_seq_len=16, n_classes=4)


def small_model(seed=0):
    return build_encoder(EncoderConfig(**vars(SMALL)), seed)


def rand_tokens(rng, batch, seq, vocab=50):
    return rng.integers(0, vocab, (batch, seq))


def test_attention_weight_shapes():
    cfg = EncoderConfig(vocab_size=100, d_model=64, n_heads=4, d_ff=128,
                        n_layers=2, max_seq_len=16, n_classes=3)
    m = build_encoder(cfg, 0)
    assert m.param("layer0.attn.q.weight").shape == (64, 64)
    assert m.param("layer1.attn.o.weight").shape == (64, 64)
    assert m.param("head.weight").shape == (64, 3)


def test_same_seed_same_bytes():
    a = small_model(3)
    b = small_model(3)
    assert set(a.groups) == set(b.groups)
    for name in a.groups:
        assert a.groups[name].tensor.data.tobytes() == \
            b.groups[name].tensor.data.tobytes()


def test_different_seed_differs():
    a = small_model(3)
    b = small_model(4)
    assert a.param("layer0.attn.q.weight").data.tobytes() != \
        b.param("layer0.attn.q.weight").data.tobytes()


def test_head_divisibility_error():
    with pytest.raises(ValueError):
        build_encoder(EncoderConfig(d_model=63, n_heads=4), 0)


def test_bad_config_fields():
    with pytest.raises(ValueError):
        build_encoder(EncoderConfig(n_layers=0), 0)


def test_group_names_unique_and_stable():
    a = small_model(0)
    b = small_model(0)
    assert list(a.groups) == list(b.groups)
    assert len(set(a.groups)) == len(a.groups)


def test_logits_shape():
    m = small_model(0)
    rng = np.random.default_rng(0)
    logits = m.forward(rand_tokens(rng, 2, 8))
    assert logits.shape == (2, 4)


def test_forward_purity():
    m = small_model(0)
    freeze_backbone(m)
    rng = np.random.default_rng(1)
    tokens = rand_tokens(rng, 3, 8)
    with ad.no_grad():
        a = m.forward(tokens).data
        b = m.forward(tokens).data
    assert a.tobytes() == b.tobytes()


def test_batch_permutation_permutes_logits():
    m = small_model(0)
    rng = np.random.default_rng(2)
    tokens = rand_tokens(rng, 6, 8)
    perm = rng.permutation(6)
    with ad.no_grad():
        base = m.forward(tokens).data
        shuffled = m.forward(tokens[perm]).data
    assert np.allclose(shuffled, base[perm], atol=1e-12)


def test_forward_input_validation():
    m = small_model(0)
    with pytest.raises(ValueError):
        m.forward(np.array([[0, 1, 50]]))          # out of vocab
    with pytest.raises(ValueError):
        m.forward(np.zeros((1, 17), dtype=int))    # over max_seq_len
    with pytest.raises(ValueError):
        m.forward(np.array([[0, -1]]))


def test_logit_finiteness_many_batches():
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=9)
    freeze_backbone(m)
    rng = np.random.default_rng(3)
    with ad.no_grad():
        for _ in range(1000):
            logits = m.forward(rand_tokens(rng, 2, int(rng.integers(2, 16))))
            assert np.all(np.isfinite(logits.data))


def test_embedding_lookup_paths_agree():
    # trainable and frozen embeddings share one take_rows path; the values agree
    m = small_model(5)
    rng = np.random.default_rng(5)
    tokens = rand_tokens(rng, 2, 6)
    with ad.no_grad():
        trainable = m.forward(tokens).data
    freeze_backbone(m)
    with ad.no_grad():
        frozen = m.forward(tokens).data
    assert np.allclose(trainable, frozen, atol=1e-12)


def test_freeze_backbone_contract():
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=1)
    freeze_backbone(m)
    trainables = {n for n, g in m.groups.items() if g.trainable}
    assert trainables == m.adapter_group_names | m.head_group_names
    for name in m.backbone_group_names():
        assert not m.groups[name].tensor.requires_grad


def test_frozen_params_get_no_gradients():
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=1)
    freeze_backbone(m)
    rng = np.random.default_rng(4)
    tokens = rand_tokens(rng, 4, 8)
    labels = rng.integers(0, 4, 4)
    loss = m.loss(tokens, labels)
    tape_ids = {t._id for t in ad.Tape.from_output(loss).nodes}
    for name in m.backbone_group_names():
        assert m.groups[name].tensor._id not in tape_ids or \
            not m.groups[name].tensor.requires_grad


def test_checkpoint_roundtrip(tmp_path):
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=1)
    freeze_backbone(m)
    path = str(tmp_path / "model.sacp")
    save_checkpoint(m, path)

    other = small_model(99)
    insert_adapters(other, AdapterSpec(variant="houlsby", r=4), seed=98)
    load_checkpoint(other, path)
    for name in m.groups:
        assert other.groups[name].tensor.data.tobytes() == \
            m.groups[name].tensor.data.tobytes()
        assert other.groups[name].trainable == m.groups[name].trainable

    # byte-exact round trip through a second save
    path2 = str(tmp_path / "model2.sacp")
    save_checkpoint(other, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_trainability_has_one_owner(tmp_path):
    # a group reads its tensor's flag, and only set_trainable writes it
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=1)
    pg = m.groups["layer0.attn.q.weight"]
    with pytest.raises(AttributeError):
        pg.trainable = False
    m.set_trainable(pg.name, False)
    assert not pg.tensor.requires_grad and not pg.trainable
    m.set_trainable(pg.name, True)
    assert pg.tensor.requires_grad and pg.trainable
    name = "layer0.attn.adapter.down.weight"
    with pytest.raises(ValueError, match=f"group '{name}': prunable implies trainable"):
        m.set_trainable(name, False)
    m.groups[name].tensor.requires_grad = False     # forged, as in a hand-made file
    path = str(tmp_path / "model.sacp")
    save_checkpoint(m, path)
    other = small_model(0)
    insert_adapters(other, AdapterSpec(variant="houlsby", r=4), seed=1)
    with pytest.raises(ValueError, match=f"group '{name}': prunable implies trainable"):
        load_checkpoint(other, path)


def test_checkpoint_cannot_freeze_a_prunable_group(tmp_path):
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=1)
    freeze_backbone(m)
    name = "layer0.attn.adapter.down.weight"
    m.groups[name].tensor.requires_grad = False     # a state only a hand-made file holds
    path = str(tmp_path / "model.sacp")
    save_checkpoint(m, path)
    other = small_model(0)
    insert_adapters(other, AdapterSpec(variant="houlsby", r=4), seed=1)
    with pytest.raises(ValueError, match=f"group '{name}': prunable implies trainable"):
        load_checkpoint(other, path)


def test_rejected_checkpoint_leaves_the_model_unchanged(tmp_path):
    # the file is refused at a late group; no earlier group may be written
    m = small_model(0)
    insert_adapters(m, AdapterSpec(variant="houlsby", r=4), seed=1)
    freeze_backbone(m)
    name = "layer1.ffn.adapter.down.weight"
    assert list(m.groups).index(name) > len(m.groups) // 2
    m.groups[name].tensor.requires_grad = False
    path = str(tmp_path / "model.sacp")
    save_checkpoint(m, path)
    other = small_model(99)
    insert_adapters(other, AdapterSpec(variant="houlsby", r=4), seed=98)
    before = {n: (g.tensor.data.tobytes(), g.trainable) for n, g in other.groups.items()}
    with pytest.raises(ValueError, match=f"group '{name}': prunable implies trainable"):
        load_checkpoint(other, path)
    assert {n: (g.tensor.data.tobytes(), g.trainable)
            for n, g in other.groups.items()} == before


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.sacp")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_checkpoint(path)


def test_a_write_that_fails_midway_leaves_the_earlier_file(tmp_path):
    # every group is packed before model.sacp.tmp is made, so a group that
    # cannot be packed leaves no file behind
    m = small_model(0)
    path = tmp_path / "model.sacp"
    save_checkpoint(m, str(path))
    before = path.read_bytes()
    assert os.listdir(tmp_path) == ["model.sacp"]
    m.groups[list(m.groups)[-1]].tensor.data = np.array(["not a number"], dtype=object)
    with pytest.raises(ValueError):
        save_checkpoint(m, str(path))      # after every other group is packed
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.sacp"]


def test_text_is_written_as_utf8_with_its_own_line_ends(tmp_path):
    path = tmp_path / "notes.txt"
    _write_file(str(path), "a\nb\n")
    assert path.read_bytes() == b"a\nb\n"
    _write_file(str(path), "\u00e9\r\n")
    assert path.read_bytes() == b"\xc3\xa9\r\n"
    assert os.listdir(tmp_path) == ["notes.txt"]


def test_checkpoint_group_mismatch(tmp_path):
    m = small_model(0)
    path = str(tmp_path / "model.sacp")
    save_checkpoint(m, path)
    other = build_encoder(EncoderConfig(vocab_size=50, d_model=16, n_heads=4,
                                        d_ff=32, n_layers=1, max_seq_len=16,
                                        n_classes=4), 0)
    with pytest.raises(ValueError, match="mismatch"):
        load_checkpoint(other, path)


def test_checkpoint_repeated_group_rejected(tmp_path):
    # a second entry under a name already read must not silently win
    m = small_model(0)
    path = str(tmp_path / "model.sacp")
    save_checkpoint(m, path)
    blob = bytearray(open(path, "rb").read())
    name = next(iter(m.groups))
    shape = m.groups[name].tensor.shape
    raw = name.encode("utf-8")
    blob += struct.pack(f"<H{len(raw)}sB{len(shape)}IB", len(raw), raw, len(shape),
                        *shape, 1) + np.ones(shape).astype("<f8").tobytes()
    blob[5:9] = struct.pack("<I", len(m.groups) + 1)
    with open(path, "wb") as f:
        f.write(blob)
    with pytest.raises(ValueError, match=f"repeated group '{name}' in checkpoint file"):
        read_checkpoint(path)
    with pytest.raises(ValueError, match="repeated group"):
        load_checkpoint(small_model(1), path)
