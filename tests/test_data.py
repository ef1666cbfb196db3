"""Synthetic task generator and JSONL format tests."""

import hashlib

import numpy as np
import pytest

from sparseadapter.data import (MARKERS_PER_CLASS, Split, SyntheticTaskSpec,
                                generate, load_dir, read_jsonl, write_jsonl,
                                _majority_class)


def spec(**kw):
    base = dict(task="token_majority", vocab=100, seq_len=10, n_classes=4,
                n_train=80, n_eval=40, seed=1)
    base.update(kw)
    return SyntheticTaskSpec(**base)


def test_deterministic_in_seed():
    a = generate(spec())
    b = generate(spec())
    assert a.train.tokens.tobytes() == b.train.tokens.tobytes()
    assert a.train.labels.tobytes() == b.train.labels.tobytes()
    c = generate(spec(seed=2))
    assert a.train.tokens.tobytes() != c.train.tokens.tobytes()


def test_train_eval_disjoint():
    data = generate(spec())
    train_rows = {row.tobytes() for row in data.train.tokens}
    eval_rows = {row.tobytes() for row in data.eval.tokens}
    assert not train_rows & eval_rows


def test_shapes_and_ranges():
    data = generate(spec())
    assert data.train.tokens.shape == (80, 10)
    assert data.eval.tokens.shape == (40, 10)
    assert data.train.tokens.min() >= 0
    assert data.train.tokens.max() < 100
    assert set(np.unique(data.train.labels)) <= set(range(4))


def test_token_majority_labels_consistent():
    data = generate(spec())
    for row, label in zip(data.train.tokens, data.train.labels):
        assert label == _majority_class(row, 4)


def test_keyed_lookup_labels_consistent():
    data = generate(spec(task="keyed_lookup"))
    for row, label in zip(data.train.tokens, data.train.labels):
        key = 100 - 1 - row[0]
        assert 0 <= key < 4
        assert label == (_majority_class(row[1:], 4) + key) % 4


def test_parity_window_labels_consistent():
    data = generate(spec(task="parity_window", n_classes=2))
    for row, label in zip(data.train.tokens, data.train.labels):
        assert label == int(np.sum(row == 0)) % 2


def test_noise_rate_flips_some_labels():
    clean = generate(spec())
    noisy = generate(spec(noise_rate=0.5))
    assert np.any(clean.train.labels != noisy.train.labels)


def test_validation():
    with pytest.raises(ValueError):
        generate(spec(task="nope"))
    with pytest.raises(ValueError):
        generate(spec(vocab=10))
    with pytest.raises(ValueError):
        generate(spec(n_classes=1))


def test_too_few_distinct_rows_fails_instead_of_hanging():
    # token_majority over 20 tokens with seq_len 2 has only 196 distinct rows
    hang = spec(vocab=20, n_classes=2, seq_len=2, n_train=500, n_eval=100, seed=0)
    with pytest.raises(ValueError, match="196 distinct rows"):
        generate(hang)


@pytest.mark.parametrize("kw,digest", [
    (dict(task="token_majority", noise_rate=0.1), "53a948c2cfce09e9"),
    (dict(task="keyed_lookup", noise_rate=0.1), "776f678255a4a5a8"),
    (dict(task="parity_window", noise_rate=0.1), "29180950ae60a2f8"),
    # 190 of the 196 rows above: many duplicate draws, still within the bound
    (dict(vocab=20, n_classes=2, seq_len=2, n_train=150, n_eval=40, seed=0),
     "c7333c3b41a3465c"),
])
def test_generated_rows_are_pinned(kw, digest):
    data = generate(spec(**kw))
    h = hashlib.sha256()
    for arr in (data.train.tokens, data.train.labels, data.eval.tokens,
                data.eval.labels):
        h.update(arr.tobytes())
    assert h.hexdigest()[:16] == digest


def test_jsonl_roundtrip(tmp_path):
    data = generate(spec())
    path = str(tmp_path / "train.jsonl")
    write_jsonl(data.train, path)
    back = read_jsonl(path)
    assert np.array_equal(back.tokens, data.train.tokens)
    assert np.array_equal(back.labels, data.train.labels)


def test_load_dir(tmp_path):
    data = generate(spec())
    write_jsonl(data.train, str(tmp_path / "train.jsonl"))
    write_jsonl(data.eval, str(tmp_path / "eval.jsonl"))
    loaded = load_dir(str(tmp_path))
    assert np.array_equal(loaded.train.tokens, data.train.tokens)
    assert np.array_equal(loaded.eval.labels, data.eval.labels)


def test_bad_records_rejected(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as f:
        f.write('{"tokens": [1, 2], "label": 0}\n')
        f.write('{"tokens": "oops"}\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_jsonl(path)


@pytest.mark.parametrize("record", [
    '{"tokens": "12", "label": 0}', '{"tokens": [1, 2], "label": true}',
    '{"tokens": [1, 2.5], "label": 0}', '{"tokens": [1, 2], "label": 7.9}',
    '{"tokens": [1, false], "label": 0}', '{"tokens": [1, 1e400], "label": 0}',
    '{"tokens": [1, 99999999999999999999], "label": 0}', '[1, 2]',
    '{"tokens": [], "label": 0}'])
def test_records_of_the_wrong_type_rejected(tmp_path, record):
    # no string, bool or float is read as an int, an int past int64 is no traceback,
    # and no record is empty (a file of them would reach the model as a 0-wide batch)
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as f:
        f.write('{"tokens": [1, 2], "label": 0}\n')
        f.write(record + "\n")
    with pytest.raises(ValueError, match="bad.jsonl:2: bad dataset record"):
        read_jsonl(path)


def test_inconsistent_lengths_rejected(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as f:
        f.write('{"tokens": [1, 2], "label": 0}\n')
        f.write('{"tokens": [1, 2, 3], "label": 1}\n')
    with pytest.raises(ValueError, match="inconsistent"):
        read_jsonl(path)


def test_empty_file_rejected(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    with pytest.raises(ValueError, match="empty"):
        read_jsonl(path)


def test_blank_lines_hold_no_record_but_keep_their_line_numbers(tmp_path):
    rows = ['{"tokens": [1, 2], "label": 0}', '{"tokens": [3, 4], "label": 1}']
    plain, spaced = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
    plain.write_text("\n".join(rows) + "\n")
    spaced.write_text(rows[0] + "\n\n" + rows[1] + "\n\n")
    a, b = read_jsonl(str(plain)), read_jsonl(str(spaced))
    assert np.array_equal(a.tokens, b.tokens) and np.array_equal(a.labels, b.labels)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(rows[0] + "\n\n" + '{"tokens": "oops"}\n')
    with pytest.raises(ValueError, match="bad.jsonl:3: bad dataset record"):
        read_jsonl(str(bad))
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n \n\n")
    with pytest.raises(ValueError, match="blank.jsonl: empty dataset"):
        read_jsonl(str(blank))


def test_marker_band_layout():
    # class markers occupy the low token ids, one band per class
    data = generate(spec())
    band_hits = data.train.tokens < 4 * MARKERS_PER_CLASS
    assert band_hits.any()
