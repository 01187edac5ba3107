"""Checkpoint serialization: byte-stability and guards."""

import json
import struct

import numpy as np
import pytest

from satguide.neural.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from satguide.neural.models import ModelConfig, PairInput, init_model
from satguide.neural.train import batch_scores


def model_of(arch="cnn", **kw):
    return init_model(
        ModelConfig(arch=arch, vocab_size=10, dim=4, hidden=6, seed=2, **kw),
        vocab_hash="f" * 64,
    )


def test_save_load_save_is_byte_identical():
    model = model_of()
    blob1 = save_checkpoint(model)
    blob2 = save_checkpoint(load_checkpoint(blob1))
    assert blob1 == blob2


def test_round_trip_preserves_scores_bit_exactly():
    model = model_of()
    loaded = load_checkpoint(save_checkpoint(model))
    rng = np.random.default_rng(0)
    for _ in range(100):
        ids = list(rng.integers(1, 10, size=rng.integers(1, 12)))
        conj = list(rng.integers(1, 10, size=rng.integers(1, 8)))
        pair = PairInput(clause=ids, conj=conj)
        assert batch_scores([pair], model)[0] == batch_scores([pair], loaded)[0]


def test_vocab_hash_guard():
    model = model_of()
    blob = save_checkpoint(model)
    with pytest.raises(CheckpointError):
        load_checkpoint(blob, expected_vocab_hash="0" * 64)
    load_checkpoint(blob, expected_vocab_hash="f" * 64)  # matching is fine


def test_bad_magic_rejected():
    with pytest.raises(CheckpointError):
        load_checkpoint(b"NOPE" + b"\x00" * 64)


def test_truncated_blob_rejected():
    blob = save_checkpoint(model_of())
    with pytest.raises(Exception):
        load_checkpoint(blob[: len(blob) // 2])


def test_trailing_bytes_rejected():
    blob = save_checkpoint(model_of())
    with pytest.raises(CheckpointError):
        load_checkpoint(blob + b"x")


def test_config_round_trips():
    model = model_of("wavenet", wavenet_blocks=2, wavenet_layers=3,
                     token_dropout=0.2, feature_dropout=0.2)
    loaded = load_checkpoint(save_checkpoint(model))
    assert loaded.config == model.config
    assert loaded.vocab_hash == model.vocab_hash


def with_config_keys(model, **keys) -> bytes:
    """The checkpoint of `model` with `keys` written into its config JSON."""
    text = model.config.to_json().encode()
    extra = json.dumps({**json.loads(text), **keys}, sort_keys=True).encode()
    blob = save_checkpoint(model)
    field = struct.pack("<I", len(text)) + text
    assert blob.count(field) == 1
    return blob.replace(field, struct.pack("<I", len(extra)) + extra)


def test_unknown_config_key_rejected():
    # a checkpoint with a field this version lacks must not load with defaults
    blob = with_config_keys(model_of(), layer_norm=True)
    with pytest.raises(CheckpointError, match=r"unknown model config keys \['layer_norm'\]"):
        load_checkpoint(blob)


# (arch, dropout field, rate, refused): a rate outside [0, 1] is refused,
# and so is a nonzero rate on a tower that does not read the field: either
# on a tree tower, feature_dropout on the CNN
DROPOUT_ROWS = [
    ("cnn", "token_dropout", 0.3, False),
    ("cnn", "token_dropout", -0.1, True),
    ("cnn", "feature_dropout", 0.0, False),
    ("cnn", "feature_dropout", 0.3, True),
    ("wavenet", "token_dropout", 1.0, False),
    ("wavenet", "feature_dropout", 0.5, False),
    ("wavenet", "feature_dropout", 1.5, True),
    ("wavenet", "token_dropout", float("nan"), True),
    ("tree_rnn", "token_dropout", 0.0, False),
    ("tree_rnn", "token_dropout", 0.2, True),
    ("tree_rnn", "feature_dropout", 0.2, True),
    ("tree_lstm", "token_dropout", 0.2, True),
    ("tree_lstm", "feature_dropout", 0.2, True),
]


@pytest.mark.parametrize("arch,field,rate,refused", DROPOUT_ROWS)
def test_dropout_rate_is_kept_or_refused(arch, field, rate, refused):
    kw = {"wavenet_blocks": 1, "wavenet_layers": 2} if arch == "wavenet" else {}
    blob = with_config_keys(model_of(arch, **kw), **{field: rate})
    if refused:
        with pytest.raises(ValueError, match=field):
            ModelConfig(arch=arch, vocab_size=10, **{field: rate})
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(blob)
        return
    config = ModelConfig(arch=arch, vocab_size=10, dim=4, hidden=6, seed=2, **kw,
                         **{field: rate})
    assert load_checkpoint(blob).config == config


def test_all_architectures_round_trip():
    for arch in ("cnn", "wavenet", "tree_rnn", "tree_lstm"):
        kw = {"wavenet_blocks": 1, "wavenet_layers": 2} if arch == "wavenet" else {}
        model = model_of(arch, **kw)
        loaded = load_checkpoint(save_checkpoint(model))
        for (n1, a1), (n2, a2) in zip(model.named_arrays(), loaded.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)
