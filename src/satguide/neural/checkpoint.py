"""Checkpoint serialization.

Layout: magic, format version, architecture tag, vocabulary hash, the
model config as canonical JSON, then each parameter as (name, shape,
little-endian float32 data) in declared parameter order. Parameters are
kept float32-representable in memory, so save -> load -> save is
byte-identical and scores match bit-exactly across a round trip.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from .models import ModelConfig, ModelParams
from . import tensor as T

MAGIC = b"SGNN"
VERSION = 1


class CheckpointError(Exception):
    pass


def _write_str(buf: io.BytesIO, s: str):
    data = s.encode()
    buf.write(struct.pack("<I", len(data)))
    buf.write(data)


def _read_str(buf: io.BytesIO) -> str:
    (n,) = struct.unpack("<I", buf.read(4))
    return buf.read(n).decode()


def save_checkpoint(model: ModelParams) -> bytes:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    _write_str(buf, model.config.arch)
    _write_str(buf, model.vocab_hash)
    _write_str(buf, model.config.to_json())
    buf.write(struct.pack("<I", len(model.params)))
    for name, arr in model.named_arrays():
        _write_str(buf, name)
        buf.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            buf.write(struct.pack("<I", d))
        buf.write(arr.astype("<f4").tobytes())
    return buf.getvalue()


def load_checkpoint(data: bytes, expected_vocab_hash: str | None = None) -> ModelParams:
    buf = io.BytesIO(data)
    if buf.read(4) != MAGIC:
        raise CheckpointError("bad magic bytes")
    (version,) = struct.unpack("<I", buf.read(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    arch = _read_str(buf)
    vocab_hash = _read_str(buf)
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise CheckpointError(
            "vocabulary hash mismatch: the model was trained against a "
            "different vocabulary"
        )
    try:
        config = ModelConfig.from_json(_read_str(buf))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    if config.arch != arch:
        raise CheckpointError("architecture tag disagrees with config")
    (n_params,) = struct.unpack("<I", buf.read(4))
    params = {}
    for _ in range(n_params):
        name = _read_str(buf)
        (ndim,) = struct.unpack("<B", buf.read(1))
        shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = buf.read(4 * count)
        if len(raw) != 4 * count:
            raise CheckpointError(f"truncated data for parameter {name}")
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)
        params[name] = T.parameter(arr)
    if buf.read(1):
        raise CheckpointError("trailing bytes after parameters")
    return ModelParams(config, params, vocab_hash)


def save_checkpoint_file(model: ModelParams, path: str):
    with open(path, "wb") as fh:
        fh.write(save_checkpoint(model))


def load_checkpoint_file(path: str, expected_vocab_hash: str | None = None) -> ModelParams:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read(), expected_vocab_hash)
