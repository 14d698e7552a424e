"""Binary checkpoint container and the per-step training log.

Layout: magic ``DLMC``, one version byte, a u32-length-prefixed UTF-8
JSON config block, a u32 record count, then per parameter a u16 name
length + name, u8 ndim, u32 dims and the float32 little-endian values.
"""

from __future__ import annotations

import json
import struct
from typing import IO

import numpy as np

from .tensor import Tensor

CHECKPOINT_MAGIC = b"DLMC"
CHECKPOINT_VERSION = 1


def save_checkpoint(stream: IO[bytes], config: dict, params: dict[str, Tensor]) -> None:
    stream.write(CHECKPOINT_MAGIC)
    stream.write(bytes([CHECKPOINT_VERSION]))
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    stream.write(struct.pack("<I", len(blob)))
    stream.write(blob)
    stream.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        data = np.ascontiguousarray(params[name].data, dtype="<f4")
        encoded = name.encode("utf-8")
        stream.write(struct.pack("<H", len(encoded)))
        stream.write(encoded)
        stream.write(struct.pack("<B", data.ndim))
        stream.write(struct.pack(f"<{data.ndim}I", *data.shape))
        stream.write(data.tobytes())


def _read_exact(stream: IO[bytes], n: int) -> bytes:
    raw = stream.read(n)
    if len(raw) != n:
        raise ValueError("truncated checkpoint")
    return raw


def load_checkpoint(stream: IO[bytes]) -> tuple[dict, dict[str, np.ndarray]]:
    if _read_exact(stream, 4) != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    version = _read_exact(stream, 1)[0]
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (config_len,) = struct.unpack("<I", _read_exact(stream, 4))
    config = json.loads(_read_exact(stream, config_len).decode("utf-8"))
    (count,) = struct.unpack("<I", _read_exact(stream, 4))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(stream, 2))
        name = _read_exact(stream, name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(stream, 1))
        shape = struct.unpack(f"<{ndim}I", _read_exact(stream, 4 * ndim))
        size = int(np.prod(shape)) if shape else 1
        values = np.frombuffer(_read_exact(stream, 4 * size), dtype="<f4").reshape(shape)
        if name in params:
            raise ValueError(f"duplicate parameter {name!r} in checkpoint")
        params[name] = values.copy()
    return config, params


def format_log_line(step: int, lr: float, loss: float) -> str:
    """One training-log line: ``step<TAB>lr<TAB>loss``."""
    return f"{step}\t{lr:.12g}\t{loss:.12g}"
