"""Tests for the binary checkpoint container."""

import io
import struct

import numpy as np
import pytest

from desklm.neural.checkpoint import load_checkpoint, save_checkpoint
from desklm.neural.tensor import Tensor


def _saved(params: dict) -> bytes:
    stream = io.BytesIO()
    save_checkpoint(stream, {"layers": 1}, params)
    return stream.getvalue()


class TestCheckpoint:
    def test_round_trip(self):
        params = {"b": Tensor(np.arange(3, dtype=np.float32)), "a": Tensor(np.ones((2, 2)))}
        config, loaded = load_checkpoint(io.BytesIO(_saved(params)))
        assert config == {"layers": 1}
        assert sorted(loaded) == ["a", "b"]
        for name, tensor in params.items():
            np.testing.assert_array_equal(loaded[name], tensor.data.astype(np.float32))

    def test_duplicate_parameter_name_rejected(self):
        empty = _saved({})
        record = _saved({"w": Tensor(np.zeros(2, dtype=np.float32))})[len(empty):]
        # Header without its record count, then two copies of the same record.
        data = empty[:-4] + struct.pack("<I", 2) + record + record
        with pytest.raises(ValueError, match="duplicate parameter 'w'"):
            load_checkpoint(io.BytesIO(data))
