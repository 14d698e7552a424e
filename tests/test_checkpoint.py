"""Tests for the ``.npz`` checkpoint archive."""

import io
import zipfile

import numpy as np
import pytest

from desklm.neural.checkpoint import CONFIG_ENTRY, load_checkpoint, save_checkpoint
from desklm.neural.tensor import Tensor


def _saved(params: dict) -> bytes:
    stream = io.BytesIO()
    save_checkpoint(stream, {"layers": 1}, params)
    return stream.getvalue()


def _archive(entries: list) -> bytes:
    """A zip archive holding each (name, array) as a ``.npy`` entry."""
    stream = io.BytesIO()
    with zipfile.ZipFile(stream, "w") as archive:
        for name, array in entries:
            with archive.open(f"{name}.npy", "w") as entry:
                np.lib.format.write_array(entry, array, allow_pickle=True)
    return stream.getvalue()


CONFIG = (CONFIG_ENTRY, np.array('{"layers": 1}'))


def _assert_round_trip(params: dict) -> None:
    config, loaded = load_checkpoint(io.BytesIO(_saved(params)))
    assert config == {"layers": 1}
    assert sorted(loaded) == sorted(params)
    for name, tensor in params.items():
        assert loaded[name].dtype == tensor.data.dtype
        assert loaded[name].shape == tensor.data.shape
        assert loaded[name].tobytes() == tensor.data.tobytes()
        assert loaded[name].flags.writeable


class TestCheckpoint:
    def test_round_trip(self):
        _assert_round_trip(
            {"b": Tensor(np.arange(3, dtype=np.float32)), "a": Tensor(np.ones((2, 2)))}
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_keeps_dtype_shape_and_bytes(self, dtype):
        rng = np.random.default_rng(0)
        params = {
            "tok_emb": Tensor(rng.standard_normal((5, 3)).astype(dtype)),
            "ln.g": Tensor(rng.standard_normal(3).astype(dtype)),
            "arc.b": Tensor(np.array(0.25, dtype=dtype)),
        }
        _assert_round_trip(params)

    def test_np_load_reads_the_archive(self):
        params = {"w": Tensor(np.arange(3.0))}
        with np.load(io.BytesIO(_saved(params)), allow_pickle=False) as archive:
            assert sorted(archive.files) == [CONFIG_ENTRY, "w"]
            assert archive["w"].tobytes() == params["w"].data.tobytes()

    def test_names_that_np_savez_takes_as_its_arguments(self):
        _assert_round_trip({"file": Tensor(np.ones(2)), "allow_pickle": Tensor(np.zeros(1))})

    def test_same_model_saves_to_same_bytes(self):
        params = {"b": Tensor(np.arange(3.0)), "a": Tensor(np.ones((2, 2), dtype=np.float32))}
        assert _saved(params) == _saved(dict(reversed(params.items())))

    def test_stream_position_is_end_of_archive(self):
        stream = io.BytesIO(b"head")
        stream.seek(4)
        save_checkpoint(stream, {"layers": 1}, {"w": Tensor(np.ones(2))})
        assert stream.tell() == len(stream.getvalue())
        stream.seek(4)
        assert load_checkpoint(stream)[0] == {"layers": 1}

    def test_duplicate_parameter_name_rejected(self):
        with pytest.warns(UserWarning, match="Duplicate name"):
            data = _archive([CONFIG, ("w", np.zeros(2)), ("w", np.ones(2))])
        with pytest.raises(ValueError, match="entry 'w' appears more than once"):
            load_checkpoint(io.BytesIO(data))


class TestMalformed:
    def test_empty_stream(self):
        with pytest.raises(ValueError, match="not a readable zip archive"):
            load_checkpoint(io.BytesIO(b""))

    def test_old_container_bytes(self):
        old = b"DLMC\x01" + (2).to_bytes(4, "little") + b"{}" + bytes(4)
        with pytest.raises(ValueError, match="not a readable zip archive"):
            load_checkpoint(io.BytesIO(old))

    def test_truncated_archive(self):
        data = _saved({"w": Tensor(np.ones(4))})
        with pytest.raises(ValueError, match="not a readable zip archive"):
            load_checkpoint(io.BytesIO(data[: len(data) - 10]))

    def test_corrupt_entry_fails_its_crc(self):
        data = bytearray(_saved({"w": Tensor(np.full(4, 2.5))}))
        data[data.index(np.float64(2.5).tobytes()) + 7] ^= 1
        with pytest.raises(ValueError, match=r"entry 'w.npy' cannot be read: Bad CRC-32"):
            load_checkpoint(io.BytesIO(bytes(data)))

    def test_corrupt_central_directory(self):
        data = bytearray(_saved({"w": Tensor(np.ones(4))}))
        data[data.index(b"PK\x01\x02") + 3] ^= 1
        with pytest.raises(ValueError, match="zip archive: Bad magic number for central"):
            load_checkpoint(io.BytesIO(bytes(data)))

    def test_unsupported_compression_method(self):
        data = bytearray(_saved({"w": Tensor(np.ones(4))}))
        data[data.index(b"PK\x01\x02") + 10] ^= 1
        with pytest.raises(ValueError, match="compression method is not supported"):
            load_checkpoint(io.BytesIO(bytes(data)))

    def test_missing_config(self):
        with pytest.raises(ValueError, match=f"no '{CONFIG_ENTRY}' entry"):
            load_checkpoint(io.BytesIO(_archive([("w", np.zeros(2))])))

    def test_object_data(self):
        data = _archive([CONFIG, ("w", np.array([{"a": 1}], dtype=object))])
        with pytest.raises(ValueError, match=r"entry 'w.npy' cannot be read: Object arrays"):
            load_checkpoint(io.BytesIO(data))

    def test_entry_that_is_not_npy(self):
        stream = io.BytesIO(_archive([CONFIG]))
        with zipfile.ZipFile(stream, "a") as archive:
            archive.writestr("w.npy", b"not an array")
        with pytest.raises(ValueError, match="entry 'w.npy' cannot be read: the magic string"):
            load_checkpoint(io.BytesIO(stream.getvalue()))

    def test_reserved_name_rejected_at_save(self):
        with pytest.raises(ValueError, match=f"'{CONFIG_ENTRY}' is reserved"):
            _saved({CONFIG_ENTRY: Tensor(np.zeros(1))})
