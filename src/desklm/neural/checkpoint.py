"""Model checkpoints as numpy ``.npz`` archives.

A checkpoint is an uncompressed zip archive of ``.npy`` entries, the
layout ``np.savez`` writes and ``np.load`` reads: one entry per parameter,
named after it and in its own dtype and shape, plus the config as a JSON
string in the entry ``CONFIG_ENTRY``.  Entries are written in name order
and zip timestamps are fixed, so saving the same model twice gives the
same bytes.  A checkpoint is input from outside the program: every
malformed archive raises a ``ValueError`` that names the problem.
"""

from __future__ import annotations

import json
import zipfile
from typing import IO

import numpy as np

from .tensor import Tensor

CONFIG_ENTRY = "__config__"


def save_checkpoint(stream: IO[bytes], config: dict, params: dict[str, Tensor]) -> None:
    if CONFIG_ENTRY in params:
        raise ValueError(f"parameter name {CONFIG_ENTRY!r} is reserved for the config")
    entries = {CONFIG_ENTRY: np.array(json.dumps(config, sort_keys=True))}
    entries.update((name, params[name].data) for name in sorted(params))
    # np.savez(stream, **entries) writes the same archive, but it would take
    # a parameter named "file" or "allow_pickle" for its own argument.
    with zipfile.ZipFile(stream, "w") as archive:
        for name, data in entries.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array(entry, data, allow_pickle=False)


def _read_entry(archive: zipfile.ZipFile, member: str) -> np.ndarray:
    try:
        with archive.open(member) as entry:
            return np.lib.format.read_array(entry, allow_pickle=False)
    except (ValueError, EOFError, RuntimeError, zipfile.BadZipFile) as error:
        raise ValueError(f"checkpoint entry {member!r} cannot be read: {error}") from None


def load_checkpoint(stream: IO[bytes]) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with zipfile.ZipFile(stream) as archive:
            members = archive.namelist()
            names = [member.removesuffix(".npy") for member in members]
            # zipfile keeps both entries of a repeated name and reads the last.
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ValueError(f"checkpoint entry {repeated[0]!r} appears more than once")
            arrays = {name: _read_entry(archive, m) for name, m in zip(names, members)}
    except zipfile.BadZipFile as error:
        raise ValueError(f"checkpoint is not a readable zip archive: {error}") from None
    if CONFIG_ENTRY not in arrays:
        raise ValueError(f"checkpoint has no {CONFIG_ENTRY!r} entry")
    config = json.loads(str(arrays.pop(CONFIG_ENTRY)))
    return config, arrays
