"""File formats for feature grids, scalar rasters, and prompt vectors.

Each file is a 4-byte magic and a u32 version, matching the
bank/index/parameter files, then the array's shape as one u32 per axis and
its values as little-endian float32. A loader refuses what no saver
writes: a NaN or inf value, and a grid or map with an empty axis.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InvalidInputError
from .grids import _all_finite, as_grid, as_scalar_map
from .serial import Reader, atomic_write_bytes, finite_check, header

GRID_MAGIC = "PGRD"
MAP_MAGIC = "PMAP"
VECS_MAGIC = "PVEC"
VERSION = 1


def _save_array(arr: np.ndarray, magic: str, path) -> None:
    atomic_write_bytes(path, header(magic, VERSION, "I" * arr.ndim, *arr.shape),
                       np.ascontiguousarray(arr, "<f4"))


def _load_array(path, magic: str, ndim: int, what: str, empty_ok: bool = False) -> np.ndarray:
    """The array of a file _save_array wrote. A NaN or inf value is a
    FormatError at its offset, and so is an empty axis unless empty_ok."""
    with Reader.stream(path, magic, VERSION) as r:
        shape = r.unpack("I" * ndim)
        if 0 in shape and not empty_ok:
            raise FormatError(f"empty {what} of shape {shape}", offset=8 + 4 * shape.index(0))
        arr = r.array(shape, check=finite_check(f"non-finite {what} value"))
        r.expect_eof()
    return arr


def save_feature_grid(grid, path) -> None:
    _save_array(as_grid(grid), GRID_MAGIC, path)


def load_feature_grid(path) -> np.ndarray:
    return _load_array(path, GRID_MAGIC, 3, "feature grid")


def save_scalar_map(scalar_map, path) -> None:
    _save_array(as_scalar_map(scalar_map), MAP_MAGIC, path)


def load_scalar_map(path) -> np.ndarray:
    return _load_array(path, MAP_MAGIC, 2, "scalar map")


def save_vectors(vectors: np.ndarray, path) -> None:
    arr = np.asarray(vectors, dtype=np.float32)
    if arr.ndim != 2:
        raise InvalidInputError(f"vectors must be an (N, D) matrix, got shape {arr.shape}")
    if not _all_finite(arr):
        raise InvalidInputError("vectors contain non-finite entries")
    _save_array(arr, VECS_MAGIC, path)


def load_vectors(path) -> np.ndarray:
    # vismem refine writes a (0, 0) file when it makes no prompts
    return _load_array(path, VECS_MAGIC, 2, "vector", empty_ok=True)
