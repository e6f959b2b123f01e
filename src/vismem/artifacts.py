"""File formats for feature grids, scalar rasters, and prompt vectors.

Each file is a 4-byte magic and a u32 version, matching the
bank/index/parameter files, then the array's shape as one u32 per axis and
its values as little-endian float32.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError
from .grids import as_grid, as_scalar_map
from .serial import Reader, Writer, atomic_write_bytes

GRID_MAGIC = "PGRD"
MAP_MAGIC = "PMAP"
VECS_MAGIC = "PVEC"
VERSION = 1


def _save_array(arr: np.ndarray, magic: str, path) -> None:
    out = Writer().magic(magic).u32(VERSION)
    for n in arr.shape:
        out.u32(n)
    atomic_write_bytes(path, out.f32_array(arr).getvalue())


def _load_array(path, magic: str, ndim: int) -> np.ndarray:
    with Reader.stream(path, magic, VERSION) as r:
        shape = tuple(r.u32() for _ in range(ndim))
        arr = r.f32_array(shape)
        r.expect_eof()
    return arr


def save_feature_grid(grid, path) -> None:
    _save_array(as_grid(grid), GRID_MAGIC, path)


def load_feature_grid(path) -> np.ndarray:
    return _load_array(path, GRID_MAGIC, 3)


def save_scalar_map(scalar_map, path) -> None:
    _save_array(as_scalar_map(scalar_map), MAP_MAGIC, path)


def load_scalar_map(path) -> np.ndarray:
    return _load_array(path, MAP_MAGIC, 2)


def save_vectors(vectors: np.ndarray, path) -> None:
    arr = np.asarray(vectors, dtype=np.float32)
    if arr.ndim != 2:
        raise FormatError("vectors must be an (N, D) matrix")
    _save_array(arr, VECS_MAGIC, path)


def load_vectors(path) -> np.ndarray:
    return _load_array(path, VECS_MAGIC, 2)
