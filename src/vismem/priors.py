"""Dense heatmap priors and sparse anchors from a category prototype.

The heatmap is the per-cell inner product between unit-normalized input
features and the prototype, spatially smoothed and min-max rescaled to
[0, 1]. Anchors are its local maxima after greedy distance-based suppression,
in descending response order. Anchors come only from the heatmap: the
library has no training loop, so it derives none from ground-truth boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grids import (EPS_NORM, Point2D, _check, _gaussian_smooth, _minmax_rescale,
                    _smoothing_kernel, as_grid, as_vector)
from .retrieval import Prototype

DEFAULT_SIGMA = 1.0
DEFAULT_PEAK_THRESHOLD = 0.5
DEFAULT_RADIUS_CELLS = 3.0
DEFAULT_MAX_ANCHORS = 10

_BLOCK = 2048  # grid cells per block of whole rows: its float64 copy stays in cache


@dataclass
class DensePrior:
    category: str
    heatmap: np.ndarray  # (H, W) in [0, 1]
    sigma: float


@dataclass
class AnchorSet:
    category: str
    anchors: list[tuple[Point2D, float]]  # (point, response), response descending

    def __len__(self) -> int:
        return len(self.anchors)

    def points(self) -> list[Point2D]:
        return [p for p, _ in self.anchors]


def radius_cells_to_normalized(radius_cells: float, height: int, width: int) -> float:
    """Convert a suppression radius in grid cells to normalized coordinates."""
    return _check("radius_cells", radius_cells) / max(height, width)


def dense_prior(grid, proto: Prototype, sigma: float = DEFAULT_SIGMA) -> DensePrior:
    """Smoothed, rescaled compatibility heatmap between grid cells and prototype."""
    grid = as_grid(grid)
    as_vector(proto.vector)
    return _dense_priors(grid, [proto], sigma)[0]


def _dense_priors(grid: np.ndarray, protos: list[Prototype], sigma: float) -> list[DensePrior]:
    """dense_prior of each prototype over one grid that as_grid has checked,
    with finite prototypes, so no heatmap needs a check of its own.

    The grid is cast and normalized in blocks of whole grid rows, and all
    prototypes' products with a block are taken while it is in cache, so the
    float64 copy of the whole grid is never built. A cell's norm is
    np.linalg.norm's own sum for real input, the sqrt of np.add.reduce of its
    squares. numpy takes `(h, w, d) @ (d,)` as one (w, d) GEMV per grid row,
    and one stacked np.matmul of the block with the prototypes as a
    (C, 1, d, 1) stack of columns runs that same GEMV on the same rows for
    each prototype. So a block of whole rows gives each cell the bits of the
    product over the whole grid; a block that split a row, or a flattened
    (cells, d) product, would not, and one (H*W, D) @ (D, C) GEMM for all
    prototypes rounds differently. The maps are smoothed and rescaled in one
    float64 scratch that every map reuses.
    """
    h, w, d = grid.shape
    kernel = _smoothing_kernel(sigma)  # one kernel for every map
    for proto in protos:
        if proto.vector.shape[0] != d:
            raise InvalidInputError(f"grid dim {d} != prototype dim {proto.vector.shape[0]}")
    vectors = np.array([proto.vector for proto in protos if not proto.is_empty],
                       dtype=np.float64).reshape(-1, 1, d, 1)
    raw = np.empty((len(vectors), h, w), dtype=np.float32)
    rows = max(1, _BLOCK // w)
    products = np.empty((len(vectors), min(rows, h), w, 1))
    for r in range(0, h if len(vectors) else 0, rows):
        block = grid[r:r + rows].astype(np.float64)
        norms = np.sqrt(np.add.reduce(block * block, axis=2))
        block /= np.where(norms > EPS_NORM, norms, 1.0)[:, :, None]
        block[norms <= EPS_NORM] = 0.0
        out = products[:, :len(block)]
        np.matmul(block[None], vectors, out=out)
        raw[:, r:r + rows] = out[..., 0]
    work = np.empty((2, h, w))  # float64 scratch of the smoothing and the rescale
    maps = iter(raw)
    return [DensePrior(category=proto.category, sigma=sigma,
                       heatmap=np.zeros((h, w), dtype=np.float32) if proto.is_empty
                       else _minmax_rescale(_gaussian_smooth(next(maps), kernel, work), work[0]))
            for proto in protos]


def find_peaks(heatmap: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """Cells >= all 8 neighbors (out-of-bounds ignored) with response >= threshold.

    Returned sorted by (response desc, row asc, col asc).

    A float map is searched in its own dtype, since maxima, negation and
    order are exact in any of them. The threshold is compared as a float64
    scalar, which NumPy 2's promotion keeps float64, so a float32 map is not
    compared with the threshold rounded to float32.

    The peaks are found as flat indices of the mask, which are row-major,
    and split into rows and columns only once they are sorted: np.nonzero
    of the 2-D mask costs about ten times more on a 128x128 map. Every cell
    is compared with its 3x3 window, so the cost does not grow with the
    number of cells above the threshold.
    """
    h, w = heatmap.shape
    hm = heatmap if heatmap.dtype.kind == "f" else heatmap.astype(np.float64)
    padded = np.full((h + 2, w + 2), -np.inf, dtype=hm.dtype)
    padded[1:-1, 1:-1] = hm
    # The 3x3 window maximum in two separable passes; np.maximum keeps NaN, never a peak.
    cols_max = np.maximum(np.maximum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    window_max = np.maximum(np.maximum(cols_max[:-2], cols_max[1:-1]), cols_max[2:])
    cells = np.flatnonzero((hm >= window_max) & (hm >= np.float64(threshold)))
    values = hm.ravel()[cells]
    order = np.argsort(-values, kind="stable")  # ties keep the row-major order of cells
    rows, cols = np.divmod(cells[order], w)
    return list(zip(rows.tolist(), cols.tolist(), values[order].tolist()))


def extract_anchors(prior: DensePrior, threshold: float = DEFAULT_PEAK_THRESHOLD,
                    radius: float | None = None,
                    max_anchors: int = DEFAULT_MAX_ANCHORS) -> AnchorSet:
    """Greedy distance-suppressed selection of heatmap peaks.

    radius is in normalized coordinates; defaults to 3 cells for the
    heatmap's resolution.
    """
    threshold, max_anchors = _check("threshold", threshold), _check("max_anchors", max_anchors)
    h, w = prior.heatmap.shape
    radius = _check("radius", radius_cells_to_normalized(DEFAULT_RADIUS_CELLS, h, w)
                    if radius is None else radius)
    accepted: list[tuple[Point2D, float]] = []
    for r, c, resp in find_peaks(prior.heatmap, threshold):
        if len(accepted) >= max_anchors:
            break
        pt = Point2D((c + 0.5) / w, (r + 0.5) / h)
        if all(math.hypot(pt.x - q.x, pt.y - q.y) >= radius for q, _ in accepted):
            accepted.append((pt, resp))
    return AnchorSet(category=prior.category, anchors=accepted)
