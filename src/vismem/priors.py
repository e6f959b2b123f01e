"""Dense heatmap priors and sparse anchors from a category prototype.

The heatmap is the per-cell inner product between unit-normalized input
features and the prototype, spatially smoothed and min-max rescaled to
[0, 1]. Anchors are its local maxima after greedy distance-based suppression,
in descending response order. A training-time shortcut derives anchors
directly from ground-truth box centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grids import (EPS_NORM, Box2D, Point2D, _check_sigma, _gaussian_smooth, _minmax_rescale,
                    as_grid, as_vector)
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
    return radius_cells / max(height, width)


def dense_prior(grid, proto: Prototype, sigma: float = DEFAULT_SIGMA) -> DensePrior:
    """Smoothed, rescaled compatibility heatmap between grid cells and prototype."""
    return dense_priors(grid, [proto], sigma)[0]


def dense_priors(grid, protos: list[Prototype], sigma: float = DEFAULT_SIGMA) -> list[DensePrior]:
    """dense_prior of each prototype over one grid, which is checked once and
    unit-normalized once, a block of grid rows at a time.

    Each heatmap comes from float64 products of its own with the normalized
    grid, one GEMV per grid row: one (H*W, D) @ (D, C) product for all
    prototypes rounds differently.
    """
    grid = as_grid(grid)
    for proto in protos:
        as_vector(proto.vector)
    return _dense_priors(grid, protos, sigma)


def _dense_priors(grid: np.ndarray, protos: list[Prototype], sigma: float) -> list[DensePrior]:
    """dense_priors on a grid that as_grid has checked and finite prototypes,
    so no heatmap needs a check of its own.

    The grid is cast and normalized in blocks of whole grid rows, and every
    prototype's product is taken while a block is in cache, so the float64
    copy of the whole grid is never built. numpy takes `(h, w, d) @ (d,)` as
    one (w, d) GEMV per grid row, so a block of whole rows gives each cell the
    bits of the product over the whole grid; a block that split a row, or a
    flattened (cells, d) product, would not.
    """
    h, w, d = grid.shape
    _check_sigma(sigma)
    for proto in protos:
        if proto.vector.shape[0] != d:
            raise InvalidInputError(f"grid dim {d} != prototype dim {proto.vector.shape[0]}")
    vectors = [proto.vector.astype(np.float64) for proto in protos if not proto.is_empty]
    raw = np.empty((len(vectors), h, w), dtype=np.float32)
    rows = max(1, _BLOCK // w)
    for r in range(0, h if vectors else 0, rows):
        block = grid[r:r + rows].astype(np.float64)
        norms = np.linalg.norm(block, axis=2)
        block /= np.where(norms > EPS_NORM, norms, 1.0)[:, :, None]
        block[norms <= EPS_NORM] = 0.0
        for c, v in enumerate(vectors):
            raw[c, r:r + rows] = block @ v
    maps = iter(raw)
    return [DensePrior(category=proto.category, sigma=sigma,
                       heatmap=np.zeros((h, w), dtype=np.float32) if proto.is_empty
                       else _minmax_rescale(_gaussian_smooth(next(maps), sigma)))
            for proto in protos]


def find_peaks(heatmap: np.ndarray, threshold: float) -> list[tuple[int, int, float]]:
    """Cells >= all 8 neighbors (out-of-bounds ignored) with response >= threshold.

    Returned sorted by (response desc, row asc, col asc).
    """
    h, w = heatmap.shape
    hm = heatmap.astype(np.float64)
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = hm
    # The 3x3 window maximum in two separable passes; np.maximum keeps NaN, never a peak.
    cols_max = np.maximum(np.maximum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    window_max = np.maximum(np.maximum(cols_max[:-2], cols_max[1:-1]), cols_max[2:])
    rows, cols = np.nonzero((hm >= window_max) & (hm >= threshold))
    order = np.argsort(-hm[rows, cols], kind="stable")  # ties keep nonzero's row-major order
    rows, cols = rows[order], cols[order]
    return list(zip(rows.tolist(), cols.tolist(), hm[rows, cols].tolist()))


def extract_anchors(prior: DensePrior, threshold: float = DEFAULT_PEAK_THRESHOLD,
                    radius: float | None = None,
                    max_anchors: int = DEFAULT_MAX_ANCHORS) -> AnchorSet:
    """Greedy distance-suppressed selection of heatmap peaks.

    radius is in normalized coordinates; defaults to 3 cells for the
    heatmap's resolution.
    """
    if not (0.0 <= threshold <= 1.0):
        raise InvalidInputError(f"threshold must be in [0, 1], got {threshold}")
    h, w = prior.heatmap.shape
    if radius is None:
        radius = radius_cells_to_normalized(DEFAULT_RADIUS_CELLS, h, w)
    if not 0 < radius < math.inf:
        raise InvalidInputError(f"radius must be finite and > 0, got {radius}")
    if max_anchors < 1:
        raise InvalidInputError(f"max_anchors must be >= 1, got {max_anchors}")
    accepted: list[tuple[Point2D, float]] = []
    for r, c, resp in find_peaks(prior.heatmap, threshold):
        if len(accepted) >= max_anchors:
            break
        pt = Point2D((c + 0.5) / w, (r + 0.5) / h)
        if all(math.hypot(pt.x - q.x, pt.y - q.y) >= radius for q, _ in accepted):
            accepted.append((pt, resp))
    return AnchorSet(category=prior.category, anchors=accepted)


def anchors_from_gt(boxes: list[Box2D], category: str) -> AnchorSet:
    """Training-time approximation: one unit-response anchor per box center."""
    return AnchorSet(category=category,
                     anchors=[(box.center, 1.0) for box in boxes])
