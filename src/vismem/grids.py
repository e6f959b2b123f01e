"""Core numeric primitives: vectors, feature grids, scalar maps, and geometry.

Vectors are 1-D float32 arrays, feature grids are (H, W, D) float32 arrays,
scalar maps are (H, W) float32 arrays. Storage is 32-bit; reductions
accumulate in float64. Normalized image coordinates live in [0, 1] with the
cell-center convention: cell (r, c) of an HxW grid is centered at
((c + 0.5) / W, (r + 0.5) / H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidInputError

# Norms at or below this are treated as zero (degenerate) rather than divided by.
EPS_NORM = 1e-12


def _finite(a, ndims: tuple[int, ...], what: str) -> np.ndarray:
    """a as a non-empty, finite float32 array of one of the given ranks."""
    arr = np.asarray(a, dtype=np.float32)
    if arr.ndim not in ndims or arr.size == 0:
        raise InvalidInputError(f"expected a non-empty {what}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} contains non-finite entries")
    return arr


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D float32 vector."""
    return _finite(v, (1,), "1-D vector")


def as_grid(g) -> np.ndarray:
    """Coerce to a finite (H, W, D) float32 feature grid."""
    return _finite(g, (3,), "(H, W, D) feature grid")


def as_scalar_map(m) -> np.ndarray:
    """Coerce to a finite (H, W) float32 scalar map."""
    return _finite(m, (2,), "(H, W) scalar map")


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned box in normalized [0, 1] coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (0.0 <= self.x0 < self.x1 <= 1.0 and 0.0 <= self.y0 < self.y1 <= 1.0):
            raise InvalidInputError(
                f"invalid box ({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def center(self) -> "Point2D":
        return Point2D(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def iou(self, other: "Box2D") -> float:
        ix = max(0.0, min(self.x1, other.x1) - max(self.x0, other.x0))
        iy = max(0.0, min(self.y1, other.y1) - max(self.y0, other.y0))
        inter = ix * iy
        union = self.area + other.area - inter
        return inter / union if union > 0 else 0.0

    def as_list(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass(frozen=True)
class Point2D:
    """Point in normalized [0, 1] coordinates."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise InvalidInputError(f"point ({self.x}, {self.y}) outside [0, 1]^2")


def l2_normalize(v) -> np.ndarray:
    """Scale v to unit L2 norm. Near-zero vectors map to the zero vector."""
    v = as_vector(v)
    norm = float(np.linalg.norm(v.astype(np.float64)))
    if norm <= EPS_NORM:
        return np.zeros_like(v)
    return (v.astype(np.float64) / norm).astype(np.float32)


def inner(a, b) -> float:
    """Inner product, accumulated in float64."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.dot(a.astype(np.float64), b.astype(np.float64)))


def weighted_combine(vectors, weights) -> np.ndarray:
    """Weighted sum of equal-dimension vectors. No normalization."""
    if len(vectors) == 0 or len(vectors) != len(weights):
        raise InvalidInputError("vectors and weights must be equal-length and non-empty")
    vecs = [as_vector(v) for v in vectors]
    dim = vecs[0].shape[0]
    if any(v.shape[0] != dim for v in vecs):
        raise InvalidInputError("all vectors must share one dimension")
    acc = np.zeros(dim, dtype=np.float64)
    for w, v in zip(weights, vecs):
        acc += float(w) * v.astype(np.float64)
    return acc.astype(np.float32)


def cell_centers(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (x, y) center coordinates of every cell, each shaped (H, W)."""
    cx = (np.arange(width, dtype=np.float64) + 0.5) / width
    cy = (np.arange(height, dtype=np.float64) + 0.5) / height
    return np.broadcast_to(cx, (height, width)), np.broadcast_to(cy[:, None], (height, width))


def mean_pool_region(grid, box: Box2D) -> np.ndarray:
    """Mean of grid cells whose centers fall inside box.

    Falls back to the single cell containing the box center when no cell
    center is covered (very small boxes).
    """
    return _mean_pool(as_grid(grid), box)


def _mean_pool(grid: np.ndarray, box: Box2D) -> np.ndarray:
    """mean_pool_region on a grid that as_grid has already checked."""
    h, w, _ = grid.shape
    cx, cy = cell_centers(h, w)
    mask = (cx >= box.x0) & (cx <= box.x1) & (cy >= box.y0) & (cy <= box.y1)
    if not mask.any():
        center = box.center
        r = min(h - 1, int(center.y * h))
        c = min(w - 1, int(center.x * w))
        return grid[r, c].copy()
    return grid[mask].astype(np.float64).mean(axis=0).astype(np.float32)


def bilinear_sample(grid, p: Point2D) -> np.ndarray:
    """Bilinear interpolation of the four surrounding cell-center features.

    Coordinates are clamped to the cell-center range at the borders, so
    corner samples reduce to the corner cell's feature.
    """
    return _bilinear(as_grid(grid), p.x, p.y)


def _bilinear(grid: np.ndarray, xs, ys) -> np.ndarray:
    """The one bilinear interpolation: sample a checked (H, W) map or (H, W, D)
    grid at normalized points. xs and ys broadcast to a shape S and the result
    is S or (*S, D). Only the cells read are cast to float64."""
    h, w = grid.shape[:2]
    gx = np.clip(np.asarray(xs, dtype=np.float64) * w - 0.5, 0.0, w - 1.0)
    gy = np.clip(np.asarray(ys, dtype=np.float64) * h - 0.5, 0.0, h - 1.0)
    c0 = np.floor(gx).astype(np.intp)
    r0 = np.floor(gy).astype(np.intp)
    c1 = np.minimum(c0 + 1, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    per_cell = (1,) * (grid.ndim - 2)  # a weight per point, shared by a cell's features
    fx = (gx - c0).reshape(gx.shape + per_cell)
    fy = (gy - r0).reshape(gy.shape + per_cell)
    top = (1.0 - fx) * grid[r0, c0].astype(np.float64) + fx * grid[r0, c1].astype(np.float64)
    bot = (1.0 - fx) * grid[r1, c0].astype(np.float64) + fx * grid[r1, c1].astype(np.float64)
    return ((1.0 - fy) * top + fy * bot).astype(np.float32)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel with radius ceil(3*sigma), float64;
    sigma must be finite and > 0."""
    if not 0 < sigma < np.inf:
        raise InvalidInputError(f"sigma must be finite and > 0, got {sigma}")
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    return kernel / kernel.sum()


def gaussian_smooth(scalar_map, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding. sigma=0 is a no-op copy."""
    return _gaussian_smooth(as_scalar_map(scalar_map), sigma)


def _check_sigma(sigma: float) -> None:
    if not 0 <= sigma < np.inf:
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")


def _gaussian_smooth(scalar_map: np.ndarray, sigma: float) -> np.ndarray:
    """gaussian_smooth on a map that as_scalar_map has already checked."""
    _check_sigma(sigma)
    if sigma == 0:
        return scalar_map.copy()
    kernel = gaussian_kernel_1d(sigma)
    out = scalar_map.astype(np.float64)
    # scipy's "reflect" mode (d c b a | a b c d) conserves total mass.
    out = ndimage.correlate1d(out, kernel, axis=0, mode="reflect")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="reflect")
    return out.astype(np.float32)


def minmax_rescale(scalar_map) -> np.ndarray:
    """Affine rescale to [0, 1]. A (near-)constant map rescales to all zeros."""
    return _minmax_rescale(as_scalar_map(scalar_map))


def _minmax_rescale(scalar_map: np.ndarray) -> np.ndarray:
    """minmax_rescale on a map that as_scalar_map has already checked."""
    lo = float(scalar_map.min())
    hi = float(scalar_map.max())
    if hi - lo <= EPS_NORM:
        return np.zeros_like(scalar_map)
    return ((scalar_map.astype(np.float64) - lo) / (hi - lo)).astype(np.float32)


LN_OVERFLOW = "layer norm overflows float32"


def layer_norm(v, gain, bias, eps: float = 1e-5) -> np.ndarray:
    """Layer normalization over the last axis with population variance: one
    vector, or each row of an (N, D) stack with the bits it gives alone. An
    output that overflows float32 raises InvalidInputError."""
    v = _finite(v, (1, 2), "(D,) vector or (N, D) stack")
    gain = as_vector(gain)
    bias = as_vector(bias)
    if not (v.shape[-1] == gain.shape[0] == bias.shape[0]):
        raise InvalidInputError("v, gain and bias must share one dimension")
    if eps <= 0:
        raise InvalidInputError(f"eps must be > 0, got {eps}")
    out = _layer_norm(v, gain, bias, eps)
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(LN_OVERFLOW)
    return out


def _layer_norm(v: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    """layer_norm on arrays it has already checked, with rows that overflow
    float32 left non-finite."""
    x = v.astype(np.float64)
    n = x.shape[-1]
    # The sums and divisions of np.mean and np.var, with x - mean taken once.
    centered = x - x.sum(axis=-1, keepdims=True) / n
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    normed = centered / np.sqrt(var + eps)
    out = normed * gain.astype(np.float64) + bias.astype(np.float64)
    with np.errstate(over="ignore"):  # callers report the overflow as an error
        return out.astype(np.float32)
