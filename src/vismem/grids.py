"""Core numeric primitives: vectors, feature grids, scalar maps, and geometry.

Vectors are 1-D float32 arrays, feature grids are (H, W, D) float32 arrays,
scalar maps are (H, W) float32 arrays. Storage is 32-bit; reductions
accumulate in float64. Normalized image coordinates live in [0, 1] with the
cell-center convention: cell (r, c) of an HxW grid is centered at
((c + 0.5) / W, (r + 0.5) / H).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Norms at or below this are treated as zero (degenerate) rather than divided by.
EPS_NORM = 1e-12


def _rule(kind: type, lo=-math.inf, hi=math.inf, ends="[]", odd=False) -> tuple:
    """A tunable's kind, int or float (a float must be finite), its bounds, each
    closed or open as ends says ("[" or "(", "]" or ")"), and its oddness."""
    return kind, lo, hi, ends, odd


# The one rule of each tunable, under every name that the config, the stages
# and the synthetic scenarios give it; the names in a row share its rule.
_RULES = {
    **dict.fromkeys(("k", "recall_size", "nprobe", "max_anchors", "nlist", "m", "kmeans_iters",
                     "iters", "grid_h", "grid_w", "d_key", "d_val"), _rule(int, 1)),
    **dict.fromkeys(("seed", "count", "entries_per_category", "distractors", "center_row",
                     "center_col"), _rule(int, 0)),
    "nbits": _rule(int, 1, 8),  # PQ codes of one byte
    **dict.fromkeys(("window", "extent"), _rule(int, 1, odd=True)),  # cells about a centre cell
    **dict.fromkeys(("w_p", "w_s", "w_g"), _rule(float)),
    **dict.fromkeys(("tau", "tau_p", "radius", "radius_cells", "eps", "ln_eps", "kernel_sigma"),
                    _rule(float, 0, ends="(]")),
    **dict.fromkeys(("sigma", "min_area", "noise"), _rule(float, 0)),  # sigma 0 smooths nothing
    **dict.fromkeys(("threshold", "peak_threshold"), _rule(float, 0, 1)),
    "iou_threshold": _rule(float, 0, 1, "(]"),
    "drop_fraction": _rule(float, 0, 1, "[)"),
}


def _check(name: str, value, what: str | None = None):
    """value as the Python int or float that the rule of `name` allows, or
    InvalidInputError naming it `what` (name by default). No bool passes, and
    an int rule takes integers alone: not 2.5, 3.0, inf or nan."""
    (kind, lo, hi, ends, odd), what = _RULES[name], what or name
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise InvalidInputError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                                f"got {value!r}")
    try:
        v = kind(value)
    except OverflowError:  # an int too large for a float
        v = math.inf
    if ((v > lo if ends[0] == "(" else v >= lo) and (v < hi if ends[1] == ")" else v <= hi)
            and (kind is int or math.isfinite(v)) and not (odd and v % 2 == 0)):
        return v
    words = ["finite"] * (kind is float) + ["odd"] * odd
    if hi < math.inf:
        words.append(f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}")
    elif lo > -math.inf:
        words.append(f"{'>' if ends[0] == '(' else '>='} {lo:g}")
    raise InvalidInputError(f"{what} must be {' and '.join(words)}, got {v!r}")


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every element of a float array is finite: the one finiteness
    check of the library.

    A contiguous array is read once, as its flat dot product with itself,
    and nothing of its size is allocated. That sum is finite only if every
    element is: the square of a NaN or inf is NaN or +inf, and no sum of
    squares, none negative, turns one back into a finite value. Only a sum
    that is not finite, or an array that is not contiguous, is checked
    element by element, which tells squares that overflow from a NaN or inf.
    """
    if arr.flags.c_contiguous or arr.flags.f_contiguous:
        flat = arr.ravel(order="K")
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(np.dot(flat, flat)):
                return True
    return bool(np.isfinite(arr).all())


def _finite(a, ndims: tuple[int, ...], what: str) -> np.ndarray:
    """a as a non-empty, finite float32 array of one of the given ranks."""
    arr = np.asarray(a, dtype=np.float32)
    if arr.ndim not in ndims or arr.size == 0:
        raise InvalidInputError(f"expected a non-empty {what}, got shape {arr.shape}")
    if not _all_finite(arr):
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
    return _l2_normalize(as_vector(v))


def _l2_normalize(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """l2_normalize of a checked float32 vector, or of each row of a checked
    (N, D) stack. A row's norm is the sqrt of its float64 dot product with
    itself, the x.dot(x) of np.linalg.norm: one np.matmul call over the stack
    is numpy's vector case, which gives each row a dot product of its own, so
    every row has the bits it gets alone. The result goes to out if one is
    given; it may be v."""
    x = v.astype(np.float64)
    if x.ndim == 1:  # the same dot, without the stack's cost for one row
        norm = math.sqrt(x.dot(x))
        if norm > EPS_NORM:
            x /= norm
        else:
            x[...] = 0.0
    else:
        norms = np.sqrt(np.matmul(x[:, None, :], x[:, :, None]))[:, 0]
        keep = norms > EPS_NORM
        np.divide(x, norms, out=x, where=keep)
        x[~keep[:, 0]] = 0.0
    if out is None:
        return x.astype(np.float32)
    out[...] = x
    return out


def cell_centers(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (x, y) center coordinates of every cell, each shaped (H, W)."""
    cx = (np.arange(width, dtype=np.float64) + 0.5) / width
    cy = (np.arange(height, dtype=np.float64) + 0.5) / height
    return np.broadcast_to(cx, (height, width)), np.broadcast_to(cy[:, None], (height, width))


def _box_cells(h: int, w: int, boxes: np.ndarray) -> np.ndarray:
    """The cells of an h x w grid whose centers lie in each of the (N, 4)
    float64 boxes x0, y0, x1, y1, as (N, 4) ranges r0, r1, c0, c1: rows
    r0 <= r < r1 by columns c0 <= c < c1. A box that covers no center gets
    the one cell holding its center, as the range (r, r, c, c)."""
    x0, y0, x1, y1 = boxes.T
    cx, cy = cell_centers(h, w)
    cx, cy = cx[0], cy[:, 0]
    # "left" finds the first center >= a lower edge, "right" the first > an upper one.
    cells = np.stack([np.searchsorted(cy, y0, "left"), np.searchsorted(cy, y1, "right"),
                      np.searchsorted(cx, x0, "left"), np.searchsorted(cx, x1, "right")], axis=1)
    empty = (cells[:, 0] >= cells[:, 1]) | (cells[:, 2] >= cells[:, 3])
    # Box2D.center's arithmetic, truncated as int() does.
    r = np.minimum(h - 1, (0.5 * (y0[empty] + y1[empty]) * h).astype(np.intp))
    c = np.minimum(w - 1, (0.5 * (x0[empty] + x1[empty]) * w).astype(np.intp))
    cells[empty] = np.stack([r, r, c, c], axis=1)
    return cells


# float64 cell features gathered per pass of _box_means: bounds its (R, K, D) block.
_POOL_FLOATS = 1 << 18


def _box_means(grids: list[np.ndarray], rows, boxes: np.ndarray) -> np.ndarray:
    """The float32 mean of the cells of grids[rows[i]] whose centres lie in
    boxes[i], for (N, 4) float64 boxes x0, y0, x1, y1 and checked grids of one
    D; the one cell holding a box's centre if none do.

    Each mean has the bits of its _box_cells slice, grid[r0:r1, c0:c1] cast to
    float64 and reshaped to (K, D), averaged with .mean(axis=0). The records
    are ordered by cell count K, then by grid, with one stable sort, and each
    pass takes records of one K, at most _POOL_FLOATS floats of them: it
    gathers each grid's cells with one fancy index into an (R, K, D) float64
    block and sums that over its K axis. numpy reduces each record's (K, D)
    cells in that block as it reduces them alone: cell by cell from +0.0 for
    D >= 2, pairwise for D = 1. (np.add.reduceat does not: it adds the first
    cell to a pairwise sum of the rest.) The sums are divided by K, as the
    mean divides them."""
    rows = np.asarray(rows, dtype=np.intp)
    shapes = np.array([g.shape[:2] for g in grids], dtype=np.intp).reshape(-1, 2)[rows]
    cells = np.empty((len(rows), 4), dtype=np.intp)
    for h, w in np.unique(shapes, axis=0).tolist():
        same = np.flatnonzero((shapes[:, 0] == h) & (shapes[:, 1] == w))
        cells[same] = _box_cells(h, w, boxes[same])
    r0, r1, c0, c1 = cells.T
    # A range (r, r, c, c) has count 0 and gathers its one cell, which it keeps
    # as it is: a sum starts from +0.0, so a mean of one -0.0 cell is +0.0.
    widths = np.maximum(c1 - c0, 1)
    counts = (r1 - r0) * (c1 - c0)
    dim = grids[0].shape[2] if grids else 0
    means = np.empty((len(rows), dim), dtype=np.float32)
    order = np.lexsort((rows, counts))
    starts = np.flatnonzero(np.diff(counts[order], prepend=-1)).tolist()
    for start, end in zip(starts, starts[1:] + [len(order)]):
        k = int(counts[order[start]])
        gathered = max(k, 1)
        step = max(1, _POOL_FLOATS // (gathered * dim))
        for a in range(start, end, step):
            at = order[a:min(end, a + step)]
            # Row-major within each range: cell j is (r0 + j // width, c0 + j % width).
            width = widths[at, None]
            rr = r0[at, None] + np.arange(gathered) // width
            cc = c0[at, None] + np.arange(gathered) % width
            block = np.empty((len(at), gathered, dim))
            grid_of = rows[at]
            cuts = (np.flatnonzero(grid_of[1:] != grid_of[:-1]) + 1).tolist()
            for x, y in zip([0] + cuts, cuts + [len(at)]):
                block[x:y] = grids[grid_of[x]][rr[x:y], cc[x:y]]
            means[at] = block.sum(axis=1) / k if k else block[:, 0]
    return means


def bilinear_sample(grid, p: Point2D) -> np.ndarray:
    """Bilinear interpolation of the four surrounding cell-center features.

    Coordinates are clamped to the cell-center range at the borders, so
    corner samples reduce to the corner cell's feature.
    """
    return _bilinear(as_grid(grid), p.x, p.y)


def _bilinear(grid: np.ndarray, xs, ys, layers=None) -> np.ndarray:
    """The one bilinear interpolation: sample a checked (H, W) map or (H, W, D)
    grid at normalized points. xs and ys broadcast to a shape S and the result
    is S or (*S, D). Only the cells read are cast to float64. With `layers`,
    integer indices that broadcast to S, grid is an (L, H, W) stack of maps
    and each point samples its own layer alone."""
    lead = () if layers is None else (layers,)
    h, w = grid.shape[len(lead):len(lead) + 2]
    gx = np.clip(np.asarray(xs, dtype=np.float64) * w - 0.5, 0.0, w - 1.0)
    gy = np.clip(np.asarray(ys, dtype=np.float64) * h - 0.5, 0.0, h - 1.0)
    c0 = np.floor(gx).astype(np.intp)
    r0 = np.floor(gy).astype(np.intp)
    c1 = np.minimum(c0 + 1, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    per_cell = (1,) * (grid.ndim - len(lead) - 2)  # a point's weight, shared by a cell's features
    fx = (gx - c0).reshape(gx.shape + per_cell)
    fy = (gy - r0).reshape(gy.shape + per_cell)
    def at(r, c):
        return grid[(*lead, r, c)].astype(np.float64)
    top = (1.0 - fx) * at(r0, c0) + fx * at(r0, c1)
    bot = (1.0 - fx) * at(r1, c0) + fx * at(r1, c1)
    return ((1.0 - fy) * top + fy * bot).astype(np.float32)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel with radius ceil(3*sigma), float64;
    sigma must be finite and > 0."""
    sigma = _check("kernel_sigma", sigma, "sigma")
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    return kernel / kernel.sum()


def gaussian_smooth(scalar_map, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflect padding. sigma=0 is a no-op copy."""
    return _gaussian_smooth(as_scalar_map(scalar_map), _smoothing_kernel(sigma))


def _smoothing_kernel(sigma: float) -> np.ndarray | None:
    """The kernel of gaussian_smooth at sigma, which must be finite and >= 0;
    None for sigma = 0, which smooths nothing."""
    return gaussian_kernel_1d(sigma) if _check("sigma", sigma) else None


def _gaussian_smooth(scalar_map: np.ndarray, kernel: np.ndarray | None,
                     work: np.ndarray | None = None) -> np.ndarray:
    """gaussian_smooth on a map that as_scalar_map has already checked, with
    the kernel _smoothing_kernel gives. work, two float64 maps of its shape,
    holds the two passes if given; otherwise they are allocated.

    scipy widens each line of the float32 map to float64 as it reads it, so
    the map is passed as it is: a cast to float64 first gives the same bits."""
    if kernel is None:
        return scalar_map.copy()
    from scipy import ndimage  # here, not at the top: it is most of the CLI's import time
    if work is None:
        work = np.empty((2, *scalar_map.shape))
    # scipy's "reflect" mode (d c b a | a b c d) conserves total mass.
    ndimage.correlate1d(scalar_map, kernel, axis=0, output=work[0], mode="reflect")
    ndimage.correlate1d(work[0], kernel, axis=1, output=work[1], mode="reflect")
    return work[1].astype(np.float32)


def _minmax_rescale(scalar_map: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """Affine rescale of a checked float32 map to [0, 1], taken in float64 in
    work, one float64 map of its shape, if given. A (near-)constant map
    rescales to all zeros."""
    lo = float(scalar_map.min())
    hi = float(scalar_map.max())
    if hi - lo <= EPS_NORM:
        return np.zeros_like(scalar_map)
    # dtype is needed: NumPy 2 takes a float32 array minus a Python float in float32.
    out = np.subtract(scalar_map, lo, out=work, dtype=np.float64)
    out /= hi - lo
    return out.astype(np.float32)


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
    out = _layer_norm(v, gain, bias, _check("eps", eps))
    if not _all_finite(out):
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
