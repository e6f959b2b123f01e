"""Memory-guided prompt refinement and label-constrained logit masking.

Each anchor yields one refined prompt per feature scale: a bilinearly sampled
sparse feature and a heatmap-weighted dense window feature are projected and
added to the original prompt prior, then layer-normalized. Refined prompts
carry their source category; label-constrained decoding masks every other
category's logit to -inf, while prompts marked with the unconstrained
sentinel are left untouched.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidInputError, MissingEmbeddingError
from .grids import (LN_OVERFLOW, Point2D, _all_finite, _bilinear, _check, _finite, _layer_norm,
                    as_grid, as_scalar_map, as_vector)
from .priors import AnchorSet, DensePrior
from .serial import Reader, Writer, atomic_write_bytes, format_errors

PARAMS_MAGIC = "PPRM"
PARAMS_VERSION = 1
DEFAULT_WINDOW = 5

# Source label marking a detector-native prompt whose logits stay unmasked.
UNCONSTRAINED = "__unconstrained__"


@dataclass
class RefinementParams:
    """Prompt prior, projections, and layer-norm parameters for one scale set."""

    e: np.ndarray          # (D,)
    w_sparse: np.ndarray   # (D, D)
    w_dense: np.ndarray    # (D, D)
    ln_gain: np.ndarray    # (D,)
    ln_bias: np.ndarray    # (D,)
    ln_eps: float = 1e-5
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        self.e = as_vector(self.e)
        d = self.e.shape[0]
        self.w_sparse = _finite(self.w_sparse, (2,), "projection matrix")
        self.w_dense = _finite(self.w_dense, (2,), "projection matrix")
        self.ln_gain = as_vector(self.ln_gain)
        self.ln_bias = as_vector(self.ln_bias)
        if self.w_sparse.shape != (d, d) or self.w_dense.shape != (d, d):
            raise InvalidInputError("projection matrices must be (D, D)")
        if self.ln_gain.shape[0] != d or self.ln_bias.shape[0] != d:
            raise InvalidInputError("layer-norm gain/bias must match dimension D")
        self.ln_eps, self.window = _check("ln_eps", self.ln_eps), _check("window", self.window)

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    # The initializers pass float64 arrays, which __post_init__ stores as float32.
    @classmethod
    def zero_init(cls, dim: int, window: int = DEFAULT_WINDOW) -> "RefinementParams":
        """Identity layer norm, zero projections: the no-memory baseline."""
        return cls(e=np.zeros(dim), w_sparse=np.zeros((dim, dim)), w_dense=np.zeros((dim, dim)),
                   ln_gain=np.ones(dim), ln_bias=np.zeros(dim), window=window)

    @classmethod
    def seeded_init(cls, dim: int, seed: int = 0,
                    window: int = DEFAULT_WINDOW) -> "RefinementParams":
        """Deterministic random parameters for property tests and demos."""
        rng = np.random.Generator(np.random.PCG64(seed))
        scale = 1.0 / np.sqrt(dim)
        return cls(e=rng.standard_normal(dim), w_sparse=rng.standard_normal((dim, dim)) * scale,
                   w_dense=rng.standard_normal((dim, dim)) * scale, ln_gain=np.ones(dim),
                   ln_bias=np.zeros(dim), window=window)


@dataclass
class MemoryGuidedPrompt:
    embedding: np.ndarray
    source_category: str
    anchor: Point2D
    scale_index: int


@dataclass
class LogitsMatrix:
    """Prompt-by-category logits with the prompts' source categories attached."""

    values: np.ndarray            # (n_prompts, n_categories) float32, -inf allowed
    categories: list[str]
    sources: list[str]

    def __post_init__(self):
        try:
            self.values = np.asarray(self.values, np.float32)
        except ValueError as exc:  # ragged rows, or entries that are not numbers
            raise InvalidInputError(f"logits values: {exc}") from exc
        if len(set(self.categories)) != len(self.categories):
            raise InvalidInputError("candidate categories must be unique")
        if self.values.shape != (len(self.sources), len(self.categories)):
            raise InvalidInputError("logits shape must be (len(sources), len(categories))")


def _window_sums(features: np.ndarray, heats: np.ndarray, owners: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray, window: int) -> np.ndarray:
    """The dense feature of each anchor (xs[i], ys[i]) with heatmap
    heats[owners[i]], on checked arrays, in one gather: the heatmap-weighted
    sum of the features of the window x window cells centred on the anchor's
    cell, clipped at the grid borders, with the weights used as given. Cells
    outside the grid add -0.0, the identity of IEEE addition, and for D >= 2
    numpy adds a window's cells in row-major order, so each sum has the bits
    of the clipped window's. For D = 1 numpy sums pairwise, which can group a
    border window's terms apart.

    Heatmaps of another shape than the features' are read at the window cells
    alone: each cell's heat is the bilinear sample of its owner's map at the
    cell's centre, so it has the bits of that cell in the whole map resampled
    to the features' shape, since a sample depends on its point and map alone.
    """
    h, w, _ = features.shape
    offsets = np.arange(window) - window // 2
    rows = np.minimum(h - 1, (ys * h).astype(np.int64))[:, None, None] + offsets[:, None]
    cols = np.minimum(w - 1, (xs * w).astype(np.int64))[:, None, None] + offsets
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)  # (A, window, window)
    rows, cols = rows.clip(0, h - 1), cols.clip(0, w - 1)
    if heats.shape[1:] == (h, w):
        heat = heats[owners[:, None, None], rows, cols]
    else:
        heat = _bilinear(heats, (cols + 0.5) / w, (rows + 0.5) / h, owners[:, None, None])
    weighted = (heat[..., None].astype(np.float64)
                * features[rows, cols].astype(np.float64))  # (A, window, window, D)
    weighted[~inside] = -0.0
    return weighted.sum(axis=(1, 2)).astype(np.float32)


_OVERFLOW = "prompt pre-activation overflows float32"


def _preactivations(weights: tuple[np.ndarray, np.ndarray, np.ndarray], f_s: np.ndarray,
                    f_d: np.ndarray) -> np.ndarray:
    """e + W_s f_s + W_d f_d, the pre-activation before the layer norm, of
    each row of two finite float32 (A, D) stacks, for one parameter set's e,
    W_s and W_d already cast to float64, with rows that overflow float32 left
    non-finite. Each W is applied to all rows in one np.matmul call over an
    (A, D, 1) stack, numpy's matrix-vector case, which gives each row a
    matrix-vector product of its own: one (A, D) @ (D, D) product would round
    differently."""
    e, w_s, w_d = weights
    sparse = np.matmul(w_s, f_s.astype(np.float64)[:, :, None])[:, :, 0]
    dense = np.matmul(w_d, f_d.astype(np.float64)[:, :, None])[:, :, 0]
    with np.errstate(over="ignore"):  # callers report the overflow as an error
        return (e + sparse + dense).astype(np.float32)


def refine_all(scales, prior: DensePrior, anchors: AnchorSet,
               params, category: str) -> list[MemoryGuidedPrompt]:
    """Refine every (scale, anchor) pair, ordered by scale then anchor rank.

    params may be a single RefinementParams shared across scales, or a list
    with one parameter set per scale. A prompt whose pre-activation or layer
    norm overflows float32 raises InvalidInputError.
    """
    stack = _refine([as_grid(features) for features in scales], [as_scalar_map(prior.heatmap)],
                    [anchors], params, [category])[0]
    return _prompts(stack, anchors, category)


def _prompts(stack: np.ndarray, anchors: AnchorSet, category: str) -> list[MemoryGuidedPrompt]:
    """The prompt of each row of one category's _refine stack."""
    n = len(anchors)
    return [MemoryGuidedPrompt(embedding=row, source_category=category,
                               anchor=anchors.anchors[i % n][0], scale_index=i // n)
            for i, row in enumerate(stack)]


def _refine(scales: list[np.ndarray], heatmaps: list[np.ndarray], anchor_sets: list[AnchorSet],
            params, categories: list[str],
            stage=lambda category: nullcontext()) -> list[np.ndarray]:
    """refine_all of every category at once, on scales that as_grid and
    heatmaps of one shape that as_scalar_map have already checked: one float32
    (scales x anchors, D) stack per category, its rows ordered by scale then
    anchor rank.

    Per scale, every anchor of every category is sampled in one _bilinear
    call, its window's heat is read or, at another shape than the heatmaps',
    sampled at the window cells alone, and all rows are projected and
    layer-normalized together. Each of these steps works per element or per
    row, so every prompt has the bits that refining its category alone gives.
    A failure is raised inside stage(category) for the first category it
    concerns, as refining the categories one by one would raise it: a
    category's pre-activation overflow before its layer norm's.
    """
    per_scale = [params] * len(scales) if isinstance(params, RefinementParams) else list(params)
    with stage(categories[0]):
        if len(per_scale) != len(scales):
            raise InvalidInputError("need one parameter set per scale")
        if any(features.shape[2] != p.dim for features, p in zip(scales, per_scale)):
            raise InvalidInputError("feature dimensions must match the parameter dimension")
    counts = [len(anchors) for anchors in anchor_sets]
    points = [point for anchors in anchor_sets for point, _resp in anchors.anchors]
    owners = np.repeat(np.arange(len(categories)), counts)
    xs, ys = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2).T
    heats = np.stack(heatmaps)  # (C, H, W)
    # Each parameter set's float64 e, W_s and W_d, cast once however many scales share it.
    weights = {}
    for p in per_scale:
        if id(p) not in weights:
            weights[id(p)] = tuple(a.astype(np.float64) for a in (p.e, p.w_sparse, p.w_dense))
    pres = []
    for features, p in zip(scales, per_scale):
        f_s = _bilinear(features, xs, ys)
        f_d = _window_sums(features, heats, owners, xs, ys, p.window)
        pres.append(_preactivations(weights[id(p)], f_s, f_d))
    with np.errstate(invalid="ignore"):  # a row whose pre-activation overflowed is NaN
        embeddings = [_layer_norm(pre, p.ln_gain, p.ln_bias, p.ln_eps)
                      for pre, p in zip(pres, per_scale)]
    if not all(map(_all_finite, embeddings)):  # find the rows only on failure
        finite = np.all([np.isfinite(emb).all(axis=1) for emb in embeddings], axis=0)
        first = owners[~finite][0]
        with stage(categories[first]):
            pre_overflow = not all(_all_finite(pre[owners == first]) for pre in pres)
            raise InvalidInputError(_OVERFLOW if pre_overflow else LN_OVERFLOW)
    bounds = np.cumsum([0, *counts]).tolist()
    return [np.concatenate([emb[start:end] for emb in embeddings])
            for start, end in zip(bounds, bounds[1:])]


def score_prompts(prompts: list[MemoryGuidedPrompt],
                  category_embs: dict[str, np.ndarray]) -> LogitsMatrix:
    """Stand-in inner-product scoring head over candidate categories."""
    categories = list(category_embs.keys())
    sources = [p.source_category for p in prompts]
    for cat in categories:
        if category_embs[cat] is None:
            raise MissingEmbeddingError(f"no embedding for category {cat!r}")
    values = np.zeros((len(prompts), len(categories)), dtype=np.float32)
    if prompts and categories:
        values = _scores(_stack_vectors([p.embedding for p in prompts]),
                         _stack_vectors([category_embs[cat] for cat in categories]))
    return LogitsMatrix(values=values, categories=categories, sources=sources)


def _scores(rows: np.ndarray, embs: np.ndarray) -> np.ndarray:
    """One float64 product of checked prompt rows and category rows, stored
    as float32."""
    if rows.shape[1] != embs.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {rows.shape[1]} vs {embs.shape[1]}")
    return (rows.astype(np.float64) @ embs.astype(np.float64).T).astype(np.float32)


def _stack_vectors(vectors) -> np.ndarray:
    """Finite 1-D vectors of one dimension as the rows of a float32 matrix."""
    rows = [as_vector(v) for v in vectors]
    if len({r.shape[0] for r in rows}) > 1:
        raise InvalidInputError("all vectors must share one dimension")
    return np.stack(rows)


def constrain_logits(logits: LogitsMatrix) -> LogitsMatrix:
    """Mask each constrained prompt's logits to -inf outside its source category.

    Rows whose source is the UNCONSTRAINED sentinel are left fully unmasked.
    """
    col_of = {c: j for j, c in enumerate(logits.categories)}
    rows, columns = [], []
    for i, src in enumerate(logits.sources):
        if src == UNCONSTRAINED:
            continue
        if src not in col_of:
            raise InvalidInputError(f"source category {src!r} not in candidate columns")
        rows.append(i)
        columns.append(col_of[src])
    masked = logits.values.copy()
    masked[rows] = -np.inf
    masked[rows, columns] = logits.values[rows, columns]
    return LogitsMatrix(values=masked, categories=list(logits.categories),
                        sources=list(logits.sources))


# --- parameter persistence ---------------------------------------------------

def save_params(params, path) -> None:
    """Write one shared parameter set or a per-scale list to a PPRM file."""
    per_scale = not isinstance(params, RefinementParams)
    sets = list(params) if per_scale else [params]
    dim = sets[0].dim
    if any(p.dim != dim or p.window != sets[0].window or p.ln_eps != sets[0].ln_eps
           for p in sets):
        raise InvalidInputError("all parameter sets must share dim, window, ln_eps")
    w = Writer()
    w.magic(PARAMS_MAGIC).u32(PARAMS_VERSION)
    w.u32(dim).u32(1 if per_scale else 0).u32(len(sets))
    w.u32(sets[0].window).f32(sets[0].ln_eps)
    for p in sets:
        w.f32_array(p.e)
        w.f32_array(p.w_sparse)
        w.f32_array(p.w_dense)
        w.f32_array(p.ln_gain)
        w.f32_array(p.ln_bias)
    atomic_write_bytes(path, w.getvalue())


def load_params(path):
    """Load a PPRM file; returns RefinementParams or a per-scale list."""
    with Reader.stream(path, PARAMS_MAGIC, PARAMS_VERSION) as r:
        dim, per_scale, count, window = r.u32(), r.u32(), r.u32(), r.u32()
        ln_eps = r.f32()
        if per_scale not in (0, 1) or count < 1 or (count > 1 and not per_scale):
            raise FormatError(f"a shared parameter file holds one set and a per-scale file at "
                              f"least one; got per_scale={per_scale} with {count} sets",
                              offset=12)
        sets = []
        for _ in range(count):
            with format_errors("bad parameter set", r.offset):
                sets.append(RefinementParams(
                    e=r.array(dim),
                    w_sparse=r.array((dim, dim)),
                    w_dense=r.array((dim, dim)),
                    ln_gain=r.array(dim),
                    ln_bias=r.array(dim),
                    ln_eps=ln_eps,
                    window=window,
                ))
        r.expect_eof()
    return sets if per_scale else sets[0]
