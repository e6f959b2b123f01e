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
from .grids import (Point2D, _bilinear, _finite, _layer_norm, as_grid, as_scalar_map, as_vector,
                    bilinear_sample, cell_centers)
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
        if not 0 < self.ln_eps < np.inf:
            raise InvalidInputError(f"ln_eps must be finite and > 0, got {self.ln_eps}")
        if self.window < 1 or self.window % 2 == 0:
            raise InvalidInputError(f"window must be odd and positive, got {self.window}")

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
        if len(set(self.categories)) != len(self.categories):
            raise InvalidInputError("candidate categories must be unique")
        if self.values.shape != (len(self.sources), len(self.categories)):
            raise InvalidInputError("logits shape must be (len(sources), len(categories))")


# The sparse feature of an anchor is the bilinear sample of the grid there.
sparse_feature = bilinear_sample


def dense_feature(features, heat, anchor: Point2D, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Heatmap-weighted feature sum over a window centered at the anchor's cell.

    Weights are used exactly as given (no normalization); the window is
    clipped at the grid borders.
    """
    features = as_grid(features)
    heat = as_scalar_map(heat)
    h, w, _ = features.shape
    if heat.shape != (h, w):
        raise InvalidInputError(f"heatmap shape {heat.shape} != feature shape {(h, w)}")
    if window < 1 or window % 2 == 0:
        raise InvalidInputError(f"window must be odd and positive, got {window}")
    return _window_sum(features, heat, anchor, window)


def _window_sum(features: np.ndarray, heat: np.ndarray, anchor: Point2D,
                window: int) -> np.ndarray:
    """dense_feature on arrays it has already checked."""
    h, w, _ = features.shape
    r = min(h - 1, int(anchor.y * h))
    c = min(w - 1, int(anchor.x * w))
    half = window // 2
    r0, r1 = max(0, r - half), min(h, r + half + 1)
    c0, c1 = max(0, c - half), min(w, c + half + 1)
    weighted = heat[r0:r1, c0:c1, None].astype(np.float64) * features[r0:r1, c0:c1].astype(np.float64)
    return weighted.sum(axis=(0, 1)).astype(np.float32)


def resample_heatmap(heat, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resampling under the cell-center convention; identity on same shape."""
    heat = as_scalar_map(heat)
    if target_h < 1 or target_w < 1:
        raise InvalidInputError("target shape must be >= 1 in both dimensions")
    if heat.shape == (target_h, target_w):
        return heat.copy()
    return _resample(heat, target_h, target_w)


def _resample(grid: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """_bilinear of a checked map or grid at the target shape's cell centers."""
    cx, cy = cell_centers(target_h, target_w)
    return _bilinear(grid, cx[:1], cy[:, :1])


_OVERFLOW = "prompt pre-activation overflows float32"


def refine_preactivation(params: RefinementParams, f_s, f_d) -> np.ndarray:
    """e + W_s f_s + W_d f_d, before layer normalization. Linear in (f_s, f_d)."""
    pre = _preactivations(params, as_vector(f_s)[None], as_vector(f_d)[None])[0]
    if not np.all(np.isfinite(pre)):
        raise InvalidInputError(_OVERFLOW)
    return pre


def _preactivations(params: RefinementParams, f_s: np.ndarray, f_d: np.ndarray) -> np.ndarray:
    """refine_preactivation of each row of two finite float32 (A, D) stacks,
    with rows that overflow float32 left non-finite.
    The parameters are cast to float64 once; each row gets its own
    matrix-vector product, since one (A, D) @ (D, D) product rounds
    differently."""
    if f_s.shape[1] != params.dim or f_d.shape[1] != params.dim:
        raise InvalidInputError("feature dimensions must match the parameter dimension")
    e, w_s, w_d, f_s, f_d = (a.astype(np.float64)
                             for a in (params.e, params.w_sparse, params.w_dense, f_s, f_d))
    pre = np.empty(f_s.shape, dtype=np.float32)
    with np.errstate(over="ignore"):  # callers report the overflow as an error
        for i in range(len(pre)):
            pre[i] = e + w_s @ f_s[i] + w_d @ f_d[i]
    return pre


def refine_prompt(params: RefinementParams, f_s, f_d) -> np.ndarray:
    """Layer-normalized fusion of the prompt prior with sparse and dense features."""
    pre = refine_preactivation(params, f_s, f_d)
    return _layer_norm(pre, params.ln_gain, params.ln_bias, params.ln_eps)


def refine_all(scales, prior: DensePrior, anchors: AnchorSet,
               params, category: str) -> list[MemoryGuidedPrompt]:
    """Refine every (scale, anchor) pair, ordered by scale then anchor rank.

    params may be a single RefinementParams shared across scales, or a list
    with one parameter set per scale.
    """
    return _refine([as_grid(features) for features in scales], [as_scalar_map(prior.heatmap)],
                   [anchors], params, [category])[0]


def _untagged(category: str):
    return nullcontext()


def _refine(scales: list[np.ndarray], heatmaps: list[np.ndarray], anchor_sets: list[AnchorSet],
            params, categories: list[str], stage=_untagged) -> list[list[MemoryGuidedPrompt]]:
    """refine_all of every category at once: one prompt list per category, on
    scales that as_grid and heatmaps of one shape that as_scalar_map have
    already checked.

    Per scale, the heatmaps are resampled as one stack, every anchor of every
    category is sampled in one _bilinear call, and all rows are projected and
    layer-normalized together. Each of these steps works per element or per
    row, so every prompt has the bits that refining its category alone gives.
    A failure is raised inside stage(category) for the first category it
    concerns, as refining the categories one by one would raise it.
    """
    if isinstance(params, RefinementParams):
        per_scale = [params] * len(scales)
    else:
        per_scale = list(params)
    with stage(categories[0]):
        if len(per_scale) != len(scales):
            raise InvalidInputError("need one parameter set per scale")
        if any(features.shape[2] != p.dim for features, p in zip(scales, per_scale)):
            raise InvalidInputError("feature dimensions must match the parameter dimension")
    counts = [len(anchors) for anchors in anchor_sets]
    points = [point for anchors in anchor_sets for point, _resp in anchors.anchors]
    owners = np.repeat(np.arange(len(categories)), counts)
    xs, ys = np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2).T
    heats = np.stack(heatmaps)  # (C, H, W), each map C-contiguous for _window_sum
    stacked = np.moveaxis(heats, 0, -1)  # the maps as the D axis of an (H, W, C) grid
    pres = []
    for features, p in zip(scales, per_scale):
        h, w = features.shape[:2]
        heat = heats if heats.shape[1:] == (h, w) else np.ascontiguousarray(
            np.moveaxis(_resample(stacked, h, w), -1, 0))
        f_s = _bilinear(features, xs, ys)
        f_d = np.empty_like(f_s)
        for i, (point, owner) in enumerate(zip(points, owners)):
            f_d[i] = _window_sum(features, heat[owner], point, p.window)
        pres.append(_preactivations(p, f_s, f_d))
    finite = np.ones(len(points), dtype=bool)
    for pre in pres:
        finite &= np.isfinite(pre).all(axis=1)
    if not finite.all():
        with stage(categories[owners[~finite][0]]):
            raise InvalidInputError(_OVERFLOW)
    embeddings = [_layer_norm(pre, p.ln_gain, p.ln_bias, p.ln_eps)
                  for pre, p in zip(pres, per_scale)]
    prompts, start = [], 0
    for anchors, category, count in zip(anchor_sets, categories, counts):
        prompts.append([MemoryGuidedPrompt(embedding=emb[start + i], source_category=category,
                                           anchor=point, scale_index=s_idx)
                        for s_idx, emb in enumerate(embeddings)
                        for i, (point, _resp) in enumerate(anchors.anchors)])
        start += count
    return prompts


def score_prompts(prompts: list[MemoryGuidedPrompt],
                  category_embs: dict[str, np.ndarray]) -> LogitsMatrix:
    """Stand-in inner-product scoring head over candidate categories: one
    float64 product of prompt rows and category rows, stored as float32."""
    categories = list(category_embs.keys())
    sources = [p.source_category for p in prompts]
    for cat in categories:
        if category_embs[cat] is None:
            raise MissingEmbeddingError(f"no embedding for category {cat!r}")
    values = np.zeros((len(prompts), len(categories)), dtype=np.float32)
    if prompts and categories:
        rows = _stack_vectors([p.embedding for p in prompts])
        embs = _stack_vectors([category_embs[cat] for cat in categories])
        if rows.shape[1] != embs.shape[1]:
            raise InvalidInputError(f"dimension mismatch: {rows.shape[1]} vs {embs.shape[1]}")
        values = (rows.astype(np.float64) @ embs.astype(np.float64).T).astype(np.float32)
    return LogitsMatrix(values=values, categories=categories, sources=sources)


def _stack_vectors(vectors) -> np.ndarray:
    """Finite 1-D vectors of one dimension as the rows of a float32 matrix.

    Each vector's rank is checked on its own and finiteness once over the
    stack, with the messages as_vector gives.
    """
    rows = [np.asarray(v, dtype=np.float32) for v in vectors]
    for row in rows:
        if row.ndim != 1 or row.size == 0:
            as_vector(row)  # raises the rank error
    if len({r.shape[0] for r in rows}) > 1:
        raise InvalidInputError("all vectors must share one dimension")
    return _finite(np.stack(rows), (2,), "1-D vector")


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
    r = Reader.open(path, PARAMS_MAGIC, PARAMS_VERSION)
    dim, per_scale, count, window = r.u32(), r.u32(), r.u32(), r.u32()
    ln_eps = r.f32()
    if per_scale not in (0, 1) or count < 1 or (count > 1 and not per_scale):
        raise FormatError(f"a shared parameter file holds one set and a per-scale file at "
                          f"least one; got per_scale={per_scale} with {count} sets", offset=12)
    sets = []
    for _ in range(count):
        with format_errors("bad parameter set", r.offset):
            sets.append(RefinementParams(
                e=r.f32_array(dim),
                w_sparse=r.f32_array(dim * dim, shape=(dim, dim)),
                w_dense=r.f32_array(dim * dim, shape=(dim, dim)),
                ln_gain=r.f32_array(dim),
                ln_bias=r.f32_array(dim),
                ln_eps=ln_eps,
                window=window,
            ))
    r.expect_eof()
    return sets if per_scale else sets[0]
