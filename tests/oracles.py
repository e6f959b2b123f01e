"""Plain reference formulas the library's batched kernels are judged
against: one vector's unit normalization by its own np.linalg.norm; for the
key kernel, one key's float64 loop; for the columnar bank build, the
whole-grid-mask mean pool and the build loop that made one key and one value
per record; for refinement, one anchor's dense window feature, heatmap
resampling and prompt."""

import math

import numpy as np

from vismem.bank import BankBuildConfig, MemoryBank
from vismem.bank import _record_blur_score, blur_filter, filter_small_boxes, merge_duplicates
from vismem.errors import InvalidInputError, MissingEmbeddingError
from vismem.grids import EPS_NORM, as_grid, as_vector, cell_centers


def oracle_l2_normalize(v):
    """A float32 vector scaled in float64 by its own np.linalg.norm, and
    stored as float32; the zero vector if that norm is at most EPS_NORM."""
    x = np.asarray(v, dtype=np.float32).astype(np.float64)
    norm = np.linalg.norm(x)
    return (x / norm if norm > EPS_NORM else np.zeros_like(x)).astype(np.float32)


def oracle_key(phrase, scene, image, weights):
    """One memory key or query, one vector at a time: from float64 zeros,
    w_p * phrase, w_s * scene and w_g * image are added in this order, and
    the sum is stored as float32 and unit-normalized; refused as the library
    refuses it."""
    vectors = [as_vector(v) for v in (phrase, scene, image)]
    if len({v.shape[0] for v in vectors}) > 1:
        raise InvalidInputError("all vectors must share one dimension")
    acc = np.zeros(vectors[0].shape[0], dtype=np.float64)
    for w, v in zip((weights.w_p, weights.w_s, weights.w_g), vectors):
        acc += float(w) * v.astype(np.float64)
    with np.errstate(over="ignore"):  # as_vector refuses the overflow
        return oracle_l2_normalize(as_vector(acc.astype(np.float32)))


def mask_mean_pool(grid, box):
    """The mean of the cells whose centers fall inside box, found with four
    whole-grid comparisons; the cell holding the box center if none does."""
    h, w, _ = grid.shape
    cx, cy = cell_centers(h, w)
    mask = (cx >= box.x0) & (cx <= box.x1) & (cy >= box.y0) & (cy <= box.y1)
    if not mask.any():
        center = box.center
        r = min(h - 1, int(center.y * h))
        c = min(w - 1, int(center.x * w))
        return grid[r, c].copy()
    return grid[mask].astype(np.float64).mean(axis=0).astype(np.float32)


def record_by_record_bank(records, provider, config=None):
    """build_bank with one oracle_key and one mask_mean_pool call per record,
    each value normalized by oracle_l2_normalize."""
    config = config or BankBuildConfig()
    stage = [r for r in records if r.image_id not in config.exclude_images]
    after_small = filter_small_boxes(stage, config.min_area)
    survivors = merge_duplicates(after_small, config.iou_threshold)
    after_merge = len(survivors)
    if config.drop_fraction > 0 and survivors:
        survivors = blur_filter(survivors, [_record_blur_score(r) for r in survivors],
                                config.drop_fraction)
    texts, images, grids = {}, {}, {}
    keys, values = [], []
    for rec in survivors:
        try:
            for text in (rec.phrase, rec.scene):
                if text not in texts:
                    texts[text] = provider.text_embedding(text)
            if rec.image_id not in images:
                images[rec.image_id] = provider.image_embedding(rec.image_id)
            keys.append(oracle_key(texts[rec.phrase], texts[rec.scene], images[rec.image_id],
                                   config.weights))
            if rec.image_id not in grids:
                grids[rec.image_id] = as_grid(provider.feature_grid(rec.image_id))
            values.append(oracle_l2_normalize(mask_mean_pool(grids[rec.image_id], rec.box)))
        except MissingEmbeddingError as exc:
            raise MissingEmbeddingError(
                f"record (image {rec.image_id!r}, phrase {rec.phrase!r}): {exc}") from exc
    manifest = {
        "input_count": len(records),
        "removed_excluded": len(records) - len(stage),
        "removed_small": len(stage) - len(after_small),
        "removed_merge": len(after_small) - after_merge,
        "removed_blur": after_merge - len(survivors),
        "output_count": len(survivors),
        "min_area": config.min_area,
        "iou_threshold": config.iou_threshold,
        "drop_fraction": config.drop_fraction,
    }
    return MemoryBank(d_key=provider.d_key or (keys[0].shape[0] if keys else 0),
                      d_val=provider.d_val or (values[0].shape[0] if values else 0),
                      weights=config.weights, manifest=manifest, keys=keys, values=values,
                      categories=[r.phrase for r in survivors],
                      image_ids=[r.image_id for r in survivors],
                      boxes=[r.box.as_list() for r in survivors],
                      blur=[r.blur_score for r in survivors])


def clipped_window_sum(feats, heat, r, c, window):
    """The float64 sum of the heatmap-weighted features of the window's
    cells inside the grid, in row-major order, stored as float32."""
    h, w, _ = feats.shape
    half = window // 2
    r0, r1 = max(0, r - half), min(h, r + half + 1)
    c0, c1 = max(0, c - half), min(w, c + half + 1)
    weighted = heat[r0:r1, c0:c1, None].astype(np.float64) * feats[r0:r1, c0:c1].astype(np.float64)
    return weighted.sum(axis=(0, 1)).astype(np.float32)


def resample_heatmap(heat, target_h, target_w):
    """The map bilinearly sampled at the centre of each cell of a target_h x
    target_w grid, one cell at a time in float64, with the sample point
    clamped to the map's cell centres; a copy at the map's own shape."""
    h, w = heat.shape
    if (h, w) == (target_h, target_w):
        return heat.copy()
    out = np.empty((target_h, target_w), dtype=np.float32)
    for r in range(target_h):
        gy = min(max((r + 0.5) / target_h * h - 0.5, 0.0), h - 1.0)
        r0 = math.floor(gy)
        r1, fy = min(r0 + 1, h - 1), gy - r0
        for c in range(target_w):
            gx = min(max((c + 0.5) / target_w * w - 0.5, 0.0), w - 1.0)
            c0 = math.floor(gx)
            c1, fx = min(c0 + 1, w - 1), gx - c0
            top = (1.0 - fx) * float(heat[r0, c0]) + fx * float(heat[r0, c1])
            bot = (1.0 - fx) * float(heat[r1, c0]) + fx * float(heat[r1, c1])
            out[r, c] = (1.0 - fy) * top + fy * bot
    return out


def refine_prompt(params, f_s, f_d):
    """One anchor's prompt from its sparse and dense features: e + W_s f_s +
    W_d f_d in float64, stored as float32, then layer-normalized in float64
    with np.mean and np.var."""
    e, w_s, w_d = (a.astype(np.float64) for a in (params.e, params.w_sparse, params.w_dense))
    pre = (e + w_s @ f_s.astype(np.float64) + w_d @ f_d.astype(np.float64)).astype(np.float32)
    x = pre.astype(np.float64)
    normed = (x - x.mean()) / np.sqrt(x.var() + params.ln_eps)
    return (normed * params.ln_gain.astype(np.float64)
            + params.ln_bias.astype(np.float64)).astype(np.float32)
