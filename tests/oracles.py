"""Record-by-record oracles for the columnar bank build: the whole-grid-mask
mean pool and the build loop that made one key and one value per record."""

import numpy as np

from vismem.bank import BankBuildConfig, MemoryBank, build_key
from vismem.bank import _record_blur_score, blur_filter, filter_small_boxes, merge_duplicates
from vismem.errors import MissingEmbeddingError
from vismem.grids import as_grid, cell_centers, l2_normalize


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
    """build_bank with one build_key and one mask_mean_pool call per record."""
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
            keys.append(build_key(texts[rec.phrase], texts[rec.scene], images[rec.image_id],
                                  config.weights))
            if rec.image_id not in grids:
                grids[rec.image_id] = as_grid(provider.feature_grid(rec.image_id))
            values.append(l2_normalize(mask_mean_pool(grids[rec.image_id], rec.box)))
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
