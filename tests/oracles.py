"""Plain reference formulas the library's batched kernels are judged
against: one vector's unit normalization by its own np.linalg.norm; for the
key kernel, one key's float64 loop; for the columnar bank build, the
whole-grid-mask mean pool and the build loop that made one key and one value
per record; for refinement, one anchor's dense window feature, heatmap
resampling and prompt; for dense priors, one product per prototype and a
float64 copy of each map before its smoothing and its rescale; for bank
files, both formats written one entry and one field at a time, and for index
files both formats written one list at a time, with v2's checksums summed as
Python ints."""

import itertools
import json
import math
import struct

import numpy as np

from vismem.bank import BankBuildConfig, MemoryBank
from vismem.bank import _record_blur_score, blur_filter, filter_small_boxes, merge_duplicates
from vismem.errors import InvalidInputError, MissingEmbeddingError
from vismem.grids import EPS_NORM, as_grid, as_vector, cell_centers, gaussian_kernel_1d
from vismem.serial import Writer


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


def per_prototype_heatmaps(grid, protos, sigma):
    """The heatmap of each prototype, the zero map for an empty one, as the
    per-prototype loop made it: per block of whole grid rows (2048 cells),
    the float64 cells divided by their np.linalg.norm, zero at or below
    EPS_NORM, then `block @ v` for each prototype v in turn, stored as
    float32. Each map is cast to float64, smoothed by two reflect-mode
    correlate1d passes (none at sigma 0) and stored as float32, then min-max
    rescaled by (map - lo) / (hi - lo) in float64 from its float32 copy."""
    from scipy import ndimage

    h, w, _ = grid.shape
    rows = max(1, 2048 // w)
    maps = []
    for proto in protos:
        if proto.is_empty:
            maps.append(np.zeros((h, w), dtype=np.float32))
            continue
        raw = np.empty((h, w), dtype=np.float32)
        v = proto.vector.astype(np.float64)
        for r in range(0, h, rows):
            cells = grid[r:r + rows].astype(np.float64)
            norms = np.linalg.norm(cells, axis=2)
            cells /= np.where(norms > EPS_NORM, norms, 1.0)[:, :, None]
            cells[norms <= EPS_NORM] = 0.0
            raw[r:r + rows] = cells @ v
        smooth = raw.copy()
        if sigma > 0:
            kernel = gaussian_kernel_1d(sigma)
            out = ndimage.correlate1d(raw.astype(np.float64), kernel, axis=0, mode="reflect")
            smooth = ndimage.correlate1d(out, kernel, axis=1, mode="reflect").astype(np.float32)
        lo, hi = float(smooth.min()), float(smooth.max())
        maps.append(np.zeros_like(smooth) if hi - lo <= EPS_NORM
                    else ((smooth.astype(np.float64) - lo) / (hi - lo)).astype(np.float32))
    return maps


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


def reference_word_sum(data: bytes) -> bytes:
    """The 8-byte checksum of a v2 bank section: the sum of its little-endian
    8-byte words, the last one zero-padded, modulo 2**64."""
    data += bytes(-len(data) % 8)
    total = sum(int.from_bytes(data[i:i + 8], "little") for i in range(0, len(data), 8))
    return (total % 2**64).to_bytes(8, "little")


def _name_field(name: str) -> bytes:
    encoded = name.encode("utf-8")
    assert len(encoded) <= 64
    return encoded + b"\x00" * (64 - len(encoded))


def v2_widths(d_key: int, d_val: int) -> dict:
    """The v2 sections in file order, with each one's bytes per entry."""
    return {"key": 4 * d_key, "value": 4 * d_val, "box": 16, "blur": 4,
            "category": 64, "image_id": 64}


def reference_bank_bytes(bank, version=2):
    """The bank file written one entry and one field at a time. v1 holds one
    record per entry: key, value, category, image id, box, blur score. v2
    holds one section per field: keys, values, boxes, blur scores,
    categories, image ids; the header and each section are followed by
    their reference_word_sum."""
    w = Writer()
    w.magic("PBNK").u32(version).u32(bank.d_key).u32(bank.d_val).u64(len(bank))
    w.json_block({"weights": bank.weights.as_dict(), "manifest": bank.manifest})
    fields = {"key": [], "value": [], "category": [], "image_id": [], "box": [], "blur": []}
    for e in bank.entries:
        fields["key"].append(np.asarray(e.key, dtype="<f4").tobytes())
        fields["value"].append(np.asarray(e.value, dtype="<f4").tobytes())
        fields["category"].append(_name_field(e.category))
        fields["image_id"].append(_name_field(e.image_id))
        fields["box"].append(struct.pack("<4f", *e.box.as_list()))
        fields["blur"].append(struct.pack("<f", math.nan if e.blur_score is None
                                          else e.blur_score))
    header = w.getvalue()
    if version == 1:
        return header + b"".join(b"".join(record) for record in zip(*fields.values()))
    sections = [b"".join(fields[name]) for name in v2_widths(bank.d_key, bank.d_val)]
    return header + reference_word_sum(header) + b"".join(
        section + reference_word_sum(section) for section in sections)


def v2_parts(raw: bytes) -> dict:
    """Where the header and each section of a v2 bank file lie, as
    (start, end) byte offsets; the part's checksum follows at end."""
    d_key, d_val, count, n = struct.unpack_from("<IIQI", raw, 8)
    parts, at = {"header": (0, 28 + n)}, 28 + n + 8
    for name, width in v2_widths(d_key, d_val).items():
        parts[name] = (at, at + count * width)
        at = parts[name][1] + 8
    return parts


def index_v2_parts(raw: bytes) -> dict:
    """Where the header and each section of a v2 index file lie, as (start,
    end) byte offsets; the part's checksum follows at end. No more than the
    header if its JSON holds no params that size the sections, and no ids
    or codes if the offsets lie past the file."""
    n = struct.unpack_from("<I", raw, 8)[0]
    parts = {"header": (0, 16 + n)}
    try:
        params = json.loads(raw[12:12 + n])
        nlist, m, ksub = params["nlist"], params["m"], 2 ** params["nbits"]
        dim = struct.unpack_from("<I", raw, 12 + n)[0]
        dsub, rem = divmod(dim, m)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError, struct.error):
        return parts
    if rem:
        return parts
    at = 24 + n
    for name, size in (("coarse", 4 * nlist * dim), ("codebooks", 4 * m * ksub * dsub),
                       ("offsets", 8 * (nlist + 1))):
        parts[name] = (at, at + size)
        at += size + 8
    if at > len(raw):
        return parts
    count = struct.unpack_from("<q", raw, at - 16)[0]  # the last offset
    parts["ids"] = (at, at + 8 * count)
    parts["codes"] = (at + 8 * count + 8, at + 8 * count + 8 + m * count)
    return parts


def resealed(raw: bytes) -> bytes:
    """A v2 bank or index file with every checksum recomputed, so that a
    field patched into it meets the loader's own check of that field, not a
    checksum. A part that ends past the file, as after a patched count or
    dim, is left as it is."""
    out = bytearray(raw)
    parts = index_v2_parts(raw) if raw[:4] == b"PIVF" else v2_parts(raw)
    for start, end in parts.values():
        if end + 8 <= len(out):
            out[end:end + 8] = reference_word_sum(bytes(out[start:end]))
    return bytes(out)


def reference_index_bytes(index, version=2):
    """The index file written one list at a time. Both versions start with
    magic, version, the JSON block of the params and the u32 dim. v1 then
    holds the coarse centroids, the PQ codebooks and, per list, its u64
    size, its int64 ids and its uint8 codes. In v2 the header is followed by
    its reference_word_sum, then by the sections of coarse centroids, PQ
    codebooks, offsets, ids and codes, each followed by its
    reference_word_sum."""
    w = Writer()
    w.magic("PIVF").u32(version)
    w.json_block(index.params.as_dict())
    w.u32(index.dim)
    header = w.getvalue()
    coarse = np.asarray(index.coarse_centroids, dtype="<f4").tobytes()
    codebooks = np.asarray(index.pq_codebooks, dtype="<f4").tobytes()
    sizes, ids, codes = [], [], []
    for list_no in range(index.params.nlist):
        rows = slice(int(index.offsets[list_no]), int(index.offsets[list_no + 1]))
        sizes.append(rows.stop - rows.start)
        ids.append(np.asarray(index.ids[rows], dtype="<i8").tobytes())
        codes.append(np.asarray(index.codes[rows], dtype=np.uint8).tobytes())
    if version == 1:
        return header + coarse + codebooks + b"".join(
            struct.pack("<Q", size) + list_ids + list_codes
            for size, list_ids, list_codes in zip(sizes, ids, codes))
    offsets = struct.pack(f"<{len(sizes) + 1}q", *itertools.accumulate(sizes, initial=0))
    return b"".join(part + reference_word_sum(part) for part in (
        header, coarse, codebooks, offsets, b"".join(ids), b"".join(codes)))
