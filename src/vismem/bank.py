"""Scene-aware visual memory: construction, filtering, and persistence.

Each entry pairs a retrieval key (weighted mix of phrase, scene and global
image embeddings, unit-normalized) with a visual value (unit-normalized mean
of the patch features inside the grounded box). Embeddings are supplied by an
EmbeddingProvider; no model inference happens here.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import FormatError, InvalidInputError, MissingEmbeddingError
from .grids import (
    Box2D,
    _mean_pool,
    as_grid,
    as_scalar_map,
    as_vector,
    l2_normalize,
    mean_pool_region,
    weighted_combine,
)
from .serial import (Reader, Writer, atomic_write_bytes, format_errors, is_json_number,
                     json_fields, read_file, read_json_lines)

# Fixed width of the category and image id fields in the bank file:
# zero-padded UTF-8.
NAME_FIELD_BYTES = 64

BANK_MAGIC = "PBNK"
BANK_VERSION = 1
TABLE_MAGIC = "PMEM"
TABLE_VERSION = 1


def _record_dtype(d_key: int, d_val: int) -> np.dtype:
    """One v1 bank file entry: key and value as f32, category and image id,
    box (x0, y0, x1, y1) as 4 f32, blur score as f32 (NaN for none)."""
    name = f"S{NAME_FIELD_BYTES}"
    return np.dtype([("key", "<f4", (d_key,)), ("value", "<f4", (d_val,)),
                     ("category", name), ("image_id", name),
                     ("box", "<f4", (4,)), ("blur", "<f4")])


def entry_stride(d_key: int, d_val: int) -> int:
    """On-disk byte size of one bank entry."""
    return _record_dtype(d_key, d_val).itemsize


@dataclass(frozen=True)
class KeyWeights:
    """Mixing weights for phrase, scene, and global image context."""

    w_p: float = 1.0
    w_s: float = 0.3
    w_g: float = 0.01

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GroundingRecord:
    """One grounded phrase-region annotation."""

    image_id: str
    box: Box2D
    phrase: str
    scene: str = ""
    gray_crop: np.ndarray | None = None
    blur_score: float | None = None


class EmbeddingProvider:
    """Lookup tables of precomputed embeddings and feature grids.

    The empty scene string always maps to the zero vector, so the scene term
    vanishes for images without a descriptor.
    """

    def __init__(self, text_table=None, image_table=None, feature_table=None,
                 d_key=None, d_val=None):
        self.text_table = {k: as_vector(v) for k, v in (text_table or {}).items()}
        self.image_table = {k: as_vector(v) for k, v in (image_table or {}).items()}
        self.feature_table = {k: as_grid(g) for k, g in (feature_table or {}).items()}
        # Unless given, the dims are those of the first table entry.
        self.d_key = d_key or next((v.shape[0] for table in (self.text_table, self.image_table)
                                    for v in table.values()), None)
        self.d_val = d_val or next((g.shape[2] for g in self.feature_table.values()), None)

    def text_embedding(self, text: str) -> np.ndarray:
        if text == "":
            if self.d_key is None:
                raise MissingEmbeddingError("key dimension unknown for empty-string embedding")
            return np.zeros(self.d_key, dtype=np.float32)
        if text not in self.text_table:
            raise MissingEmbeddingError(f"no text embedding for {text!r}")
        return self.text_table[text]

    def image_embedding(self, image_id: str) -> np.ndarray:
        if image_id not in self.image_table:
            raise MissingEmbeddingError(f"no image embedding for {image_id!r}")
        return self.image_table[image_id]

    def feature_grid(self, image_id: str) -> np.ndarray:
        if image_id not in self.feature_table:
            raise MissingEmbeddingError(f"no feature grid for {image_id!r}")
        return self.feature_table[image_id]


class HashingProvider(EmbeddingProvider):
    """Deterministic synthetic embedder: hashes strings to seeded unit vectors.

    Enables end-to-end runs and tests without any ML runtime. Feature grids
    must still be registered explicitly.
    """

    def __init__(self, d_key: int, d_val: int, seed: int = 0, feature_table=None):
        super().__init__(feature_table=feature_table, d_key=d_key, d_val=d_val)
        self.seed = seed

    def _hash_vector(self, kind: str, name: str) -> np.ndarray:
        digest = hashlib.blake2b(
            f"{self.seed}|{kind}|{name}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        return l2_normalize(rng.standard_normal(self.d_key).astype(np.float32))

    def text_embedding(self, text: str) -> np.ndarray:
        return super().text_embedding(text) if text == "" else self._hash_vector("text", text)

    def image_embedding(self, image_id: str) -> np.ndarray:
        return self._hash_vector("image", image_id)


@dataclass(eq=False)
class MemoryEntry:
    """One memory slot: unit-norm retrieval key + unit-norm visual value."""

    key: np.ndarray
    value: np.ndarray
    category: str
    image_id: str
    box: Box2D
    blur_score: float | None = None


def _column(name: str, data, dtype, shape: tuple, convert=np.array) -> np.ndarray:
    """convert(data) (a copy by default) as a read-only array, which must have
    exactly its shape unless both are empty."""
    try:
        column = convert(data, dtype=dtype)
    except ValueError as exc:  # ragged rows
        raise InvalidInputError(f"bank column {name!r}: {exc}") from exc
    if column.shape != shape and (column.size or math.prod(shape)):
        raise InvalidInputError(f"bank column {name!r} has shape {column.shape}, want {shape}")
    column = column.reshape(shape)
    column.flags.writeable = False
    return column


class MemoryBank:
    """Immutable ordered memory stored as columns. Entry ids are row positions.

    keys (N, d_key) and values (N, d_val) are float32; categories and
    image_ids are numpy string arrays; boxes (N, 4) are float32 x0, y0, x1,
    y1; blur (N,) is float32 with NaN for an entry without a score. Every
    column is a read-only copy of what was passed in. `entries` is accepted
    as rows and converted to columns.
    """

    def __init__(self, entries: list[MemoryEntry] | None = None, d_key: int = 0,
                 d_val: int = 0, weights: KeyWeights = KeyWeights(),
                 manifest: dict | None = None, *, keys=(), values=(), categories=(),
                 image_ids=(), boxes=(), blur=()):
        if entries is not None:
            keys = [e.key for e in entries]
            values = [e.value for e in entries]
            categories = [e.category for e in entries]
            image_ids = [e.image_id for e in entries]
            boxes = [e.box.as_list() for e in entries]
            blur = [e.blur_score for e in entries]
        self._set_columns(np.array, d_key, d_val, weights, manifest, keys=keys, values=values,
                          categories=categories, image_ids=image_ids, boxes=boxes, blur=blur)

    @classmethod
    def _adopt(cls, d_key: int, d_val: int, weights: KeyWeights, manifest: dict,
               **columns) -> "MemoryBank":
        """A bank whose columns are the given arrays themselves, checked and
        made read-only but not copied, for a loader that made them."""
        bank = cls.__new__(cls)
        bank._set_columns(np.asarray, d_key, d_val, weights, manifest, **columns)
        return bank

    def _set_columns(self, convert, d_key, d_val, weights, manifest, *, keys, values,
                     categories, image_ids, boxes, blur) -> None:
        n = len(image_ids)
        self.d_key, self.d_val, self.weights = d_key, d_val, weights
        self.manifest = {} if manifest is None else manifest
        self.keys = _column("keys", keys, np.float32, (n, d_key), convert)
        self.values = _column("values", values, np.float32, (n, d_val), convert)
        self.categories = _column("categories", categories, str, (n,), convert)
        self.image_ids = _column("image_ids", image_ids, str, (n,), convert)
        self.boxes = _column("boxes", boxes, np.float32, (n, 4), convert)
        self.blur = _column("blur", blur, np.float32, (n,), convert)  # None becomes NaN

    def __len__(self) -> int:
        return self.image_ids.shape[0]

    def keys_matrix(self) -> np.ndarray:
        return self.keys

    @property
    def entries(self) -> list[MemoryEntry]:
        """The bank as row objects, built on each access."""
        rows = zip(self.keys, self.values, self.categories.tolist(), self.image_ids.tolist(),
                   self.boxes.tolist(), self.blur.tolist())
        return [MemoryEntry(key, value, category, image_id, Box2D(*box),
                            None if math.isnan(blur) else blur)
                for key, value, category, image_id, box, blur in rows]

    def __eq__(self, other):
        if not isinstance(other, MemoryBank):
            return NotImplemented
        return (
            self.d_key == other.d_key
            and self.d_val == other.d_val
            and self.weights == other.weights
            and self.manifest == other.manifest
            and all(np.array_equal(getattr(self, c), getattr(other, c), equal_nan=c == "blur")
                    for c in ("keys", "values", "categories", "image_ids", "boxes", "blur"))
        )


def build_key(phrase_emb, scene_emb, image_emb, weights: KeyWeights) -> np.ndarray:
    """Normalized weighted mix of phrase, scene, and image embeddings."""
    combined = weighted_combine(
        [phrase_emb, scene_emb, image_emb], [weights.w_p, weights.w_s, weights.w_g]
    )
    return l2_normalize(combined)


def build_value(provider: EmbeddingProvider, image_id: str, box: Box2D) -> np.ndarray:
    """Normalized mean of the patch features inside the box."""
    grid = provider.feature_grid(image_id)
    return l2_normalize(mean_pool_region(grid, box))


def filter_small_boxes(records: list[GroundingRecord], min_area: float) -> list[GroundingRecord]:
    """Drop records whose normalized box area is below min_area."""
    if min_area < 0:
        raise InvalidInputError(f"min_area must be >= 0, got {min_area}")
    return [r for r in records if r.box.area >= min_area]


def laplacian_variance(gray) -> float:
    """Blur score: population variance of the 4-neighbor Laplacian response.

    Valid-region convolution only (no padding), so the crop must be at
    least 3x3.
    """
    gray = as_scalar_map(gray).astype(np.float64)
    h, w = gray.shape
    if h < 3 or w < 3:
        raise InvalidInputError(f"crop must be at least 3x3, got {h}x{w}")
    lap = (
        gray[:-2, 1:-1] + gray[2:, 1:-1] + gray[1:-1, :-2] + gray[1:-1, 2:]
        - 4.0 * gray[1:-1, 1:-1]
    )
    return float(lap.var())


def merge_duplicates(records: list[GroundingRecord], iou_threshold: float) -> list[GroundingRecord]:
    """Keep the first of any same-image, same-phrase group with IoU >= threshold."""
    if not (0.0 < iou_threshold <= 1.0):
        raise InvalidInputError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    kept: list[GroundingRecord] = []
    kept_by_group: dict[tuple[str, str], list[Box2D]] = {}
    for rec in records:
        group = (rec.image_id, rec.phrase)
        boxes = kept_by_group.setdefault(group, [])
        if any(rec.box.iou(b) >= iou_threshold for b in boxes):
            continue
        boxes.append(rec.box)
        kept.append(rec)
    return kept


def blur_filter(records: list[GroundingRecord], scores: list[float],
                drop_fraction: float) -> list[GroundingRecord]:
    """Drop the floor(drop_fraction * N) lowest-scoring records.

    Ties at the cutoff are broken by dropping the lower record index first.
    """
    if not (0.0 <= drop_fraction < 1.0):
        raise InvalidInputError(f"drop_fraction must be in [0, 1), got {drop_fraction}")
    if len(records) != len(scores):
        raise InvalidInputError("records and scores must have equal length")
    n_drop = math.floor(drop_fraction * len(records))
    if n_drop == 0:
        return list(records)
    order = sorted(range(len(records)), key=lambda i: (scores[i], i))
    dropped = set(order[:n_drop])
    return [r for i, r in enumerate(records) if i not in dropped]


@dataclass
class BankBuildConfig:
    """Filter and mixing settings for bank construction."""

    weights: KeyWeights = field(default_factory=KeyWeights)
    min_area: float = 1e-4
    iou_threshold: float = 0.9
    drop_fraction: float = 0.10
    exclude_images: frozenset = frozenset()


def _record_blur_score(rec: GroundingRecord) -> float:
    if rec.blur_score is not None:
        return float(rec.blur_score)
    if rec.gray_crop is not None:
        return laplacian_variance(rec.gray_crop)
    raise InvalidInputError(
        f"record (image {rec.image_id!r}, phrase {rec.phrase!r}) has neither "
        "a blur score nor a grayscale crop; blur filtering needs one"
    )


def build_bank(records: list[GroundingRecord], provider: EmbeddingProvider,
               config: BankBuildConfig | None = None) -> MemoryBank:
    """Run the construction pipeline: exclusion -> small-box filter ->
    duplicate merge -> blur filter -> key/value embedding.
    """
    config = config or BankBuildConfig()
    input_count = len(records)

    stage = [r for r in records if r.image_id not in config.exclude_images]
    removed_excluded = input_count - len(stage)

    after_small = filter_small_boxes(stage, config.min_area)
    removed_small = len(stage) - len(after_small)

    after_merge = merge_duplicates(after_small, config.iou_threshold)
    removed_merge = len(after_small) - len(after_merge)

    if config.drop_fraction > 0 and after_merge:
        scores = [_record_blur_score(r) for r in after_merge]
        survivors = blur_filter(after_merge, scores, config.drop_fraction)
    else:
        survivors = after_merge
    removed_blur = len(after_merge) - len(survivors)

    # Each distinct text, image and feature grid is looked up (and a grid
    # checked) once, in the order a record-by-record build first asks for it.
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
            values.append(l2_normalize(_mean_pool(grids[rec.image_id], rec.box)))
        except MissingEmbeddingError as exc:
            raise MissingEmbeddingError(
                f"record (image {rec.image_id!r}, phrase {rec.phrase!r}): {exc}"
            ) from exc

    d_key = provider.d_key or (keys[0].shape[0] if keys else 0)
    d_val = provider.d_val or (values[0].shape[0] if values else 0)
    manifest = {
        "input_count": input_count,
        "removed_excluded": removed_excluded,
        "removed_small": removed_small,
        "removed_merge": removed_merge,
        "removed_blur": removed_blur,
        "output_count": len(survivors),
        "min_area": config.min_area,
        "iou_threshold": config.iou_threshold,
        "drop_fraction": config.drop_fraction,
    }
    return MemoryBank(d_key=d_key, d_val=d_val, weights=config.weights, manifest=manifest,
                      keys=keys, values=values, categories=[r.phrase for r in survivors],
                      image_ids=[r.image_id for r in survivors],
                      boxes=[r.box.as_list() for r in survivors],
                      blur=[r.blur_score for r in survivors])


# --- persistence -----------------------------------------------------------

def _ascii_names(units: np.ndarray, kind: str) -> np.ndarray | None:
    """The names whose code units (bytes or UCS-4) are the rows of units, as a
    column of kind "S" or "U" as wide as the longest name, which is the column
    np.char.encode or decode makes of them; None if a unit is not ASCII."""
    if units.size and units.max() >= 128:
        return None
    used = np.flatnonzero(units.any(axis=0))
    width = int(used[-1]) + 1 if used.size else 1
    unit = np.uint32 if kind == "U" else np.uint8
    return np.ascontiguousarray(units[:, :width], dtype=unit).view(f"{kind}{width}")[:, 0]


def _encode_names(column: np.ndarray) -> np.ndarray:
    """A name column as np.char.encode(column, "utf-8") makes it."""
    units = np.ascontiguousarray(column).view(np.uint32)
    encoded = _ascii_names(units.reshape(len(column), column.itemsize // 4), "S")
    return np.char.encode(column, "utf-8") if encoded is None else encoded


def _decode_names(column: np.ndarray) -> np.ndarray:
    """A column of 64-byte name fields as np.char.decode(column, "utf-8") makes it."""
    units = column.view(np.uint8).reshape(len(column), NAME_FIELD_BYTES)
    names = _ascii_names(units, "U")
    return np.char.decode(column, "utf-8") if names is None else names


def save_bank(bank: MemoryBank, path) -> None:
    records = np.zeros(len(bank), dtype=_record_dtype(bank.d_key, bank.d_val))
    records["key"], records["value"] = bank.keys, bank.values
    records["box"], records["blur"] = bank.boxes, bank.blur
    for name, column in (("category", bank.categories), ("image_id", bank.image_ids)):
        encoded = _encode_names(column)
        if encoded.itemsize > NAME_FIELD_BYTES:
            longest = column[np.argmax(np.char.str_len(encoded))]
            raise FormatError(f"{name} {longest!r} exceeds the {NAME_FIELD_BYTES}-byte field")
        records[name] = encoded
    w = Writer().magic(BANK_MAGIC).u32(BANK_VERSION)
    w.u32(bank.d_key).u32(bank.d_val).u64(len(bank))
    w.json_block({"weights": bank.weights.as_dict(), "manifest": bank.manifest})
    atomic_write_bytes(path, w.getvalue(), records)


def _read_records(r, layout: np.dtype, count: int) -> dict[str, np.ndarray]:
    """Each field of the next count records of a `Reader.stream` reader as an
    array of its own, in native byte order: float32 keys, values, boxes and
    blur, and the raw 64-byte names."""
    chunks = r.record_chunks(layout, count)  # refuses a count the file cannot hold
    columns = {name: np.empty((count, *layout[name].shape), layout[name].base.newbyteorder("="))
               for name in layout.names}
    for first, chunk in chunks:
        for name, column in columns.items():
            column[first:first + len(chunk)] = chunk[name]
    return columns


def load_bank(path) -> MemoryBank:
    """Read a bank file. Its records are read a chunk at a time and copied
    into the bank's columns, so a load holds the bank plus one chunk."""
    with Reader.stream(path, BANK_MAGIC, BANK_VERSION) as r:
        d_key, d_val, count = r.u32(), r.u32(), r.u64()
        meta_at = r.offset
        meta = r.json_block()
        weights = meta.get("weights") if isinstance(meta, dict) else None
        if not (isinstance(weights, dict) and weights.keys() == KeyWeights().as_dict().keys()
                and all(map(is_json_number, weights.values()))
                and isinstance(meta.get("manifest"), dict)):
            raise FormatError(f"bad weights or manifest in bank header: {meta!r:.200}",
                              offset=meta_at)
        records_at = r.offset
        with format_errors("bad bank record layout", 8):
            layout = _record_dtype(d_key, d_val)
        columns = _read_records(r, layout, count)
        r.expect_eof()
    x0, y0, x1, y1 = columns["box"].T
    if not np.all((0 <= x0) & (x0 < x1) & (x1 <= 1) & (0 <= y0) & (y0 < y1) & (y1 <= 1)):
        raise FormatError("bank has a box outside 0 <= x0 < x1 <= 1, 0 <= y0 < y1 <= 1")
    with format_errors("bad UTF-8 in a category or image id", records_at):
        categories, image_ids = (_decode_names(columns.pop(name))
                                 for name in ("category", "image_id"))
    return MemoryBank._adopt(d_key, d_val, KeyWeights(**weights), meta["manifest"],
                             keys=columns["key"], values=columns["value"],
                             categories=categories, image_ids=image_ids,
                             boxes=columns["box"], blur=columns["blur"])


def save_embedding_table(table: dict[str, np.ndarray], path) -> None:
    """Write a named-vector table: PMEM magic, version, dim, count, entries."""
    vecs = {name: as_vector(v) for name, v in table.items()}
    dims = {v.shape[0] for v in vecs.values()}
    if len(dims) > 1:
        raise InvalidInputError(f"mixed dimensions in table: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    w = Writer()
    w.magic(TABLE_MAGIC).u32(TABLE_VERSION).u32(dim).u64(len(vecs))
    for name, vec in vecs.items():
        encoded = name.encode("utf-8")
        w.u32(len(encoded)).raw(encoded).f32_array(vec)
    atomic_write_bytes(path, w.getvalue())


def load_embedding_table(path) -> dict[str, np.ndarray]:
    r = Reader.open(path, TABLE_MAGIC, TABLE_VERSION)
    dim, count = r.u32(), r.u64()
    table = {}
    for _ in range(count):
        name = r._take(r.u32())
        with format_errors("bad UTF-8 name", r.offset - len(name)):
            table[name.decode("utf-8")] = r.f32_array(dim)
    r.expect_eof()
    return table


def load_grounding_records(path) -> list[GroundingRecord]:
    """Read line-delimited JSON grounding records.

    Each line: {image_id, box: [x0,y0,x1,y1], phrase, scene?, blur_score?,
    gray_crop?: path to an 8-bit binary PGM, relative to the records file}.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(path)))

    def record(obj) -> GroundingRecord:
        image_id, box, phrase = json_fields(obj, image_id=str, box=list, phrase=str)
        scene, crop, blur = obj.get("scene", ""), obj.get("gray_crop") or "", obj.get("blur_score")
        if not (isinstance(scene, str) and isinstance(crop, str)
                and len(box) == 4 and all(map(is_json_number, box))
                and (blur is None or is_json_number(blur) and math.isfinite(blur))):
            raise InvalidInputError("want string scene and gray_crop, a box [x0, y0, x1, y1] "
                                    "of numbers and a finite numeric blur_score")
        return GroundingRecord(
            image_id=image_id, box=Box2D(*map(float, box)), phrase=phrase, scene=scene,
            gray_crop=read_pgm(os.path.join(base, crop)) if crop else None,
            blur_score=blur)

    return read_json_lines(path, record)


# One step of a PGM header scan: whitespace, a "#" comment to the end of its
# line where a token would start, or a token; each step is linear in its length.
_PGM_STEP = re.compile(rb"\s+|#[^\n]*|(\S+)")


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) 8-bit PGM into a float32 (H, W) map of 0..255."""
    data = read_file(path)
    tokens, pos = [], 0
    while len(tokens) < 4:
        step = _PGM_STEP.match(data, pos)
        if step is None:
            raise FormatError("truncated PGM header", offset=pos)
        tokens += filter(None, step.groups())
        pos = step.end()
    with format_errors("bad PGM header", 0):
        width, height, maxval = map(int, tokens[1:])
    if not (tokens[0] == b"P5" and width > 0 and height > 0 and 0 < maxval <= 255):
        raise FormatError(f"want a binary 8-bit PGM with width, height >= 1, got {tokens[0]!r:.40} "
                          f"{width}x{height} with maxval {maxval}", offset=0)
    pos += 1  # one whitespace byte after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) < width * height:
        raise FormatError("truncated PGM pixel data", offset=pos)
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width).astype(np.float32)


def write_pgm(scalar_map, path) -> None:
    """Write a float map (any range) as an 8-bit binary PGM, min-max scaled."""
    arr = as_scalar_map(scalar_map).astype(np.float64)
    lo, hi = arr.min(), arr.max()
    scaled = np.zeros_like(arr) if hi - lo <= 0 else (arr - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())
