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
from collections.abc import MutableMapping
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import FormatError, InvalidInputError, MissingEmbeddingError
from .grids import (
    Box2D,
    _all_finite,
    _box_means,
    _check,
    _l2_normalize,
    as_grid,
    as_scalar_map,
    as_vector,
)
from .serial import (Reader, atomic_write_bytes, finite_check, format_errors, header,
                     is_json_number, json_bytes, json_fields, json_value, read_file,
                     read_json_lines, save_sealed)

# Fixed width of the category and image id fields in the bank file:
# zero-padded UTF-8.
NAME_FIELD_BYTES = 64

BANK_MAGIC = "PBNK"
BANK_VERSION = 2
TABLE_MAGIC = "PMEM"
TABLE_VERSION = 1


def _record_dtype(d_key: int, d_val: int) -> np.dtype:
    """The fields of one bank entry on disk: key and value as f32, category
    and image id, box (x0, y0, x1, y1) as 4 f32, blur score as f32 (NaN for
    none). A bank file holds each field of every entry in a section of its
    own (_SECTIONS)."""
    name = f"S{NAME_FIELD_BYTES}"
    return np.dtype([("key", "<f4", (d_key,)), ("value", "<f4", (d_val,)),
                     ("category", name), ("image_id", name),
                     ("box", "<f4", (4,)), ("blur", "<f4")])


def entry_stride(d_key: int, d_val: int) -> int:
    """On-disk byte size of one bank entry, 4 * (d_key + d_val) + 148: its
    share of the sections of a bank file."""
    return _record_dtype(d_key, d_val).itemsize


@dataclass(frozen=True)
class KeyWeights:
    """Mixing weights for phrase, scene, and global image context."""

    w_p: float = 1.0
    w_s: float = 0.3
    w_g: float = 0.01

    def __post_init__(self):
        for name in _WEIGHT_NAMES:
            object.__setattr__(self, name, _check(name, getattr(self, name)))

    def as_dict(self) -> dict:
        return asdict(self)


_WEIGHT_NAMES = tuple(f.name for f in fields(KeyWeights))  # the keys a bank header's weights have


@dataclass
class GroundingRecord:
    """One grounded phrase-region annotation."""

    image_id: str
    box: Box2D
    phrase: str
    scene: str = ""
    gray_crop: np.ndarray | None = None
    blur_score: float | None = None


def _dims(kind: str, d_key, d_val, optional: bool) -> tuple:
    """d_key and d_val as ints >= 1, or None where optional; one error for both."""
    try:
        return tuple(None if dim is None and optional else _check(name, dim)
                     for name, dim in (("d_key", d_key), ("d_val", d_val)))
    except InvalidInputError:
        raise InvalidInputError(f"{kind}dims must be >= 1 and integers, "
                                f"got d_key={d_key!r}, d_val={d_val!r}") from None


class _CheckedTable(MutableMapping):
    """A provider table: names mapped to arrays that were checked as they
    entered and are read-only from then on.

    Every assignment, by item or through the constructor, update or
    setdefault, runs check (as_vector or as_grid) on the value. The checked
    array is frozen in place if it owns its data, so the caller's own
    reference turns read-only too; any other array (a view or a broadcast)
    is copied first, so nothing outside the table can write into what it
    holds. A view the caller took of an owning array before it entered can
    still write to it: that is the caller's to avoid."""

    def __init__(self, name: str, check, items=None):
        self._name, self._check, self._data = name, check, {}
        self.update(items or {})

    def __setitem__(self, key, value) -> None:
        try:
            arr = self._check(value)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{self._name}[{key!r}]: {exc}") from exc
        if not arr.flags.owndata:
            arr = arr.copy()
        arr.flags.writeable = False
        self._data[key] = arr

    def __getitem__(self, key) -> np.ndarray:
        return self._data[key]

    def __delitem__(self, key) -> None:
        del self._data[key]

    def __contains__(self, key) -> bool:
        return key in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


class EmbeddingProvider:
    """Lookup tables of precomputed embeddings and feature grids.

    The three tables check each vector or grid as it enters, in the
    constructor or by item assignment, and hold it read-only (see
    _CheckedTable). The empty scene string always maps to the zero vector,
    so the scene term vanishes for images without a descriptor.
    """

    def __init__(self, text_table=None, image_table=None, feature_table=None,
                 d_key=None, d_val=None):
        d_key, d_val = _dims("", d_key, d_val, optional=True)
        self.text_table = _CheckedTable("text_table", as_vector, text_table)
        self.image_table = _CheckedTable("image_table", as_vector, image_table)
        self.feature_table = _CheckedTable("feature_table", as_grid, feature_table)
        # Unless given, the dims are those of the first table entry.
        if d_key is None:
            d_key = next((v.shape[0] for table in (self.text_table, self.image_table)
                          for v in table.values()), None)
        if d_val is None:
            d_val = next((g.shape[2] for g in self.feature_table.values()), None)
        self.d_key, self.d_val = d_key, d_val

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


def _checked_grid(provider: EmbeddingProvider, image_id: str, grid) -> np.ndarray:
    """grid, which provider.feature_grid(image_id) returned, as a checked
    grid: the very array the provider's checked feature table holds for
    image_id is returned as it is while it is still read-only, since it was
    checked as it entered; any other (a subclass's own grid, one from a
    plain dict put in the table's place, or a held grid someone made
    writable again) goes through as_grid."""
    table = getattr(provider, "feature_table", None)
    if (isinstance(table, _CheckedTable) and table._data.get(image_id) is grid
            and not grid.flags.writeable):
        return grid
    return as_grid(grid)


class HashingProvider(EmbeddingProvider):
    """Deterministic synthetic embedder: hashes strings to seeded unit vectors.

    Enables end-to-end runs and tests without any ML runtime. Feature grids
    must still be registered explicitly. Each text vector is drawn once and
    kept, read-only; image vectors are drawn on every call, since a run over
    many images would keep one per image.
    """

    def __init__(self, d_key: int, d_val: int, seed: int = 0, feature_table=None):
        _dims("hashing ", d_key, d_val, optional=False)
        super().__init__(feature_table=feature_table, d_key=d_key, d_val=d_val)
        self.seed = seed
        self._texts = {}  # (hashed string, d_key) -> the text vector drawn from them

    def _hash_vector(self, kind: str, name: str) -> np.ndarray:
        digest = hashlib.blake2b(
            f"{self.seed}|{kind}|{name}".encode("utf-8"), digest_size=8
        ).digest()
        rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))
        return _l2_normalize(rng.standard_normal(self.d_key).astype(np.float32))

    def text_embedding(self, text: str) -> np.ndarray:
        if text == "":
            return super().text_embedding(text)
        memo = (f"{self.seed}|text|{text}", self.d_key)  # what _hash_vector draws it from
        vector = self._texts.get(memo)
        if vector is None:
            vector = self._texts[memo] = self._hash_vector("text", text)
            vector.flags.writeable = False
        return vector

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
        made read-only but not copied, for a loader or builder that made them."""
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
    """Normalized weighted mix of phrase, scene, and image embeddings: the
    one-row case of _key_column."""
    vectors = [as_vector(v) for v in (phrase_emb, scene_emb, image_emb)]
    return _key_column(vectors, [(0, 1, 2)], weights)[0]


def filter_small_boxes(records: list[GroundingRecord], min_area: float) -> list[GroundingRecord]:
    """Drop records whose normalized box area is below min_area."""
    min_area = _check("min_area", min_area)
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
    iou_threshold = _check("iou_threshold", iou_threshold)
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


def _non_finite_blur(rec: GroundingRecord, score: float) -> InvalidInputError:
    return InvalidInputError(f"record (image {rec.image_id!r}, phrase {rec.phrase!r}) "
                             f"has a non-finite blur score {score}")


def blur_filter(records: list[GroundingRecord], scores: list[float],
                drop_fraction: float) -> list[GroundingRecord]:
    """Drop the floor(drop_fraction * N) lowest-scoring records; every score
    must be finite.

    Ties at the cutoff are broken by dropping the lower record index first.
    """
    drop_fraction = _check("drop_fraction", drop_fraction)
    if len(records) != len(scores):
        raise InvalidInputError("records and scores must have equal length")
    scores = np.asarray(scores, dtype=np.float64)
    if not _all_finite(scores):
        first = int(np.argmax(~np.isfinite(scores)))
        raise _non_finite_blur(records[first], scores[first])
    n_drop = math.floor(drop_fraction * len(records))
    kept = np.ones(len(records), dtype=bool)
    kept[np.lexsort((scores,))[:n_drop]] = False  # a stable sort: ties keep index order
    return [r for r, keep in zip(records, kept.tolist()) if keep]


@dataclass
class BankBuildConfig:
    """Filter and mixing settings for bank construction."""

    weights: KeyWeights = field(default_factory=KeyWeights)
    min_area: float = 1e-4
    iou_threshold: float = 0.9
    drop_fraction: float = 0.10
    exclude_images: frozenset = frozenset()

    def __post_init__(self):
        for name in ("min_area", "iou_threshold", "drop_fraction"):
            setattr(self, name, _check(name, getattr(self, name)))


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
    duplicate merge -> blur filter -> key/value embedding. A record's blur
    score, where given, must be finite.
    """
    config = config or BankBuildConfig()
    input_count = len(records)
    for rec in records:  # the bank stores None as NaN, its "no score"
        if rec.blur_score is not None and not math.isfinite(rec.blur_score):
            raise _non_finite_blur(rec, rec.blur_score)

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

    keys, values, boxes = _embed(survivors, provider, config.weights)
    d_key = provider.d_key or keys.shape[1]
    d_val = provider.d_val or values.shape[1]
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
    return MemoryBank._adopt(d_key, d_val, config.weights, manifest, keys=keys, values=values,
                             categories=[r.phrase for r in survivors],
                             image_ids=[r.image_id for r in survivors],
                             boxes=boxes, blur=[r.blur_score for r in survivors])


def _embed(records: list[GroundingRecord], provider: EmbeddingProvider,
           weights: KeyWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float32 key and value columns of the records, and their float64
    boxes.

    Each distinct text, image and feature grid is looked up and checked once,
    in the order a record-by-record build asks for them: a record's phrase,
    scene and image, then its grid. A grid the provider's checked table
    holds, still read-only, was checked as it entered and is not checked
    again (_checked_grid). The arithmetic
    then runs on columns, and a refusal is the one that build made at its
    first failing record."""
    vectors, grids = [], []  # distinct key inputs and grids, in first-use order
    text_at, image_at, grid_at = {}, {}, {}
    key_rows, grid_rows = [], []  # per record: its phrase, scene and image in vectors; its grid
    checked = 0  # vectors[:checked] have passed as_vector
    try:
        for rec in records:
            for text in (rec.phrase, rec.scene):
                if text not in text_at:
                    text_at[text] = len(vectors)
                    vectors.append(provider.text_embedding(text))
            if rec.image_id not in image_at:
                image_at[rec.image_id] = len(vectors)
                vectors.append(provider.image_embedding(rec.image_id))
            vectors[checked:] = map(as_vector, vectors[checked:])
            checked = len(vectors)
            key_rows.append((text_at[rec.phrase], text_at[rec.scene], image_at[rec.image_id]))
            if rec.image_id not in grid_at:
                grid_at[rec.image_id] = len(grids)
                grids.append(_checked_grid(provider, rec.image_id,
                                           provider.feature_grid(rec.image_id)))
            grid_rows.append(grid_at[rec.image_id])
    except (InvalidInputError, MissingEmbeddingError) as exc:
        _key_column(vectors[:checked], key_rows, weights)  # an earlier record's key fails first
        if isinstance(exc, MissingEmbeddingError):
            raise MissingEmbeddingError(
                f"record (image {rec.image_id!r}, phrase {rec.phrase!r}): {exc}"
            ) from exc
        raise
    keys = _key_column(vectors, key_rows, weights)
    # _key_column refused a record whose own vectors differ in width, so
    # vectors (or grids) that still differ make a ragged column.
    for name, widths in (("keys", {v.shape[0] for v in vectors}),
                         ("values", {g.shape[2] for g in grids})):
        if len(widths) > 1:
            raise InvalidInputError(f"bank column {name!r} is inhomogeneous: "
                                    f"its rows have {sorted(widths)} entries")
    boxes = np.array([r.box.as_list() for r in records], dtype=np.float64).reshape(-1, 4)
    return keys, _value_column(grids, grid_rows, boxes), boxes


def _key_column(vectors: list[np.ndarray], rows: list[tuple[int, int, int]],
                weights: KeyWeights, stage=lambda row: nullcontext()) -> np.ndarray:
    """The one key kernel: the unit float32 key of each row's (phrase, scene,
    image) checked vectors, as one column: from float64 zeros, w_p * phrase,
    w_s * scene and w_g * image are added in this order. The first row whose
    vectors differ in length or whose sum is not finite in float32 is refused
    inside stage(row). Shorter vectors are zero-padded to the longest, so
    rows of different widths still make one column: a ragged column that
    passes here is refused by _embed."""
    rows = np.array(rows, dtype=np.intp).reshape(-1, 3)
    dims = np.array([v.shape[0] for v in vectors], dtype=np.intp)
    table = np.zeros((len(vectors), dims.max(initial=0)))
    for at, v in enumerate(vectors):
        table[at, :v.shape[0]] = v
    acc = np.zeros((len(rows), table.shape[1]))
    term = np.empty_like(acc)
    for column, weight in zip(rows.T, (weights.w_p, weights.w_s, weights.w_g)):
        np.take(table, column, axis=0, out=term)
        term *= float(weight)
        acc += term
    with np.errstate(over="ignore"):  # an overflow is refused below
        keys = acc.astype(np.float32)
    del acc, term
    row_dims = dims[rows]
    mixed = (row_dims[:, 0] != row_dims[:, 1]) | (row_dims[:, 0] != row_dims[:, 2])
    bad = mixed if _all_finite(keys) else mixed | ~np.isfinite(keys).all(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        with stage(first):
            if mixed[first]:
                raise InvalidInputError("all vectors must share one dimension")
            as_vector(keys[first])  # raises the error for a non-finite sum
    return _l2_normalize(keys, out=keys)


def _value_column(grids: list[np.ndarray], rows: list[int], boxes: np.ndarray) -> np.ndarray:
    """The unit float32 value of each record: the mean of the cells of its
    grid whose centres lie in its box (or the one cell holding the box's
    centre if none do), pooled by _box_means, stored as float32 and
    unit-normalized in one _l2_normalize call over the stack."""
    values = _box_means(grids, rows, boxes)
    return _l2_normalize(values, out=values)


# --- persistence -----------------------------------------------------------

def _or_rows(units: np.ndarray) -> np.ndarray:
    """The bitwise OR of the rows of a C-contiguous 2-D array of unsigned
    ints, zeros if it has none, by repeated halving: each step ORs the first
    h rows with the next h in one long contiguous pass (numpy joins the rows
    of a contiguous block into one loop) and an odd last row into the first."""
    acc = units
    while len(acc) > 1:
        h = len(acc) // 2
        head = np.bitwise_or(acc[:h], acc[h:2 * h], out=None if acc is units else acc[:h])
        if len(acc) % 2:
            head[0] |= acc[2 * h]
        acc = head
    return acc[0] if len(acc) else np.zeros(units.shape[1], units.dtype)


def _ascii_names(units: np.ndarray, kind: str) -> np.ndarray | None:
    """The names whose code units (bytes or UCS-4) are the rows of the
    C-contiguous array units, as a column of kind "S" or "U" as wide as the
    longest name, which is the column np.char.encode or decode makes of
    them; None if a unit is not ASCII.

    Both the width and the ASCII test come from the OR of all rows
    (_or_rows): a unit is at least 128 somewhere exactly when the OR is, and
    a column holds a non-zero unit exactly when its OR does."""
    combined = _or_rows(units)
    if combined.max(initial=0) >= 128:
        return None
    used = np.flatnonzero(combined)
    width = int(used[-1]) + 1 if used.size else 1
    unit = np.uint32 if kind == "U" else np.uint8
    return np.ascontiguousarray(units[:, :width], dtype=unit).view(f"{kind}{width}")[:, 0]


def _encode_names(column: np.ndarray) -> np.ndarray:
    """A name column as np.char.encode(column, "utf-8") makes it."""
    units = np.ascontiguousarray(column).view(np.uint32)
    encoded = _ascii_names(units.reshape(len(column), column.itemsize // 4), "S")
    return np.char.encode(column, "utf-8") if encoded is None else encoded


def _decode_names(column: np.ndarray, what: str, at: int, stride: int) -> np.ndarray:
    """A column of 64-byte name fields as np.char.decode(column, "utf-8")
    makes it. Bad UTF-8 is a FormatError "bad UTF-8 in <what>" at the first
    bad name's field, which for row i lies at byte offset at + stride * i."""
    units = column.view(np.uint8).reshape(len(column), NAME_FIELD_BYTES)
    names = _ascii_names(units, "U")
    if names is not None:
        return names
    try:
        return np.char.decode(column, "utf-8")
    except UnicodeDecodeError:
        for row, name in enumerate(column.tolist()):
            with format_errors(f"bad UTF-8 in {what}", at + stride * row):
                name.decode("utf-8")
        raise


def _name_fields(layout: np.dtype, count: int, name: str) -> tuple[int, int]:
    """Where the name field `name` of the first entry lies, from the start of
    the entries, and the bytes from one entry's field to the next's. A
    section follows every earlier section and its 8-byte checksum."""
    earlier = list(_SECTIONS)[:list(_SECTIONS).index(name)]
    return sum(count * layout[n].itemsize + 8 for n in earlier), layout[name].itemsize


def _not_inf(piece: np.ndarray, at: int) -> None:
    """The Reader.sections check of blur scores: NaN is "no score", inf is refused."""
    inf = np.isinf(piece)
    if inf.any():
        raise FormatError("infinite blur score", offset=at + 4 * int(np.argmax(inf)))


# The sections, in file order: the record field each holds and the check
# run on each piece of it as it is read.
_SECTIONS = {"key": finite_check("non-finite key"), "value": finite_check("non-finite value"),
             "box": None, "blur": _not_inf, "category": None, "image_id": None}


def save_bank(bank: MemoryBank, path) -> None:
    """Write a v2 bank file. Its header is the magic, the version, the u32
    d_key and d_val, the u64 entry count and the u32-length-prefixed JSON
    block of weights and manifest. Then come the columns, one section each
    in _SECTIONS order. The header and each section are followed by their
    8-byte checksum (serial.word_sum). A category or image id over
    NAME_FIELD_BYTES UTF-8 bytes is InvalidInputError."""
    columns = {"key": bank.keys, "value": bank.values, "box": bank.boxes, "blur": bank.blur}
    for name, column in (("category", bank.categories), ("image_id", bank.image_ids)):
        encoded = _encode_names(column)
        if encoded.itemsize > NAME_FIELD_BYTES:
            longest = column[np.argmax(np.char.str_len(encoded))]
            raise InvalidInputError(f"{name} {longest!r} exceeds the {NAME_FIELD_BYTES}-byte field")
        columns[name] = encoded
    meta = json_bytes({"weights": bank.weights.as_dict(), "manifest": bank.manifest})
    layout = _record_dtype(bank.d_key, bank.d_val)
    # names are zero-padded to their field
    save_sealed(path, header(BANK_MAGIC, BANK_VERSION, f"IIQI{len(meta)}s", bank.d_key,
                             bank.d_val, len(bank), len(meta), meta),
                *(np.ascontiguousarray(columns[name], layout[name].base) for name in _SECTIONS))


def load_bank(path) -> MemoryBank:
    """Read a bank file of format v2, the one save_bank writes; any other
    version is a FormatError at offset 4. A load holds the bank, never the
    whole file.

    The header is checked against its checksum before a field of it is
    read; then the _SECTIONS are read as one run of sealed sections
    straight into their columns. The checks in _SECTIONS refuse a NaN or
    inf key or value float, or an infinite blur score, at its offset."""
    with Reader.stream(path, BANK_MAGIC, BANK_VERSION) as r:
        d_key, d_val, count = r.unpack("IIQ")
        meta_at = r.offset
        payload = r.block()
        r.sealed_header("bank header")
        meta = json_value(payload, meta_at)
        weights = meta.get("weights") if isinstance(meta, dict) else None
        with format_errors("bad weights or manifest in bank header", meta_at):
            if not (isinstance(weights, dict) and weights.keys() == set(_WEIGHT_NAMES)
                    and isinstance(meta.get("manifest"), dict)):
                raise InvalidInputError(f"{meta!r:.200}")
            weights = KeyWeights(**weights)
        body_at = r.offset
        with format_errors("bad bank record layout", 8):
            layout = _record_dtype(d_key, d_val)
        columns = r.sections({name: ((count, *layout[name].shape), layout[name].base, check)
                              for name, check in _SECTIONS.items()}, "bank")
        r.expect_eof()
    x0, y0, x1, y1 = columns["box"].T
    if not np.all((0 <= x0) & (x0 < x1) & (x1 <= 1) & (0 <= y0) & (y0 < y1) & (y1 <= 1)):
        raise FormatError("bank has a box outside 0 <= x0 < x1 <= 1, 0 <= y0 < y1 <= 1")
    names = []
    for name, what in (("category", "a category"), ("image_id", "an image id")):
        first, stride = _name_fields(layout, count, name)
        names.append(_decode_names(columns.pop(name), what, body_at + first, stride))
    categories, image_ids = names
    return MemoryBank._adopt(d_key, d_val, weights, meta["manifest"],
                             keys=columns["key"], values=columns["value"],
                             categories=categories, image_ids=image_ids,
                             boxes=columns["box"], blur=columns["blur"])


def save_embedding_table(table: dict[str, np.ndarray], path) -> None:
    """Write a named-vector table: PMEM magic, version, dim, count, entries.
    A name that is not a str is InvalidInputError."""
    if not all(isinstance(name, str) for name in table):
        raise InvalidInputError(f"table names must be str, got {list(table)!r:.80}")
    vecs = {name: as_vector(v) for name, v in table.items()}
    dims = {v.shape[0] for v in vecs.values()}
    if len(dims) > 1:
        raise InvalidInputError(f"mixed dimensions in table: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    entries = []
    for name, vec in vecs.items():
        encoded = name.encode("utf-8")
        entries += [len(encoded).to_bytes(4, "little"), encoded, np.ascontiguousarray(vec, "<f4")]
    atomic_write_bytes(path, header(TABLE_MAGIC, TABLE_VERSION, "IQ", dim, len(vecs)), *entries)


def load_embedding_table(path) -> dict[str, np.ndarray]:
    with Reader.stream(path, TABLE_MAGIC, TABLE_VERSION) as r:
        dim, count = r.unpack("IQ")
        table, finite = {}, finite_check("non-finite embedding value")
        for _ in range(count):
            encoded = r.block()
            name_at = r.offset - len(encoded)
            with format_errors("bad UTF-8 name", name_at):
                name = encoded.decode("utf-8")
            if name in table:
                raise FormatError(f"repeated name {name!r}", offset=name_at)
            table[name] = r.array(dim, check=finite)
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
