"""Every loader reports a malformed file as FormatError, and nothing else.

A seeded fuzzer corrupts a valid file of each format by byte flips, extreme
header fields, truncation and appended bytes. A corrupted file may still
load (a flipped float is still a float), but when loading fails it must fail
with FormatError. v2 bank and index files are checksummed, so every change
of one of their bytes must fail. Hand-made cases that once escaped as
ValueError, IndexError, TypeError or InvalidInputError, or loaded in
silence, must raise FormatError.
"""

import json
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest

from vismem import artifacts
from vismem.bank import (
    KeyWeights,
    MemoryBank,
    entry_stride,
    load_bank,
    load_embedding_table,
    load_grounding_records,
    read_pgm,
    save_bank,
    save_embedding_table,
    write_pgm,
)
from vismem.errors import FormatError, InvalidInputError
from vismem.index import IvfPqIndex, IvfPqParams, ivfpq_add, load_index, save_index
from vismem.refine import RefinementParams, load_params, save_params
from vismem.serial import Writer, json_lines, read_json_lines

from oracles import reference_bank_bytes, reference_index_bytes, resealed

CORRUPTIONS_PER_FORMAT = 300
EXTREME_U32 = (0, 1, 3, 2**16, 2**31, 2**32 - 1)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d)).astype(np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def small_bank():
    rng = rng_for(1)
    return MemoryBank(d_key=4, d_val=3, keys=unit_rows(rng, 3, 4), values=unit_rows(rng, 3, 3),
                      categories=["cat", "dog", "café"], image_ids=["a", "b", "c"],
                      boxes=[[0.1, 0.2, 0.5, 0.6]] * 3, blur=[None, 1.0, 2.5],
                      manifest={"output_count": 3})


def write_bank(path):
    save_bank(small_bank(), path)


def write_bank_v1(path):
    path.write_bytes(reference_bank_bytes(small_bank(), 1))


INDEX_PARAMS = IvfPqParams(nlist=4, m=2, nbits=2, kmeans_iters=1)


def make_index():
    """Random centroids and codebooks; codes have ksub = 4."""
    rng = rng_for(2)
    index = IvfPqIndex(params=INDEX_PARAMS, dim=4,
                       coarse_centroids=unit_rows(rng, 4, 4),
                       pq_codebooks=rng.standard_normal((2, 4, 2)).astype(np.float32))
    ivfpq_add(index, np.arange(10), unit_rows(rng, 10, 4))
    return index


def write_index(path):
    save_index(make_index(), path)


def write_index_v1(path):
    path.write_bytes(reference_index_bytes(make_index(), 1))


def write_params(path):
    save_params([RefinementParams.seeded_init(3, seed=s, window=3) for s in (1, 2)], path)


def write_table(path):
    rng = rng_for(3)
    save_embedding_table({name: rng.standard_normal(3).astype(np.float32)
                          for name in ("cat", "dog", "café")}, path)


def write_grid(path):
    artifacts.save_feature_grid(rng_for(4).standard_normal((2, 3, 2)), path)


def write_map(path):
    artifacts.save_scalar_map(rng_for(5).random((3, 2)), path)


def write_vectors(path):
    artifacts.save_vectors(rng_for(6).standard_normal((3, 2)), path)


def write_pgm_file(path):
    write_pgm(rng_for(7).random((3, 4)), path)


RECORDS = [
    {"image_id": "a", "box": [0.1, 0.2, 0.5, 0.6], "phrase": "cat", "scene": "indoor",
     "blur_score": 2.5},
    {"image_id": "b", "box": [0.0, 0.0, 1.0, 1.0], "phrase": "dog"},
]


def records_text(records):
    return "".join(json.dumps(r) + "\n" for r in records)


def write_records(path):
    path.write_text(records_text(RECORDS))


def extreme_u32(offsets):
    """A mutation that sets the u32 at one of offsets(raw) to an extreme value."""
    def mutate(rng, raw):
        at = int(rng.choice(offsets(raw)))
        value = int(rng.choice(EXTREME_U32)) if rng.random() < 0.8 else int(rng.integers(2**32))
        return raw[:at] + struct.pack("<I", value) + raw[at + 4:]
    return mutate


def header_u32s(*offsets):
    return extreme_u32(lambda raw: offsets)


# version, JSON length, and the dim that follows the JSON block
index_u32s = extreme_u32(lambda raw: (4, 8, 12 + int.from_bytes(raw[8:12], "little")))


def pgm_tokens(rng, raw):
    """The PGM header with one of width, height or maxval made extreme."""
    tokens = raw.split(b"\n", 3)
    dims = tokens[1].split(b" ")
    value = rng.choice(["0", "-1", "4294967295", "2147483648", "x", "4x", "1e3", "256",
                        "99999999999999999999"]).encode()
    which = int(rng.integers(3))
    if which < 2:
        dims[which] = value
    else:
        tokens[2] = value
    tokens[1] = b" ".join(dims)
    return b"\n".join(tokens)


ODD_JSON = [5, -1, 1e308, "x", "", None, True, [], [1, 2], {}, [[0], 0, 1, 1],
            ["x", 0, 1, 1], [0, 0, 1, 10**400], 10**400, "high", float("nan")]


def records_fields(rng, raw):
    """The records with one field, one box corner or one line made odd."""
    records = [dict(r) for r in RECORDS]
    record = records[int(rng.integers(len(records)))]
    value = ODD_JSON[int(rng.integers(len(ODD_JSON)))]
    where = rng.choice(["image_id", "box", "phrase", "scene", "blur_score", "corner", "line"])
    if where == "corner":
        record["box"] = list(record["box"])
        record["box"][int(rng.integers(4))] = value
    elif where == "line":
        return (records_text(records) + json.dumps(value) + "\n").encode()
    else:
        record[where] = value
    return records_text(records).encode()


# name: (write a valid file, loader, mutation of one header field)
FORMATS = {
    "PBNK": (write_bank, load_bank, header_u32s(4, 8, 12, 16, 20, 24)),
    "PBNK v1": (write_bank_v1, load_bank, header_u32s(4, 8, 12, 16, 20, 24)),
    "PIVF": (write_index, load_index, index_u32s),
    "PIVF v1": (write_index_v1, load_index, index_u32s),
    "PPRM": (write_params, load_params, header_u32s(4, 8, 12, 16, 20, 24)),
    "PMEM": (write_table, load_embedding_table, header_u32s(4, 8, 12, 16, 20)),
    "PGRD": (write_grid, artifacts.load_feature_grid, header_u32s(4, 8, 12, 16)),
    "PMAP": (write_map, artifacts.load_scalar_map, header_u32s(4, 8, 12)),
    "PVEC": (write_vectors, artifacts.load_vectors, header_u32s(4, 8, 12)),
    "PGM": (write_pgm_file, read_pgm, pgm_tokens),
    "records": (write_records, load_grounding_records, records_fields),
}


def corrupt(rng, raw: bytes, mutate_field) -> bytes:
    """One seeded corruption of a valid file."""
    kind = rng.choice(["flip", "field", "truncate", "append"])
    if kind == "flip":
        out = bytearray(raw)
        for at in rng.integers(len(raw), size=int(rng.integers(1, 5))):
            out[at] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == "field":
        return mutate_field(rng, raw)
    if kind == "truncate":
        return raw[:int(rng.integers(len(raw)))]
    return raw + rng.integers(256, size=int(rng.integers(1, 17)), dtype=np.uint8).tobytes()


@pytest.mark.parametrize("name", list(FORMATS))
def test_corruptions_raise_only_format_error(name, tmp_path):
    write, load, mutate_field = FORMATS[name]
    path = tmp_path / "good"
    write(path)
    raw = path.read_bytes()
    load(path)
    rng = rng_for(sum(name.encode()))
    escapes = []
    for case in range(CORRUPTIONS_PER_FORMAT):
        bad = corrupt(rng, raw, mutate_field)
        path.write_bytes(bad)
        try:
            load(path)
        except FormatError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            escapes.append(f"case {case}: {type(exc).__name__}: {exc} from {bad[:80]!r}")
    assert not escapes, f"{len(escapes)} escapes:\n" + "\n".join(escapes[:10])


def changed_files_that_load(path, load, xor) -> list[int]:
    """The byte offsets of the file at path whose change by xor still lets
    the file load."""
    raw = path.read_bytes()
    loaded = []
    for at in range(len(raw)):
        bad = bytearray(raw)
        bad[at] ^= xor
        path.write_bytes(bytes(bad))
        try:
            load(path)
        except FormatError:
            continue
        loaded.append(at)
    return loaded


@pytest.mark.parametrize("xor", [0x01, 0x80, 0xFF])
def test_every_one_byte_change_of_a_v2_bank_is_refused(tmp_path, xor):
    """A change of any one byte, in the header, a section or a checksum,
    makes the header or a section fail its checksum, if nothing else
    refuses the file first."""
    path = tmp_path / "b.pbnk"
    write_bank(path)
    assert load_bank(path) == small_bank()
    loaded = changed_files_that_load(path, load_bank, xor)
    assert not loaded, f"{len(loaded)} changed files loaded, the first at byte {loaded[0]}"


@pytest.mark.parametrize("xor", [0x01, 0x80, 0xFF])
def test_every_one_byte_change_of_a_v2_index_is_refused(tmp_path, xor):
    path = tmp_path / "i.pivf"
    write_index(path)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (2,)
    loaded = changed_files_that_load(path, load_index, xor)
    assert not loaded, f"{len(loaded)} changed files loaded, the first at byte {loaded[0]}"


def patched(write, tmp_path, at, fmt, value, reseal=False):
    """The file write makes with value packed at offset at, and with every
    checksum recomputed if reseal."""
    path = tmp_path / "f"
    write(path)
    raw = bytearray(path.read_bytes())
    struct.pack_into(fmt, raw, at, value)
    path.write_bytes(resealed(bytes(raw)) if reseal else bytes(raw))
    return path


# PPRM: magic, version, dim (8), per_scale (12), count (16), window (20),
# ln_eps (24), then per set e (D floats) and w_sparse (D x D).
PPRM_W_SPARSE_AT = 28 + 4 * 3
# PIVF: magic, version, JSON length, JSON header, dim, then in v1 the 4 x 4
# coarse centroids, the 2 x 4 x 2 PQ codewords and the first list's u64
# size. In v2 the header's 8-byte checksum follows the dim, and each of the
# coarse centroids, the codewords and the 5 offsets is followed by its own.
PIVF_HEADER_END = 16 + len(json.dumps(INDEX_PARAMS.as_dict(), sort_keys=True,
                                      separators=(",", ":")))
PIVF_V1_CODEWORDS_AT = PIVF_HEADER_END + 4 * 4 * 4
PIVF_V1_FIRST_LIST_AT = PIVF_V1_CODEWORDS_AT + 4 * 2 * 4 * 2
PIVF_COARSE_AT = PIVF_HEADER_END + 8
PIVF_CODEWORDS_AT = PIVF_COARSE_AT + 4 * 4 * 4 + 8
PIVF_LAST_OFFSET_AT = PIVF_CODEWORDS_AT + 4 * 2 * 4 * 2 + 8 + 8 * 4
# PBNK: magic, version, d_key, d_val, u64 count, JSON length and block. In
# v1 there follows per entry a 4-float key, a 3-float value, two 64-byte
# names, the box and the blur score. In v2 there follow the header's 8-byte
# checksum and one section per field of the 3 entries, each followed by its
# checksum: keys, values, boxes, blur scores, then the two name columns.
PBNK_HEADER_END = 28 + len(json.dumps({"manifest": {"output_count": 3},
                                       "weights": KeyWeights().as_dict()},
                                      sort_keys=True, separators=(",", ":")))
PBNK_STRIDE = entry_stride(4, 3)
PBNK_V1_BLUR_AT = 4 * 4 + 4 * 3 + 2 * 64 + 4 * 4
PBNK_KEYS_AT = PBNK_HEADER_END + 8
PBNK_VALUES_AT = PBNK_KEYS_AT + 3 * 4 * 4 + 8
PBNK_BLUR_AT = PBNK_VALUES_AT + 3 * 3 * 4 + 8 + 3 * 4 * 4 + 8
# PMEM: magic, version, dim, u64 count, then u32 length, name and 3 floats
# per entry: the first vector, that of "cat", starts at 20 + 4 + 3, and the
# second name, "dog", at 27 + 12 + 4.
PMEM_FIRST_VECTOR_AT = 27
PMEM_SECOND_NAME_AT = 43
# PGRD, PMAP and PVEC: magic, version, one u32 per axis, then the floats.
PGRD_VALUES_AT = 8 + 4 * 3
PMAP_VALUES_AT = PVEC_VALUES_AT = 8 + 4 * 2

# Files that once loaded in silence, each refused at its bad value's offset.
REFUSED_AT_THE_VALUE = [
    pytest.param(write_bank, load_bank, PBNK_KEYS_AT + 4 * (4 + 2), "<f", math.nan,
                 id="PBNK NaN key"),
    pytest.param(write_bank, load_bank, PBNK_VALUES_AT + 4 * (2 * 3 + 1), "<f", math.inf,
                 id="PBNK inf value"),
    pytest.param(write_bank, load_bank, PBNK_BLUR_AT, "<f", -math.inf,
                 id="PBNK inf blur score"),
    pytest.param(write_bank_v1, load_bank, PBNK_HEADER_END + PBNK_STRIDE + 4 * 2, "<f",
                 math.nan, id="PBNK v1 NaN key"),
    pytest.param(write_bank_v1, load_bank, PBNK_HEADER_END + 2 * PBNK_STRIDE + 4 * 4 + 4 * 1,
                 "<f", math.inf, id="PBNK v1 inf value"),
    pytest.param(write_bank_v1, load_bank, PBNK_HEADER_END + PBNK_V1_BLUR_AT, "<f", -math.inf,
                 id="PBNK v1 inf blur score"),
    pytest.param(write_index, load_index, PIVF_COARSE_AT + 4 * 5, "<f", math.nan,
                 id="PIVF NaN coarse centroid"),
    pytest.param(write_index, load_index, PIVF_CODEWORDS_AT + 4 * 3, "<f", -math.inf,
                 id="PIVF inf codeword"),
    pytest.param(write_index_v1, load_index, PIVF_HEADER_END + 4 * 5, "<f", math.nan,
                 id="PIVF v1 NaN coarse centroid"),
    pytest.param(write_index_v1, load_index, PIVF_V1_CODEWORDS_AT + 4 * 3, "<f", -math.inf,
                 id="PIVF v1 inf codeword"),
    pytest.param(write_table, load_embedding_table, PMEM_SECOND_NAME_AT, "3s", b"cat",
                 id="PMEM repeated name"),
    pytest.param(write_table, load_embedding_table, PMEM_FIRST_VECTOR_AT + 4 * 2, "<f",
                 math.nan, id="PMEM NaN embedding value"),
    pytest.param(write_grid, artifacts.load_feature_grid, PGRD_VALUES_AT + 4 * 7, "<f",
                 math.nan, id="PGRD NaN value"),
    pytest.param(write_map, artifacts.load_scalar_map, PMAP_VALUES_AT + 4 * 5, "<f", math.inf,
                 id="PMAP inf value"),
    pytest.param(write_vectors, artifacts.load_vectors, PVEC_VALUES_AT + 4 * 1, "<f", -math.inf,
                 id="PVEC inf value"),
]


@pytest.mark.parametrize("write, load, at, fmt, value", [
    pytest.param(write_bank, load_bank, 8, "<I", 2**31, id="PBNK d_key 2^31"),
    pytest.param(write_bank, load_bank, 12, "<I", 2**31, id="PBNK d_val 2^31"),
    pytest.param(write_params, load_params, 12, "<I", 0, id="PPRM two sets in a shared file"),
    pytest.param(write_params, load_params, 12, "<I", 2, id="PPRM per_scale 2"),
    pytest.param(write_params, load_params, 20, "<I", 4, id="PPRM even window"),
    pytest.param(write_params, load_params, 24, "<f", 0.0, id="PPRM ln_eps 0"),
    pytest.param(write_params, load_params, 24, "<f", math.nan, id="PPRM ln_eps NaN"),
    pytest.param(write_params, load_params, 24, "<f", math.inf, id="PPRM ln_eps inf"),
    pytest.param(write_params, load_params, PPRM_W_SPARSE_AT, "<f", math.nan,
                 id="PPRM NaN projection weight"),
    pytest.param(write_params, load_params, 8, "<I", 0, id="PPRM dim 0"),
    pytest.param(write_table, load_embedding_table, 24, "<B", 0xFF, id="PMEM bad UTF-8 name"),
    pytest.param(write_index, load_index, 4, "<I", 3, id="PIVF version 3"),
    pytest.param(write_grid, artifacts.load_feature_grid, 4, "<I", 0, id="PGRD version 0"),
    *REFUSED_AT_THE_VALUE,
])
def test_hand_made_binary_case(tmp_path, write, load, at, fmt, value):
    with pytest.raises(FormatError) as exc:
        load(patched(write, tmp_path, at, fmt, value))
    assert exc.value.offset is not None


@pytest.mark.parametrize("write, load, at, fmt, value", REFUSED_AT_THE_VALUE)
def test_refused_at_the_bad_value(tmp_path, write, load, at, fmt, value):
    with pytest.raises(FormatError) as exc:
        load(patched(write, tmp_path, at, fmt, value))
    assert exc.value.offset == at


@pytest.mark.parametrize("write, load, at, fmt, value", [
    pytest.param(write_index_v1, load_index, PIVF_V1_FIRST_LIST_AT, "<Q", 10**7,
                 id="PIVF list of 10^7 entries"),
    pytest.param(write_index, load_index, PIVF_LAST_OFFSET_AT, "<q", 10**7,
                 id="PIVF v2 last offset 10^7"),
    pytest.param(write_grid, artifacts.load_feature_grid, 8, "<I", 2**20,
                 id="PGRD height 2^20"),
])
def test_size_past_the_file_fails_before_any_array_is_sized(tmp_path, write, load, at, fmt,
                                                            value):
    # each size would take tens of MB: a list's ids, all ids and codes, or
    # the grid's floats; the v2 offsets pass their checksum
    path = patched(write, tmp_path, at, fmt, value, reseal=write is write_index)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated file"):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


RECORD = b'"image_id": "a", "box": [0, 0, 1, 1], "phrase": "cat"'


@pytest.mark.parametrize("line", [
    pytest.param(b"5", id="a number"),
    pytest.param(b"[1, 2]", id="a list"),
    pytest.param(b'{"image_id": "a", "box": ["x", 0, 1, 1], "phrase": "cat"}', id="box string"),
    pytest.param(b'{"image_id": "a", "box": [[0], 0, 1, 1], "phrase": "cat"}', id="box list"),
    pytest.param(b'{"image_id": "a", "box": [0, 0, 2, 1], "phrase": "cat"}', id="box outside"),
    pytest.param(b"{" + RECORD + b', "blur_score": "high"}', id="blur string"),
    pytest.param(b"{" + RECORD + b', "blur_score": NaN}', id="blur NaN"),
    pytest.param(b"{" + RECORD + b', "blur_score": 1' + b"0" * 400 + b"}", id="blur 10^400"),
    pytest.param(b'{"image_id": 5, "box": [0, 0, 1, 1], "phrase": "cat"}', id="image_id number"),
    pytest.param(b"{" + RECORD + b', "scene": []}', id="scene list"),
    pytest.param(b"{" + RECORD + b', "gray_crop": 5}', id="gray_crop number"),
    pytest.param(b'{"image_id": "\xff", "box": [0, 0, 1, 1], "phrase": "cat"}', id="bad UTF-8"),
    pytest.param(b"{" + RECORD, id="unterminated"),
    pytest.param(b'{"image_id": "a", "box": [0, 0, 1, 1]}', id="no phrase"),
    pytest.param(b"[" * 100_000, id="deep nesting"),
])
def test_hand_made_records_line(tmp_path, line):
    path = tmp_path / "records.jsonl"
    good = records_text(RECORDS).encode()
    path.write_bytes(good + b"\n" + line + b"\n")
    with pytest.raises(FormatError) as exc:
        load_grounding_records(path)
    assert exc.value.offset == len(good) + 1
    assert "line 4" in str(exc.value)


@pytest.mark.parametrize("header", [
    b"P5\n4 x\n255\n", b"P5\n0 3\n255\n", b"P5\n-4 3\n255\n", b"P5\n4 3\n0\n",
    b"P5\n4 3\n256\n", b"P2\n4 3\n255\n",
])
def test_hand_made_pgm_header(tmp_path, header):
    path = tmp_path / "im.pgm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(FormatError):
        read_pgm(path)


@pytest.mark.parametrize("magic, shape, at, load", [
    pytest.param("PGRD", (0, 5, 3), 8, artifacts.load_feature_grid, id="PGRD no rows"),
    pytest.param("PGRD", (4, 5, 0), 16, artifacts.load_feature_grid, id="PGRD no channels"),
    pytest.param("PMAP", (4, 0), 12, artifacts.load_scalar_map, id="PMAP no columns"),
])
def test_empty_grid_or_map_refused_at_its_empty_axis(tmp_path, magic, shape, at, load):
    # neither saver writes one (as_grid and as_scalar_map refuse it); it used to load
    path = tmp_path / "empty"
    header = Writer().magic(magic).u32(1)
    for n in shape:
        header.u32(n)
    path.write_bytes(header.getvalue())
    with pytest.raises(FormatError, match="empty") as exc:
        load(path)
    assert exc.value.offset == at


def test_vectors_without_rows_round_trip_and_non_finite_ones_are_not_saved(tmp_path):
    # vismem refine writes a (0, 0) file when it makes no prompts
    path = tmp_path / "v.pvec"
    artifacts.save_vectors(np.zeros((0, 0)), path)
    assert artifacts.load_vectors(path).shape == (0, 0)
    with pytest.raises(InvalidInputError, match="non-finite"):
        artifacts.save_vectors([[0.0, math.nan]], path)
    assert artifacts.load_vectors(path).shape == (0, 0)


@pytest.mark.parametrize("per_scale", [0, 1])
def test_params_file_with_zero_sets(tmp_path, per_scale):
    # a shared file used to fail with IndexError, a per-scale one to load as []
    path = tmp_path / "p.pprm"
    header = Writer().magic("PPRM").u32(1).u32(3).u32(per_scale).u32(0).u32(3).f32(1e-5)
    path.write_bytes(header.getvalue())
    with pytest.raises(FormatError, match="0 sets"):
        load_params(path)


def test_deeply_nested_json_header(tmp_path):
    path = tmp_path / "i.pivf"
    nested = b"[" * 100_000
    write_index_v1(path)
    path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", len(nested)) + nested)
    with pytest.raises(FormatError) as exc:
        load_index(path)
    assert exc.value.offset == 8
    # v2 reads the JSON once the dim and the header's checksum are read
    write_index(path)
    raw = path.read_bytes()
    header = raw[:8] + struct.pack("<I", len(nested)) + nested + raw[PIVF_HEADER_END - 4:]
    path.write_bytes(resealed(header))
    with pytest.raises(FormatError, match="bad JSON block") as exc:
        load_index(path)
    assert exc.value.offset == 8


def test_index_code_out_of_range(tmp_path):
    # a code byte past the codebook loaded and then failed with IndexError in search
    index = make_index()
    codes = index.codes.copy()
    codes[0, 0] = index.params.ksub
    index.codes = codes
    save_index(index, tmp_path / "i.pivf")
    with pytest.raises(FormatError, match="ksub=4"):
        load_index(tmp_path / "i.pivf")


@pytest.mark.parametrize("header", [
    b"P5\n# a comment\n2 1\n255\n",
    b"# a comment before the magic\nP5 2 1 255\n",
    b" P5\t2 #\n#\n1\r255\r",
])
def test_pgm_with_comment_loads(tmp_path, header):
    path = tmp_path / "im.pgm"
    path.write_bytes(header + bytes([0, 255]))
    np.testing.assert_array_equal(read_pgm(path), [[0.0, 255.0]])


@pytest.mark.parametrize("data", [
    b"P5\n" + b"#" * 64,
    b"P5\n" + b"#" * 64 + b"\n",
    b"P5\n" + b"#" * 64 + b"\n4 3\n",
    b"P5 " + b"#\n" * 64 + b"4 3",
    b"P5 4" + b"#" * 64 + b" 3 255\n" + bytes(12),
])
def test_pgm_header_of_hashes_fails_fast(tmp_path, data):
    # a run of "#" splits into comments in one way only, so a bad header
    # fails in time linear in its length
    path = tmp_path / "im.pgm"
    path.write_bytes(data)
    started = time.perf_counter()
    with pytest.raises(FormatError):
        read_pgm(path)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_records_line_endings(tmp_path, newline):
    path = tmp_path / "records.jsonl"
    lines = [json.dumps(r).encode() for r in RECORDS]
    path.write_bytes(newline.join(lines) + newline)
    assert load_grounding_records(path) == load_grounding_records_from(tmp_path, RECORDS)
    path.write_bytes(newline.join(lines + [b"5"]) + newline)
    with pytest.raises(FormatError, match="line 3") as exc:
        load_grounding_records(path)
    assert exc.value.offset == sum(len(line) + len(newline) for line in lines)


def test_json_lines_read_back(tmp_path):
    """read_json_lines reads back exactly what json_lines encodes: non-ASCII
    strings, floats down to the smallest subnormal, nested values."""
    values = [
        {"phrase": "café ☕ 猫", "score": 0.1, "tiny": 5e-324, "neg_zero": -0.0},
        {"big": 1.7976931348623157e308, "int": 2**63, "nested": [{"b": [1.5, None]}, True]},
        "a line\nbreak",
        [],
    ]
    path = tmp_path / "values.jsonl"
    path.write_bytes(json_lines(values))
    assert read_json_lines(path, lambda value: value) == values
    assert path.read_bytes().count(b"\n") == len(values) and path.read_bytes().endswith(b"\n")
    assert json_lines([]) == b""


def load_grounding_records_from(tmp_path, records):
    path = tmp_path / "reference.jsonl"
    path.write_text(records_text(records))
    return load_grounding_records(path)
