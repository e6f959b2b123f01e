"""Little-endian binary IO helpers shared by every vismem file format.

The loader contract: every binary loader reads its file inside one
`with Reader.stream(...)` block, which checks the magic and version and
closes the file when the block ends; a short read or trailing bytes are
`FormatError` at their offset. The reader reads each field from the file
when it is claimed, after checking the claim against the bytes left, so a
size taken from a header sizes nothing the file cannot hold. One method
fills arrays: `sections` claims a run of named arrays of declared shape and
dtype, reads each straight into its own memory a piece at a time, runs a
check such as `finite_check` on each piece, and, for a `sealed` file, checks
each array against the checksum that follows it (`word_sum`); `array` is its
one-part form. Through those checks every loader refuses a NaN or inf float
that no writer makes at its offset: in a bank's keys or values, an index's
centroids or codewords, an embedding table, a feature grid, a scalar map or
a vector file. An empty feature grid or scalar map is refused too.
`record_chunks` reads v1 bank records in chunks into one reused buffer, so
the v1 bank loader holds its columns plus one chunk, never the whole file.
A pipe has no size, so it is read whole first. The file is never mapped.
`format_errors` reports a field that does not build a valid object
(`InvalidInputError`, or a `ValueError`, `OverflowError` or `RecursionError`
from numpy, `int()`, UTF-8 or JSON decoding) as `FormatError` at the field's
offset, for the binary, PGM and JSON loaders alike. `read_json_lines` and
`read_json_object` read JSON text through it, naming the file and the line,
and `json_fields` checks an object's fields. Other failures are checked
explicitly, so a malformed file raises `FormatError` and nothing else.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, InvalidInputError
from .grids import _all_finite

# About how many bytes `record_chunks` and `sections` read at a time:
# large enough that the read calls cost nothing, small enough to stay in
# cache while a loader checks the piece or copies it into its columns.
RECORD_CHUNK_BYTES = 1 << 20


def atomic_write_bytes(path, *chunks) -> None:
    """Write byte chunks to a file atomically (temp file in the same directory + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Writer:
    """Accumulates a little-endian byte stream."""

    def __init__(self):
        self._chunks: list[bytes] = []

    def magic(self, tag: str) -> "Writer":
        self._chunks.append(tag.encode("ascii"))
        return self

    def u32(self, value: int) -> "Writer":
        self._chunks.append(struct.pack("<I", value))
        return self

    def u64(self, value: int) -> "Writer":
        self._chunks.append(struct.pack("<Q", value))
        return self

    def f32(self, value: float) -> "Writer":
        self._chunks.append(struct.pack("<f", value))
        return self

    def f32_array(self, arr: np.ndarray) -> "Writer":
        self._chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        return self

    def raw(self, data: bytes) -> "Writer":
        self._chunks.append(data)
        return self

    def json_block(self, obj) -> "Writer":
        return self.block(json_bytes(obj))

    def block(self, payload: bytes) -> "Writer":
        """payload after its u32 length."""
        self.u32(len(payload))
        self._chunks.append(payload)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


def json_bytes(obj) -> bytes:
    """obj as the sorted, compact UTF-8 JSON that a JSON block holds."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def word_sum(data: np.ndarray) -> int:
    """The sum modulo 2**64 of the little-endian 8-byte words of the bytes
    of the contiguous array data, the last one zero-padded.

    A file section's checksum is the word sum of its bytes. A piece of the
    section whose length is a multiple of 8 holds exactly its own words, so
    the sum of its pieces' word sums, modulo 2**64, is the section's. Any
    change of one byte moves one word by d * 2**(8j), with 0 < |d| < 256 and
    j < 8, which is never a multiple of 2**64: the sum always changes."""
    data = data.reshape(-1).view(np.uint8)
    whole = data.size - data.size % 8
    total = int(data[:whole].view("<u8").sum(dtype=np.uint64))  # wraps without a warning
    return (total + int.from_bytes(data[whole:].tobytes(), "little")) % 2**64


def sealed(*parts: np.ndarray) -> list:
    """The chunks of a checksummed file: each contiguous array of parts
    followed by its 8-byte checksum (word_sum), which `Reader.sealed_header`
    and `Reader.sections` check."""
    chunks = []
    for part in parts:
        chunks += [part, word_sum(part).to_bytes(8, "little")]
    return chunks


def finite_check(what: str):
    """A Reader.sections check that refuses the first NaN or inf float of a
    piece, as FormatError what at its offset."""
    def check(piece: np.ndarray, at: int) -> None:
        if not _all_finite(piece):
            bad = np.argmax(~np.isfinite(piece))
            raise FormatError(what, offset=at + piece.itemsize * int(bad))
    return check


@contextmanager
def format_errors(what: str, offset: int | None = None):
    """Report a field that does not build a valid object as FormatError
    "<what>: <reason>" at the field's byte offset."""
    try:
        yield
    except (InvalidInputError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"{what}: {exc}", offset=offset) from exc


class Reader:
    """Sequential reader over a binary file that reads each field when it is
    claimed and raises FormatError with the failing byte offset.

    Claims are checked against the size the file had at open, so a short
    field is refused before anything is read or sized from it. A file that
    shrinks after that is truncated at the first read that comes up short."""

    def __init__(self, file, size: int):
        self.file, self.size, self.offset = file, size, 0
        self.version = None

    @classmethod
    @contextmanager
    def stream(cls, path, magic: str, *versions: int):
        """A reader over the open file, past its checked magic and a version
        among versions, which it keeps as `version`.

        The size of a regular file is taken once, at open; a pipe has no
        size, so it is read whole first. The file is read, not mapped: a
        mapped file that shrinks while it is read kills the process with
        SIGBUS instead of raising FormatError. It is closed when the block
        ends."""
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                r = cls(f, st.st_size)
            else:
                data = f.read()
                r = cls(io.BytesIO(data), len(data))
            r._expect_header(magic, *versions)
            yield r

    def _expect_header(self, magic: str, *versions: int) -> None:
        tag = self._take(len(magic))
        if tag != magic.encode("ascii"):
            raise FormatError(f"bad magic {tag!r}, expected {magic!r}", offset=0)
        self.version = self.u32()
        if self.version not in versions:
            raise FormatError(f"unsupported {magic} version {self.version}, "
                              f"expected {' or '.join(map(str, versions))}", offset=4)

    def claim(self, n: int) -> int:
        """Claim the next n bytes and return where they start."""
        start = self.offset
        if start + n > self.size:
            raise FormatError(f"truncated file: need {n} bytes, have {self.size - start}",
                              offset=start)
        self.offset += n
        return start

    def _fill(self, buf: np.ndarray, start: int) -> None:
        """Read the bytes at start, which the caller has claimed, into the uint8 array buf."""
        view = memoryview(buf)
        got = 0
        while got < len(view):
            n = self.file.readinto(view[got:])
            if not n:
                raise FormatError(f"truncated file: need {len(view)} bytes, have {got}",
                                  offset=start)
            got += n

    def _take(self, n: int) -> bytes:
        return self._read(n, self.claim(n))

    def _read(self, n: int, start: int) -> bytes:
        """The n bytes at start, which the caller has claimed."""
        data = self.file.read(n)
        if len(data) != n:
            raise FormatError(f"truncated file: need {n} bytes, have {len(data)}", offset=start)
        return data

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self._take(4))[0]

    def block(self) -> bytes:
        """The payload of the next u32-length-prefixed block."""
        return self._take(self.u32())

    def json_block(self):
        start = self.offset
        return json_value(self.block(), start)

    def sections(self, parts: dict, sealed: str | None = None) -> dict[str, np.ndarray]:
        """The arrays of the next run of sections, in the order of parts,
        which maps each name to (shape, little-endian dtype, check or None);
        a shape is an int for 1-D.

        The whole run, and an 8-byte checksum (word_sum) after each section
        if sealed, is claimed before any array is sized, so a shape the file
        cannot hold allocates nothing. Each array is read straight into its
        own memory in pieces of about RECORD_CHUNK_BYTES, each a whole number
        of 8-byte words and of elements. While a piece is in cache,
        check(piece, offset) runs on it as a flat array of the dtype with the
        file offset it starts at. A section whose checksum does not match is
        FormatError "<sealed> <name> section fails its checksum" at the
        checksum's offset. The arrays are in native byte order and own their
        data."""
        parts = {name: ((shape,) if isinstance(shape, int) else tuple(shape),
                         np.dtype(dtype), check) for name, (shape, dtype, check) in parts.items()}
        at = self.claim(sum(dtype.itemsize * math.prod(shape) + (8 if sealed else 0)
                            for shape, dtype, _ in parts.values()))
        arrays = {}
        for name, (shape, dtype, check) in parts.items():
            arr = np.empty(shape, dtype)
            data = arr.reshape(-1).view(np.uint8)
            step = math.lcm(8, dtype.itemsize)
            step *= max(1, RECORD_CHUNK_BYTES // step)
            total = 0
            for lo in range(0, data.size, step):
                piece = data[lo:lo + step]
                self._fill(piece, at + lo)
                if check is not None:
                    check(piece.view(dtype), at + lo)
                if sealed:
                    total += word_sum(piece)
            at += data.size
            if sealed:
                self._expect_sum(total, f"{sealed} {name} section", at)
                at += 8
            arrays[name] = arr.astype(dtype.newbyteorder("="), copy=False)
        return arrays

    def array(self, shape, dtype="<f4", check=None) -> np.ndarray:
        """The next array, unsealed: the one-part form of sections."""
        return self.sections({"array": (shape, dtype, check)})["array"]

    def sealed_header(self, header: bytes, what: str) -> None:
        """Claim the 8-byte checksum that follows the header bytes just read
        and refuse the header, named what, at the checksum's offset unless
        the checksum is their word sum."""
        self._expect_sum(word_sum(np.frombuffer(header, np.uint8)), what, self.claim(8))

    def _expect_sum(self, total: int, what: str, at: int) -> None:
        """Read the claimed 8-byte checksum at `at` and refuse the section
        that it ends, named what, at that offset if total (modulo 2**64)
        differs."""
        if int.from_bytes(self._read(8, at), "little") != total % 2**64:
            raise FormatError(f"{what} fails its checksum", offset=at)

    def record_chunks(self, dtype: np.dtype, count: int):
        """count fixed-size records as (first row, records) chunks of about
        RECORD_CHUNK_BYTES, in order. Every chunk is read into the same
        buffer, so a chunk is valid only until the next one is read.

        The whole section is claimed here, before the first chunk is read:
        a count the file cannot hold is refused before the caller sizes
        anything from it."""
        start = self.claim(dtype.itemsize * count)
        return self._chunks(dtype, count, start)

    def _chunks(self, dtype: np.dtype, count: int, start: int):
        rows = max(1, RECORD_CHUNK_BYTES // dtype.itemsize)
        buf = np.empty(min(rows, count) * dtype.itemsize, dtype=np.uint8)
        for first in range(0, count, rows):
            chunk = buf[:min(rows, count - first) * dtype.itemsize]
            self._fill(chunk, start + first * dtype.itemsize)
            yield first, chunk.view(dtype)

    def expect_eof(self) -> None:
        if self.offset != self.size:
            raise FormatError(f"{self.size - self.offset} trailing bytes", offset=self.offset)


def json_value(payload: bytes, offset: int):
    """The JSON value of a block's payload, which starts at offset."""
    with format_errors("bad JSON block", offset):
        return json.loads(payload.decode("utf-8"))


def read_file(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def json_lines(values) -> bytes:
    """Each value as one line of sorted-key JSON ending in \n: what read_json_lines reads."""
    return "".join(json.dumps(value, sort_keys=True) + "\n" for value in values).encode("utf-8")


def read_json_lines(path, build) -> list:
    """build(value) for the JSON value on each non-blank line of a JSONL file (lines
    end at \n, \r or \r\n, as in text mode). A line that is not JSON, or that
    build rejects, is a FormatError naming the file, the line and its byte offset."""
    values, end = [], 0
    for line_no, line in enumerate(read_file(path).splitlines(keepends=True), start=1):
        start, end = end, end + len(line)
        if line.strip():
            with format_errors(f"{os.fspath(path)} line {line_no}", start):
                values.append(build(json.loads(line.decode("utf-8"))))
    return values


def read_json_object(path, build):
    """build(value) for a file of one JSON value. A FormatError names the file
    and the line: that of a JSON error, or where the value build rejects
    starts."""
    data = read_file(path)
    with format_errors(os.fspath(path)):
        obj = json.loads(data.decode("utf-8"))
    line = data[:len(data) - len(data.lstrip())].count(b"\n") + 1
    with format_errors(f"{os.fspath(path)} line {line}"):
        return build(obj)


def is_json_number(value) -> bool:
    """A JSON number: int or float, not bool."""
    return type(value) in (int, float)


def json_fields(obj, **kinds) -> list:
    """The values of a JSON object's named fields, each of its kind: str, int,
    list, or float for any finite JSON number."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"expected a JSON object, got {obj!r:.80}")
    missing = [key for key in kinds if key not in obj]
    if missing:
        raise InvalidInputError(f"missing required field(s) {missing}")
    for key, kind in kinds.items():
        value = obj[key]
        if not (is_json_number(value) and math.isfinite(value) if kind is float
                else type(value) is kind):
            want = "a finite number" if kind is float else f"a JSON {kind.__name__}"
            raise InvalidInputError(f"field {key!r} must be {want}, got {value!r:.80}")
    return [obj[key] for key in kinds]
