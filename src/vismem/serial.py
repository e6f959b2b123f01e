"""Little-endian binary IO helpers shared by every vismem file format.

The loader contract: `Reader.open` and `Reader.stream` open a file and check
its magic and version; a short read or trailing bytes are `FormatError` at
their offset. `Reader.open` reads the file once into one read-only buffer:
`records` hands out views of it and the typed arrays are one copy each.
`Reader.stream` reads each field from the file as it is claimed, and
`record_chunks` reads a section of fixed-size records in chunks of whole
records into one reused buffer, so a loader copies each chunk into its own
arrays and holds them plus one chunk, never the whole file; the section's
size is checked against the bytes left before the first chunk is read. A
pipe has no size, so `Reader.stream` reads it whole first. Neither maps the
file.
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

# About how many bytes of records `record_chunks` reads at a time: large
# enough that the read calls cost nothing, small enough to stay in cache
# while a loader copies the chunk into its columns.
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

    def i64_array(self, arr: np.ndarray) -> "Writer":
        self._chunks.append(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        return self

    def u8_array(self, arr: np.ndarray) -> "Writer":
        self._chunks.append(np.ascontiguousarray(arr, dtype=np.uint8).tobytes())
        return self

    def raw(self, data: bytes) -> "Writer":
        self._chunks.append(data)
        return self

    def json_block(self, obj) -> "Writer":
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
        self.u32(len(payload))
        self._chunks.append(payload)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


@contextmanager
def format_errors(what: str, offset: int | None = None):
    """Report a field that does not build a valid object as FormatError
    "<what>: <reason>" at the field's byte offset."""
    try:
        yield
    except (InvalidInputError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"{what}: {exc}", offset=offset) from exc


class Reader:
    """Sequential reader over a byte buffer (bytes or a uint8 array) that raises
    FormatError with the failing byte offset."""

    def __init__(self, data):
        self.data = np.frombuffer(data, dtype=np.uint8)
        self.data.flags.writeable = False
        self.offset = 0
        self.size = len(self.data)

    @classmethod
    def open(cls, path, magic: str, version: int) -> "Reader":
        """A reader over the whole file, past its checked magic and version.

        The file is read into one buffer in one call, not mapped: a mapped
        file that shrinks while it is read kills the process with SIGBUS
        instead of raising FormatError. A loader whose file is mostly
        fixed-size records uses `stream`, which holds one chunk of them."""
        with open(path, "rb") as f:
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                data = np.fromfile(f, dtype=np.uint8)
            else:  # a pipe has no size for np.fromfile to read up to
                data = f.read()
        r = cls(data)
        r._expect_header(magic, version)
        return r

    @staticmethod
    @contextmanager
    def stream(path, magic: str, version: int):
        """A reader over the open file, past its checked magic and version,
        that reads each field when it is claimed; see `_StreamReader`.

        The size of a regular file is taken once, at open; a pipe has no
        size, so it is read whole first. The file is read, not mapped, for
        the reason `open` gives, and it is closed when the block ends."""
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            if stat.S_ISREG(st.st_mode):
                r = _StreamReader(f, st.st_size)
            else:
                data = f.read()
                r = _StreamReader(io.BytesIO(data), len(data))
            r._expect_header(magic, version)
            yield r

    def _expect_header(self, magic: str, version: int) -> None:
        tag = self._take(len(magic))
        if tag != magic.encode("ascii"):
            raise FormatError(f"bad magic {tag!r}, expected {magic!r}", offset=0)
        found = self.u32()
        if found != version:
            raise FormatError(f"unsupported {magic} version {found}, expected {version}",
                              offset=4)

    def _advance(self, n: int) -> int:
        """Claim the next n bytes and return where they start."""
        start = self.offset
        if start + n > self.size:
            raise FormatError(f"truncated file: need {n} bytes, have {self.size - start}",
                              offset=start)
        self.offset += n
        return start

    def _take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.data[start : start + n].tobytes()

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self._take(4))[0]

    def f32_array(self, count: int, shape=None) -> np.ndarray:
        arr = self.records(np.dtype("<f4"), count).astype(np.float32)
        return arr.reshape(shape) if shape is not None else arr

    def json_block(self):
        start = self.offset
        payload = self._take(self.u32())
        with format_errors("bad JSON block", start):
            return json.loads(payload.decode("utf-8"))

    def records(self, dtype: np.dtype, count: int) -> np.ndarray:
        """count fixed-size records as a read-only view of the data (no copy)."""
        start = self._advance(dtype.itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)

    def expect_eof(self) -> None:
        if self.offset != self.size:
            raise FormatError(f"{self.size - self.offset} trailing bytes", offset=self.offset)


class _StreamReader(Reader):
    """A Reader that reads each field from a binary file when it is claimed,
    and its records with `record_chunks`, as it holds no buffer to view.

    Claims are checked against the size the file had at open, so a short
    field is refused before anything is read or sized from it. A file that
    shrinks after that is truncated at the first read that comes up short."""

    def __init__(self, file, size: int):
        self.file, self.size, self.offset = file, size, 0

    def _fill(self, buf, start: int) -> None:
        """Read the bytes at start, which the caller has claimed, into buf."""
        view = memoryview(buf).cast("B")
        got = 0
        while got < len(view):
            n = self.file.readinto(view[got:])
            if not n:
                raise FormatError(f"truncated file: need {len(view)} bytes, have {got}",
                                  offset=start)
            got += n

    def _take(self, n: int) -> bytes:
        buf = bytearray(n)
        self._fill(buf, self._advance(n))
        return bytes(buf)

    def record_chunks(self, dtype: np.dtype, count: int):
        """count fixed-size records as (first row, records) chunks of about
        RECORD_CHUNK_BYTES, in order. Every chunk is read into the same
        buffer, so a chunk is valid only until the next one is read.

        The whole section is claimed here, before the first chunk is read:
        a count the file cannot hold is refused before the caller sizes
        anything from it."""
        start = self._advance(dtype.itemsize * count)
        return self._chunks(dtype, count, start)

    def _chunks(self, dtype: np.dtype, count: int, start: int):
        rows = max(1, RECORD_CHUNK_BYTES // dtype.itemsize)
        buf = np.empty(min(rows, count) * dtype.itemsize, dtype=np.uint8)
        for first in range(0, count, rows):
            chunk = buf[:min(rows, count - first) * dtype.itemsize]
            self._fill(chunk, start + first * dtype.itemsize)
            yield first, chunk.view(dtype)


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
