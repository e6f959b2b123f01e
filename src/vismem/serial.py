"""Little-endian binary IO helpers shared by every vismem file format.

The loader contract: `Reader.open` reads a file and checks its magic and
version; a short read or trailing bytes are `FormatError` at their offset.
`format_errors` reports a field that does not build a valid object
(`InvalidInputError`, or a `ValueError`, `OverflowError` or `RecursionError`
from numpy, `int()`, UTF-8 or JSON decoding) as `FormatError` at the field's
offset, for the binary, PGM and JSON loaders alike. `read_json_lines` and
`read_json_object` read JSON text through it, naming the file and the line,
and `json_fields` checks an object's fields. Other failures are checked
explicitly, so a malformed file raises `FormatError` and nothing else.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import FormatError, InvalidInputError


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file atomically (temp file in the same directory + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
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
    """Sequential reader that raises FormatError with the failing byte offset."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    @classmethod
    def open(cls, path, magic: str, version: int) -> "Reader":
        """A reader over the whole file, past its checked magic and version."""
        r = cls(read_file(path))
        tag = r._take(len(magic))
        if tag != magic.encode("ascii"):
            raise FormatError(f"bad magic {tag!r}, expected {magic!r}", offset=0)
        found = r.u32()
        if found != version:
            raise FormatError(f"unsupported {magic} version {found}, expected {version}",
                              offset=4)
        return r

    def _advance(self, n: int) -> int:
        """Claim the next n bytes and return where they start."""
        start = self.offset
        if start + n > len(self.data):
            raise FormatError(f"truncated file: need {n} bytes, have {len(self.data) - start}",
                              offset=start)
        self.offset += n
        return start

    def _take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.data[start : start + n]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self._take(4))[0]

    def f32_array(self, count: int, shape=None) -> np.ndarray:
        arr = np.frombuffer(self._take(4 * count), dtype="<f4").astype(np.float32)
        return arr.reshape(shape) if shape is not None else arr

    def i64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(8 * count), dtype="<i8").astype(np.int64)

    def u8_array(self, count: int, shape=None) -> np.ndarray:
        arr = np.frombuffer(self._take(count), dtype=np.uint8).copy()
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
        if self.offset != len(self.data):
            raise FormatError(
                f"{len(self.data) - self.offset} trailing bytes", offset=self.offset
            )


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
