"""The column sidecar of a record file: its format, writer and reader.

`records` is this module's only user: `records.record_writer` stages a
sidecar beside each record file it stages, and `records.read_columns`
serves one in place of the lines while it is bound to its file. It imports
this module only then, so a command that meets no sidecar never loads it.

`<file>.cols` is a header line of _HEADER_BYTES (JSON padded with spaces:
the format tag, the record file's size and sha256, the body's sha256 and
the record count), then the body: one block per chunk the writer was
handed, at most SCORE_CHUNK records (a longer chunk is cut into
SCORE_CHUNK blocks), each a JSON line of its ids, instructions, dims and
sample count followed by the little-endian bytes of each of _BLOCK_ARRAYS
in turn, as `read_columns` reads the record file's lines back.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from typing import IO, Iterator, NoReturn

import numpy as np

from .records import SCORE_CHUNK, UQ_KEYS, Columns, RecordError, column_lines, record_fields

FORMAT = "clickrisk-columns/1"
_HEADER_BYTES = 256
# (field, dtype, row width or None for a vector); `points` has a row per
# sample and `offsets` one more than the records, every other one per record
_BLOCK_ARRAYS = (
    ("boxes", "<f8", 4), ("points", "<f8", 2), ("offsets", "<i8", None), ("mlg", "<f8", 2),
    ("expert", "<f8", 2), ("pc", "<f8", None), ("uq", "<f8", 4),
)


def bound_count(path, cols: IO[bytes]) -> int | None:
    """The record count of the sidecar open as `cols`, left at its first block, when it is bound to the
    record file at `path`; else None.

    Bound means: the header's format tag is FORMAT, its size and sha256 are
    the file's, and its body sha256 is the body's. A stale sidecar, and one
    cut short, changed or of another format, are not bound.
    """
    try:
        header = json.loads(cols.read(_HEADER_BYTES))
        with open(path, "rb") as fh:
            bound = (header["format"] == FORMAT and type(header["records"]) is int
                     and header["size"] == os.fstat(fh.fileno()).st_size
                     and header["sha256"] == _sha256(fh) and header["body_sha256"] == _sha256(cols))
    except (ValueError, KeyError, TypeError):  # no JSON object with those keys: not a header
        return None
    if not bound:
        return None
    cols.seek(_HEADER_BYTES)
    return header["records"]


def _sha256(fh: IO[bytes]) -> str:
    """The sha256 of what is left of `fh`."""
    digest, block = hashlib.sha256(), bytearray(1 << 16)  # one buffer, so memory does not grow with the file
    while size := fh.readinto(block):
        digest.update(memoryview(block)[:size])
    return digest.hexdigest()


def served_columns(cols: IO[bytes], count: int) -> Iterator[Columns]:
    """The blocks of the bound sidecar `cols`, at its first block, each checked as the lines would be before
    it is yielded; `count` is its header's record count."""
    seen: set[str] = set()
    served = 0
    while head := cols.readline():
        chunk = _block(cols, head)
        _check_block(chunk, seen, cols.name, served)
        served += len(chunk)
        yield chunk
    if served != count:
        raise RecordError(f"{cols.name}: holds {served} records where its header says {count}")


def _block(cols: IO[bytes], head: bytes) -> Columns:
    """The block whose JSON line is `head`, its arrays read from `cols`; a malformed one is a RecordError."""
    try:
        obj = json.loads(head)
        ids, instructions, dims, m = obj["ids"], obj["instructions"], obj["dims"], obj["samples"]
        n = len(ids)
        well_formed = (
            type(ids) is type(instructions) is type(dims) is list and len(instructions) == len(dims) == n > 0
            and type(m) is int and m >= 0 and all(type(i) is str for i in ids)
            and all(s is None or type(s) is str for s in instructions)
            and all(type(d) is list and len(d) == 2 and type(d[0]) is type(d[1]) is int for d in dims)
        )
    except (ValueError, KeyError, TypeError, RecursionError):  # RecursionError: nested past the limit
        well_formed = False
    if not well_formed or n > SCORE_CHUNK:
        raise RecordError(f"{cols.name}: a malformed block")
    shapes = [(name, dtype, m if name == "points" else n + 1 if name == "offsets" else n, width)
              for name, dtype, width in _BLOCK_ARRAYS]
    # before any allocation, so that no sample count can ask for more memory than the sidecar holds
    if sum(np.dtype(dtype).itemsize * rows * (width or 1) for _, dtype, rows, width in shapes) \
            > os.fstat(cols.fileno()).st_size - cols.tell():
        raise RecordError(f"{cols.name}: a block cut short")
    arrays = {}
    for name, dtype, rows, width in shapes:
        arrays[name] = np.empty(rows if width is None else (rows, width), dtype)
        if cols.readinto(arrays[name]) != arrays[name].nbytes:
            raise RecordError(f"{cols.name}: a block cut short")
    return Columns(ids=ids, instructions=instructions, dims=[(w, h) for w, h in dims], **arrays)


def _check_block(chunk: Columns, seen: set[str], name: str, start: int) -> None:
    """`record_fields`' checks and the duplicate-id check on every record of a served block, as array passes.

    `seen` holds the ids of the blocks before, which hold `start` records;
    it gains this block's. A failed check raises as `_fault` words it.
    """
    offsets = chunk.offsets
    sizes = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != len(chunk.points) or (sizes < 0).any():
        raise RecordError(f"{name}: a block's offsets are out of order")
    try:
        width, height = np.array(chunk.dims, dtype=float).T
    except OverflowError:  # an integer past the float range, which every finite box fits in
        width, height = np.array([[min(d, sys.float_info.max) for d in dims] for dims in chunk.dims]).T
    x_min, y_min, x_max, y_max = chunk.boxes.T
    # a NaN compares false, and an infinite coordinate fails a bound, so a non-finite box fails too
    ok = (0 <= x_min) & (x_min < x_max) & (x_max <= width) & (0 <= y_min) & (y_min < y_max) & (y_max <= height)
    ok &= (sizes > 0) & ~((chunk.pc < 0) | (chunk.pc > 1))  # a NaN pc is an absent one
    for column in (chunk.mlg, chunk.expert, chunk.uq):
        ok &= np.isfinite(column).all(axis=1) | np.isnan(column).all(axis=1)
    finite = np.isfinite(chunk.points).all(axis=1)
    if not finite.all():
        ok[np.searchsorted(offsets, np.flatnonzero(~finite), side="right") - 1] = False
    ids = set(chunk.ids)
    if not ok.all() or len(ids) < len(chunk) or "" in ids or not ids.isdisjoint(seen):
        _fault(chunk, seen, name, start)
    seen |= ids


def _fault(chunk: Columns, seen: set[str], name: str, start: int) -> NoReturn:
    """Raise the parse path's error for the first failing record of a served block.

    Each record goes through `record_fields` as the JSON object its line
    decodes to, then the duplicate check; the error names the sidecar, the
    record and the line the writer put it on.
    """
    earlier = set(seen)
    for i, rec_id in enumerate(chunk.ids):
        try:
            record_fields(_line_object(chunk, i))
            if rec_id in earlier:
                raise RecordError(f"duplicate id {rec_id!r}")
        except RecordError as exc:
            raise RecordError(f"{name}: record {rec_id!r}: {exc}", line=start + i + 1) from None
        earlier.add(rec_id)
    raise RecordError(f"{name}: a block fails its checks")


def _line_object(chunk: Columns, i: int) -> dict:
    """Record i of `chunk` as the JSON object of its line: floats as floats, an all-NaN optional field left out."""
    a, b = chunk.offsets[i : i + 2].tolist()
    width, height = chunk.dims[i]
    obj = {"id": chunk.ids[i], "image": {"w": width, "h": height}, "gt_box": chunk.boxes[i].tolist(),
           "samples": chunk.points[a:b].tolist()}
    if chunk.instructions[i] is not None:
        obj["instruction"] = chunk.instructions[i]
    for key, column in (("mlg", chunk.mlg), ("expert", chunk.expert), ("pc", chunk.pc[:, None]), ("uq", chunk.uq)):
        row = column[i].tolist()
        if not all(map(math.isnan, row)):
            obj[key] = dict(zip(UQ_KEYS, row)) if key == "uq" else row[0] if key == "pc" else row
    return obj


def _absent_as_nan(column: np.ndarray) -> np.ndarray:
    """`column` as float64 with every NaN the one the reader puts in an absent field."""
    return np.where(np.isnan(column), math.nan, column)


class RecordWriter:
    """The one record-file writer: JSON lines to one handle and their column sidecar to another.

    `record_writer` opens both. Each `write` goes out before it returns: its
    lines, then its records as sidecar blocks of at most SCORE_CHUNK, so a
    sidecar holds one block per chunk the writer is handed, cut where a chunk
    is longer. `close` writes the header, which takes the place the first
    write to the sidecar kept for it.
    """

    def __init__(self, lines: IO[bytes], cols: IO[bytes]):
        self._lines, self._cols = lines, cols
        self._size = self._count = 0
        self._digest, self._body = hashlib.sha256(), hashlib.sha256()
        cols.write(b" " * (_HEADER_BYTES - 1) + b"\n")

    def write(self, chunk: Columns) -> None:
        """Append `chunk`'s records (see `column_lines`)."""
        data = "".join([line + "\n" for line in column_lines(chunk)]).encode("ascii")
        self._lines.write(data)
        self._digest.update(data)
        self._size += len(data)
        for a in range(0, len(chunk), SCORE_CHUNK):
            b = min(a + SCORE_CHUNK, len(chunk))
            lo, hi = chunk.offsets[[a, b]].tolist()
            head = {"ids": chunk.ids[a:b], "instructions": chunk.instructions[a:b], "dims": chunk.dims[a:b],
                    "samples": hi - lo}
            # the arrays as `read_columns` reads the lines back: float64 and int64, the offsets from 0, and
            # every absent value the reader's NaN
            arrays = (chunk.boxes[a:b], chunk.points[lo:hi], chunk.offsets[a : b + 1] - lo,
                      *map(_absent_as_nan, (chunk.mlg[a:b], chunk.expert[a:b], chunk.pc[a:b], chunk.uq[a:b])))
            data = b"".join([json.dumps(head, separators=(",", ":"), default=int).encode("ascii") + b"\n"] + [
                array.astype(dtype, copy=False).tobytes() for array, (_, dtype, _) in zip(arrays, _BLOCK_ARRAYS)])
            self._cols.write(data)
            self._body.update(data)
        self._count += len(chunk)

    def close(self) -> None:
        """Write the header."""
        header = json.dumps({"format": FORMAT, "size": self._size, "sha256": self._digest.hexdigest(),
                             "body_sha256": self._body.hexdigest(), "records": self._count},
                            separators=(",", ":")).encode("ascii")  # at most 244 bytes for sizes below 2**63
        self._cols.seek(0)
        self._cols.write(header.ljust(_HEADER_BYTES - 1) + b"\n")
