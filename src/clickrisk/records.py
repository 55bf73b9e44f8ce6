"""Instance data model, line-delimited record IO, and calibration/test splits.

One record per line, JSON-encoded::

    {"id": str, "image": {"w": int, "h": int}, "instruction": str?,
     "gt_box": [x_min, y_min, x_max, y_max], "samples": [[x, y], ...],
     "mlg": [x, y]?, "expert": [x, y]?, "pc": float?, "uq": {...}?}

Coordinates are pixels, origin at the top-left corner, x rightward and
y downward. `uq` is absent in raw files and appended by the scoring stage.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NoReturn

import numpy as np

Point = tuple[float, float]
Box = tuple[float, float, float, float]

UQ_KEYS = ("ta", "ie", "cd", "com")

# Records per chunk of `read_columns` and per array pass of `uq.score_columns`:
# large enough to amortize the numpy calls, small enough that a whole file's
# arrays never coexist.
SCORE_CHUNK = 256


class RecordError(ValueError):
    """A record failed parsing or invariant validation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SplitError(ValueError):
    """The dataset cannot be partitioned as requested."""


def _as_float(value, name: str) -> float:
    """`float(value)`; a value it rejects or that overflows is a RecordError naming `name`."""
    try:
        return float(value)
    except OverflowError:
        raise RecordError(f"{name}: an integer too large for a float") from None
    except (TypeError, ValueError):
        raise RecordError(f"{name}: expected a number, got {value!r}") from None


def _real(value) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return type(value) is float or (isinstance(value, (int, float)) and not isinstance(value, bool))


def _point(value, name: str, index: int | None = None) -> Point:
    """A validated [x, y] pair of finite coordinates, as floats; `index` names an item of field `name`."""
    if type(value) is list and len(value) == 2:
        x, y = value
        if type(x) is float and type(y) is float and x - x == 0.0 == y - y:  # finite floats, as JSON gives them
            return (x, y)
    if index is not None:
        name = f"{name}[{index}]"
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not (_real(value[0]) and _real(value[1])):
        raise RecordError(f"{name}: expected a [x, y] pair of numbers, got {value!r}")
    x, y = _as_float(value[0], name), _as_float(value[1], name)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise RecordError(f"{name}: coordinates must be finite, got {value!r}")
    return (x, y)


def _check_record(rec_id: str, width: int, height: int, gt_box: Box, n_samples: int, pc: float | None) -> None:
    """The record-level invariants, in `GroundingRecord.validate`'s order."""
    if not rec_id:
        raise RecordError("id: must be a non-empty string")
    if width <= 0 or height <= 0:
        raise RecordError(f"image: dimensions must be positive, got {width}x{height}")
    x_min, y_min, x_max, y_max = gt_box
    if not all(map(math.isfinite, gt_box)):
        raise RecordError(f"gt_box: coordinates must be finite, got {gt_box}")
    if not (x_min < x_max and y_min < y_max):
        raise RecordError(f"gt_box: requires x_min < x_max and y_min < y_max, got {gt_box}")
    if x_min < 0 or y_min < 0 or x_max > width or y_max > height:
        raise RecordError(f"gt_box: {gt_box} exceeds image bounds {width}x{height}")
    if n_samples == 0:
        raise RecordError("samples: must contain at least one coordinate pair")
    if pc is not None and not 0.0 <= pc <= 1.0:
        raise RecordError(f"pc: must lie in [0, 1], got {pc}")


@dataclass(frozen=True)
class GroundingRecord:
    """One grounding instance: ground truth, sampled outputs, optional extras.

    `samples` holds the stochastic coordinate samples in generation order.
    `mlg` is the prediction the system acts on; when absent it is drawn
    from `samples` (see `select_mlg`). `expert` is the stronger model's
    recorded prediction and `pc` a precomputed confidence-baseline score.
    """

    id: str
    image_width: int
    image_height: int
    gt_box: Box
    samples: tuple[Point, ...]
    instruction: str | None = None
    mlg: Point | None = None
    expert: Point | None = None
    pc: float | None = None
    uq: dict[str, float] | None = field(default=None)

    def validate(self) -> None:
        """Record-level invariants; each sample is checked where it is parsed
        (`record_fields`) and where it is scored (`density`)."""
        _check_record(self.id, self.image_width, self.image_height, self.gt_box, len(self.samples), self.pc)


_UQ_KEY_SET = frozenset(UQ_KEYS)
_UQ_NAMES = tuple(f"uq.{k}" for k in UQ_KEYS)
_uq_values = operator.itemgetter(*UQ_KEYS)


def record_fields(obj) -> tuple:
    """The validated fields of one decoded JSON record: (id, width, height,
    instruction, gt_box, samples, mlg, expert, pc, uq).

    `samples` comes as one flat list of coordinates (x0, y0, x1, y1, ...),
    `uq` as a 4-tuple in UQ_KEYS order, and an absent field as None. The
    first failed check raises: a missing key, the types of id, image,
    instruction, gt_box, samples, pc and uq, the float conversions (uq,
    gt_box, samples, mlg, expert, pc), then `GroundingRecord.validate`'s.
    An all-float gt_box or uq, as JSON gives them, passes its type and
    conversion checks with one type test.
    """
    if not isinstance(obj, dict):
        raise RecordError(f"expected a JSON object, got {type(obj).__name__}")
    try:
        rec_id, image, gt_box, samples = obj["id"], obj["image"], obj["gt_box"], obj["samples"]
    except KeyError as exc:
        raise RecordError(f"missing required field {exc.args[0]!r}") from None
    if not isinstance(rec_id, str):
        raise RecordError(f"id: expected a string, got {rec_id!r}")
    width, height = (image.get("w"), image.get("h")) if isinstance(image, dict) else (None, None)
    if not (isinstance(width, int) and isinstance(height, int)) or isinstance(width, bool) or isinstance(height, bool):
        raise RecordError('image: expected an object with integer fields "w" and "h"')
    instruction = obj.get("instruction")
    if instruction is not None and not isinstance(instruction, str):
        raise RecordError(f"instruction: expected a string, got {instruction!r}")
    box = None  # gt_box as floats, once it is known to convert
    if type(gt_box) is list and len(gt_box) == 4 and type(gt_box[0]) is type(gt_box[1]) is type(gt_box[2]) \
            is type(gt_box[3]) is float:
        box = tuple(gt_box)
    elif not isinstance(gt_box, (list, tuple)) or len(gt_box) != 4 or not all(map(_real, gt_box)):
        raise RecordError(f"gt_box: expected [x_min, y_min, x_max, y_max], got {gt_box!r}")
    if not isinstance(samples, list) or len(samples) == 0:
        raise RecordError("samples: must be a non-empty list of [x, y] pairs")
    pc = obj.get("pc")
    if pc is not None and not _real(pc):
        raise RecordError(f"pc: expected a real in [0, 1], got {pc!r}")
    uq = raw_uq = obj.get("uq")
    if uq is not None:
        if not isinstance(uq, dict) or not _UQ_KEY_SET <= uq.keys():
            raise RecordError(f"uq: expected an object with fields {UQ_KEYS}")
        uq = ta, ie, cd, com = _uq_values(raw_uq)
        # finite floats, as JSON gives them; anything else takes the per-value conversions and checks
        if not (type(ta) is type(ie) is type(cd) is type(com) is float and ta - ta == ie - ie == cd - cd == com - com):
            uq = tuple(_as_float(raw_uq[k], name) for k, name in zip(UQ_KEYS, _UQ_NAMES))
            if not all(map(math.isfinite, uq)):
                k = next(k for k, v in zip(UQ_KEYS, uq) if not math.isfinite(v))
                raise RecordError(f"uq.{k}: must be finite, got {raw_uq[k]!r}")
    gt_box = box or tuple(_as_float(v, "gt_box") for v in gt_box)
    coords: list[float] = []  # sample i is (coords[2 * i], coords[2 * i + 1])
    for p in samples:  # `_point`'s first test, inlined: this loop is the hottest of the reader
        if type(p) is list and len(p) == 2:
            x, y = p
            if type(x) is float and type(y) is float and x - x == 0.0 == y - y:
                coords += p
                continue
        coords += _point(p, "samples", len(coords) // 2)
    mlg, expert = obj.get("mlg"), obj.get("expert")
    mlg = _point(mlg, "mlg") if mlg is not None else None
    expert = _point(expert, "expert") if expert is not None else None
    pc = _as_float(pc, "pc") if pc is not None else None
    width, height = int(width), int(height)
    _check_record(rec_id, width, height, gt_box, len(samples), pc)
    return rec_id, width, height, instruction, gt_box, coords, mlg, expert, pc, uq


def _record(fields: tuple) -> GroundingRecord:
    rec_id, width, height, instruction, gt_box, coords, mlg, expert, pc, uq = fields
    xy = iter(coords)
    uq = None if uq is None else dict(zip(UQ_KEYS, uq))
    return GroundingRecord(rec_id, width, height, gt_box, tuple(zip(xy, xy)), instruction, mlg, expert, pc, uq)


def _json_error(line: str, lineno: int) -> NoReturn:
    """Raise the RecordError for a line that is not one JSON value, with `json.loads`' own message."""
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"invalid JSON: {exc.msg}", line=lineno) from None
    except ValueError as exc:  # an integer literal longer than int's digit limit
        raise RecordError(f"unreadable number: {exc}", line=lineno) from None
    raise RecordError("invalid JSON", line=lineno)  # not reached: json.loads accepts what the scanner does


def _line_fields(stream: IO | Iterable[str | bytes]) -> Iterator[tuple]:
    """`record_fields` of each non-blank str or UTF-8 bytes line: the one loop every reader runs.

    A RecordError names the line: malformed JSON, a failed check, or an id seen on an earlier line.
    """
    seen: set[str] = set()
    # `json.loads` without its per-call checks: the line is stripped, so the scanner accepts it exactly
    # when it reads one value that ends where the line does
    scan = json.scanner.make_scanner(json.JSONDecoder())
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line:
            continue
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError):  # no value at all, malformed JSON, or an over-long integer
            end = -1
        if end != len(line):
            _json_error(line, lineno)
        try:
            fields = record_fields(obj)
        except RecordError as exc:
            raise RecordError(str(exc), line=lineno) from None
        if fields[0] in seen:
            raise RecordError(f"duplicate id {fields[0]!r}", line=lineno)
        seen.add(fields[0])
        yield fields


def parse_records(stream: IO | Iterable[str | bytes]) -> list[GroundingRecord]:
    """The records of the non-blank lines of `stream`, in order; errors as `_line_fields` raises them."""
    return [_record(fields) for fields in _line_fields(stream)]


def load_records(path) -> list[GroundingRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


@dataclass(frozen=True, slots=True)
class Columns:
    """Consecutive records, record i in row i: up to SCORE_CHUNK of a file, or a generated dataset.

    Record i's samples are `points[offsets[i]:offsets[i + 1]]`, the column
    `uq.score_columns` scores. An absent mlg, expert, pc or uq is NaN: the
    reader accepts only finite values, so `np.isnan` is the absence mask.
    `len` is the number of records.
    """

    ids: list[str]
    instructions: list[str | None]
    dims: list[tuple[int, int]]  # (width, height)
    boxes: np.ndarray  # (n, 4) float64: x_min, y_min, x_max, y_max
    points: np.ndarray  # (m, 2) float64
    offsets: np.ndarray  # (n + 1,) int64
    mlg: np.ndarray  # (n, 2) float64
    expert: np.ndarray  # (n, 2) float64
    pc: np.ndarray  # (n,) float64
    uq: np.ndarray  # (n, 4) float64, in UQ_KEYS order

    def __len__(self) -> int:
        return len(self.ids)


_NAN_PAIR, _NAN_UQ = (math.nan,) * 2, (math.nan,) * len(UQ_KEYS)


def _matrix(rows, width: int) -> np.ndarray:
    """Sequences of floats, `width` per row, as one float array."""
    return np.fromiter(itertools.chain.from_iterable(rows), dtype=float).reshape(-1, width)


def read_columns(path) -> Iterator[Columns]:
    """The records of the file at `path` as `Columns`, SCORE_CHUNK at a time, one chunk held at a time.

    The checks, errors and line numbers are `load_records`'; an id repeated in any later chunk is a duplicate.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = _line_fields(fh)
        while chunk := list(itertools.islice(rows, SCORE_CHUNK)):
            ids, widths, heights, instructions, boxes, coords, mlg, expert, pc, uq = zip(*chunk)
            yield Columns(
                ids=list(ids),
                instructions=list(instructions),
                dims=list(zip(widths, heights)),
                boxes=_matrix(boxes, 4),
                points=_matrix(coords, 2),
                offsets=np.cumsum([0] + [len(c) // 2 for c in coords]),
                mlg=_matrix([m or _NAN_PAIR for m in mlg], 2),
                expert=_matrix([e or _NAN_PAIR for e in expert], 2),
                pc=np.array([math.nan if p is None else p for p in pc], dtype=float),
                uq=_matrix([u or _NAN_UQ for u in uq], 4),
            )


def _line_format(k: int, instruction: bool, mlg: bool, expert: bool, pc: bool, uq: bool) -> str:
    """The %-format of a record's line with `k` samples and the optional fields flagged present."""
    return "".join((
        '{"id":%s,"image":{"w":%d,"h":%d}',
        ',"instruction":%s' if instruction else "",
        ',"gt_box":[%r,%r,%r,%r],"samples":[', ",".join(["[%r,%r]"] * k), "]",
        ',"mlg":[%r,%r]' if mlg else "",
        ',"expert":[%r,%r]' if expert else "",
        ',"pc":%r' if pc else "",
        ',"uq":{' + ",".join(f'"{key}":%r' for key in UQ_KEYS) + "}" if uq else "",
        "}",
    ))


def _present(name: str, column: np.ndarray) -> list[bool]:
    """Which rows of a 2-d optional column hold a value: an all-NaN row is an absent field."""
    absent = np.isnan(column).all(axis=1)
    if not (absent | np.isfinite(column).all(axis=1)).all():
        raise ValueError(f"{name}: a row must be finite or all NaN")
    return (~absent).tolist()


def column_lines(chunk: Columns, mlg: np.ndarray, uq: np.ndarray) -> Iterator[str]:
    """The chunk's records as compact JSON lines, with `mlg` and `uq` for theirs; the only record writer.

    `mlg` is (n, 2) and `uq` (n, 4) in UQ_KEYS order, one row per record; an
    all-NaN mlg, expert, pc or uq row is left out, as `Columns` defines
    absence. Each line is one %-format: `%r` of a finite float is its
    shortest repr, which is what `json.dumps` writes, and the id and the
    instruction go through json's own string encoder. Any other non-finite
    value is a ValueError, since no JSON number can hold it.
    """
    if not (np.isfinite(chunk.boxes).all() and np.isfinite(chunk.points).all()):
        raise ValueError("gt_box and samples must be finite")
    encode = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it
    optional = (("mlg", mlg), ("expert", chunk.expert), ("pc", chunk.pc[:, None]), ("uq", uq))
    present = [_present(name, column) for name, column in optional]
    # each record's values of each field, none where it is absent
    values = [[row if p else () for row, p in zip(column.tolist(), has)]
              for (_, column), has in zip(optional, present)]
    instructions = [() if s is None else (encode(s),) for s in chunk.instructions]
    layouts = zip(np.diff(chunk.offsets).tolist(), map(bool, instructions), *present)
    formats: dict[tuple, str] = {}  # a layout's format, built once per call
    coords, starts = chunk.points.ravel().tolist(), (2 * chunk.offsets).tolist()
    rows = zip(layouts, chunk.ids, chunk.dims, instructions, chunk.boxes.tolist(), starts, starts[1:], *values)
    for layout, rec_id, (width, height), instruction, box, a, b, click, expert, pc, score in rows:
        fmt = formats.get(layout)
        if fmt is None:
            fmt = formats[layout] = _line_format(*layout)
        yield fmt % (encode(rec_id), width, height, *instruction, *box, *coords[a:b], *click, *expert, *pc, *score)


def write_columns(fh: IO[str], chunk: Columns, mlg: np.ndarray, uq: np.ndarray) -> None:
    """Write `column_lines(chunk, mlg, uq)` to `fh`, one line each."""
    fh.writelines(line + "\n" for line in column_lines(chunk, mlg, uq))


@contextlib.contextmanager
def atomic_writer(path) -> Iterator[IO[str]]:
    """Text handle on a temporary file that replaces `path` on a clean exit.

    The temporary file sits in the target's directory, so the final rename
    never crosses a file system; on any error it is removed and `path` is
    left as it was. The result gets the permissions a plain `open` would.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_records(path, chunks: Iterable[Columns]) -> None:
    """Write consecutive `Columns` chunks, one JSON line per record, atomically (see `atomic_writer`).

    Each chunk goes through `write_columns` before the next is drawn, so a generator's chunks never coexist.
    """
    with atomic_writer(path) as fh:
        for chunk in chunks:
            write_columns(fh, chunk, chunk.mlg, chunk.uq)


def select_mlg(record: GroundingRecord, seed: int = 0) -> Point:
    """The prediction the system acts on.

    Returns the explicit `mlg` field when present; otherwise picks one of
    the samples uniformly with a generator derived from (seed, record.id),
    so the choice is reproducible without being stored.
    """
    if record.mlg is not None:
        return record.mlg
    return record.samples[mlg_index(record.id, len(record.samples), seed)]


def mlg_index(record_id: str, n_samples: int, seed: int) -> int:
    """Index of the sample `select_mlg` picks for a record without an `mlg` field."""
    digest = hashlib.sha256(f"{seed}:{record_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_samples


def mlg_column(chunk: Columns, seed: int = 0) -> np.ndarray:
    """`select_mlg` of every record of a chunk, as an (n, 2) array."""
    clicks = chunk.mlg.copy()
    drawn = np.flatnonzero(np.isnan(clicks[:, 0])).tolist()
    starts, sizes = chunk.offsets[:-1].tolist(), np.diff(chunk.offsets).tolist()
    clicks[drawn] = chunk.points[[starts[i] + mlg_index(chunk.ids[i], sizes[i], seed) for i in drawn]]
    return clicks


@dataclass(frozen=True)
class SplitPlan:
    """Reproducible calibration/test partitioning scheme."""

    calibration_ratio: float
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not 0.0 < self.calibration_ratio < 1.0:
            raise SplitError(f"calibration_ratio must lie in (0, 1), got {self.calibration_ratio}")
        if self.repetitions < 1:
            raise SplitError(f"repetitions must be positive, got {self.repetitions}")


def split_indices(
    n: int, plan: SplitPlan, repetition_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (calibration, test) index arrays partitioning range(n).

    The calibration size is round(ratio * n) (half up), clamped so both
    sides are non-empty. Deterministic in (plan.seed, repetition_index).
    """
    if not 0 <= repetition_index < plan.repetitions:
        raise SplitError(
            f"repetition_index {repetition_index} outside [0, {plan.repetitions})"
        )
    if n < 2:
        raise SplitError(f"need at least 2 records to split, got {n}")
    n_cal = int(math.floor(plan.calibration_ratio * n + 0.5))
    n_cal = min(max(n_cal, 1), n - 1)
    rng = np.random.default_rng([plan.seed % (2**63), repetition_index])
    perm = rng.permutation(n)
    return np.sort(perm[:n_cal]), np.sort(perm[n_cal:])


def split(
    records: list[GroundingRecord], plan: SplitPlan, repetition_index: int = 0
) -> tuple[list[GroundingRecord], list[GroundingRecord]]:
    """Disjoint (calibration, test) partition covering all records.

    The records at `split_indices(len(records), plan, repetition_index)`;
    each side keeps the records' original file order.
    """
    cal_idx, test_idx = split_indices(len(records), plan, repetition_index)
    return [records[i] for i in cal_idx], [records[i] for i in test_idx]
