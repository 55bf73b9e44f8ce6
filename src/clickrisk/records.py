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
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import IO, Iterable, Iterator

import numpy as np

Point = tuple[float, float]
Box = tuple[float, float, float, float]

UQ_KEYS = ("ta", "ie", "cd", "com")


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


def _as_point(value, name: str) -> Point:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    ):
        raise RecordError(f"{name}: expected a [x, y] pair of numbers, got {value!r}")
    x, y = _as_float(value[0], name), _as_float(value[1], name)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise RecordError(f"{name}: coordinates must be finite, got {value!r}")
    return (x, y)


_REAL_TYPES = frozenset((int, float))  # exact types: bool and other subclasses take the slow path


def _as_points(values: list, name: str) -> tuple[Point, ...]:
    """`_as_point` for every item of `values`, checking a plain JSON list in one pass.

    Only when some item is not a two-item list of exact ints and floats,
    a float conversion overflows, or a coordinate is not finite, the items
    go through `_as_point` one by one, which raises its usual error.
    """
    if all(type(p) is list and len(p) == 2 and type(p[0]) in _REAL_TYPES and type(p[1]) in _REAL_TYPES
           for p in values):
        try:
            points = tuple((float(x), float(y)) for x, y in values)
        except OverflowError:
            pass
        else:
            # a sum of finite floats is finite unless it overflows, which takes the slow path too
            if math.isfinite(sum(itertools.chain.from_iterable(points))):
                return points
    return tuple(_as_point(p, f"{name}[{i}]") for i, p in enumerate(values))


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
        (`_as_points`) and where it is scored (`density`)."""
        if not self.id:
            raise RecordError("id: must be a non-empty string")
        if self.image_width <= 0 or self.image_height <= 0:
            raise RecordError(f"image: dimensions must be positive, got {self.image_width}x{self.image_height}")
        x_min, y_min, x_max, y_max = self.gt_box
        if not all(math.isfinite(v) for v in self.gt_box):
            raise RecordError(f"gt_box: coordinates must be finite, got {self.gt_box}")
        if not (x_min < x_max and y_min < y_max):
            raise RecordError(f"gt_box: requires x_min < x_max and y_min < y_max, got {self.gt_box}")
        if x_min < 0 or y_min < 0 or x_max > self.image_width or y_max > self.image_height:
            raise RecordError(
                f"gt_box: {self.gt_box} exceeds image bounds {self.image_width}x{self.image_height}"
            )
        if len(self.samples) == 0:
            raise RecordError("samples: must contain at least one coordinate pair")
        if self.pc is not None and not 0.0 <= self.pc <= 1.0:
            raise RecordError(f"pc: must lie in [0, 1], got {self.pc}")


def record_from_obj(obj: dict) -> GroundingRecord:
    """Build and validate a record from one decoded JSON object."""
    if not isinstance(obj, dict):
        raise RecordError(f"expected a JSON object, got {type(obj).__name__}")
    try:
        rec_id = obj["id"]
        image = obj["image"]
        gt_box = obj["gt_box"]
        samples = obj["samples"]
    except KeyError as exc:
        raise RecordError(f"missing required field {exc.args[0]!r}") from None
    if not isinstance(rec_id, str):
        raise RecordError(f"id: expected a string, got {rec_id!r}")
    if (
        not isinstance(image, dict)
        or not {"w", "h"} <= set(image)
        or not all(isinstance(image[k], int) and not isinstance(image[k], bool) for k in ("w", "h"))
    ):
        raise RecordError('image: expected an object with integer fields "w" and "h"')
    instruction = obj.get("instruction")
    if instruction is not None and not isinstance(instruction, str):
        raise RecordError(f"instruction: expected a string, got {instruction!r}")
    if (
        not isinstance(gt_box, (list, tuple))
        or len(gt_box) != 4
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in gt_box)
    ):
        raise RecordError(f"gt_box: expected [x_min, y_min, x_max, y_max], got {gt_box!r}")
    if not isinstance(samples, list) or len(samples) == 0:
        raise RecordError("samples: must be a non-empty list of [x, y] pairs")
    pc = obj.get("pc")
    if pc is not None and (not isinstance(pc, (int, float)) or isinstance(pc, bool)):
        raise RecordError(f"pc: expected a real in [0, 1], got {pc!r}")
    uq = obj.get("uq")
    if uq is not None:
        if not isinstance(uq, dict) or not set(UQ_KEYS) <= set(uq):
            raise RecordError(f"uq: expected an object with fields {UQ_KEYS}")
        uq = {k: _as_float(uq[k], f"uq.{k}") for k in UQ_KEYS}
        if not all(map(math.isfinite, uq.values())):
            k = next(k for k, v in uq.items() if not math.isfinite(v))
            raise RecordError(f"uq.{k}: must be finite, got {obj['uq'][k]!r}")
    record = GroundingRecord(
        id=rec_id,
        image_width=int(image["w"]),
        image_height=int(image["h"]),
        gt_box=tuple(_as_float(v, "gt_box") for v in gt_box),
        samples=_as_points(samples, "samples"),
        instruction=instruction,
        mlg=_as_point(obj["mlg"], "mlg") if obj.get("mlg") is not None else None,
        expert=_as_point(obj["expert"], "expert") if obj.get("expert") is not None else None,
        pc=_as_float(pc, "pc") if pc is not None else None,
        uq=uq,
    )
    record.validate()
    return record


def record_to_obj(record: GroundingRecord) -> dict:
    obj: dict = {
        "id": record.id,
        "image": {"w": record.image_width, "h": record.image_height},
    }
    if record.instruction is not None:
        obj["instruction"] = record.instruction
    obj["gt_box"] = list(record.gt_box)
    obj["samples"] = [list(s) for s in record.samples]
    if record.mlg is not None:
        obj["mlg"] = list(record.mlg)
    if record.expert is not None:
        obj["expert"] = list(record.expert)
    if record.pc is not None:
        obj["pc"] = record.pc
    if record.uq is not None:
        obj["uq"] = {k: record.uq[k] for k in UQ_KEYS}
    return obj


def parse_records(stream: IO | Iterable[str | bytes]) -> list[GroundingRecord]:
    """Parse line-delimited records, preserving input order.

    Raises `RecordError` with the offending line number on malformed JSON,
    duplicate ids, or invariant violations. Blank lines are ignored.
    """
    records: list[GroundingRecord] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"invalid JSON: {exc.msg}", line=lineno) from None
        except ValueError as exc:  # an integer literal longer than int's digit limit
            raise RecordError(f"unreadable number: {exc}", line=lineno) from None
        try:
            record = record_from_obj(obj)
        except RecordError as exc:
            raise RecordError(str(exc), line=lineno) from None
        if record.id in seen:
            raise RecordError(f"duplicate id {record.id!r}", line=lineno)
        seen.add(record.id)
        records.append(record)
    return records


def serialize_records(records: Iterable[GroundingRecord]) -> Iterator[str]:
    """Yield one JSON line per record (no trailing newline)."""
    for record in records:
        yield json.dumps(record_to_obj(record), separators=(",", ":"))


def load_records(path) -> list[GroundingRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


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


def save_records(path, records: Iterable[GroundingRecord]) -> None:
    """Write one JSON line per record, atomically (see `atomic_writer`)."""
    with atomic_writer(path) as fh:
        for line in serialize_records(records):
            fh.write(line)
            fh.write("\n")


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


def with_mlg(record: GroundingRecord, seed: int = 0) -> GroundingRecord:
    """Copy of `record` with the acted-on prediction materialized."""
    if record.mlg is not None:
        return record
    return replace(record, mlg=select_mlg(record, seed))


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
