"""Threshold-gated accept/defer decisions and system-level evaluation.

At test time a record is accepted (primary model's prediction is used)
when its uncertainty is at or below the calibrated threshold, and
deferred to the recorded expert prediction otherwise. Deferred record
ids can be exported as a manifest for an offline expert round trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .metrics import admissions, split_counts
from .records import GroundingRecord, select_mlg, staged_files

_NAN_PAIR = (math.nan, math.nan)  # an absent prediction, admissible nowhere


class CascadeError(ValueError):
    """A deferred record is missing the expert prediction it needs."""


class Decision(Enum):
    ACCEPT = "accept"
    DEFER = "defer"


@dataclass(frozen=True)
class CascadeReport:
    """Accuracy and routing bookkeeping for one threshold.

    `expert_only_accuracy` is computed over the records that carry an
    expert prediction and is None when none do.
    """

    system_accuracy: float
    primary_accuracy: float
    expert_only_accuracy: float | None
    cascading_rate: float
    n_total: int
    n_accepted: int
    n_deferred: int
    n_correct_accepted: int
    n_correct_deferred: int


def decide(uncertainty: float, threshold: float) -> Decision:
    """Accept iff uncertainty <= threshold (inclusive boundary)."""
    return Decision.ACCEPT if uncertainty <= threshold else Decision.DEFER


def deferred_rows(u: np.ndarray, threshold: float) -> np.ndarray:
    """The positions of the records `decide` defers at `threshold`, in order."""
    return np.flatnonzero(~(u <= threshold))


def route(u: np.ndarray, adm: np.ndarray, expert: np.ndarray, has_expert: np.ndarray, deferred_ids: Sequence[str],
          threshold: float) -> CascadeReport:
    """Route every record by its uncertainty `u`; the system's report.

    `adm` and `expert` say whether each acted-on and each expert prediction
    is admissible (`expert` is False where `has_expert` is). A record is
    accepted iff `decide` accepts it and is then judged by the primary
    prediction, otherwise by the expert's; a deferred record without an
    expert prediction is a hard error naming it from `deferred_ids`, the
    ids of the records at `deferred_rows(u, threshold)`.
    """
    n_total = len(u)
    if n_total == 0:
        raise CascadeError("need at least one record")
    missing = np.flatnonzero(~has_expert[deferred_rows(u, threshold)]).tolist()
    if missing:
        raise CascadeError(f"deferred records lack expert predictions: {[deferred_ids[i] for i in missing]}")
    counts = split_counts(u, adm, threshold, expert)
    n_experts = int(np.count_nonzero(has_expert))
    return CascadeReport(
        system_accuracy=counts.system_accuracy,
        primary_accuracy=counts.n_admissible / n_total,
        expert_only_accuracy=int(np.count_nonzero(expert)) / n_experts if n_experts else None,
        cascading_rate=counts.cascading_rate,
        n_total=n_total,
        n_accepted=counts.n_accepted,
        n_deferred=n_total - counts.n_accepted,
        n_correct_accepted=counts.n_retained,
        n_correct_deferred=counts.n_expert_correct,
    )


def _uncertainties(records: Sequence[GroundingRecord], uncertainties: Sequence[float]) -> np.ndarray:
    if len(records) != len(uncertainties):
        raise CascadeError(f"length mismatch: {len(records)} records vs {len(uncertainties)} uncertainties")
    return np.asarray(uncertainties, dtype=float)


def evaluate_cascade(
    records: Sequence[GroundingRecord],
    uncertainties: Sequence[float],
    threshold: float,
    mlg_seed: int = 0,
) -> CascadeReport:
    """`route` for records, each acting on `select_mlg(record, mlg_seed)`."""
    u = _uncertainties(records, uncertainties)
    boxes, experts = [r.gt_box for r in records], [r.expert or _NAN_PAIR for r in records]
    adm = admissions([select_mlg(r, mlg_seed) for r in records], boxes)
    has_expert = np.array([r.expert is not None for r in records], dtype=bool)
    deferred_ids = [records[i].id for i in deferred_rows(u, threshold).tolist()]
    return route(u, adm, admissions(experts, boxes), has_expert, deferred_ids, threshold)


def manifest_lines(ids: Sequence[str], instructions: Sequence[str | None]) -> Iterator[str]:
    """The manifest's lines: one {"id", "instruction"?} per deferred record, in order."""
    encode = json.encoder.encode_basestring_ascii  # a str as json.dumps writes it
    for rec_id, instruction in zip(ids, instructions):
        if instruction is None:
            yield '{"id":%s}\n' % encode(rec_id)
        else:
            yield '{"id":%s,"instruction":%s}\n' % (encode(rec_id), encode(instruction))


def write_manifest(path, ids: Sequence[str], instructions: Sequence[str | None]) -> None:
    """Write `manifest_lines` atomically."""
    with staged_files() as stage, stage(path) as fh:
        fh.writelines(manifest_lines(ids, instructions))


def emit_deferrals(
    records: Sequence[GroundingRecord],
    uncertainties: Sequence[float],
    threshold: float,
    path,
) -> list[str]:
    """`write_manifest` for the records the threshold defers; returns their ids."""
    rows = deferred_rows(_uncertainties(records, uncertainties), threshold).tolist()
    ids = [records[i].id for i in rows]
    write_manifest(path, ids, [records[i].instruction for i in rows])
    return ids
