"""Threshold-gated accept/defer decisions and system-level evaluation.

At test time a record is accepted (primary model's prediction is used)
when its uncertainty is at or below the calibrated threshold, and
deferred to the recorded expert prediction otherwise. Deferred record
ids can be exported as a manifest for an offline expert round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .metrics import admission
from .records import GroundingRecord, atomic_writer, select_mlg


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


def evaluate_cascade(
    records: Sequence[GroundingRecord],
    uncertainties: Sequence[float],
    threshold: float,
    mlg_seed: int = 0,
) -> CascadeReport:
    """Route each record by its uncertainty and score the mixed system.

    Accepted records are judged by the primary prediction, deferred ones
    by the recorded expert prediction; a deferred record without an
    expert prediction is a hard error naming the offending ids.
    """
    if len(records) != len(uncertainties):
        raise CascadeError(
            f"length mismatch: {len(records)} records vs {len(uncertainties)} uncertainties"
        )
    if len(records) == 0:
        raise CascadeError("need at least one record")
    missing = [
        r.id
        for r, u in zip(records, uncertainties)
        if decide(u, threshold) is Decision.DEFER and r.expert is None
    ]
    if missing:
        raise CascadeError(f"deferred records lack expert predictions: {missing}")

    n_accepted = 0
    n_deferred = 0
    correct_accepted = 0
    correct_deferred = 0
    primary_correct = 0
    expert_correct = 0
    expert_present = 0
    for record, u in zip(records, uncertainties):
        primary_point = select_mlg(record, mlg_seed)
        primary_hit = admission(primary_point, record.gt_box)
        primary_correct += primary_hit
        if record.expert is not None:
            expert_present += 1
            expert_correct += admission(record.expert, record.gt_box)
        if decide(u, threshold) is Decision.ACCEPT:
            n_accepted += 1
            correct_accepted += primary_hit
        else:
            n_deferred += 1
            correct_deferred += admission(record.expert, record.gt_box)

    n_total = len(records)
    return CascadeReport(
        system_accuracy=(correct_accepted + correct_deferred) / n_total,
        primary_accuracy=primary_correct / n_total,
        expert_only_accuracy=(expert_correct / expert_present) if expert_present else None,
        cascading_rate=n_deferred / n_total,
        n_total=n_total,
        n_accepted=n_accepted,
        n_deferred=n_deferred,
        n_correct_accepted=correct_accepted,
        n_correct_deferred=correct_deferred,
    )


def deferred_manifest(
    records: Sequence[GroundingRecord], uncertainties: Sequence[float], threshold: float
) -> list[dict]:
    """Manifest entries ({"id", "instruction"?}) for every deferred record."""
    if len(records) != len(uncertainties):
        raise CascadeError(
            f"length mismatch: {len(records)} records vs {len(uncertainties)} uncertainties"
        )
    entries = []
    for record, u in zip(records, uncertainties):
        if decide(u, threshold) is Decision.DEFER:
            entry: dict = {"id": record.id}
            if record.instruction is not None:
                entry["instruction"] = record.instruction
            entries.append(entry)
    return entries


def emit_deferrals(
    records: Sequence[GroundingRecord],
    uncertainties: Sequence[float],
    threshold: float,
    path,
) -> list[str]:
    """Write the deferral manifest as line-delimited JSON, atomically; returns the ids."""
    entries = deferred_manifest(records, uncertainties, threshold)
    with atomic_writer(path) as fh:
        for entry in entries:
            fh.write(json.dumps(entry, separators=(",", ":")))
            fh.write("\n")
    return [entry["id"] for entry in entries]
