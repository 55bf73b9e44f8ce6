"""Admission checking and selective-prediction evaluation metrics.

A prediction is admissible when it lands inside the ground-truth box
(boundary inclusive). AUROC measures how well uncertainty separates
inadmissible from admissible predictions; AUARC averages the retained
accuracy as the highest-uncertainty records are rejected one by one;
FDR and power describe an acceptance rule at a fixed threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .records import Box, Point
from .risk import empirical_fdr


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. single-class labels)."""


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary for one calibrated split."""

    auroc: float
    auarc: float
    fdr: float
    power: float
    n_accepted: int
    n_total: int


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    std: float


def admission(point: Point, box: Box) -> int:
    """1 iff the point lies inside the box, boundaries included."""
    x, y = point
    x_min, y_min, x_max, y_max = box
    return int(x_min <= x <= x_max and y_min <= y <= y_max)


def admissions(points, boxes) -> np.ndarray:
    """`admission` of each point against its box, as a bool array.

    `points` is (n, 2) and `boxes` (n, 4) as x_min, y_min, x_max, y_max;
    boundaries are included, the same float comparisons as `admission`.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    bxs = np.asarray(boxes, dtype=float).reshape(-1, 4)
    x, y = pts[:, 0], pts[:, 1]
    return (bxs[:, 0] <= x) & (x <= bxs[:, 2]) & (bxs[:, 1] <= y) & (y <= bxs[:, 3])


def _check_pair(uncertainties, flags) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(uncertainties, dtype=float)
    adm = np.asarray(flags, dtype=int)
    if u.shape != adm.shape:
        raise MetricError(f"length mismatch: {u.shape[0]} uncertainties vs {adm.shape[0]} flags")
    if adm.size and not np.isin(adm, (0, 1)).all():
        raise MetricError("admissible flags must be 0 or 1")
    nan = np.isnan(u)
    if nan.any():
        raise MetricError(f"uncertainty at position {int(nan.argmax())} is NaN")
    return u, adm


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their group average.

    A tie group spans sorted positions i..j and each member gets
    0.5 * (i + j) + 1.0. The metrics never pass NaN (`_check_pair` rejects
    it); here a NaN would tie nothing, as `==` never holds for it.
    """
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts_group = np.ones(values.size, dtype=bool)
    starts_group[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(starts_group)
    ends = np.append(starts[1:], values.size) - 1
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = (0.5 * (starts + ends) + 1.0)[np.cumsum(starts_group) - 1]
    return ranks


def auroc(uncertainties: Sequence[float], admissible: Sequence[int]) -> float:
    """Probability that an inadmissible record out-scores an admissible one.

    Rank-based (Mann-Whitney) with ties counting one half. Requires both
    classes to be present.
    """
    return _auroc(*_check_pair(uncertainties, admissible))


def _auroc(u: np.ndarray, adm: np.ndarray) -> float:
    n_pos = int((adm == 0).sum())  # inadmissible: the high-uncertainty class
    n_neg = int((adm == 1).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auroc needs at least one admissible and one inadmissible record")
    ranks = _average_ranks(u)
    rank_sum = float(ranks[adm == 0].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _sorted_flags(u: np.ndarray, adm: np.ndarray) -> np.ndarray:
    order = np.argsort(u, kind="stable")  # ties keep record order
    return adm[order]


def auarc(uncertainties: Sequence[float], admissible: Sequence[int]) -> float:
    """Mean retained accuracy over all per-record rejection levels.

    Records are sorted by uncertainty ascending (ties by record index);
    rejecting j = 0..N-1 from the top leaves the N-j lowest-uncertainty
    records, whose mean admissibility is averaged uniformly over j.
    """
    return _auarc(*_check_pair(uncertainties, admissible))


def _auarc(u: np.ndarray, adm: np.ndarray) -> float:
    if u.size == 0:
        raise MetricError("auarc needs at least one record")
    flags = _sorted_flags(u, adm)
    prefix = np.cumsum(flags)
    retained_acc = prefix / np.arange(1, u.size + 1)
    return float(retained_acc.mean())


def arc_points(
    uncertainties: Sequence[float], admissible: Sequence[int]
) -> list[tuple[float, float]]:
    """(rejection_rate, accuracy) pairs underlying the AUARC average."""
    u, adm = _check_pair(uncertainties, admissible)
    if u.size == 0:
        raise MetricError("need at least one record")
    retained = np.arange(u.size, 0, -1)  # records left after rejecting j = 0..n-1
    accuracy = np.cumsum(_sorted_flags(u, adm))[::-1] / retained
    return list(zip((np.arange(u.size) / u.size).tolist(), accuracy.tolist()))


def roc_points(
    uncertainties: Sequence[float], admissible: Sequence[int]
) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs for detecting inadmissible records by uncertainty.

    Sweeps the decision threshold down the distinct observed values; a
    record is flagged when its uncertainty is >= the threshold. After one
    descending sort, the records flagged at a value are those up to the
    end of its group of equal values, so each point is a cumulative count.
    """
    u, adm = _check_pair(uncertainties, admissible)
    n_pos = int((adm == 0).sum())
    n_neg = int((adm == 1).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError("roc needs at least one admissible and one inadmissible record")
    order = np.argsort(u)[::-1]
    values = u[order]
    ends = np.flatnonzero(np.append(values[1:] != values[:-1], True))
    flagged_neg = np.cumsum(adm[order])[ends]
    tpr = (ends + 1 - flagged_neg) / n_pos
    fpr = flagged_neg / n_neg
    return [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))


def fdr_at(uncertainties: Sequence[float], admissible: Sequence[int], tau: float) -> float:
    """FDR of the acceptance rule u <= tau; 0 when nothing is accepted."""
    return _fdr_at(*_check_pair(uncertainties, admissible), tau)


def _fdr_at(u: np.ndarray, adm: np.ndarray, tau: float) -> float:
    return empirical_fdr(u, (1 - adm).tolist(), tau)


def power_at(uncertainties: Sequence[float], admissible: Sequence[int], tau: float) -> float:
    """Fraction of admissible records retained by the rule u <= tau."""
    return _power_at(*_check_pair(uncertainties, admissible), tau)


def _power_at(u: np.ndarray, adm: np.ndarray, tau: float) -> float:
    n_admissible = int((adm == 1).sum())
    if n_admissible == 0:
        raise MetricError("power undefined without admissible records")
    retained = int(((u <= tau) & (adm == 1)).sum())
    return retained / n_admissible


def evaluate_split(
    uncertainties: Sequence[float], admissible: Sequence[int], tau: float
) -> EvalReport:
    """Bundle the four metrics plus acceptance counts at one threshold; the pair is checked once."""
    u, adm = _check_pair(uncertainties, admissible)
    return EvalReport(
        auroc=_auroc(u, adm),
        auarc=_auarc(u, adm),
        fdr=_fdr_at(u, adm, tau),
        power=_power_at(u, adm, tau),
        n_accepted=int((u <= tau).sum()),
        n_total=int(u.size),
    )


def aggregate(values: Iterable[float]) -> SummaryStat:
    """Mean and population standard deviation across repeated splits."""
    vals = list(values)
    if not vals:
        raise MetricError("nothing to aggregate")
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
    return SummaryStat(mean=mean, std=math.sqrt(var))
