"""Admission checking and selective-prediction evaluation metrics.

A prediction is admissible when it lands inside the ground-truth box
(boundary inclusive). AUROC measures how well uncertainty separates
inadmissible from admissible predictions; AUARC averages the retained
accuracy as the highest-uncertainty records are rejected one by one;
FDR and power describe an acceptance rule at a fixed threshold (`SplitCounts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .records import Box, Point
from .risk import tie_groups
from .risk import empirical_fdr  # noqa: F401


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
    return u, adm == 1


class Ranking(NamedTuple):
    """Records ranked by uncertainty, the one implementation of every rank metric.

    The records are taken in ascending uncertainty, ties by record index
    (a stable sort): `prefix[j]` counts the admissible ones among the first
    j + 1, and `n_le` holds, per tie group of equal values (`risk.tie_groups`,
    so -0.0 and 0.0 tie), how many records lie at or below it. Every count
    is an integer, so each metric rounds only in its last divisions.
    `Ranking.of` ranks a column; `engine.SortedColumns.ranking` gives the
    same ranking of any subset of its records from the column's one sort.
    """

    prefix: np.ndarray
    n_le: np.ndarray

    @classmethod
    def of(cls, u: np.ndarray, adm: np.ndarray) -> Ranking:
        """The ranking of NaN-free uncertainties `u` with 0/1 admissibility `adm`."""
        order, last = tie_groups(u)
        return cls(np.cumsum(adm[order]), last + 1)

    def _classes(self, name: str) -> tuple[int, int, np.ndarray]:
        """(inadmissible, admissible, inadmissible records at or below each group), both classes required."""
        n_neg = int(self.prefix[-1]) if self.prefix.size else 0
        n_pos = self.prefix.size - n_neg
        if n_pos == 0 or n_neg == 0:
            raise MetricError(f"{name} needs at least one admissible and one inadmissible record")
        return n_pos, n_neg, self.n_le - self.prefix[self.n_le - 1]

    def auroc(self) -> float:
        """Mann-Whitney 2U summed in integers over the tie groups (ties count half), then one division."""
        n_pos, n_neg, pos_le = self._classes("auroc")
        pos = np.diff(pos_le, prepend=0)
        neg = np.diff(self.n_le, prepend=0) - pos
        two_u = int((pos * (2 * (self.n_le - pos_le) - neg)).sum())
        return two_u / 2 / (n_pos * n_neg)

    def roc_points(self) -> list[tuple[float, float]]:
        """(fpr, tpr) as the threshold steps down the groups, flagging the records at or above it."""
        n_pos, n_neg, pos_le = self._classes("roc")
        flagged = self.prefix.size - np.append(0, self.n_le[:-1])[::-1]
        flagged_pos = n_pos - np.append(0, pos_le[:-1])[::-1]
        tpr = flagged_pos / n_pos
        fpr = (flagged - flagged_pos) / n_neg
        return [(0.0, 0.0)] + list(zip(fpr.tolist(), tpr.tolist()))

    def auarc(self) -> float:
        """The mean retained accuracy over every per-record rejection level."""
        if not self.prefix.size:
            raise MetricError("auarc needs at least one record")
        return float((self.prefix / np.arange(1, self.prefix.size + 1)).mean())

    def arc_points(self) -> list[tuple[float, float]]:
        """(rejection rate, retained accuracy) per rejection level."""
        n = self.prefix.size
        if not n:
            raise MetricError("need at least one record")
        accuracy = self.prefix[::-1] / np.arange(n, 0, -1)
        return list(zip((np.arange(n) / n).tolist(), accuracy.tolist()))


class SplitCounts(NamedTuple):
    """What the rule u <= tau does on some records, as integer counts: every threshold metric reads them.

    `n_expert_correct` counts the deferred records whose expert prediction
    is admissible; a record without an expert prediction counts as a miss.
    """

    tau: float
    n_total: int
    n_accepted: int
    n_admissible: int
    n_retained: int  # accepted and admissible
    n_expert_correct: int

    @property
    def fdr(self) -> float:
        """False discoveries among the accepted; 0 when none is."""
        if self.n_accepted == 0:
            return 0.0
        return (self.n_accepted - self.n_retained) / self.n_accepted

    @property
    def power(self) -> float:
        """The share of admissible records retained."""
        if self.n_admissible == 0:
            raise MetricError("power undefined without admissible records")
        return self.n_retained / self.n_admissible

    @property
    def system_accuracy(self) -> float:
        """Primary hits among the accepted plus expert hits among the deferred, over every record."""
        return (self.n_retained + self.n_expert_correct) / self.n_total

    @property
    def cascading_rate(self) -> float:
        """The share of records deferred."""
        return (self.n_total - self.n_accepted) / self.n_total


def split_counts(u: np.ndarray, adm: np.ndarray, tau: float, expert: np.ndarray | None = None) -> SplitCounts:
    """Counts of the rule u <= tau over records with admissibility `adm`.

    `adm` and `expert` are boolean vectors aligned with `u`; without
    `expert`, no record has an expert prediction.
    """
    accepted = u <= tau
    return SplitCounts(
        tau=tau,
        n_total=int(u.size),
        n_accepted=int(np.count_nonzero(accepted)),
        n_admissible=int(np.count_nonzero(adm)),
        n_retained=int(np.count_nonzero(accepted & adm)),
        n_expert_correct=0 if expert is None else int(np.count_nonzero(expert & ~accepted)),
    )


def auroc(uncertainties: Sequence[float], admissible: Sequence[int]) -> float:
    """Probability that an inadmissible record out-scores an admissible one, ties counting half.

    Requires both classes to be present (`Ranking.auroc`).
    """
    return Ranking.of(*_check_pair(uncertainties, admissible)).auroc()


def auarc(uncertainties: Sequence[float], admissible: Sequence[int]) -> float:
    """Mean retained accuracy over all per-record rejection levels.

    Records are sorted by uncertainty ascending (ties by record index);
    rejecting j = 0..N-1 from the top leaves the N-j lowest-uncertainty
    records, whose mean admissibility is averaged uniformly over j.
    """
    return Ranking.of(*_check_pair(uncertainties, admissible)).auarc()


def arc_points(
    uncertainties: Sequence[float], admissible: Sequence[int]
) -> list[tuple[float, float]]:
    """(rejection_rate, accuracy) pairs underlying the AUARC average."""
    return Ranking.of(*_check_pair(uncertainties, admissible)).arc_points()


def roc_points(
    uncertainties: Sequence[float], admissible: Sequence[int]
) -> list[tuple[float, float]]:
    """(fpr, tpr) pairs for detecting inadmissible records by uncertainty.

    Sweeps the decision threshold down the distinct observed values; a
    record is flagged when its uncertainty is >= the threshold.
    """
    return Ranking.of(*_check_pair(uncertainties, admissible)).roc_points()


def fdr_at(uncertainties: Sequence[float], admissible: Sequence[int], tau: float) -> float:
    """FDR of the acceptance rule u <= tau; 0 when nothing is accepted."""
    return split_counts(*_check_pair(uncertainties, admissible), tau).fdr


def power_at(uncertainties: Sequence[float], admissible: Sequence[int], tau: float) -> float:
    """Fraction of admissible records retained by the rule u <= tau."""
    return split_counts(*_check_pair(uncertainties, admissible), tau).power


def evaluate_split(
    uncertainties: Sequence[float], admissible: Sequence[int], tau: float
) -> EvalReport:
    """Bundle the four metrics plus acceptance counts at one threshold."""
    u, adm = _check_pair(uncertainties, admissible)
    ranking, counts = Ranking.of(u, adm), split_counts(u, adm, tau)
    return EvalReport(ranking.auroc(), ranking.auarc(), counts.fdr, counts.power, counts.n_accepted, counts.n_total)


def aggregate(values: Iterable[float]) -> SummaryStat:
    """Mean and population standard deviation across repeated splits."""
    vals = list(values)
    if not vals:
        raise MetricError("nothing to aggregate")
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / len(vals)
    return SummaryStat(mean=mean, std=math.sqrt(var))
