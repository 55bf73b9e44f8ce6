"""Array engine behind every repeated calibration/test split.

`calibrate -r N`, `evaluate`, `sweep` and the guarantee harness all repeat
one protocol: split the records, calibrate a threshold on one side, and
measure the rule on the other. Here the records are reduced once to
per-record vectors (an uncertainty per variant, whether the acted-on
prediction is admissible, whether the expert's is), a split is a pair of
sorted index arrays (`records.split_indices`), a threshold is one table
lookup per alpha (`risk.critical_counts`), and the test-side metrics are
masked integer counts divided exactly as the per-record functions in
`metrics` and `cascade` divide them, so every float comes out the same.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .metrics import MetricError
from .records import SplitPlan, split_indices
from .risk import critical_counts, largest_feasible, threshold_candidates


class SplitCounts(NamedTuple):
    """What the rule u <= tau does on one test split, as integer counts.

    `n_expert_correct` counts the deferred records whose expert prediction
    is admissible; it is None when the records carry no expert vector.
    """

    tau: float
    n_total: int
    n_accepted: int
    n_admissible: int
    n_retained: int  # accepted and admissible
    n_expert_correct: int | None

    @property
    def fdr(self) -> float:
        """`metrics.fdr_at`: false discoveries among the accepted; 0 when none is."""
        if self.n_accepted == 0:
            return 0.0
        return (self.n_accepted - self.n_retained) / self.n_accepted

    @property
    def power(self) -> float:
        """`metrics.power_at`: the share of admissible records retained."""
        if self.n_admissible == 0:
            raise MetricError("power undefined without admissible records")
        return self.n_retained / self.n_admissible

    @property
    def system_accuracy(self) -> float:
        """`cascade.evaluate_cascade`: primary hits among the accepted plus expert hits among the deferred."""
        return (self.n_retained + self.n_expert_correct) / self.n_total

    @property
    def cascading_rate(self) -> float:
        """`cascade.evaluate_cascade`: the share of records deferred."""
        return (self.n_total - self.n_accepted) / self.n_total


def thresholds(
    u_cal: np.ndarray, err_cal: np.ndarray, alphas: Sequence[float], delta: float
) -> list[float | None]:
    """`calibrate_threshold(u_cal, err_cal, RiskSpec(alpha, delta)).threshold` per alpha.

    One sort serves every alpha: each alpha's threshold is
    `risk.largest_feasible` over the same candidates.
    """
    candidates = threshold_candidates(u_cal, err_cal)
    return [largest_feasible(candidates, critical_counts(u_cal.size, alpha, delta)) for alpha in alphas]


def split_counts(
    u: np.ndarray, adm: np.ndarray, tau: float, expert: np.ndarray | None = None
) -> SplitCounts:
    """Counts of the rule u <= tau over records with admissibility `adm`.

    `adm` and `expert` are boolean vectors aligned with `u`.
    """
    accepted = u <= tau
    return SplitCounts(
        tau=tau,
        n_total=int(u.size),
        n_accepted=int(np.count_nonzero(accepted)),
        n_admissible=int(np.count_nonzero(adm)),
        n_retained=int(np.count_nonzero(accepted & adm)),
        n_expert_correct=None if expert is None else int(np.count_nonzero(expert & ~accepted)),
    )


def run_splits(
    columns: Sequence[np.ndarray],
    adm: np.ndarray,
    plan: SplitPlan,
    alphas: Sequence[float],
    delta: float,
    expert: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, list[list[SplitCounts | None]]]]:
    """Per repetition of `plan`: the test indices and, per column of `columns`, the counts per alpha.

    Each split is drawn once and serves every uncertainty column; with no
    column nothing is measured and no split is drawn. A threshold is
    calibrated on each calibration side (errors are the inadmissible
    records) and the rule is measured on the test side; an infeasible
    alpha gives None.
    """
    if not columns:
        return
    for rep in range(plan.repetitions):
        cal, test = split_indices(adm.size, plan, rep)
        err_cal, adm_test = ~adm[cal], adm[test]
        expert_test = None if expert is None else expert[test]
        yield test, [
            [
                None if tau is None else split_counts(u_test, adm_test, tau, expert_test)
                for tau in thresholds(u[cal], err_cal, alphas, delta)
            ]
            for u in columns
            for u_test in [u[test]]  # one gather per column, which does not outlive the yield
        ]
