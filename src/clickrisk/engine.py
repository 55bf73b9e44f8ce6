"""Array engine behind every repeated calibration/test split.

`calibrate -r N`, `evaluate`, `sweep` and the guarantee harness all repeat
one protocol: split the records, calibrate a threshold on one side, and
measure the rule on the other. Here the records are reduced once to
per-record vectors (an uncertainty per column, whether the acted-on
prediction is admissible, whether the expert's is), a split is a pair of
sorted index arrays (`records.split_indices`), and every count is taken
per tie group.

Each column is sorted once per input (`risk.tie_groups`), and each record
is labelled with its group; each group keeps how many records, admissible
records and expert hits lie at or below it. A split then sorts nothing and
compares no test record: the calibration records' labels, counted per
group and summed up each column, give every candidate's acceptance and
error counts (the groups holding a calibration record are the
candidates), one `risk.largest_feasible` call per alpha picks every
column's threshold, and the test side's counts at a threshold are the
group's totals less the calibration side's. All columns go through one
pass per split, in blocks of columns that bound its temporaries. A
threshold is the value of its group's last calibration record, as
`risk.threshold_candidates` over the calibration side gives it, so -0.0
and 0.0 stay apart; a NaN threshold accepts nothing, as `u <= nan` does.
The test-side counts are divided exactly as the per-record functions in
`metrics` and `cascade` divide them, so every float comes out the same.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .metrics import MetricError
from .records import SplitPlan, split_indices
from .risk import critical_counts, largest_feasible, threshold_candidates, tie_groups

# Columns x records in one block of a split's pass (a block has one column at least)
_BLOCK = 1 << 16


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
    `risk.largest_feasible` over the same candidates, as one row.
    """
    taus, n_accepted, n_errors = threshold_candidates(u_cal, err_cal)
    best = [largest_feasible(n_accepted, n_errors, critical_counts(u_cal.size, alpha, delta), [taus.size])
            for alpha in alphas]
    return [float(taus[i]) if i >= 0 else None for [i] in best]


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


class _Groups(NamedTuple):
    """The tie groups of a block of columns: group g of column c is number `c * width + g`.

    `labels[c, i]` is the number of record i's group in column c; the other
    arrays hold one entry per number (the unused ones hold no record), and
    `tau` is the value of the group's last record.
    """

    labels: np.ndarray  # (columns, records) int32
    width: int  # the most groups of a column
    tau: np.ndarray
    n_le: np.ndarray  # int32: records at or below the group
    adm_le: np.ndarray  # int32: admissible records at or below the group
    hits_le: np.ndarray | None  # int32: expert hits at or below the group; None without an expert vector


def _tie_groups(columns: Sequence[np.ndarray], adm: np.ndarray, expert: np.ndarray | None) -> _Groups:
    """Sort each column of a block once (`risk.tie_groups`) and label each record with its group."""
    groups = [tie_groups(u) for u in columns]
    width = max(last.size for _, last in groups)
    flags = [adm] if expert is None else [adm, expert]
    labels = np.empty((len(columns), adm.size), dtype=np.int32)
    tau = np.zeros(len(columns) * width)
    n_le, *flags_le = np.zeros((1 + len(flags), tau.size), dtype=np.int32)
    for c, (u, (order, last)) in enumerate(zip(columns, groups)):
        at = slice(c * width, c * width + last.size)
        labels[c, order] = np.repeat(np.arange(at.start, at.stop, dtype=np.int32), np.diff(last, prepend=-1))
        tau[at], n_le[at] = u[order[last]], last + 1
        for f, f_le in zip(flags, flags_le):
            f_le[at] = np.cumsum(f[order])[last]
    adm_le, *hits_le = flags_le
    return _Groups(labels, width, tau, n_le, adm_le, hits_le[0] if hits_le else None)


class _Side(NamedTuple):
    """One split's calibration side, and the test side's totals, which every column shares."""

    cal: np.ndarray  # calibration indices
    errors: np.ndarray  # positions in `cal` of the inadmissible records
    hits: np.ndarray | None  # positions in `cal` of the expert hits; None without an expert vector
    n_test: int
    n_admissible: int
    n_hits: int | None


def _block_counts(
    groups: _Groups, columns: Sequence[np.ndarray], side: _Side, tables: list[np.ndarray]
) -> list[list[SplitCounts | None]]:
    """Per column of a block, per table, the test-side counts of its threshold, or None."""
    shape = (len(columns), groups.width)
    keys = np.take(groups.labels, side.cal, axis=1)

    def at_or_below(positions: np.ndarray) -> np.ndarray:
        """Per group, the calibration records at `positions` in it and in the groups below it."""
        counts = np.bincount(np.take(keys, positions, axis=1).ravel(), minlength=shape[0] * shape[1])
        return np.cumsum(counts.reshape(shape), axis=1).ravel()

    held = np.bincount(keys.ravel(), minlength=shape[0] * shape[1])
    candidates = np.flatnonzero(held)  # the groups holding a calibration record
    ends = np.searchsorted(candidates, groups.width * np.arange(1, shape[0] + 1))
    n_accepted = np.cumsum(held.reshape(shape), axis=1).ravel()[candidates]
    n_errors = at_or_below(side.errors)[candidates]
    picks = np.array([largest_feasible(n_accepted, n_errors, table, ends) for table in tables], dtype=np.intp)
    picks = picks.reshape(len(tables), shape[0])
    at = np.maximum(picks, 0)
    g = candidates[at]
    tau = groups.tau[g]
    # per column, per table: pick, records accepted, admissible records accepted, expert hits accepted
    per_cell = [picks, groups.n_le[g] - n_accepted[at], groups.adm_le[g] - (n_accepted - n_errors)[at]]
    if side.hits is not None:
        per_cell.append(groups.hits_le[g] - at_or_below(side.hits)[g])
    cells = np.stack(per_cell, axis=-1).transpose(1, 0, 2).tolist()
    taus = tau.T.tolist()
    # Equal values share their bits but for signed zeros and NaN payloads: only there
    # is the group's last calibration record, whose value a sort of the calibration
    # side gives, looked up. A NaN threshold accepts no test record (u <= nan).
    for a, c in zip(*np.nonzero((picks >= 0) & ((tau == 0) | np.isnan(tau)))):
        last = np.flatnonzero(keys[c] == g[a, c])[-1]
        taus[c][a] = float(columns[c][side.cal[last]])
        if taus[c][a] != taus[c][a]:
            cells[c][a][1:] = [0] * (len(per_cell) - 1)
    n_total, n_admissible, n_hits = side.n_test, side.n_admissible, side.n_hits
    return [
        [None if cell[0] < 0 else SplitCounts(
            t, n_total, cell[1], n_admissible, cell[2], None if n_hits is None else n_hits - cell[3],
        ) for cell, t in zip(per_table, column_taus)]
        for per_table, column_taus in zip(cells, taus)
    ]


def run_splits(
    columns: Sequence[np.ndarray],
    adm: np.ndarray,
    plan: SplitPlan,
    alphas: Sequence[float],
    delta: float,
    expert: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, list[list[SplitCounts | None]]]]:
    """Per repetition of `plan`: the test indices and, per column of `columns`, the counts per alpha.

    Each column is sorted once and each split is drawn once, for every
    column; with no column nothing is sorted and no split is drawn. A
    threshold is calibrated on each calibration side (errors are the
    inadmissible records) and the rule is measured on the test side; an
    infeasible alpha gives None.
    """
    if not columns:
        return
    # a column has at most a group per record, so this bounds a block's labels and groups
    step = max(1, _BLOCK // max(adm.size, 1))
    blocks = [(columns[lo : lo + step], _tie_groups(columns[lo : lo + step], adm, expert))
              for lo in range(0, len(columns), step)]
    n_admissible = int(np.count_nonzero(adm))
    n_hits = None if expert is None else int(np.count_nonzero(expert))
    for rep in range(plan.repetitions):
        cal, test = split_indices(adm.size, plan, rep)
        errors = np.flatnonzero(~adm[cal])
        hits = None if expert is None else np.flatnonzero(expert[cal])
        side = _Side(
            cal, errors, hits, test.size, n_admissible - (cal.size - errors.size),
            None if hits is None else n_hits - hits.size,
        )
        tables = [critical_counts(cal.size, alpha, delta) for alpha in alphas]
        yield test, [cells for block, groups in blocks for cells in _block_counts(groups, block, side, tables)]
