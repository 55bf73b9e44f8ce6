"""Array engine behind every repeated calibration/test split and every rank metric.

`evaluate`, `sweep` and the guarantee harness all repeat one protocol:
split the records, calibrate a threshold on one side, and measure the
rule on the other (`calibrate -r N` calibrates each split with
`risk.calibrate_threshold`, for its artifact's trace). Here the records
are reduced once to per-record vectors (an uncertainty per column, whether
the acted-on prediction is admissible, whether the expert's is), a split
is a pair of sorted index arrays (`records.split_indices`), and every
count is taken per tie group, as a `metrics.SplitCounts`.

Each column is sorted once per input (`risk.tie_groups`), and its stable
order is kept with the end of each tie group in it; each group keeps the
admissible records and expert hits at or below it. A split then sorts
nothing and compares no test record: its calibration records, marked in
each column's order and summed along it, give every candidate's acceptance
and error counts (the groups holding a calibration record are the
candidates), one `risk.largest_feasible` call per `RiskSpec` picks every
column's threshold, and the test side's counts at a threshold are the
group's totals less the calibration side's. All columns go through one
pass per split, in blocks of columns that bound its temporaries. A
threshold is the value of its group's last calibration record, as
`risk.threshold_candidates` over the calibration side gives it, so -0.0
and 0.0 stay apart. A column may hold no NaN, as `metrics` requires: the
columns are checked once, when they are sorted.

The rank metrics (AUROC, AUARC and their curves) read the same order: a
column's ranking of a split's test side is its order restricted to the
test records, which is the test side's own stable sort, since
`split_indices` returns sorted indices. `ranking` hands that order to
`metrics.Ranking`, the one implementation of every rank metric;
`metrics.auroc`, `auarc`, `roc_points` and `arc_points` build theirs
with `Ranking.of`, from one sort of the column they are handed.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .metrics import MetricError, Ranking, SplitCounts
from .records import SplitPlan, split_indices
from .risk import RiskSpec, critical_counts, largest_feasible, tie_groups

# Columns x records in one block of a split's pass (a block has one column at least)
_BLOCK = 1 << 16


class _Groups(NamedTuple):
    """The tie groups of a block of columns, each column's after the one before's.

    `order[c]` is column c's stable ascending order; column c's groups are
    numbers `starts[c]` to `starts[c + 1] - 1`, and group g ends at position
    `ends[g]` of `order.ravel()`. The other arrays hold one entry per group:
    `tau` is the value of its last record, and each count takes the column's
    records at or below the group.
    """

    order: np.ndarray  # (columns, records) int32
    starts: np.ndarray
    ends: np.ndarray
    tau: np.ndarray
    adm_le: np.ndarray  # int32: admissible records at or below the group
    hits_le: np.ndarray  # int32: expert hits at or below the group


def _tie_groups(columns: Sequence[np.ndarray], adm: np.ndarray, expert: np.ndarray) -> _Groups:
    """Sort each column of a block once (`risk.tie_groups`) and find where its groups end."""
    n = adm.size
    order = np.empty((len(columns), n), dtype=np.int32)
    ends, tau = [], []
    for c, u in enumerate(columns):
        order[c], last = tie_groups(u)
        ends.append(last + c * n)
        tau.append(u[order[c, last]])
    ends = np.concatenate(ends)
    starts = np.cumsum([0] + [t.size for t in tau])

    def at_or_below(flags: np.ndarray) -> np.ndarray:
        return np.cumsum(np.take(flags, order), axis=1, dtype=np.int32).ravel()[ends]

    return _Groups(order, starts, ends, np.concatenate(tau), at_or_below(adm), at_or_below(expert))


class _Side(NamedTuple):
    """One split's calibration side, and the test side's totals, which every column shares."""

    # uint8 per record: bit 0 on the calibration side, bit 1 there and inadmissible, bit 2 there and an expert hit
    marks: np.ndarray
    n_test: int
    n_admissible: int
    n_hits: int


def _block_counts(
    groups: _Groups, columns: Sequence[np.ndarray], side: _Side, tables: list[np.ndarray]
) -> list[list[SplitCounts | None]]:
    """Per column of a block, per table, the test-side counts of its threshold, or None."""
    n = side.marks.size
    marks = np.take(side.marks, groups.order)  # each column's marks in its sorted order

    def at_or_below(bit: int) -> np.ndarray:
        """Per group, the calibration records with `bit` set in it and in the column's groups below it."""
        return np.cumsum(marks & (1 << bit), axis=1, dtype=np.int32).ravel()[groups.ends] >> bit

    held_le = at_or_below(0)
    below = np.append(0, held_le[:-1])
    below[groups.starts[:-1]] = 0
    candidates = np.flatnonzero(held_le > below)  # the groups holding a calibration record
    ends = np.searchsorted(candidates, groups.starts[1:])
    n_accepted = held_le[candidates]
    n_errors = at_or_below(1)[candidates]
    picks = np.array([largest_feasible(n_accepted, n_errors, table, ends) for table in tables],
                     dtype=np.intp).reshape(len(tables), len(columns))
    at = np.maximum(picks, 0)
    g = candidates[at]
    tau = groups.tau[g]
    n_le = groups.ends[g] + 1 - n * np.arange(len(columns))
    # per column, per table: pick, records accepted, admissible records accepted, expert hits deferred
    cells = np.stack([picks, n_le - n_accepted[at], groups.adm_le[g] - (n_accepted - n_errors)[at],
                      side.n_hits - (groups.hits_le[g] - at_or_below(2)[g])], axis=-1).transpose(1, 0, 2).tolist()
    taus = tau.T.tolist()
    # Equal values share their bits but for signed zeros: only there is the group's
    # last calibration record, whose value a sort of the calibration side gives, looked up.
    flat = marks.ravel()
    for a, c in zip(*np.nonzero((picks >= 0) & (tau == 0))):
        first = groups.ends[g[a, c] - 1] + 1 if g[a, c] > groups.starts[c] else c * n
        last = first + np.flatnonzero(flat[first : groups.ends[g[a, c]] + 1] & 1)[-1]
        taus[c][a] = float(columns[c][groups.order.ravel()[last]])
    return [
        [None if cell[0] < 0 else SplitCounts(t, side.n_test, cell[1], side.n_admissible, cell[2], cell[3])
         for cell, t in zip(per_table, column_taus)]
        for per_table, column_taus in zip(cells, taus)
    ]


class SortedColumns:
    """Uncertainty columns over the same records, each sorted once: the state every split and rank metric reads.

    `adm` and `expert` are boolean vectors aligned with every column (no
    `expert`: no expert hit). A column holding a NaN is a `MetricError`
    naming the column and the position. The columns are sorted in blocks
    that bound a split's temporaries.
    """

    def __init__(self, columns: Sequence[np.ndarray], adm: np.ndarray, expert: np.ndarray | None = None):
        self.columns, self.adm = list(columns), adm
        self.expert = np.zeros_like(adm) if expert is None else expert
        for c, u in enumerate(self.columns):
            nan = np.isnan(u)
            if nan.any():
                raise MetricError(f"column {c}: uncertainty at position {int(nan.argmax())} is NaN")
        # a column has at most a group per record, so this bounds a block's orders and groups
        self._step = max(1, _BLOCK // max(adm.size, 1))
        self._blocks = [_tie_groups(self.columns[lo : lo + self._step], adm, self.expert)
                        for lo in range(0, len(self.columns), self._step)]

    def ranking(self, c: int, records: np.ndarray | None = None) -> Ranking:
        """How column c ranks `records` (sorted indices; default: every record): `Ranking.of` on them."""
        groups, i = self._blocks[c // self._step], c % self._step
        order = groups.order[i]
        lo, hi = groups.starts[i], groups.starts[i + 1]
        last = groups.ends[lo:hi] - i * order.size
        if records is None:
            n_le = last + 1
        else:
            keep = np.zeros(order.size, dtype=bool)
            keep[records] = True
            kept = keep[order]
            order, n_le = order[kept], np.cumsum(kept)[last]
            n_le = n_le[np.diff(n_le, prepend=0) > 0]  # the groups that hold one of the records
        return Ranking(np.cumsum(self.adm[order]), n_le)

    def splits(
        self, plan: SplitPlan, specs: Sequence[RiskSpec]
    ) -> Iterator[tuple[np.ndarray, list[list[SplitCounts | None]]]]:
        """Per repetition of `plan`: the test indices and, per column, the counts per spec.

        Each split is drawn once, for every column; with no column no split
        is drawn. A threshold is calibrated on each calibration side at each
        spec's (alpha, delta), as `risk.calibrate_threshold` calibrates one
        (errors are the inadmissible records), and the rule is measured on
        the test side; an infeasible spec gives None.
        """
        if not self._blocks:
            return
        adm, expert = self.adm, self.expert
        n_admissible = int(np.count_nonzero(adm))
        n_hits = int(np.count_nonzero(expert))
        for rep in range(plan.repetitions):
            cal, test = split_indices(adm.size, plan, rep)
            errors = ~adm[cal]
            marks = np.zeros(adm.size, dtype=np.uint8)
            marks[cal] = 1 + 2 * errors + 4 * expert[cal]
            n_errors = int(np.count_nonzero(errors))
            side = _Side(marks, test.size, n_admissible - (cal.size - n_errors),
                         n_hits - int(np.count_nonzero(expert[cal])))
            tables = [critical_counts(cal.size, spec.alpha, spec.delta) for spec in specs]
            yield test, [
                cells
                for b, groups in enumerate(self._blocks)
                for cells in _block_counts(groups, self.columns[b * self._step : (b + 1) * self._step], side, tables)
            ]

