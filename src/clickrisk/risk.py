"""Exact binomial upper confidence bounds on FDR and threshold calibration.

The upper bound for X errors among n accepted predictions at significance
delta is the (1-delta)-quantile of Beta(X+1, n-X), equivalently
sup{R : P(Bin(n, R) <= X) >= delta}. Calibration scans the observed
uncertainty values in ascending order and keeps the largest candidate
threshold whose bound stays at or below the target risk level; when no
candidate qualifies the requested level is reported as infeasible rather
than raised.

Whether a bound stays at or below alpha needs no quantile: for X < n,
bound(X, n) <= alpha exactly when I_alpha(X+1, n-X) >= 1-delta (the
binomial-beta duality), one incomplete-beta evaluation where the quantile
bisection needs forty. `bound_at_most` decides that way away from the
boundary and falls back to the bisected bound inside a narrow guard band,
so it always agrees with `cp_upper_bound(X, n, delta) <= alpha`.
`critical_counts` tabulates, per n, the largest feasible X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .special import beta_quantile, betainc


class RiskError(ValueError):
    """Invalid counts or mismatched inputs for risk computations."""


@dataclass(frozen=True)
class RiskSpec:
    """Target risk level (alpha) and significance level (delta)."""

    alpha: float
    delta: float = 0.05

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise RiskError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        if not 0.0 < self.delta < 1.0:
            raise RiskError(f"delta must lie strictly inside (0, 1), got {self.delta}")


class TracePoint(NamedTuple):
    tau: float
    n_accepted: int
    n_errors: int
    upper_bound: float


@dataclass(frozen=True)
class CalibrationOutcome:
    """Result of the threshold search, including the per-candidate trace.

    `threshold` is None exactly when `feasible` is False. The trace lists
    every candidate threshold in ascending order with its acceptance
    count, error count, and upper confidence bound.
    """

    feasible: bool
    threshold: float | None
    trace: tuple[TracePoint, ...]


@lru_cache(maxsize=65536)
def _cp_upper_cached(n_errors: int, n_accepted: int, delta: float) -> float:
    if n_errors == n_accepted:
        return 1.0
    return beta_quantile(1.0 - delta, n_errors + 1, n_accepted - n_errors)


def _check_counts(n_errors: int, n_accepted: int, delta: float) -> None:
    if n_accepted < 1:
        raise RiskError(f"n_accepted must be >= 1, got {n_accepted}")
    if not 0 <= n_errors <= n_accepted:
        raise RiskError(f"n_errors must lie in [0, {n_accepted}], got {n_errors}")
    if not 0.0 < delta < 1.0:
        raise RiskError(f"delta must lie strictly inside (0, 1), got {delta}")


def cp_upper_bound(n_errors: int, n_accepted: int, delta: float) -> float:
    """One-sided (1-delta) Clopper-Pearson upper bound on an error rate.

    Returns the (1-delta)-quantile of Beta(X+1, n-X) for X = n_errors and
    n = n_accepted, and 1.0 at the degenerate upper edge X = n.
    """
    _check_counts(n_errors, n_accepted, delta)
    return _cp_upper_cached(int(n_errors), int(n_accepted), float(delta))


# Guard band of the duality test: in the argument, wider than the final
# bisection bracket (2**-40); in the value, far wider than the rounding
# noise of the incomplete beta near the boundary.
_DUAL_ARG_EPS = 1e-9
_DUAL_VALUE_EPS = 1e-9


@lru_cache(maxsize=65536)
def _bound_at_most_cached(n_errors: int, n_accepted: int, alpha: float, delta: float) -> bool:
    if n_errors == n_accepted:
        return False  # the bound is 1.0 and alpha < 1
    a, b, level = n_errors + 1, n_accepted - n_errors, 1.0 - delta
    # The bisection keeps a point on the high side exactly when I_x(a, b)
    # >= level, so a clear margin at alpha +/- eps decides the comparison.
    # The infeasible side goes first: `critical_counts` mostly asks about
    # the first count past the boundary.
    if betainc(a, b, alpha + _DUAL_ARG_EPS) < level - _DUAL_VALUE_EPS:
        return False
    if betainc(a, b, alpha - _DUAL_ARG_EPS) >= level + _DUAL_VALUE_EPS:
        return True
    return cp_upper_bound(n_errors, n_accepted, delta) <= alpha


def bound_at_most(n_errors: int, n_accepted: int, alpha: float, delta: float) -> bool:
    """`cp_upper_bound(n_errors, n_accepted, delta) <= alpha`, mostly without bisection."""
    _check_counts(n_errors, n_accepted, delta)
    if not 0.0 < alpha < 1.0:
        raise RiskError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return _bound_at_most_cached(int(n_errors), int(n_accepted), float(alpha), float(delta))


# (alpha, delta) -> table[n] = largest X with bound(X, n) <= alpha, -1 if none
_critical: dict[tuple[float, float], np.ndarray] = {}


def critical_counts(n_max: int, alpha: float, delta: float) -> np.ndarray:
    """Largest feasible error count for every n in [0, n_max] (-1: none).

    `bound_at_most(x, n, alpha, delta)` holds exactly when x <= table[n].
    The bound grows with x and shrinks with n, by steps far wider than its
    rounding, so table[n] is non-decreasing: each n starts from the count
    of n - 1 and steps up while the next count passes. That is about
    n_max + table[n_max] evaluations, cached per (alpha, delta) and
    extended on demand.
    """
    key = (float(alpha), float(delta))
    table = _critical.get(key)
    if table is None or table.size <= n_max:
        grown = [-1] if table is None else table.tolist()
        x = grown[-1]
        for n in range(len(grown), n_max + 1):
            while x + 1 < n and bound_at_most(x + 1, n, alpha, delta):
                x += 1
            grown.append(x)
        table = _critical[key] = np.array(grown)
    return table


def _check_flags(flags: Sequence[int]) -> np.ndarray:
    arr = np.asarray(flags, dtype=int)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise RiskError("error flags must be 0 or 1")
    return arr


def empirical_fdr(
    uncertainties: Sequence[float], error_flags: Sequence[int], tau: float
) -> float:
    """Fraction of errors among predictions accepted at threshold tau.

    Acceptance is inclusive (u <= tau). Returns 0 when nothing is
    accepted.
    """
    u = np.asarray(uncertainties, dtype=float)
    err = _check_flags(error_flags)
    if u.shape != err.shape:
        raise RiskError(f"length mismatch: {u.shape[0]} uncertainties vs {err.shape[0]} flags")
    accepted = u <= tau
    n = int(accepted.sum())
    if n == 0:
        return 0.0
    return float((err[accepted] == 1).sum() / n)


def threshold_candidates(
    u: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, n_accepted, n_errors) for every candidate threshold, ascending.

    Candidates are the unique values of `u`; records tied at a candidate
    are accepted jointly. `err` holds 0/1 error flags.
    """
    order = np.argsort(u, kind="stable")
    u_sorted = u[order]
    err_cum = np.cumsum(err[order])
    # index of the last occurrence of each unique candidate value
    candidates, last_idx = np.unique(u_sorted[::-1], return_index=True)
    last_idx = u.size - 1 - last_idx
    return candidates, last_idx + 1, err_cum[last_idx]


def calibrate_threshold(
    uncertainties: Sequence[float], error_flags: Sequence[int], spec: RiskSpec
) -> CalibrationOutcome:
    """Largest threshold whose upper FDR bound stays at or below alpha.

    Candidates are the sorted unique uncertainty values; records tied at
    a candidate are accepted jointly. Returns an infeasible outcome (not
    an error) when every candidate's bound exceeds alpha.
    """
    spec.validate()
    u = np.asarray(uncertainties, dtype=float)
    err = _check_flags(error_flags)
    if u.shape != err.shape:
        raise RiskError(f"length mismatch: {u.shape[0]} uncertainties vs {err.shape[0]} flags")
    if u.size == 0:
        raise RiskError("need at least one calibration point")

    trace: list[TracePoint] = []
    threshold: float | None = None
    for tau, n_accepted, n_errors in zip(*(c.tolist() for c in threshold_candidates(u, err))):
        bound = cp_upper_bound(n_errors, n_accepted, spec.delta)
        trace.append(TracePoint(tau, n_accepted, n_errors, bound))
        if bound <= spec.alpha:
            threshold = tau
    return CalibrationOutcome(feasible=threshold is not None, threshold=threshold, trace=tuple(trace))
