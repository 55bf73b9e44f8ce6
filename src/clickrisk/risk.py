"""Exact binomial upper confidence bounds on FDR and threshold calibration.

The upper bound for X errors among n accepted predictions at significance
delta is the (1-delta)-quantile of Beta(X+1, n-X), equivalently
sup{R : P(Bin(n, R) <= X) >= delta}. Calibration scans the observed
uncertainty values in ascending order and keeps the largest candidate
threshold whose bound stays at or below the target risk level; when no
candidate qualifies the requested level is reported as infeasible rather
than raised.

Whether a bound stays at or below alpha needs no quantile: for X < n,
bound(X, n) <= alpha exactly when I_alpha(X+1, n-X) >= 1-delta, that is
when F(X; n) := P(Bin(n, alpha) <= X) <= delta (the binomial-beta
duality). `bound_at_most` decides one (X, n) by one incomplete-beta
evaluation where the quantile bisection needs forty, and falls back to
the bisected bound inside a narrow guard band, so it always agrees with
`cp_upper_bound(X, n, delta) <= alpha`. `critical_counts` tabulates, per
n, the largest feasible X by walking the binomial CDF along the table's
edge with two exact float recurrences (one step up in X, one step to
n+1); it asks `bound_at_most` only where F lies so close to delta that
the first two tests of `bound_at_most` might not settle the step as F
does. Values are tie-grouped in one place, `tie_groups`, and every
threshold is `largest_feasible` over such groups (`threshold_candidates`
for one calibration side, or many rows at once): the largest candidate
whose error count is at most the critical count of its acceptance count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .special import beta_quantile, betainc


class RiskError(ValueError):
    """Invalid counts or mismatched inputs for risk computations."""


def _check_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise RiskError(f"{name} must lie strictly inside (0, 1), got {value}")


@dataclass(frozen=True)
class RiskSpec:
    """Target risk level (alpha) and significance level (delta)."""

    alpha: float
    delta: float = 0.05

    def __post_init__(self) -> None:
        _check_unit("alpha", self.alpha)
        _check_delta(self.delta)


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
    _check_delta(delta)


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


def _check_delta(delta: float) -> None:
    """`delta` must lie in [_DUAL_VALUE_EPS, 1).

    Below 1e-9 the guard band above is wider than delta itself, and the
    bound falls short of its closed form 1 - delta**(1/n) at no errors
    (by 4.4e-7 at delta 1e-12, 5e-3 at 1e-16), so it would not be an upper
    bound; at 1e-17, 1 - delta rounds to 1.0 and every bound is 1.0.
    """
    _check_unit("delta", delta)
    if delta < _DUAL_VALUE_EPS:
        raise RiskError(f"delta must be at least {_DUAL_VALUE_EPS!r}, got {delta}")


def bound_at_most(n_errors: int, n_accepted: int, alpha: float, delta: float) -> bool:
    """`cp_upper_bound(n_errors, n_accepted, delta) <= alpha`, mostly without bisection."""
    _check_counts(n_errors, n_accepted, delta)
    _check_unit("alpha", alpha)
    if n_errors == n_accepted:
        return False  # the bound is 1.0 and alpha < 1
    a, b, level = n_errors + 1, n_accepted - n_errors, 1.0 - delta
    # The bisection keeps a point on the high side exactly when I_x(a, b)
    # >= level, so a clear margin at alpha +/- eps decides the comparison.
    if betainc(a, b, alpha + _DUAL_ARG_EPS) < level - _DUAL_VALUE_EPS:
        return False
    if betainc(a, b, alpha - _DUAL_ARG_EPS) >= level + _DUAL_VALUE_EPS:
        return True
    return cp_upper_bound(n_errors, n_accepted, delta) <= alpha


# Slack of the walk's margin per unit of n, beyond bound_at_most's own guard
# band: it covers the walk's rounding (a few ulp per step, at most 2n steps)
# and that of `betainc` near the boundary (its log prefactor is a difference
# of lgamma values of size about n log n, each good to an ulp), and the
# rounding of 1 - delta, at every n.
_WALK_EPS = 1e-10
_TINY = sys.float_info.min

# (alpha, delta) -> table[n] = largest X with bound(X, n) <= alpha, -1 if none
_critical: dict[tuple[float, float], np.ndarray] = {}


def critical_counts(n_max: int, alpha: float, delta: float) -> np.ndarray:
    """Largest feasible error count for every n in [0, n_max] (-1: none).

    `bound_at_most(x, n, alpha, delta)` holds exactly when x <= table[n].
    The bound grows with x and shrinks with n, so table[n] is
    non-decreasing: each n starts from k = table[n - 1] + 1 and steps k up
    while k < n and `bound_at_most(k, n, alpha, delta)`. By the duality
    that test is F(k; n) := P(Bin(n, alpha) <= k) <= delta, and the walk
    carries F and pmf = P(Bin(n, alpha) = k) along in floats, by two exact
    recurrences:

    - up in k: pmf(k+1; n) = pmf(k; n) (n-k)/(k+1) alpha/(1-alpha), F += pmf;
    - to n+1: F(k; n+1) = F(k; n) - alpha pmf(k; n) and
      pmf(k; n+1) = pmf(k; n) (1-alpha)(n+1)/(n+1-k).

    A step is decided by F against delta only when they differ by more
    than margin(n) = (_DUAL_ARG_EPS + _WALK_EPS) n + _DUAL_VALUE_EPS +
    _WALK_EPS. `bound_at_most` first tests I(k+1, n-k) at alpha + eps,
    which is 1 - F(k; n) there, against 1 - delta - _DUAL_VALUE_EPS, then
    at alpha - eps against 1 - delta + _DUAL_VALUE_EPS. Moving alpha by eps
    moves F by at most n eps, since |dF/dalpha| = n pmf(k; n-1) <= n, so
    outside the margin its first test (F > delta) or its second (F < delta)
    returns the walk's answer. Every other step, and every step once pmf
    leaves the normal floats, is decided by `bound_at_most` itself, so the
    table is the one its own scalar walk gives. That is about
    n_max + table[n_max] float steps and a handful of `betainc` calls,
    cached per (alpha, delta) and rebuilt when a longer table is asked for.
    """
    if n_max < 0:
        raise RiskError(f"n_max must be >= 0, got {n_max}")
    _check_unit("alpha", alpha)
    _check_delta(delta)
    alpha, delta = float(alpha), float(delta)
    key = (alpha, delta)
    table = _critical.get(key)
    if table is not None and table.size > n_max:
        return table
    q = 1.0 - alpha
    odds = alpha / q
    # bound_at_most's tests at alpha + eps and alpha - eps decide nothing
    # once that argument leaves (0, 1); the walk then leaves that side to it
    can_fail = alpha + _DUAL_ARG_EPS < 1.0
    can_pass = alpha - _DUAL_ARG_EPS > 0.0
    counts = [-1]
    k, cdf, pmf = 0, q, q  # at n = 1
    for n in range(1, n_max + 1):
        margin = (_DUAL_ARG_EPS + _WALK_EPS) * n + _DUAL_VALUE_EPS + _WALK_EPS
        while k < n:
            if not pmf >= _TINY:
                cdf = pmf = math.nan  # lost precision: every later step falls back
            gap = cdf - delta
            if can_fail and gap > margin:
                break
            if not (can_pass and -gap > margin) and not bound_at_most(k, n, alpha, delta):
                break
            pmf *= (n - k) / (k + 1) * odds
            cdf += pmf
            k += 1
        counts.append(k - 1)
        cdf -= alpha * pmf
        pmf *= q * (n + 1) / (n + 1 - k)
    table = _critical[key] = np.array(counts)
    return table


def largest_feasible(
    n_accepted: np.ndarray, n_errors: np.ndarray, table: np.ndarray, ends: Sequence[int]
) -> np.ndarray:
    """Per row of candidates, the index of its last one whose error count is at most `table[n_accepted]`.

    The candidates of every row lie one row after another, each row
    ascending in tau, and row r ends just before index `ends[r]` (a single
    row of `threshold_candidates`' counts has `ends = [n]`). `table` is the
    `critical_counts` of the calibration size; a row without a feasible
    candidate gets -1. This is the one selection rule of the package.
    """
    ends = np.asarray(ends)
    # -1, then the feasible indices: entry i is the last feasible index below the i-th one
    feasible = np.append(-1, np.flatnonzero(n_errors <= table[n_accepted]))
    best = feasible[np.searchsorted(feasible[1:], ends)]
    starts = np.append(0, ends[:-1])
    return np.where(best >= starts, best, -1)


def _check_pair(uncertainties: Sequence[float], error_flags: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(uncertainties, dtype=float)
    err = np.asarray(error_flags, dtype=int)
    if err.size and not np.isin(err, (0, 1)).all():
        raise RiskError("error flags must be 0 or 1")
    if u.shape != err.shape:
        raise RiskError(f"length mismatch: {u.shape[0]} uncertainties vs {err.shape[0]} flags")
    nan = np.isnan(u)
    if nan.any():
        raise RiskError(f"uncertainty at position {int(nan.argmax())} is NaN")
    return u, err


def empirical_fdr(
    uncertainties: Sequence[float], error_flags: Sequence[int], tau: float
) -> float:
    """Fraction of errors among predictions accepted at threshold tau.

    Acceptance is inclusive (u <= tau). Returns 0 when nothing is
    accepted.
    """
    from .metrics import split_counts  # here, since metrics imports risk

    u, err = _check_pair(uncertainties, error_flags)
    return split_counts(u, err == 0, tau).fdr


def tie_groups(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stable ascending order of `u` and, in that order, the last index of each group of equal values.

    This is the package's one tie-grouping: -0.0 and 0.0 tie. `u` holds no
    NaN; every caller checks that first.
    """
    order = np.argsort(u, kind="stable")
    u_sorted = u[order]
    return order, np.flatnonzero(np.append(u_sorted[1:] != u_sorted[:-1], u.size > 0))


def threshold_candidates(
    u: np.ndarray, err: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tau, n_accepted, n_errors) for every candidate threshold, ascending.

    Candidates are the `tie_groups` of `u`, each at the value of its last
    record; records tied at a candidate are accepted jointly. `u` holds no
    NaN, and `err` holds 0/1 error flags.
    """
    order, last_idx = tie_groups(u)
    return u[order[last_idx]], last_idx + 1, np.cumsum(err[order])[last_idx]


def calibrate_threshold(
    uncertainties: Sequence[float], error_flags: Sequence[int], spec: RiskSpec
) -> CalibrationOutcome:
    """Largest threshold whose upper FDR bound stays at or below alpha.

    Candidates are the sorted unique uncertainty values; records tied at
    a candidate are accepted jointly. Returns an infeasible outcome (not
    an error) when every candidate's bound exceeds alpha. The threshold
    comes from `largest_feasible` and the critical-count table; the
    bisected bounds are computed only for the trace.
    """
    u, err = _check_pair(uncertainties, error_flags)
    if u.size == 0:
        raise RiskError("need at least one calibration point")

    taus, n_accepted, n_errors = candidates = threshold_candidates(u, err)
    table = critical_counts(u.size, spec.alpha, spec.delta)
    [best] = largest_feasible(n_accepted, n_errors, table, [taus.size]).tolist()
    threshold = float(taus[best]) if best >= 0 else None
    trace = tuple(
        TracePoint(tau, n_acc, n_err, cp_upper_bound(n_err, n_acc, spec.delta))
        for tau, n_acc, n_err in zip(*(c.tolist() for c in candidates))
    )
    return CalibrationOutcome(feasible=threshold is not None, threshold=threshold, trace=trace)
