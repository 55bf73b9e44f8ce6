"""An exact oracle for how often the scan rule breaks its promise, and the case where it does.

Sort the calibration records by score, and let rank i (1-based) be an error
with probability e_i, independently given the scores. S_n counts the errors
among the first n ranks. The rule selects the largest n with
S_n <= `critical_counts[n]` (every score distinct, so every n is a
candidate), and the threshold it selects breaks the promise when its ranks'
mean error probability, mean(e_1..e_n), exceeds alpha. `false_selection`
gives the exact probability of that event; the promise is that it stays at
or below delta.

In the flat regime (e_i = p for every i) every n is bad once p > alpha, and
the scan's false selection exceeds delta there: the pinned cases below.
`worst_case_search` climbs `false_selection` from other profiles, exactly
along each coordinate, and finds none that beats flat at N = 30.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from clickrisk.risk import cp_upper_bound, critical_counts
from test_engine import thresholds


def false_selection(table, e, alpha) -> float:
    """P(the last n with S_n <= table[n] is bad), for error probabilities `e` by rank.

    A forward pass gives the law of each S_n, and a backward pass the chance
    that no later n is feasible given S_n; their product, summed over the
    feasible S_n of every bad n, is the answer.
    """
    e = np.asarray(e, dtype=float)
    size = e.size
    bad = np.cumsum(e) > alpha * np.arange(1, size + 1)
    laws = [np.ones(1)]  # laws[n][s] = P(S_n = s)
    for p in e:
        law = laws[-1]
        laws.append(np.append(law * (1.0 - p), 0.0) + np.append(0.0, law * p))
    total = 0.0
    none_later = np.ones(size + 1)  # [s]: P(no m > n is feasible | S_n = s), here at n = size
    for n in range(size, 0, -1):
        feasible = np.arange(n + 1) <= table[n]
        if bad[n - 1]:
            total += float(laws[n][feasible] @ none_later[feasible])
        none_from = np.where(feasible, 0.0, none_later)  # no m >= n is feasible
        none_later = (1.0 - e[n - 1]) * none_from[:-1] + e[n - 1] * none_from[1:]
    return total


def fraction_false_selection(table, e, alpha) -> Fraction:
    """`false_selection` by one exact forward pass over (S_n, whether the last feasible n so far is bad)."""
    law = {(0, None): Fraction(1)}  # (s, the last feasible n's badness; None before any) -> probability
    errors = Fraction(0)
    for n, p in enumerate(e, start=1):
        errors += p
        bad = errors > Fraction(alpha) * n
        step = {}
        for (s, last), prob in law.items():
            for x, px in ((0, 1 - p), (1, p)):
                state = (s + x, bad if s + x <= table[n] else last)
                step[state] = step.get(state, 0) + prob * px
        law = step
    return sum((prob for (_, last), prob in law.items() if last), Fraction(0))


ALPHA, DELTA = 0.2, 0.05


def two_level(size, first, low, high):
    return [low] * first + [high] * (size - first)


@pytest.mark.parametrize("size", [30, 40])
@pytest.mark.parametrize("profile", ["flat", "two-level", "random"])
def test_the_oracle_equals_an_exact_fraction_dp(size, profile):
    if profile == "flat":
        e = [Fraction(21, 100)] * size
    elif profile == "two-level":
        e = two_level(size, size // 2, Fraction(1, 20), Fraction(1, 2))
    else:
        rng = np.random.default_rng(size)
        e = [Fraction(int(v), 1000) for v in np.sort(rng.integers(0, 600, size))]
    table = critical_counts(size, ALPHA, DELTA)
    exact = fraction_false_selection(table, e, ALPHA)
    assert exact > 0
    assert abs(false_selection(table, [float(p) for p in e], ALPHA) - float(exact)) <= 1e-15


@pytest.mark.parametrize("e, expected", [
    ([0.21] * 200, 0.1494),
    (two_level(200, 100, 0.05, 0.5), 0.0174),
], ids=["flat", "two-level"])
def test_monte_carlo_through_the_engine_covers_the_oracle(e, expected):
    size, trials = len(e), 4000
    exact = false_selection(critical_counts(size, ALPHA, DELTA), e, ALPHA)
    assert exact == pytest.approx(expected, abs=5e-5)
    bad = np.cumsum(e) > ALPHA * np.arange(1, size + 1)
    u = np.arange(size, dtype=float)  # rank i - 1 as the score of rank i
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(trials):
        (tau,) = thresholds(u, (rng.random(size) < e).astype(int), [ALPHA], DELTA)
        violations += tau is not None and bool(bad[int(tau)])
    # a two-sided 95% Clopper-Pearson interval for the violation rate
    upper = cp_upper_bound(violations, trials, 0.025)
    lower = 1.0 - cp_upper_bound(trials - violations, trials, 0.025)
    assert lower <= exact <= upper


@pytest.mark.parametrize("size, p, expected", [(200, 0.21, 0.14944), (800, 0.21, 0.18294), (200, 0.20001, 0.20715)])
def test_the_scan_breaks_its_promise_in_the_flat_regime(size, p, expected):
    """Known defect: at p > alpha every threshold has error rate p, yet the scan selects one this often."""
    exact = false_selection(critical_counts(size, ALPHA, DELTA), [p] * size, ALPHA)
    assert exact == pytest.approx(expected, abs=5e-5)
    assert exact > DELTA


# --- a worst-case search over error profiles ------------------------------------------------------------------

def line_candidates(e: np.ndarray, i: int, alpha: float) -> list[float]:
    """Where `false_selection` can peak as e_i moves over [0, 1]: 0, 1, and both sides of each breakpoint.

    For a fixed set of bad ranks the false selection is multilinear in e,
    so linear in e_i alone. Rank n >= i + 1 turns bad just above the
    breakpoint alpha * n - sum(e_j, j <= n, j != i), so each piece of e_i
    between breakpoints peaks at one of its ends.
    """
    breaks = alpha * np.arange(i + 1, e.size + 1) - (np.cumsum(e)[i:] - e[i])
    sides = [math.nextafter(b, side) for b in breaks.tolist() if 0.0 <= b < 1.0 for side in (-math.inf, math.inf)]
    return [0.0, 1.0] + [x for x in sides if 0.0 <= x <= 1.0]


def worst_case_search(table, start, alpha, sweeps: int = 40) -> tuple[float, np.ndarray]:
    """Coordinate ascent on `false_selection` from `start`, with the exact line search of `line_candidates`.

    Stops after a sweep over every coordinate that gains nothing, or after
    `sweeps` sweeps; returns the value reached and its profile.
    """
    e = np.array(start, dtype=float)
    best = false_selection(table, e, alpha)
    for _ in range(sweeps):
        gained = False
        for i in range(e.size):
            for x in line_candidates(e, i, alpha):
                trial = e.copy()
                trial[i] = x
                value = false_selection(table, trial, alpha)
                if value > best + 1e-12:
                    best, e, gained = value, trial, True
        if not gained:
            break
    return best, e


SEARCH_SIZE = 30


def search_starts(size: int) -> dict[str, np.ndarray]:
    """The starts of the search: the flat profile just above alpha, and one per earlier family of profiles.

    The three-level starts put a third of the ranks at each of 0.05, just
    above alpha and 0.5, in ascending and in descending order.
    """
    rng = np.random.default_rng(0)
    above = math.nextafter(ALPHA, 1.0)
    flat = np.full(size, above)
    uniform = rng.uniform(0.0, 0.6, size)
    thirds = np.arange(size) * 3 // size
    return {
        "flat": flat,
        "sorted-uniform": np.sort(uniform),
        "uniform": uniform,
        "flat-plus-noise": np.clip(flat + rng.normal(0.0, 0.05, size), 0.0, 1.0),
        "two-level": np.array(two_level(size, size // 2, 0.05, 0.5)),
        "ramp": np.linspace(0.0, 0.4, size),
        "three-level": np.array([0.05, above, 0.5])[thirds],
        "three-level-descending": np.array([0.5, above, 0.05])[thirds],
    }


def test_no_error_profile_found_breaks_the_scan_more_often_than_flat():
    """Flat is a coordinate-wise local maximum of the scan's false selection, and no start climbs above it.

    Evidence, not proof: the search is local and N is small.
    """
    table = critical_counts(SEARCH_SIZE, ALPHA, DELTA)
    starts = search_starts(SEARCH_SIZE)
    flat = false_selection(table, starts["flat"], ALPHA)
    assert flat == pytest.approx(0.0855, abs=5e-5)
    found, profile = worst_case_search(table, starts["flat"], ALPHA, sweeps=1)
    assert found == flat and (profile == starts.pop("flat")).all()
    for name, start in starts.items():
        found, _ = worst_case_search(table, start, ALPHA)
        assert found <= flat, name


def test_the_search_finds_a_planted_loosening_of_the_table():
    """The table loosened by 2 at n <= 10 (at most n - 1 errors): the search climbs far above its flat value."""
    table = critical_counts(SEARCH_SIZE, ALPHA, DELTA).copy()
    n = np.arange(11)
    table[n] = np.minimum(table[n] + 2, n - 1)
    flat = np.full(SEARCH_SIZE, math.nextafter(ALPHA, 1.0))
    assert false_selection(table, flat, ALPHA) == pytest.approx(0.3125, abs=5e-5)
    found, _ = worst_case_search(table, flat, ALPHA)
    assert found > 0.9  # 0.9601: flat is no local maximum here
