import math

import numpy as np
import pytest

from clickrisk import risk, special
from clickrisk.metrics import admissions
from clickrisk.records import UQ_KEYS, mlg_column
from clickrisk.risk import (
    CalibrationOutcome,
    RiskError,
    RiskSpec,
    bound_at_most,
    calibrate_threshold,
    cp_upper_bound,
    critical_counts,
    empirical_fdr,
    threshold_candidates,
)
from clickrisk.synthgen import SynthConfig, generate_arrays
from clickrisk.uq import UqConfig, score_columns


def binom_cdf(k, n, p):
    """Exact binomial tail sum P(Bin(n, p) <= k); the independent oracle."""
    return math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def scalar_critical_counts(n_max, alpha, delta):
    """The table by its definition: per n, step x up while `bound_at_most(x + 1, n)`."""
    table, x = [-1], -1
    for n in range(1, n_max + 1):
        while x + 1 < n and bound_at_most(x + 1, n, alpha, delta):
            x += 1
        table.append(x)
    return np.array(table)


def brute_force_calibrate(uncertainties, errors, spec):
    """Independent scan: test every candidate threshold from scratch."""
    u = list(uncertainties)
    err = list(errors)
    best = None
    for tau in sorted(set(u)):
        n = sum(1 for v in u if v <= tau)
        x = sum(1 for v, e in zip(u, err) if v <= tau and e == 1)
        if cp_upper_bound(x, n, spec.delta) <= spec.alpha:
            if best is None or tau > best:
                best = tau
    return best


# --- cp_upper_bound ----------------------------------------------------------

def test_zero_failure_closed_form():
    assert cp_upper_bound(0, 10, 0.05) == pytest.approx(1 - 0.05 ** (1 / 10), abs=1e-10)
    assert cp_upper_bound(0, 10, 0.05) == pytest.approx(0.2588655508930523, abs=1e-10)


def test_all_failures_degenerate_edge():
    assert cp_upper_bound(5, 5, 0.05) == 1.0
    assert cp_upper_bound(1, 1, 0.2) == 1.0


def test_frozen_bisection_oracle_value():
    # computed ahead of the build by bisection on the exact binomial CDF
    assert cp_upper_bound(3, 20, 0.05) == pytest.approx(0.3436638043142818, abs=1e-10)


def test_dual_characterization_random():
    rng = np.random.default_rng(101)
    for _ in range(150):
        n = int(rng.integers(1, 201))
        x = int(rng.integers(0, n))  # x < n: the non-degenerate branch
        delta = float(rng.choice([0.01, 0.05, 0.1]))
        bound = cp_upper_bound(x, n, delta)
        assert abs(binom_cdf(x, n, bound) - delta) <= 1e-8


def test_bound_exceeds_empirical_rate():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 150))
        x = int(rng.integers(0, n))
        assert cp_upper_bound(x, n, 0.05) > x / n


def test_bound_monotone_in_errors():
    bounds = [cp_upper_bound(x, 40, 0.05) for x in range(41)]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_zero_failure_bound_shrinks_with_n():
    bounds = [cp_upper_bound(0, n, 0.05) for n in (5, 10, 50, 200)]
    assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_rejects_invalid_counts():
    with pytest.raises(RiskError):
        cp_upper_bound(2, 1, 0.05)
    with pytest.raises(RiskError):
        cp_upper_bound(-1, 5, 0.05)
    with pytest.raises(RiskError):
        cp_upper_bound(0, 0, 0.05)
    with pytest.raises(RiskError):
        cp_upper_bound(0, 5, 0.0)


# --- bound_at_most and the critical-count table -----------------------------------

GRID_ALPHAS = (0.02, 0.1, 0.2, 0.34, 0.42, 0.5)
GRID_DELTAS = (0.01, 0.05, 0.1)
# Every bisected bound costs about 1 ms at n = 1000, so the band above n = 60
# samples every 16th n (the whole band up to 1000 takes about a minute).
BAND_NS = sorted(set(range(61, 1001, 16)) | {1000})


def test_bound_at_most_equals_bisected_bound_on_the_full_small_grid():
    mismatches = []
    for delta in GRID_DELTAS:
        for n in range(1, 61):
            for x in range(n + 1):
                bound = cp_upper_bound(x, n, delta)
                for alpha in GRID_ALPHAS:
                    if bound_at_most(x, n, alpha, delta) != (bound <= alpha):
                        mismatches.append((x, n, alpha, delta))
    assert mismatches == []


def test_bound_at_most_equals_bisected_bound_around_the_critical_count(cold):
    mismatches = []
    for delta in GRID_DELTAS:
        for alpha in GRID_ALPHAS:
            table = critical_counts(1000, alpha, delta)
            assert table[0] == -1 and all(np.diff(table) >= 0) and all(table[1:] < np.arange(1, 1001))
            for n in BAND_NS:
                for x in (table[n] - 1, table[n], table[n] + 1):
                    if 0 <= x <= n and bound_at_most(x, n, alpha, delta) != (
                        cp_upper_bound(x, n, delta) <= alpha
                    ):
                        mismatches.append((x, n, alpha, delta))
                # the table's own claim: x = table[n] passes and x = table[n] + 1 fails
                assert table[n] < 0 or bound_at_most(int(table[n]), n, alpha, delta)
                assert not bound_at_most(int(table[n]) + 1, n, alpha, delta)
    assert mismatches == []


def test_bound_at_most_at_alphas_on_the_bisected_bound():
    # alpha equal to the bound, or one float step either side, sits inside the
    # guard band of the duality test, so the comparison is the bisected one
    for x, n, delta in ((0, 10, 0.05), (3, 20, 0.05), (7, 150, 0.01), (40, 400, 0.1), (0, 1, 0.1)):
        bound = cp_upper_bound(x, n, delta)
        for alpha in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, 1.0)):
            assert bound_at_most(x, n, float(alpha), delta) == (bound <= alpha)


def test_bound_at_most_edges_and_validation():
    assert not bound_at_most(5, 5, 0.99, 0.05)  # x == n is never feasible
    assert bound_at_most(0, 100, 0.05, 0.05) == (cp_upper_bound(0, 100, 0.05) <= 0.05)
    for bad in ((2, 1, 0.1, 0.05), (-1, 5, 0.1, 0.05), (0, 0, 0.1, 0.05), (0, 5, 0.0, 0.05),
                (0, 5, 1.0, 0.05), (0, 5, 0.1, 0.0)):
        with pytest.raises(RiskError):
            bound_at_most(*bad)


@pytest.fixture
def cold(monkeypatch):
    """No cached critical-count tables: every table is built in the test."""
    monkeypatch.setattr(risk, "_critical", {})


def test_critical_counts_equal_the_scalar_walk_on_the_grid(cold):
    for delta in GRID_DELTAS:
        for alpha in GRID_ALPHAS:
            assert np.array_equal(critical_counts(1000, alpha, delta), scalar_critical_counts(1000, alpha, delta))


@pytest.mark.parametrize("n_max, alpha, delta", [(5000, 0.2, 0.05), (400, 0.34, 0.05), (400, 0.42, 0.05),
                                                 (400, 0.5, 0.05)])
def test_critical_counts_equal_the_scalar_walk_at_the_bench_sizes(cold, n_max, alpha, delta):
    assert np.array_equal(critical_counts(n_max, alpha, delta), scalar_critical_counts(n_max, alpha, delta))


@pytest.mark.parametrize("alpha", [1e-4, 0.9, 0.999])
@pytest.mark.parametrize("delta", [1e-6, 0.5])
def test_critical_counts_equal_the_scalar_walk_at_extremes(cold, alpha, delta):
    assert np.array_equal(critical_counts(3000, alpha, delta), scalar_critical_counts(3000, alpha, delta))


def test_critical_counts_inside_the_walks_margin(cold):
    # alpha on the bisected bound of (x, n), or one float step either side, puts
    # the walk's step at (x, n) inside its margin, where bound_at_most decides
    for x, n, delta in ((7, 150, 0.01), (40, 400, 0.1)):
        bound = cp_upper_bound(x, n, delta)
        for alpha in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, 1.0)):
            table = critical_counts(n, float(alpha), delta)
            assert table[n] == scalar_critical_counts(n, float(alpha), delta)[n]
            assert (table[n] >= x) == (bound <= alpha)


def test_critical_counts_extend_consistently(cold, monkeypatch):
    small = critical_counts(30, 0.27, 0.05).copy()
    large = critical_counts(300, 0.27, 0.05).copy()
    largest = critical_counts(5000, 0.27, 0.05)
    assert large.size == 301 and list(large[: small.size]) == list(small)
    assert largest.size == 5001 and list(largest[: large.size]) == list(large)
    assert critical_counts(100, 0.27, 0.05) is largest  # a shorter request reads the cached table
    monkeypatch.setattr(risk, "_critical", {})
    assert np.array_equal(critical_counts(5000, 0.27, 0.05), largest)


def test_critical_counts_validate_before_caching(cold):
    for n_max, alpha, delta, message in (
        (0, 1.5, 0.05, "alpha must lie strictly inside"),
        (10, 0.0, 0.05, "alpha must lie strictly inside"),
        (10, 1.0, 0.05, "alpha must lie strictly inside"),
        (10, math.nan, 0.05, "alpha must lie strictly inside"),
        (10, 0.2, 0.0, "delta must lie strictly inside"),
        (10, 0.2, 1.0, "delta must lie strictly inside"),
        (10, 0.2, math.nan, "delta must lie strictly inside"),
        (-3, 0.2, 0.05, "n_max must be >= 0"),
    ):
        with pytest.raises(RiskError, match=message):
            critical_counts(n_max, alpha, delta)
    assert risk._critical == {}
    assert list(critical_counts(0, 0.2, 0.05)) == [-1]


@pytest.mark.parametrize("bound", [
    lambda delta: RiskSpec(alpha=0.5, delta=delta),
    lambda delta: cp_upper_bound(0, 1000, delta),
    lambda delta: bound_at_most(0, 1000, 0.5, delta),
    lambda delta: critical_counts(1000, 0.5, delta),
], ids=["RiskSpec", "cp_upper_bound", "bound_at_most", "critical_counts"])
def test_a_delta_below_the_floor_is_rejected_wherever_a_delta_enters(cold, bound):
    """Below 1e-9 the bound falls short of its closed form; at 1e-17 every bound would read 1.0."""
    bound(1e-9)
    for delta in (math.nextafter(1e-9, 0.0), 1e-12, 1e-17):
        with pytest.raises(RiskError) as caught:
            bound(delta)
        assert str(caught.value) == f"delta must be at least 1e-09, got {delta}"
    for delta in (0.0, -0.5, 1.0, math.nan):
        with pytest.raises(RiskError) as caught:
            bound(delta)
        assert str(caught.value) == f"delta must lie strictly inside (0, 1), got {delta}"
    assert risk._critical.keys() <= {(0.5, 1e-9)}


def test_at_the_delta_floor_the_bound_stays_within_its_guard_band_of_the_closed_form():
    shortfall = max(1 - 1e-9 ** (1 / n) - cp_upper_bound(0, n, 1e-9) for n in range(1, 5001, 7))
    assert shortfall < risk._DUAL_VALUE_EPS


def test_a_cold_table_takes_a_handful_of_incomplete_betas(cold, monkeypatch):
    # the walk decides almost every step in floats; evaluating the bound at
    # every n (the scalar walk) costs 6,908 incomplete betas here
    calls = []
    real = special.betainc

    def counted(a, b, x):
        calls.append(x)
        return real(a, b, x)

    monkeypatch.setattr(risk, "betainc", counted)
    monkeypatch.setattr(special, "betainc", counted)  # the bisection's calls count too
    risk._cp_upper_cached.cache_clear()
    critical_counts(5000, 0.2, 0.05)
    assert 0 < len(calls) <= 200


def test_a_trace_quantile_takes_about_ten_incomplete_betas(monkeypatch):
    # the bisection took 40 per trace point; Newton locates its cell in far fewer
    batch = generate_arrays(SynthConfig(n_records=5000, seed=3))
    u = score_columns(batch.points, batch.offsets, batch.dims, UqConfig())[:, UQ_KEYS.index("com")]
    err = ~admissions(mlg_column(batch, 3), batch.boxes)
    spec = RiskSpec(alpha=0.2, delta=0.05)
    critical_counts(u.size, spec.alpha, spec.delta)  # the table is counted elsewhere
    calls = []
    real = special.betainc

    def counted(a, b, x):
        calls.append(x)
        return real(a, b, x)

    monkeypatch.setattr(risk, "betainc", counted)
    monkeypatch.setattr(special, "betainc", counted)
    risk._cp_upper_cached.cache_clear()
    outcome = calibrate_threshold(u, err, spec)
    assert len(outcome.trace) > 100
    assert len(calls) <= 12 * len(outcome.trace)


# --- empirical_fdr -------------------------------------------------------------

def test_fdr_direct_count():
    assert empirical_fdr([0.1, 0.2, 0.3], [0, 1, 0], 0.25) == pytest.approx(0.5)


def test_fdr_empty_acceptance_convention():
    assert empirical_fdr([0.5, 0.6], [1, 1], 0.1) == 0.0


def test_fdr_no_errors():
    assert empirical_fdr([0.1, 0.2, 0.9], [0, 0, 0], 0.5) == 0.0


def test_fdr_inclusive_boundary():
    assert empirical_fdr([0.5], [1], 0.5) == 1.0


def test_fdr_rejects_mismatched_lengths():
    with pytest.raises(RiskError, match=r"^length mismatch: 2 uncertainties vs 1 flags$"):
        empirical_fdr([0.1, 0.2], [1], 0.5)
    with pytest.raises(RiskError, match=r"^error flags must be 0 or 1$"):
        empirical_fdr([0.1], [2], 0.5)
    with pytest.raises(RiskError, match=r"^error flags must be 0 or 1$"):  # the flags are checked first
        empirical_fdr([0.1, 0.2], [2], 0.5)


# --- threshold_candidates --------------------------------------------------------

def unique_candidates(u, err):
    """Each tie group's end by `np.unique` of the reversed sort: the oracle of the one-sort version."""
    order = np.argsort(u, kind="stable")
    u_sorted = u[order]
    err_cum = np.cumsum(err[order])
    candidates, last_idx = np.unique(u_sorted[::-1], return_index=True)
    last_idx = u.size - 1 - last_idx
    return candidates, last_idx + 1, err_cum[last_idx]


def test_threshold_candidates_equal_the_unique_oracle():
    rng = np.random.default_rng(17)
    cases = [np.array([0.3]), np.full(7, 0.25), np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, 0.0]),
             np.array([])]
    for _ in range(300):
        n = int(rng.integers(1, 60))
        cases.append(rng.choice([-0.0, 0.0, 0.5, 1.0, -1.0], size=n))  # signed zeros, ties
        cases.append(np.round(rng.random(n), 1))
    for u in cases:
        flags = rng.random(u.size) < 0.4
        for err in (flags, flags.astype(np.int64)):
            got, want = threshold_candidates(u, err), unique_candidates(u, err)
            # the same arrays and dtypes, byte for byte: a signed zero keeps its sign
            assert [(a.dtype, a.tobytes()) for a in got] == [(a.dtype, a.tobytes()) for a in want]


# --- calibrate_threshold ---------------------------------------------------------

def test_all_correct_accepts_everything():
    rng = np.random.default_rng(0)
    u = rng.random(50).tolist()
    outcome = calibrate_threshold(u, [0] * 50, RiskSpec(alpha=0.1, delta=0.05))
    assert outcome.feasible
    assert outcome.threshold == max(u)
    # bound at full acceptance is the zero-failure closed form
    assert outcome.trace[-1].upper_bound == pytest.approx(1 - 0.05 ** (1 / 50), abs=1e-10)


def test_all_incorrect_is_infeasible():
    u = [0.1, 0.2, 0.3, 0.4]
    outcome = calibrate_threshold(u, [1] * 4, RiskSpec(alpha=0.2, delta=0.05))
    assert not outcome.feasible
    assert outcome.threshold is None
    assert all(p.upper_bound > 0.2 for p in outcome.trace)


def test_matches_brute_force_scan():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 201))
        u = np.round(rng.random(n), int(rng.integers(1, 4))).tolist()  # force ties
        err = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int).tolist()
        spec = RiskSpec(alpha=float(rng.uniform(0.05, 0.5)), delta=0.05)
        outcome = calibrate_threshold(u, err, spec)
        expected = brute_force_calibrate(u, err, spec)
        if expected is None:
            assert not outcome.feasible and outcome.threshold is None
        else:
            assert outcome.feasible and outcome.threshold == expected


def test_trace_invariants():
    rng = np.random.default_rng(9)
    u = rng.random(80).tolist()
    err = (rng.random(80) < 0.3).astype(int).tolist()
    spec = RiskSpec(alpha=0.3, delta=0.05)
    outcome = calibrate_threshold(u, err, spec)
    taus = [p.tau for p in outcome.trace]
    assert taus == sorted(taus)
    counts = [p.n_accepted for p in outcome.trace]
    assert counts == sorted(counts)
    assert counts[-1] == 80
    if outcome.feasible:
        qualifying = [p.tau for p in outcome.trace if p.upper_bound <= spec.alpha]
        assert outcome.threshold == max(qualifying)
        larger = [p for p in outcome.trace if p.tau > outcome.threshold]
        assert all(p.upper_bound > spec.alpha for p in larger)


def test_ties_are_accepted_jointly():
    u = [0.5, 0.5, 0.5, 0.9]
    err = [0, 1, 0, 0]
    outcome = calibrate_threshold(u, err, RiskSpec(alpha=0.99, delta=0.5))
    first = outcome.trace[0]
    assert first.tau == 0.5
    assert first.n_accepted == 3
    assert first.n_errors == 1


def test_calibrate_validates_inputs():
    with pytest.raises(RiskError):
        calibrate_threshold([], [], RiskSpec(alpha=0.1))
    with pytest.raises(RiskError):
        calibrate_threshold([0.1], [1], RiskSpec(alpha=1.5))
    with pytest.raises(RiskError, match=r"^length mismatch: 2 uncertainties vs 1 flags$"):
        calibrate_threshold([0.1, 0.2], [1], RiskSpec(alpha=0.1))
    with pytest.raises(RiskError, match=r"^error flags must be 0 or 1$"):
        calibrate_threshold([0.1], [3], RiskSpec(alpha=0.1))
    with pytest.raises(RiskError, match=r"^error flags must be 0 or 1$"):  # the flags are checked first
        calibrate_threshold([0.1, 0.2], [3], RiskSpec(alpha=0.1))


@pytest.mark.parametrize("search", [
    lambda u, err: calibrate_threshold(u, err, RiskSpec(alpha=0.5)),
    lambda u, err: empirical_fdr(u, err, 0.5),
], ids=["calibrate_threshold", "empirical_fdr"])
def test_a_nan_uncertainty_is_rejected_naming_its_position(search):
    with pytest.raises(RiskError, match=r"^uncertainty at position 0 is NaN$"):
        search([np.nan, 0.5, 0.2, np.nan], [0, 1, 0, 1])
    with pytest.raises(RiskError, match=r"^uncertainty at position 2 is NaN$"):
        search(np.array([0.1, 0.5, np.nan, 0.3, np.nan]), [0, 1, 0, 1, 1])


def test_outcome_is_plain_data():
    outcome = calibrate_threshold([0.3], [0], RiskSpec(alpha=0.99, delta=0.5))
    assert isinstance(outcome, CalibrationOutcome)
    tau, n, x, bound = outcome.trace[0]
    assert (tau, n, x) == (0.3, 1, 0)
    assert 0.0 < bound <= 1.0
