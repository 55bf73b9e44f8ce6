import math

import numpy as np
import pytest
import scipy.stats

from clickrisk import special
from clickrisk.special import beta_quantile, betainc


def bisected_quantile(q, a, b):
    """Forty halvings of [0, 1] on betainc(a, b, x) < q: the quantile as first written, the oracle."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if betainc(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def betainc_calls(monkeypatch):
    """The list of x at which `special` evaluates betainc from now on."""
    calls = []
    real = special.betainc

    def counted(a, b, x):
        calls.append(x)
        return real(a, b, x)

    monkeypatch.setattr(special, "betainc", counted)
    return calls


def test_betainc_uniform_case_is_identity():
    # Beta(1,1) is uniform on [0,1]
    for x in (0.0, 0.2, 0.5, 0.99, 1.0):
        assert betainc(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)


def test_betainc_symmetry():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = rng.uniform(0.5, 50.0)
        b = rng.uniform(0.5, 50.0)
        x = rng.uniform(0.0, 1.0)
        assert betainc(a, b, x) + betainc(b, a, 1.0 - x) == pytest.approx(1.0, abs=1e-12)


def test_betainc_monotone_in_x():
    xs = np.linspace(0.01, 0.99, 50)
    vals = [betainc(3.0, 7.0, x) for x in xs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_betainc_closed_form_powers():
    # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1-x)^b
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.uniform(0.01, 0.99)
        a = rng.integers(1, 40)
        assert betainc(float(a), 1.0, x) == pytest.approx(x**a, rel=1e-12)
        assert betainc(1.0, float(a), x) == pytest.approx(1.0 - (1.0 - x) ** a, rel=1e-12)


def test_betainc_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = rng.uniform(0.5, 200.0)
        b = rng.uniform(0.5, 200.0)
        x = rng.uniform(0.0, 1.0)
        assert betainc(a, b, x) == pytest.approx(scipy.stats.beta.cdf(x, a, b), abs=1e-12)


def test_betainc_rejects_bad_shapes():
    with pytest.raises(ValueError):
        betainc(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        betainc(1.0, -2.0, 0.5)


def test_beta_quantile_inverts_cdf():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.uniform(0.5, 100.0)
        b = rng.uniform(0.5, 100.0)
        q = rng.uniform(0.001, 0.999)
        x = beta_quantile(q, a, b)
        assert betainc(a, b, x) == pytest.approx(q, abs=1e-9)


def test_beta_quantile_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(200):
        a = float(rng.integers(1, 200))
        b = float(rng.integers(1, 200))
        q = rng.uniform(0.01, 0.99)
        assert beta_quantile(q, a, b) == pytest.approx(
            scipy.stats.beta.ppf(q, a, b), abs=1e-10
        )


def test_beta_quantile_edges():
    assert beta_quantile(0.0, 2.0, 3.0) == 0.0
    assert beta_quantile(1.0, 2.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        beta_quantile(1.5, 2.0, 3.0)


def test_log_beta_consistency():
    from clickrisk.special import log_beta

    assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), abs=1e-12)


# --- the Newton-located cell equals the bisection's ----------------------------------

GRID_NS = (1, 2, 3, 5, 10, 31, 100, 317, 1000, 2999, 6000)


@pytest.mark.parametrize("delta", [1e-6, 1e-3, 0.05, 0.5])
def test_beta_quantile_equals_the_bisection_on_the_bound_grid(delta):
    # the Clopper-Pearson shapes (x + 1, n - x), x across [0, n), at both tails
    mismatches = []
    for n in GRID_NS:
        for x in sorted({0, 1, n // 20, n // 5, n // 2, n - 2, n - 1} & set(range(n))):
            for q in (1.0 - delta, delta):
                a, b = x + 1.0, float(n - x)
                if beta_quantile(q, a, b) != bisected_quantile(q, a, b):
                    mismatches.append((q, a, b))
    assert mismatches == []


def test_beta_quantile_equals_the_bisection_on_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(150):
        a, b = rng.uniform(0.3, 300.0, size=2)
        q = float(rng.choice([1e-9, 1e-4, rng.uniform(0.0, 1.0), 1.0 - 1e-4, 1.0 - 1e-9]))
        assert beta_quantile(q, a, b) == bisected_quantile(q, a, b), (q, a, b)


@pytest.mark.parametrize("n, x", [(2, 0), (40, 3), (997, 50), (5000, 1000)])
def test_beta_quantile_at_the_switch_point_and_on_a_cell_edge(n, x, betainc_calls):
    # q hit exactly at a grid point, or where betainc changes series: the
    # bisection's test decides those points, so the edges cannot be taken on trust
    a, b = x + 1.0, float(n - x)
    edge = math.floor(bisected_quantile(0.95, a, b) * 2.0**40) * 2.0**-40
    for point in (edge, edge + 2.0**-40):
        q = betainc(a, b, point)
        betainc_calls.clear()
        assert beta_quantile(q, a, b) == bisected_quantile(q, a, b)
        assert len(betainc_calls) < 20  # the bisection runs only between edges that clear q
    q = betainc(a, b, (a + 1.0) / (a + b + 2.0))
    betainc_calls.clear()
    assert beta_quantile(q, a, b) == bisected_quantile(q, a, b)
    assert len(betainc_calls) == 41  # the value at the switch point, then forty halvings


@pytest.mark.parametrize("side", ["lower", "upper", "both"])
def test_beta_quantile_falls_back_to_the_bisection_where_an_edge_does_not_clear(side, monkeypatch, betainc_calls):
    real = special._clears
    refused = {"lower": (False,), "upper": (True,), "both": (False, True)}[side]
    monkeypatch.setattr(special, "_clears", lambda q, a, b, x, upper: upper not in refused and real(q, a, b, x, upper))
    for a, b, q in ((1.0, 20.0, 0.95), (37.0, 464.0, 0.999), (3.5, 0.7, 0.2), (401.0, 4600.0, 0.05)):
        betainc_calls.clear()
        assert beta_quantile(q, a, b) == bisected_quantile(q, a, b)
        assert len(betainc_calls) >= 20  # the refused side was bisected
