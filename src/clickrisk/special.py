"""Scalar numerics: regularized incomplete beta function and its quantile.

Continued-fraction evaluation (modified Lentz) plus a quantile that
returns the centre of the 2**-40 cell a forty-step bisection of [0, 1]
ends in. Safeguarded Newton locates that cell in a handful of
evaluations; the bisection's own test, with a margin for the incomplete
beta's rounding, confirms its edges, and the bisection itself runs only
on what the edges leave undecided. Accuracy is limited by the cell width
(about 1e-12 in the argument), which is far tighter than anything the
risk bounds need.
"""

from __future__ import annotations

import math
import sys

_MAX_ITER = 500
_EPS = 3e-16  # relative convergence threshold for the continued fraction
_FPMIN = 1e-300  # guard against division by zero in Lentz's method
_TOL = 1e-12  # width of the quantile's final bracketing interval in x
_CELL = 2.0**-40  # the width the bisection stops at: the first power of two below _TOL
_CELLS = 2**40
# Rounding of `betainc` per unit of the sizes it adds up (see `_noise`): four
# ulp of 1, where its error sampled against 160-bit values near quantiles
# (a, b up to 6000) stayed under one.
_ROUND = 4.0 * sys.float_info.epsilon


def log_beta(a: float, b: float) -> float:
    """log of the Beta function B(a, b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated by modified Lentz."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized lower incomplete beta function I_x(a, b).

    Equals the CDF of a Beta(a, b) variate evaluated at x.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    front = math.exp(ln_front)
    # choose the representation that converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _noise(a: float, b: float, x: float, value: float, whole: bool = False) -> float:
    """Bound on the rounding in `value` = betainc(a, b, x).

    The log prefactor a log x + b log(1 - x) - log_beta(a, b) is good to
    an ulp of each term it adds; exp, the continued fraction and the
    final 1 - t add a few ulp more. That relative error scales the tail
    t the prefactor multiplies (`value`, or 1 - `value` above the switch
    point). The part that log_beta's lgamma values carry is the same for
    every x of one series, so it moves the two series apart but keeps
    each monotone in x; `whole` adds it, for a bound on the error itself.
    """
    size = a * abs(math.log(x)) + b * abs(math.log1p(-x)) + abs(log_beta(a, b)) + 8.0
    if whole:
        return _ROUND * (size + abs(math.lgamma(a)) + abs(math.lgamma(b)) + abs(math.lgamma(a + b)) + 1.0)
    tail = value if x < (a + 1.0) / (a + b + 2.0) else 1.0 - value
    return _ROUND * (tail * size + 1.0)


def _bisect(q: float, a: float, b: float, below: float = 0.0, above: float = 1.0) -> float:
    """Bisection of [0, 1] on I_x(a, b) < q down to a 2**-40 cell; returns the cell's centre.

    Points at or below `below` are taken as below the crossing, and points
    at or above `above` as above it, without evaluating them; the
    defaults evaluate every midpoint.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid <= below or (mid < above and betainc(a, b, mid) < q):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _newton(q: float, a: float, b: float, x: float, value: float) -> tuple[float, float]:
    """Crossing of I_x(a, b) = q by Newton from x, where I_x(a, b) = value, and the pdf near it.

    Each evaluation narrows a bracket as the bisection's test would; a
    step that leaves the bracket halves it instead. Stops once the step
    is so small that the next iterate is off by well under a cell
    (Newton's error after a step s is about |(log pdf)'| s**2 / 2).
    """
    lo, hi = 0.0, 1.0
    lb = log_beta(a, b)
    while True:
        if value < q:
            lo = x
        else:
            hi = x
        pdf = math.exp(min((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - lb, 700.0))
        step = (value - q) / pdf if pdf > 0.0 else math.inf
        if lo < x - step < hi:
            x -= step
            if abs((a - 1.0) / x - (b - 1.0) / (1.0 - x)) * step * step <= _CELL / 64.0:
                return x, pdf
        else:
            x = 0.5 * (lo + hi)
        if hi - lo <= _CELL:
            return x, pdf
        value = betainc(a, b, x)


def _clears(q: float, a: float, b: float, x: float, upper: bool) -> bool:
    """Whether betainc(a, b, x) lies beyond q (above it if `upper`) by twice its rounding.

    Then the bisection's test decides every grid point beyond x as it
    decides x: near the crossing, a point's value differs from x's by the
    two points' rounding at most, on top of the monotone I_x(a, b).
    """
    value = betainc(a, b, x)
    margin = 2.0 * _noise(a, b, x, value)
    return value >= q + margin if upper else value < q - margin


def beta_quantile(q: float, a: float, b: float) -> float:
    """q-quantile of Beta(a, b), to within `_TOL` in x: the forty-step bisection's answer, bit for bit.

    Newton starts at (a + 1) / (a + b + 2), where `betainc` switches
    series. Its value there, clear of q by the whole rounding, also
    decides every point across the switch; otherwise (the crossing all but
    at the switch point) the plain bisection runs.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must be in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    switch = (a + 1.0) / (a + b + 2.0)
    value = betainc(a, b, switch)
    if abs(value - q) < 2.0 * _noise(a, b, switch, value, whole=True):
        return _bisect(q, a, b)
    x, pdf = _newton(q, a, b, switch, value)
    # The grid points 3 roundings' worth of x away on each side should clear
    # q (`_clears`); between them, the bisection evaluates the few it meets.
    # An edge that does not clear leaves its whole side to the bisection.
    reach = 3.0 * _noise(a, b, x, q) / pdf if pdf > 0.0 else 1.0
    below = math.floor(max(x - reach, 0.0) * _CELLS) * _CELL
    above = math.ceil(min(x + reach, 1.0) * _CELLS) * _CELL
    if below > 0.0 and not _clears(q, a, b, below, upper=False):
        below = 0.0
    if above < 1.0 and not _clears(q, a, b, above, upper=True):
        above = 1.0
    return _bisect(q, a, b, below, above)
