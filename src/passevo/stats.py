"""Improvement arithmetic and the one-sample t test on trial improvements.

The t tail probability is computed through the regularized incomplete beta
function, evaluated with the modified Lentz continued fraction; accuracy is
well below 1e-10 over the ranges that matter here. Lower runtime is better
everywhere else in the package, but improvements are reported so that
positive means faster than the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, mean, stdev

from .errors import ExecutionError, ValidationError

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 400


def percent_improvement(baseline: float, evolved: float) -> float:
    """Positive when the evolved runtime beats the baseline."""
    if not math.isfinite(baseline) or baseline <= 0:
        raise ValidationError(f"baseline runtime must be positive and finite, got {baseline!r}")
    return 100.0 * (baseline - evolved) / baseline


def _betacf(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # one Lentz step per term; converged after the odd one
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
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x in (0.0, 1.0):
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """P(T >= t) for a Student t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    a = df / 2.0
    x = df / (df + t * t)
    if x < (a + 1.0) / (a + 2.5):
        half_tail = 0.5 * betainc_regularized(a, 0.5, x)
    else:
        # x rounds to 1.0 for |t| below ~1e-8 sqrt(df); its complement does not
        half_tail = 0.5 - 0.5 * betainc_regularized(0.5, a, t * t / (df + t * t))
    return half_tail if t >= 0 else 1.0 - half_tail


@dataclass(frozen=True)
class SummaryStats:
    """Cross-trial improvement statistics; t/p need at least two samples
    with spread and are None otherwise."""

    n: int
    mean_improvement: float
    sample_stddev: float | None
    t_statistic: float | None
    p_value_one_tailed: float | None


def summarize(improvements: list[float]) -> SummaryStats:
    """One-sample, one-tailed t test of H0: mean improvement = 0 vs H1: > 0.

    One value, or values with no spread, give the mean alone; an empty list
    raises ExecutionError, and finite values whose sum or spread is beyond a
    float raise ValidationError.
    """
    n = len(improvements)
    if n == 0:
        raise ExecutionError("no improvement values to summarize")
    try:
        sd = stdev(improvements) if n > 1 else 0.0
        # mean() is correctly rounded, so equal values give that value back;
        # fmean of three 3.7s is 3.7000000000000006
        mean_improvement = mean(improvements) if sd == 0.0 else fmean(improvements)
    except OverflowError as exc:
        raise ValidationError(f"improvement values too large to summarize: {exc}") from exc
    if sd == 0.0:
        return SummaryStats(n, mean_improvement, None, None, None)
    t = mean_improvement / (sd / math.sqrt(n))
    return SummaryStats(
        n=n,
        mean_improvement=mean_improvement,
        sample_stddev=sd,
        t_statistic=t,
        p_value_one_tailed=student_t_sf(t, n - 1),
    )
