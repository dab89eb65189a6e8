"""The upper tail of the F distribution, for the ANOVA's F tests.

P(F > f) on (dfn, dfd) degrees of freedom is the regularized incomplete
beta function I_x(dfd/2, dfn/2) at x = dfd / (dfd + dfn f), evaluated by
its continued fraction (Numerical Recipes, section 6.4; DiDonato and
Morris, ACM TOMS 18(3), 1992, Algorithm 708) and summed by modified Lentz.
"""
from __future__ import annotations

import math

from .errors import NumericalError

_EPS = 2.0 ** -52      # the last continued-fraction factor is 1 within this
_TINY = 1e-300        # keeps the Lentz denominators off zero
_MAX_TERMS = 10_000   # far more than a + b in the millions needs
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2); from z = 10 on by
    Stirling's series, truncated where the next term is below 1e-16."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    w = 1.0 / (z * z)
    return (1 / 12 + w * (-1 / 360 + w * (1 / 1260 + w * (-1 / 1680 + w * (
        1 / 1188 + w * (-691 / 360360 + w / 156)))))) / z


def _log_front(a: float, b: float, lam: float, log_x: float, log_y: float) -> float:
    """ln(x^a y^b / B(a, b)) at lam = (a + b) y - b, so x (a + b) = a - lam.

    Stirling's formula for the three gamma functions of B(a, b) turns it into
    a ln(1 - lam/a) + b ln(1 + lam/b) + ln(ab / (a + b)) / 2 - ln(2 pi) / 2
    minus the rests of a and b plus the rest of a + b. Neither lgamma(a)
    nor a ln x stands alone in it, so no terms of size a ln a cancel once
    a or b is large. Near the mean the logs are log1p of lam's ratios;
    away from it, ln(1 - lam/a) = ln x + ln(1 + b/a) and likewise for y.
    """
    e1, e2 = -lam / a, lam / b
    t1 = math.log1p(e1) if abs(e1) <= 0.5 else log_x + math.log1p(b / a)
    t2 = math.log1p(e2) if abs(e2) <= 0.5 else log_y + math.log1p(a / b)
    return (a * t1 + b * t2 + 0.5 * math.log(a * b / (a + b)) - _HALF_LOG_2PI
            - _stirling_rest(a) - _stirling_rest(b) + _stirling_rest(a + b))


def _beta_cf(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) over x^a y^b / B(a, b), at lam = (a + b) y - b > -1.

    The continued fraction is the even part of the one in Numerical
    Recipes, written around lam as in DiDonato and Morris's BFRAC.
    Uncontracted, its odd partial numerators near -x make each Lentz step
    cancel to about 1/a of its size once a is large.
    """
    h = a * (1.0 + lam) / (a + 1.0)
    c, d = h, 0.0
    for n in range(1, _MAX_TERMS + 1):
        s = a + 2.0 * n - 1.0
        w = n * (b - n) * x
        alpha = (a + n - 1.0) * (a + b + n - 1.0) / (s * s) * w * x
        beta = n + w / s + (a + n) / (s + 2.0) * (1.0 + lam + n * (1.0 + y))
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = beta + alpha / c
        c = c if abs(c) > _TINY else _TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return 1.0 / h
    raise NumericalError(f"the F tail's continued fraction for I_{x}({a}, {b}) did not converge")


def f_sf(dfn: int, dfd: int, f: float) -> float:
    """P(F > f) for an F variate on (dfn, dfd) degrees of freedom.

    f = inf gives 0, f <= 0 gives 1 and nan gives nan. Neither x nor
    y = 1 - x is formed by subtraction: both come from the odds y/x = dfn
    f / dfd. The symmetry I_x(a, b) = 1 - I_y(b, a) serves only where
    x >= (a+1)/(a+b+2), and there p is not small (at least 0.083 for dfn
    1 to 44 and dfd 1 to 10^6), so a small p is never formed as 1 - I.
    Either branch keeps the continued fraction's lam above -1.
    """
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    a, b = 0.5 * dfd, 0.5 * dfn
    if dfn * f <= dfd:
        u = dfn * f / dfd  # y / x
        if u == 0.0:  # 1 - p is below 1e-150: p rounds to 1
            return 1.0
        x, y = 1.0 / (1.0 + u), u / (1.0 + u)
        log_x = -math.log1p(u)
        log_y = math.log(u) + log_x
    else:
        v = dfd / dfn / f  # x / y; does not overflow where dfn * f would
        x, y = v / (1.0 + v), 1.0 / (1.0 + v)
        log_y = -math.log1p(v)
        log_x = math.log(v) + log_y
    lam = b * ((f - 1.0) * x)  # (a + b) y - b, without its cancellation
    front = math.exp(_log_front(a, b, lam, log_x, log_y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x, y, lam)
    return 1.0 - front * _beta_cf(b, a, y, x, -lam)
