"""The two distribution functions behind the package's p-values, from the
math module alone: ndtr, the standard normal CDF, and stdtr, Student's t
CDF.  Each takes and returns Python floats, one value at a time, and gives
scipy.special's values at the edges: stdtr is 0.5 at t = 0, 0 or 1 at
t = -inf or inf, ndtr(t) at df = inf, and NaN for df <= 0 or a NaN input.
tests/test_special.py bounds their error against mpmath."""

import math

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# Above this the log-gamma ratio takes its asymptotic series, whose first
# omitted term is below 1e-19 there.
_SERIES_FROM = 30.0
# The continued fraction takes at most about 80 terms on any input measured.
_MAX_TERMS = 1000
_TINY = 1e-300


def ndtr(x: float) -> float:
    """Pr(Z <= x) for a standard normal Z."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)) for a > 0, without the cancellation
    of lgamma(a + 1/2) - lgamma(a) at large a: the asymptotic series
    1/2 log a - 1/(8a) + 1/(192a^3) - ... there, the ratio of math.gamma
    below (its values stay finite), and lgamma where a is so small that
    Gamma(a) overflows."""
    if a >= _SERIES_FROM:
        s = 1.0 / (a * a)
        return 0.5 * math.log(a) + (-1 / 8 + s * (1 / 192 + s * (-1 / 640 + s * (
            17 / 14336 + s * (-31 / 18432))))) / a
    if a >= 1e-3:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    return math.lgamma(a + 0.5) - math.lgamma(a)


def _log_beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """log(F / a) for the continued fraction F = 1/(1 + q1/(1 + q2/(1 + ...)))
    of the regularized incomplete beta (Abramowitz and Stegun 26.5.8):
    I_x(a, b) = x^a y^b / B(a, b) times exp of this value.  y = 1 - x is
    given apart.

    It is evaluated as the even contraction of the fraction, by the modified
    Lentz method, with every term scaled by s = max(a, 1).  Each denominator
    1 + q_{2m+1} is formed from y without subtraction: at large a, q_{2m+1}
    is close to -1, and the sum would lose digits in proportion to a.  The
    scaling keeps the terms of order 1 where unscaled ones (of order 1/a and
    1/a^2) would underflow.
    """
    s = max(a, 1.0)

    def scaled_one_plus_odd(m):         # s (1 + q_{2m+1})
        k = (2 * m + 1 - b) * (a / (a + 2 * m)) + (m / (a + 2 * m)) * (3 * m + 2 - b)
        return s * y + x * k * (s / (a + 2 * m + 1))

    def odd(m):                         # q_{2m+1}
        return -x * ((a + m) / (a + 2 * m)) * ((a + b + m) / (a + 2 * m + 1))

    # Lentz's ratio c of successive numerators and e of successive
    # denominators (the reciprocal of the usual d) are both of order s, so no
    # step divides by a value near the overflow threshold.
    f = c = scaled_one_plus_odd(0)
    e = math.inf
    for m in range(1, _MAX_TERMS):
        even = x * m * (b - m) * (s / (a + 2 * m))     # s (a + 2m - 1) q_{2m}
        numerator = -odd(m - 1) * even * (s / (a + 2 * m - 1))
        denominator = scaled_one_plus_odd(m) + even / (a + 2 * m - 1)
        c = denominator + numerator / c or _TINY
        e = denominator + numerator / e or _TINY
        step = c / e
        f *= step
        if abs(step - 1.0) < 1e-16:
            return math.log(s) - math.log(a) - math.log(f)
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def stdtr(df: float, t: float) -> float:
    """Pr(T <= t) for Student's T with df degrees of freedom.

    The tail below -|t| is I_x(df/2, 1/2) / 2 with x = df / (df + t^2).  With
    r = t^2 / df, x is 1 / (1 + r) and 1 - x is r / (1 + r), never 1 - x by
    subtraction, and log(1 - x) is log r - log1p(r).  Where t^2 or r leaves
    the normal range, log r is 2 log|t| - log df.
    """
    if math.isnan(df) or math.isnan(t) or df <= 0:
        return math.nan
    if t == 0:
        return 0.5
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    if math.isinf(df):
        return ndtr(t)
    if df < 1e-300:
        # x^(df/2) is 1 to within 1e-296 for every finite t: all the mass
        # lies beyond any t, half on each side (and df/2 may underflow)
        return 0.5
    u = abs(t)
    a = 0.5 * df
    r = u * u / df
    if 1e-300 < r < 1e300:
        log_r = math.log(r)
        log1p_r = math.log1p(r)
        a_log1p_r = a * log1p_r
    else:
        log_r = 2.0 * math.log(u) - math.log(df)
        log1p_r = max(log_r, 0.0)
        a_log1p_r = a * log1p_r if r > 1.0 else 0.5 * u * u
    # log of x^a (1 - x)^(1/2) / B(a, 1/2)
    log_front = 0.5 * (log_r - log1p_r) - a_log1p_r + _log_gamma_ratio(a) - _LOG_SQRT_PI
    x = 1.0 / (1.0 + r)
    y = r / (1.0 + r) if r < math.inf else 1.0
    if r * (a + 1.0) > 1.5:
        # x < (a + 1) / (a + 5/2), where the fraction for I_x(a, 1/2) converges fast
        tail = 0.5 * math.exp(log_front + _log_beta_fraction(a, 0.5, x, y))
    else:
        # I_x(a, 1/2) = 1 - I_(1 - x)(1/2, a)
        tail = 0.5 - 0.5 * math.exp(log_front + _log_beta_fraction(0.5, a, y, x))
    return tail if t < 0 else 1.0 - tail
