"""ndtr and stdtr (femrisk.stats._special) against mpmath at 40 digits, at
the edges scipy.special defines, and at the inputs where a form of the
incomplete beta that subtracts 1 - x fails.

The bounds are relative and were set from measurement on 20 000 random
points per domain (x86-64, CPython 3.11 math on glibc):
- ndtr over [-37, 37]: at most 1.85e-13, near -37, where rounding the
  argument x / sqrt(2) alone may move erfc by x^2 2.2e-16 = 3.0e-13;
  bound 4e-13;
- stdtr over |t| in [1e-10, 40]: at most 1.2e-13 for df in [1, 2000]
  (bound 3e-13) and 3.0e-13 for df in [2000, 1e8] (bound 6e-13), both near
  |t| = 40, where rounding t^2 / df moves the log of the tail by df/2
  log1p(t^2/df) times 2.2e-16.
The stdtr checks add one subnormal spacing (2**-1074) to the bound: near
df = 9 360 and |t| = 39 the tail underflows below 2.2e-308, where that
spacing is more than 6e-13 of the value.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from femrisk.stats._special import ndtr, stdtr

ORACLE_DIGITS = 40


def ndtr_oracle(x):
    with mpmath.workdps(ORACLE_DIGITS):
        return mpmath.ncdf(mpmath.mpf(x))


def stdtr_oracle(df, t):
    """Pr(T <= t) as I_x(df/2, 1/2) / 2 below 0, with x = df / (df + t^2)
    formed in mpmath from the float inputs."""
    with mpmath.workdps(ORACLE_DIGITS):
        df, t = mpmath.mpf(df), mpmath.mpf(t)
        tail = mpmath.betainc(df / 2, 0.5, 0, df / (df + t * t), regularized=True) / 2
        return tail if t < 0 else 1 - tail


def relative_error(got, want):
    with mpmath.workdps(ORACLE_DIGITS):
        return float(abs(mpmath.mpf(got) - want) / want)


def within(got, want, bound):
    """|got - want| <= bound * want + 2**-1074: the relative bound, plus one
    spacing of the subnormals, which hold no closer value to a tail that
    underflows below 2.2e-308."""
    with mpmath.workdps(ORACLE_DIGITS):
        return abs(mpmath.mpf(got) - want) <= bound * want + mpmath.mpf(2) ** -1074


magnitudes = st.floats(-10.0, math.log10(40.0)).map(lambda e: 10.0 ** e)
signs = st.sampled_from([-1.0, 1.0])


@settings(max_examples=300)
@given(x=st.floats(-37.0, 37.0))
def test_ndtr_matches_mpmath(x):
    assert relative_error(ndtr(x), ndtr_oracle(x)) <= 4e-13


@pytest.mark.parametrize("dfs, bound", [(st.floats(1.0, 2000.0), 3e-13),
                                        (st.integers(1, 2000).map(float), 3e-13),
                                        (st.floats(2000.0, 1e8), 6e-13)])
def test_stdtr_matches_mpmath(dfs, bound):
    @settings(max_examples=200)
    @given(df=dfs, u=magnitudes, sign=signs)
    def check(df, u, sign):
        assert within(stdtr(df, sign * u), stdtr_oracle(df, sign * u), bound)

    check()


@pytest.mark.parametrize("df", [9351.0, 9367.0])
def test_stdtr_subnormal_tail(df):
    # stdtr underflows to 3.1e-312 and 2.8e-312 here, and it is off by one
    # subnormal spacing, 9.1e-13 and 1.05e-12 of the value: no float meets
    # the 6e-13 relative bound alone.
    t = -10.0 ** 1.59375
    assert within(stdtr(df, t), stdtr_oracle(df, t), 6e-13)


@pytest.mark.parametrize("df", [1.0, 2.5, 999.0, 1e6])
def test_stdtr_edges(df):
    assert stdtr(df, 0.0) == 0.5 and stdtr(df, -0.0) == 0.5
    assert stdtr(df, -math.inf) == 0.0 and stdtr(df, math.inf) == 1.0
    for bad in (0.0, -0.0, -1.0, -math.inf, math.nan):
        assert math.isnan(stdtr(bad, 1.5))
    assert math.isnan(stdtr(df, math.nan))


@pytest.mark.parametrize("t", [-40.0, -1.5, -1e-9, 0.0, 2.0, math.inf, math.nan])
def test_stdtr_at_infinite_df_is_ndtr(t):
    got, want = stdtr(math.inf, t), ndtr(t)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_ndtr_edges():
    assert ndtr(-math.inf) == 0.0 and ndtr(math.inf) == 1.0 and ndtr(0.0) == 0.5
    assert math.isnan(ndtr(math.nan))


@pytest.mark.parametrize("df", [1.0, 30.0, 2000.0])
@pytest.mark.parametrize("t", [3e-232, 1e-300, 5e-324])
def test_t_whose_square_underflows(df, t):
    # Formed as 1 - x, 1 - x is 0 here, and its log raised "math domain error".
    assert stdtr(df, -t) == 0.5 and stdtr(df, t) == 0.5


@pytest.mark.parametrize("df", [5.0, 30.0, 999.0])
def test_t_near_zero_keeps_its_tail(df):
    # Formed as 1 - x, 1 - x lost every digit near t = 1e-9 and the two-sided
    # p-value read 1.0; the oracle's is below 1 by about 1e-9.
    t = 1e-9
    p = 2.0 * stdtr(df, -t)
    assert p < 1.0
    assert relative_error(p, 2 * stdtr_oracle(df, -t)) <= 3e-13
