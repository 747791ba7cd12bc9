"""Reference series routines that the package itself does not need.

``series_log`` is a test oracle: the alpha coefficients of the Hodge layer
are the coefficients of -log of the sine kernel, and ``series_exp`` is
checked against it by a round trip.  It reads only the public ``Series``
surface.
"""

from fractions import Fraction

from realgw.exact_arith import RationalFunction, Series


def series_log(s: Series) -> Series:
    """log of a series with constant term 1, truncated to the same order.

    In one pass: with s = 1 + u, b = log(s) satisfies s b' = u', so b_0 = 0
    and m b_m = m u_m - sum_(k=1..m-1) k b_k u_(m-k).
    """
    if RationalFunction.coerce(s.coeffs[0]) != RationalFunction.coerce(1):
        raise ValueError("series_log requires constant term 1")
    n = s.truncation_order
    u = s.coeffs
    out = [Fraction(0)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(1, m):
            acc = acc + k * out[k] * u[m - k]
        out.append(u[m] - acc * Fraction(1, m))
    return Series(out, n)
