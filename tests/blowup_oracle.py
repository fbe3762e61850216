"""Test-only oracle for the intersection kernel: the coefficient-list
expansion that ``curvebounds.blowup.top_product`` replaced with a single
pass carrying only the three surviving coefficients.

The product of the linear forms x_i + y_i*t is expanded in full in the
E-degree t, and the monomial table is read off the coefficients of
t^0, t^(r-1) and t^r with its signs written out.
"""

from fractions import Fraction


def top_product(c, classes):
    coeffs = [Fraction(1)]
    for cl in classes:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i] += v * cl.x
            nxt[i + 1] += v * cl.y
        coeffs = nxt
    r = c.r
    sign_he = Fraction((-1) ** (r - 2))
    sign_e = Fraction((-1) ** r)
    return (coeffs[0]
            + coeffs[r - 1] * sign_he * c.d
            + coeffs[r] * sign_e * c.deg_n)
