"""Test-only oracles for the intersection kernel.

``top_product`` is the coefficient-list expansion that
``curvebounds.blowup.top_product`` replaced with a single pass carrying
only the three surviving coefficients: the product of the linear forms
x_i + y_i*t is expanded in full in the E-degree t, and the monomial
table of P^3 (H^3 = 1, H*E^2 = -d, E^3 = -deg_N) is read off the
coefficients of t^0, t^2 and t^3.

``halphen_f`` is the Halphen quadratic, a second derivation of
lambda_eta.
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
    return coeffs[0] - coeffs[2] * c.d - coeffs[3] * c.deg_n


def halphen_f(c, x):
    """The quadratic x^2 - (4 + (2g-2)/d)*x + d whose value at x = eta*d
    equals lambda_eta.  Its discriminant controls the genus bound."""
    return x ** 2 - (4 + Fraction(2 * c.g - 2, c.d)) * x + c.d
