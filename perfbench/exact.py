"""The benchmark's own exact arithmetic, independent of curvebounds.

It recomputes what the program must print from (d, g, eta) alone: the
certified eta of each generated family, the integer ceilings of the
gonality bound and the restriction threshold, and the replay search
boxes.  The output checks compare the program against these values, and
the benchmark sizes its work with them, so a smaller box or range shows
as a failed check rather than as a speed-up.
"""

from __future__ import annotations

import math
from fractions import Fraction


def floor_quad(a: Fraction, b: Fraction, m: int) -> int:
    """floor(a + b*sqrt(m)) for rationals a, b and an integer m >= 0."""
    q = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    big_a = a.numerator * (q // a.denominator)
    big_b = b.numerator * (q // b.denominator)
    n = big_b * big_b * m
    root = math.isqrt(n)
    if big_b >= 0:
        whole = big_a + root
    else:
        whole = big_a - root - (0 if root * root == n else 1)
    # floor(X / q) = floor(floor(X) / q) for an integer q > 0
    return whole // q


def ceil_quad(a: Fraction, b: Fraction, m: int) -> int:
    """ceil(a + b*sqrt(m))."""
    return -floor_quad(-a, -b, m)


def ceil_exact(value) -> int:
    """Ceiling of an exact value as parsed from the program's output:
    an int, a Fraction, or an (a, b, m) triple."""
    if isinstance(value, tuple):
        return ceil_quad(*value)
    return math.ceil(Fraction(value))


def family_eta(family: str, params: dict) -> Fraction:
    """The certified Seshadri lower bound of a generated curve: 1/a for
    a complete intersection of type (a, b), 1/(a + b - 2) for a curve
    linked to a line, 1/(d - 1) for a nondegenerate curve (regularity
    at most d - 1)."""
    if family == "complete_intersection":
        return Fraction(1, params["a"])
    if family == "linked_line":
        return Fraction(1, params["a"] + params["b"] - 2)
    if family == "raw":
        return Fraction(1, params["d"] - 1)
    raise ValueError(f"unknown family {family!r}")


def castelnuovo_genus(d: int) -> int:
    """pi(d, 3): the largest genus of a nondegenerate curve of degree d."""
    m, eps = divmod(d - 1, 2)
    return m * (m - 1) + m * eps


def deg_n(d: int, g: int) -> int:
    return 4 * d + 2 * g - 2


def gonality_ceiling(d: int, g: int, eta: Fraction) -> int:
    """ceil(min(delta/(4 eta), alpha (d - alpha/eta))) with
    alpha = min(1, sqrt(d) - eta d) clamped at 0."""
    delta = eta * deg_n(d, g) - d
    term_delta = math.ceil(delta / (4 * eta))
    ed = eta * d
    if d >= (1 + ed) ** 2:          # alpha = 1
        term_alpha = math.ceil(d - 1 / eta)
    elif d <= ed * ed:              # alpha = 0
        term_alpha = 0
    else:                           # 3 d sqrt(d) - 2 eta d^2 - d/eta
        term_alpha = ceil_quad(-2 * eta * d * d - d / eta, Fraction(3 * d), d)
    return min(term_delta, term_alpha)


def restriction_ceiling(d: int, g: int, gamma: Fraction) -> int:
    """ceil(min(delta/4, alpha gamma d - alpha^2)) with
    alpha = min(1, sqrt(3d)/2 - gamma d) clamped at 0."""
    delta = gamma * deg_n(d, g) - d
    term_delta = math.ceil(delta / 4)
    gd = gamma * d
    if Fraction(3 * d, 4) >= (1 + gd) ** 2:     # alpha = 1
        term_alpha = math.ceil(gd - 1)
    elif Fraction(3 * d, 4) <= gd * gd:         # alpha = 0
        term_alpha = 0
    else:           # (3 gamma d / 2) sqrt(3d) - 2 gamma^2 d^2 - 3d/4
        term_alpha = ceil_quad(-2 * gd * gd - Fraction(3 * d, 4), 3 * gd / 2,
                               3 * d)
    return min(term_delta, term_alpha)


def replay_box(d: int, eta: Fraction, mode: str, c2: int = 0
               ) -> tuple[int, int, int, int]:
    """(x_min, x_max, y_min, y_max) of the replay's search box, from the
    closed forms of the box derivation (needs eta^2 d < 1).

    gonality: the largest t with t sqrt(d) <= eta d (t + 1/2);
    restriction: the largest t with
    t^2 d (1 - eta^2 d) - t eta^2 d^2 - (c2 + eta^2 d^2 / 4) <= 0.
    Then x_max = floor(eta d / 2 + t eta d) and y runs over [-t, 0].
    """
    ed = eta * d
    if eta * ed >= 1:
        raise ValueError(f"eta^2 d = {eta * ed} >= 1: the box is unbounded")
    if mode == "gonality":
        # t <= ed / (2 (sqrt(d) - ed)) = (ed^2 + ed sqrt(d)) / (2 (d - ed^2))
        den = 2 * (d - ed * ed)
        t_max = floor_quad(ed * ed / den, ed / den, d)
        x_min = 0
    elif mode == "restriction":
        lead = d * (1 - eta * ed)
        lin = eta * eta * d * d
        disc = lin * lin + 4 * lead * (c2 + lin / 4)
        # sqrt(p/q) = sqrt(p q) / q
        t_max = floor_quad(lin / (2 * lead),
                           Fraction(1, 2 * disc.denominator) / lead,
                           disc.numerator * disc.denominator)
        x_min = 1
    else:
        raise ValueError(f"unknown replay mode {mode!r}")
    x_max = math.floor(ed / 2 + t_max * ed)
    return x_min, x_max, -t_max, 0


def box_points(box: tuple[int, int, int, int], margin: int) -> int:
    """Points enumerated in the box enlarged by margin on every side."""
    x_min, x_max, y_min, y_max = box
    return (max(0, x_max - x_min + 1 + 2 * margin)
            * max(0, y_max - y_min + 1 + 2 * margin))
