"""Theory oracle: classical facts about the gonality of real curves that
every printed bound must respect.

The other oracles check the program against itself: they recompute its
formulas or replay the constraint systems its derivation produced.  The
facts here are independent of both.  Each curve is a descriptor built
through the public entry points, each evidence item says in its note why
it holds, and the integer bound is the one ``gonality DESC`` prints: the
ceiling of the bound at the certified Seshadri lower bound.  The bound
must never exceed a known gonality or a known upper bound on it.  Where
it equals the known value it is sharp; the sharp cases are counted, and
the counts are pinned (run with ``pytest -s`` to see them).

Facts used:
- Every smooth curve of genus g has gon <= floor((g + 3)/2): Brill-Noether
  existence (G. Kempf, "Schubert methods with an application to algebraic
  curves", 1971; S. Kleiman and D. Laksov, "On the existence of special
  divisors", Amer. J. Math. 94 (1972)).
- A smooth nondegenerate curve of degree d >= 3 in P^3 has gon <= d - 2:
  projection from a line through two of its points.
- A smooth curve of bidegree (a, b) on a smooth quadric has
  gon = min(a, b): classical; see G. Martens, "The gonality of curves on a
  Hirzebruch surface", Arch. Math. 67 (1996).
- A smooth complete intersection of type (a, b), a >= b, has gon = ab - l,
  l the largest order of a multisecant line (B. Basili, "Indice de
  Clifford des intersections complètes de l'espace", Bull. SMF 124
  (1996)).  A surface of degree b <= 3 contains a line, which lies on the
  surface of degree b through the curve and meets it in a points, so
  gon <= ab - a.
"""

from curvebounds import combine, descriptor_from_dict, gonality_bound, standard_catalog


def integer_bound(desc):
    """The integer bound ``gonality DESC`` prints for a descriptor."""
    interval = combine(desc.curve, list(desc.evidence))
    return gonality_bound(desc.curve, interval.lower, interval).value_ceiling


def quadric_curve(a, b):
    """A curve of bidegree (a, b), a <= b and b >= 2, on a smooth quadric:
    d = a + b, g = (a - 1)(b - 1), and epsilon = 1/b exactly."""
    return descriptor_from_dict({
        "kind": {"raw": {"d": a + b, "g": (a - 1) * (b - 1)}},
        "evidence": [
            {"kind": "global_generation", "n": 1, "m": b,
             "note": "cut out by the quadric and forms of degree b, as "
                     "O_Q(b, b)(-C) = O_Q(b - a, 0) is spanned for a <= b"},
            {"kind": "secant_line", "l": b,
             "note": "a line of one ruling meets the curve in b points"},
        ]})


def complete_intersection(a, b):
    return descriptor_from_dict(
        {"kind": {"complete_intersection": {"a": a, "b": b}}})


# (a, b) -> integer bound, over ranges that keep the module under 2 s;
# (1, 1), a conic, is left out: it is not cut out by linear forms
QUADRIC = {(a, b): integer_bound(quadric_curve(a, b))
           for b in range(2, 31) for a in range(1, b + 1)}
CI = {(a, b): integer_bound(complete_intersection(a, b))
      for b in range(1, 7) for a in range(b, 31)}
# (name, d, g, nondegenerate, integer bound) of every curve; the catalog's
# line spans only a line, and a complete intersection with b = 1 is plane
CURVES = (
    [(f"catalog {desc.name}", desc.curve.d, desc.curve.g, desc.curve.d >= 3,
      integer_bound(desc))
     for desc in standard_catalog()]
    + [(f"quadric-{a}-{b}", a + b, (a - 1) * (b - 1), True, bound)
       for (a, b), bound in QUADRIC.items()]
    + [(f"ci-{a}-{b}", a * b, a * b * (a + b - 4) // 2 + 1, b >= 2, bound)
       for (a, b), bound in CI.items()]
)


def check(family, bounds, truth):
    """The bounds that exceed their truth (none may), and the number
    equal to it, which is printed and returned."""
    over = {key: bound for key, bound in bounds.items() if bound > truth[key]}
    assert over == {}
    sharp = sum(bounds[key] == truth[key] for key in bounds)
    print(f"{family}: bound <= truth on {len(bounds)} curves, sharp on {sharp}")
    return sharp


def test_no_bound_exceeds_brill_noether():
    # gon <= floor((g + 3)/2) for every smooth curve of genus g
    sharp = check("Brill-Noether", {name: bound for name, *_, bound in CURVES},
                  {name: (g + 3) // 2 for name, _, g, _, _ in CURVES})
    assert sharp == 8


def test_no_bound_exceeds_the_secant_projection():
    # gon <= d - 2 for a smooth nondegenerate space curve of degree d >= 3
    rows = [row for row in CURVES if row[3]]
    sharp = check("secant projection", {name: bound for name, *_, bound in rows},
                  {name: d - 2 for name, d, *_ in rows})
    assert sharp == 2


def test_no_bound_exceeds_min_a_b_on_a_quadric():
    assert len(QUADRIC) == 464
    sharp = check("quadric curves, a <= b <= 30", QUADRIC,
                  {ab: min(ab) for ab in QUADRIC})
    assert sharp == 33


def test_no_bound_exceeds_basili_for_b_at_most_3():
    basili = {(a, b): bound for (a, b), bound in CI.items() if 2 <= b <= 3}
    sharp = check("complete intersections, 2 <= b <= 3, a <= 30", basili,
                  {(a, b): a * b - a for a, b in basili})
    assert sharp == 54
