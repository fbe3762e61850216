"""Test-only oracle for the two-term bounds: the straightforward
evaluation in ``Fraction`` and the Fraction-pair model of Q(sqrt(m))
(``tests/quad_model.py``) that ``curvebounds.bounds`` replaced with a
pass over integer numerators.

Each function returns the whole report for valid inputs, as a dict of
every value field and the rendered trace, which ``report_view`` builds
from a library ``BoundReport``; validation is the library's job and is
not repeated here.  Every value is computed in the model, which shares
no code with ``curvebounds.scalar``, and becomes a library value only at
the end, through the public constructor; every trace line is an
f-string over the model's rendering.  So a slip in the library's integer
bookkeeping, in its normal form or in its step templates shows up as a
differing report.
"""

from fractions import Fraction

import quad_model as model
from curvebounds.bounds import Discrepancy
from curvebounds.scalar import QuadNumber

# what a BoundReport holds, with the rendered trace in place of its steps
FIELDS = ("inputs", "alpha", "term_delta", "term_alpha", "value",
          "value_ceiling", "trace", "discrepancies")


def report_view(report):
    """A library report in the oracle's form: every field in FIELDS."""
    return {name: getattr(report, name) for name in FIELDS}


def _library(x):
    """The library value of a model value, built by the constructor."""
    return QuadNumber(*x)


def _clamped_alpha(raw, trace, formula):
    if model.sign(raw) < 0:
        trace.append(f"alpha = {formula} clamped to 0 "
                     f"(raw value {model.render(raw)} < 0)")
        return model.lift(0)
    alpha = model.minimum(model.lift(1), raw)
    trace.append(f"alpha = min(1, {formula}) = {model.render(alpha)}")
    return alpha


def two_term_bound(inputs, trace, delta, raw_alpha, length, scale, formulas):
    """min{ delta/(4 scale), alpha (length - alpha/scale) } with
    alpha = min{1, raw_alpha} clamped at 0, and its ceiling."""
    term_delta = delta / (4 * scale)
    trace.append(f"delta term: {formulas[0]} = {term_delta}")
    alpha = _clamped_alpha(raw_alpha, trace, formulas[1])
    term_alpha = model.mul(alpha, model.sub(length, model.div(alpha, scale)))
    trace.append(f"alpha term: {formulas[2]} = {model.render(term_alpha)}")
    value = model.minimum(model.lift(term_delta), term_alpha)
    ceiling = model.ceil(value)
    trace.append(f"value = min of the two terms = {model.render(value)}; "
                 f"smallest integer >= value: {ceiling}")
    return {"inputs": inputs, "alpha": _library(alpha), "term_delta": term_delta,
            "term_alpha": _library(term_alpha), "value": _library(value),
            "value_ceiling": ceiling, "trace": tuple(trace), "discrepancies": ()}


def _vacuous(report, trivial, claim):
    """The report, with the vacuous-bound discrepancy when its value is
    at or below ``trivial``, decided in the model."""
    if model.cmp(model.of(report["value"]), model.lift(trivial)) > 0:
        return report
    ceiling = report["value_ceiling"]
    return {**report, "discrepancies": (Discrepancy(
        "vacuous-bound",
        f"the integer bound {ceiling} is at or below the trivial bound {trivial}: "
        + claim, {"value_ceiling": ceiling, "trivial_bound": trivial}),)}


def _interval_warning(eps, interval, name, trace):
    if interval is None:
        return
    lower, upper = (model.of(v) if isinstance(v, QuadNumber) else model.lift(v)
                    for v in (interval.lower, interval.upper))
    if model.cmp(eps, lower) < 0 or model.cmp(eps, upper) > 0:
        trace.append(
            f"warning: {name} = {eps} lies outside the certified interval "
            f"[{model.render(lower)}, {model.render(upper)}]; "
            "the bound is hypothetical")


def gonality_bound(c, eps, interval=None):
    eps = Fraction(eps)
    trace = [f"inputs: d = {c.d}, g = {c.g}, r = 3, eta = {eps}",
             f"deg_N = (r+1)d + 2g - 2 = {c.deg_n}"]
    _interval_warning(eps, interval, "eta", trace)
    delta = eps * c.deg_n - c.d
    trace.append(f"delta = eta*deg_N - d = {delta}")
    return _vacuous(two_term_bound(
        {"d": c.d, "g": c.g, "r": 3, "eta": eps}, trace, delta,
        model.sub(model.sqrt(c.d), eps * c.d), c.d, eps,
        ("delta/(4*eta)", f"sqrt({c.d}) - eta*d", "alpha*(d - alpha/eta)")),
        1, "every curve has gonality at least 1")


def restriction_threshold(c, gamma, interval=None):
    gamma = Fraction(gamma)
    trace = [f"inputs: d = {c.d}, g = {c.g}, r = 3, gamma = {gamma}",
             f"deg_N = (r+1)d + 2g - 2 = {c.deg_n}"]
    _interval_warning(gamma, interval, "gamma", trace)
    delta = gamma * c.deg_n - c.d
    trace.append(f"delta = gamma*deg_N - d = {delta}")
    gamma_d = gamma * c.d
    return _vacuous(two_term_bound(
        {"d": c.d, "g": c.g, "r": 3, "gamma": gamma}, trace, delta,
        model.sub(model.div(model.sqrt(3 * c.d), 2), gamma_d), gamma_d, 1,
        ("delta/4", f"sqrt(3*{c.d})/2 - gamma*d", "alpha*gamma*d - alpha^2")),
        0, "no c2 >= 0 lies below it")
