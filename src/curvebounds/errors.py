"""Exception taxonomy shared by every module.

All library errors derive from :class:`CurveBoundsError` so callers can
catch the whole family at once.  Names follow the failure they report,
not the call site that raises them.
"""

from __future__ import annotations


class CurveBoundsError(Exception):
    """Base class for every error raised by this package."""


# --- scalar arithmetic -------------------------------------------------

class IncompatibleRadicand(CurveBoundsError):
    """Comparison of values with two distinct irrational radicands."""


class NegativeRadicand(CurveBoundsError):
    """Square root requested of a negative rational."""


class RadicandTooLarge(CurveBoundsError):
    """Radicand above the factoring cap ``scalar.MAX_RADICAND``: its
    square-free split by trial division would stall the tool."""


# --- intersection ring -------------------------------------------------

class ArityMismatch(CurveBoundsError):
    """Top product called with a number of classes other than 3."""


# --- evidence / intervals ---------------------------------------------

class EvidenceInconsistentWithDegree(CurveBoundsError):
    """Evidence parameters contradict the curve's degree or genus data."""


class InconsistentEvidence(CurveBoundsError):
    """Combined evidence produces an empty interval (lower > upper)."""


class DegenerateInput(CurveBoundsError):
    """Curve data outside the domain of the requested default (e.g. d <= 1)."""


# --- theorem evaluation -------------------------------------------------

class NonpositiveEta(CurveBoundsError):
    """Gonality bound, constraint system or sweep requested at eta <= 0."""


class NonpositiveGamma(CurveBoundsError):
    """Restriction threshold evaluated at gamma <= 0."""


class NoEvidence(CurveBoundsError):
    """No qualifying surface: the stability constant is positive but
    unquantified, so no effective lower bound can be reported."""


class NullCorrelationExcluded(CurveBoundsError):
    """The Barth-based surface check requires c2 != 1."""


# --- replay -------------------------------------------------------------

class LambdaNegative(CurveBoundsError):
    """lambda_eta < 0: the quadratic-form step behind the constraint
    system does not apply, so no system is built."""


class UnboundedBox(CurveBoundsError):
    """eta^2 * d >= 1: the derived enclosing box is unbounded, so
    exhaustive search is impossible."""


class WorkTooLarge(CurveBoundsError):
    """An enumeration (a replay box, a sweep, or the slope-identity scan)
    whose work, counted in replay points, is above the cap
    ``blowup.MAX_POINTS``; refused before its first point is visited."""


# --- descriptors ----------------------------------------------------------

class ParseError(CurveBoundsError):
    """Malformed descriptor document; the message carries a location."""


class TooManyDigits(CurveBoundsError, ValueError):
    """A number with more digits than ``scalar.MAX_DIGITS``, refused
    where it enters (a descriptor, an option) before it is converted,
    so that every value derived from it prints; or a bound's inputs
    whose delta would be too wide to print, refused by the kernel."""


class InvariantViolation(CurveBoundsError):
    """Descriptor parsed but violates a structural invariant."""
