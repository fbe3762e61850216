"""Exact invariants, certified Seshadri intervals, gonality bounds and
restriction-stability thresholds for smooth space curves, plus a
brute-force replay of the underlying constraint systems.

All arithmetic is exact: rationals via fractions.Fraction, quadratic
irrationals via QuadNumber, comparisons by sign analysis — floats are
rejected at the boundary.
"""

from .blowup import (
    ChernData,
    CurveGeometry,
    DivisorClass,
    E,
    H,
    bogomolov_unstable,
    chern_of_kernel,
    delta_eta,
    discriminant_dot_heta,
    genus_consistency,
    h_eta,
    lambda_eta,
    slope_identity_scan,
    top_product,
)
from .bounds import (
    BoundReport,
    CertificationResult,
    Discrepancy,
    StabilityConstant,
    barth_check,
    c2plus2_check,
    certify_restriction_stable,
    ci_curve_check,
    gamma_lower,
    gonality_bound,
    linked_line_claim_gap,
    restriction_threshold,
    surface_restriction_checks,
)
from .catalog import (
    CurveDescriptor,
    descriptor_from_dict,
    evidence_from_json,
    evidence_to_json,
    load_descriptor,
    serialize_descriptor,
    standard_catalog,
)
from .errors import (
    ArityMismatch,
    CurveBoundsError,
    DegenerateInput,
    EvidenceInconsistentWithDegree,
    IncompatibleRadicand,
    InconsistentEvidence,
    InvariantViolation,
    LambdaNegative,
    NegativeRadicand,
    NoEvidence,
    NonpositiveEpsilon,
    NonpositiveEta,
    NonpositiveGamma,
    NullCorrelationExcluded,
    ParseError,
    RadicandTooLarge,
    TooManyDigits,
    UnboundedBox,
    WorkTooLarge,
)
from .replay import (
    Box,
    ConstraintSystem,
    GonalityMode,
    ReplayOutcome,
    RestrictionMode,
    SweepResult,
    build_system,
    region_empty,
    sweep,
)
from .scalar import (
    QuadNumber,
    decimal_str,
    format_rational,
    parse_rational,
    quad_from_json,
    quad_to_json,
)
from .seshadri import (
    Evidence,
    EvidenceBound,
    SeshadriInterval,
    bound_from_evidence,
    castelnuovo_default,
    combine,
    make_evidence,
)

__version__ = "0.1.0"
