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
    delta_eta_compact,
    delta_eta_segre,
    discriminant_dot_heta,
    genus_consistency,
    h_eta,
    halphen_f,
    lambda_eta,
    slope_identity_scan,
    top_product,
    triple_product,
)
from .bounds import (
    BoundReport,
    CertificationResult,
    Discrepancy,
    GeneralRGonalityReport,
    StabilityConstant,
    barth_check,
    c2plus2_check,
    certify_restriction_stable,
    ci_curve_check,
    gamma_lower,
    gonality_bound,
    gonality_bound_general_r,
    linked_line_claim_gap,
    pencil_degree_bound_subvariety,
    restriction_threshold,
    surface_restriction_checks,
    trivial_lemma_check,
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
    UnboundedBox,
    UnsupportedDimension,
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
    Rational,
    ceil_quad,
    decimal_str,
    format_rational,
    parse_rational,
    quad_cmp,
    quad_from_json,
    quad_min,
    quad_to_json,
    sqrt_rational,
)
from .seshadri import (
    Evidence,
    EvidenceBound,
    SeshadriInterval,
    assert_exact,
    bound_from_evidence,
    bundle_seshadri,
    castelnuovo_default,
    combine,
    complete_intersection,
    degree_default,
    global_generation,
    linked_line,
    normal_bundle_s,
    regularity,
    residual_reduced,
    secant_line,
)

__version__ = "0.1.0"
