"""Flexibility certificates for affine varieties with a weight-semigroup model.

The library decides saturation and unit-freeness of a finitely generated
weight semigroup, attaches a nonnegative integer grading functional to every
face of its weight cone (one certificate per orbit), and verifies the bundled
hypersurface families by exact polynomial identities.
"""

from .lattice import (
    DimensionMismatchError,
    FaceDescriptor,
    LatticeSubgroup,
    NonPointedError,
    RationalCone,
    dual_cone,
    face_lattice,
    group_generated,
    hilbert_basis,
    is_pointed,
)
from .semigroup import (
    FlexStatus,
    FlexibilityVerdict,
    GradingWitness,
    HorosphericalDatum,
    OrbitFace,
    SaturationCheck,
    flexibility_verdict,
    grading_for_face,
    is_saturated,
    orbit_faces,
    saturate,
    semigroup_member,
    units_exist,
)
from .poly import (
    Derivation,
    Polynomial,
    PolynomialSyntaxError,
    compose_substitutions,
    constant,
    divide,
    exp_lnd,
    is_locally_nilpotent_bounded,
    parse_polynomial,
    preserves_hypersurface,
    variable,
)
from .actions import (
    DiagonalTorusAction,
    is_invariant,
    monomial_weight,
    semi_invariant_weight,
)
from .ehm import (
    EHMDatum,
    build_ehm,
    enumerate_invariant_monomials,
    verify_actions_on_hypersurface,
)
from .reporting import (
    CorruptReportError,
    DatumSpec,
    SpecError,
    TOOL_VERSION as __version__,
    parse_spec,
)
from .registry import list_examples, run_example

__all__ = [
    "CorruptReportError",
    "DatumSpec",
    "Derivation",
    "DiagonalTorusAction",
    "DimensionMismatchError",
    "EHMDatum",
    "FaceDescriptor",
    "FlexStatus",
    "FlexibilityVerdict",
    "GradingWitness",
    "HorosphericalDatum",
    "LatticeSubgroup",
    "NonPointedError",
    "OrbitFace",
    "Polynomial",
    "PolynomialSyntaxError",
    "RationalCone",
    "SaturationCheck",
    "SpecError",
    "__version__",
    "build_ehm",
    "compose_substitutions",
    "constant",
    "divide",
    "dual_cone",
    "enumerate_invariant_monomials",
    "exp_lnd",
    "face_lattice",
    "flexibility_verdict",
    "grading_for_face",
    "group_generated",
    "hilbert_basis",
    "is_invariant",
    "is_locally_nilpotent_bounded",
    "is_pointed",
    "is_saturated",
    "list_examples",
    "monomial_weight",
    "orbit_faces",
    "parse_polynomial",
    "parse_spec",
    "preserves_hypersurface",
    "run_example",
    "saturate",
    "semi_invariant_weight",
    "semigroup_member",
    "units_exist",
    "variable",
    "verify_actions_on_hypersurface",
]
