"""Frobenius pushforwards of line bundles on smooth complete toric varieties:
splitting into line bundles, Ext tables, tilting verdicts, and the structural
identities (projective bundles, blow-ups, jets) that cross-check them.

All arithmetic is exact integer or exact finite-field arithmetic.
"""

from .catalog import CatalogEntry, catalog_entries, catalog_run
from .cech import concentration_check, incidence_cohomology
from .cohomology import (
    CohomologyVector,
    DimensionUnsupported,
    Overflow,
    cohomology,
    cohomology_of_class,
    h0_points,
)
from .ext import (
    ExtReport,
    TiltingVerdict,
    UnknownCollection,
    adjunction_crosscheck,
    ext_table,
    kunneth_ext,
    tilting_verdict,
)
from .fan import (
    BadWall,
    Blowup,
    DivisorClass,
    Fan,
    FanError,
    InvariantViolation,
    NonPrimitiveRay,
    NotComplete,
    NotSmooth,
    ProjBundle,
    blowup_fan,
    build_fan,
    class_of,
    fan_from_json,
    is_ample,
    is_nef,
    parse_divisor,
    product_fan,
    projectivization_fan,
    with_collection,
)
from .frobenius import (
    Decomposition,
    FrobeniusOrder,
    OracleMismatch,
    default_test_divisors,
    det_class,
    frobenius_decompose,
    iterate_check,
    projection_formula_failure,
    verify_projection_formula,
)
from .structure import (
    BlowupReport,
    JetCheckReport,
    MultisetDifferenceNegative,
    blowup_bookkeeping_check,
    corank_oracle,
    delpezzo_jet_check,
    pbundle_check,
    s2d2_identity_check,
)
from .varieties import (
    BUNDLE_SPECS,
    VARIETY_NAMES,
    del_pezzo,
    hirzebruch_one,
    named_variety,
    p1xp1,
    product,
    projective_bundle,
    projective_line,
    projective_plane,
    projective_space,
)

__version__ = "0.1.0"
