"""Khovanov homology, the Bockstein Sq¹, and refined s-invariants."""

from .bockstein import sq1, sq1_table
from .cube import HomologyTable, build_complex, khovanov_homology
from .jones import determinant, jones_polynomial
from .links import (
    OrientedLinkDiagram,
    PDError,
    TorusLinkSpec,
    empty_link,
    hopf_link,
    parse_pd,
    serialize_pd,
    torus_link,
    trefoil,
    unknot,
)
from .refined_s import (
    SQ1,
    ZERO,
    FullnessCertificate,
    RefinedSResult,
    ThetaOperation,
    adjunction_bound,
    disjoint_union_check,
    refined_invariants,
    s_classical,
    validate_certificate,
)
from .tables import BUILTIN_NAMES, builtin_diagram, knot_9_42

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "FullnessCertificate",
    "HomologyTable",
    "OrientedLinkDiagram",
    "PDError",
    "RefinedSResult",
    "SQ1",
    "ThetaOperation",
    "TorusLinkSpec",
    "ZERO",
    "adjunction_bound",
    "build_complex",
    "builtin_diagram",
    "determinant",
    "disjoint_union_check",
    "empty_link",
    "hopf_link",
    "jones_polynomial",
    "khovanov_homology",
    "knot_9_42",
    "parse_pd",
    "refined_invariants",
    "s_classical",
    "serialize_pd",
    "sq1",
    "sq1_table",
    "torus_link",
    "trefoil",
    "unknot",
    "validate_certificate",
]
