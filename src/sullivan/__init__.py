"""Exact-arithmetic engine for finite simply connected Sullivan minimal
models: cohomology, ellipticity, fundamental classes, and the rational
Toomer invariant by two independent methods (a direct linear-algebra oracle
and a word-length spectral-sequence lifting algorithm)."""

__version__ = "0.1.0"

from .algebra import (
    Algebra,
    Element,
    Generator,
    basis,
    build_algebra,
    format_element,
    parse_element,
)
from .cohomology import (
    EllipticityResult,
    ToomerResult,
    cohomology_basis,
    cohomology_dim,
    formal_dimension,
    is_elliptic,
    require_elliptic,
    toomer_oracle,
    top_class,
)
from .differential import (
    SullivanModel,
    build_differential,
    build_model,
    detect_k,
    is_pure,
    pure_projection,
)
from .errors import (
    EngineError,
    InternalInconsistencyError,
    ModelError,
    ParseError,
    PreconditionError,
)
from .murillo import coefficient_matrix, murillo_fundamental_class
from .spectral import (
    FilteredPair,
    LiftTrace,
    delta_apply,
    delta_cohomology,
    lift_to_d_cocycle,
    pair_product,
    representative_depth,
    spectral_run,
    toomer_spectral,
)

__all__ = [
    "__version__",
    "Algebra",
    "Element",
    "Generator",
    "basis",
    "build_algebra",
    "format_element",
    "parse_element",
    "EllipticityResult",
    "ToomerResult",
    "cohomology_basis",
    "cohomology_dim",
    "formal_dimension",
    "is_elliptic",
    "require_elliptic",
    "toomer_oracle",
    "top_class",
    "SullivanModel",
    "build_differential",
    "build_model",
    "detect_k",
    "is_pure",
    "pure_projection",
    "EngineError",
    "InternalInconsistencyError",
    "ModelError",
    "ParseError",
    "PreconditionError",
    "coefficient_matrix",
    "murillo_fundamental_class",
    "FilteredPair",
    "LiftTrace",
    "delta_apply",
    "delta_cohomology",
    "lift_to_d_cocycle",
    "pair_product",
    "representative_depth",
    "spectral_run",
    "toomer_spectral",
]
