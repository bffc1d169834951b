"""Compression analysis for convex realizations of combinatorial polytopes.

Decides whether the induced piecewise-linear map between two convex
realizations of a combinatorial polytope is a compression or a weak
compression, computes the compression metric on projective shape space,
and constructs orthogonal-projection and pleated-embedding representations
of such maps.
"""

from .affine import AffineCorrespondence, affine_correspondence, restricted_singular_values
from .barycentric import (
    BarycentricComplex,
    InducedMap,
    barycentre,
    barycentric_complex,
    evaluate_map,
    induced_map,
    triangulation_map,
)
from .errors import (
    DegenerateSimplex,
    DegenerateSpan,
    DuplicateVertex,
    InconsistentLattice,
    InfeasibleApex,
    MalformedInput,
    NonFiniteResult,
    NotContraction,
    NotPSD,
    NotSimple,
    NotTree,
    PointOutside,
    PolycompError,
    PolytopeMismatch,
    SingularSimplex,
)
from .lifting import (
    OrthogonalCompletion,
    PleatedEmbedding,
    lift_simplex,
    orthogonal_completion,
    pleat_validity,
    pleated_embedding,
    pleated_projection_chain,
    projection_chain,
    symmetric_sqrt,
)
from .metric import (
    SequenceReport,
    delta_polytope,
    per_chain_deltas,
    sequence_report,
)
from .polytopes import (
    CombinatorialPolytope,
    Shape,
    Triangulation,
    ValidationReport,
    build_polytope,
    fan_triangulation,
    ngon_polytope,
    simplex_polytope,
    triangulation,
    validate_shape,
)
from .spectral import (
    COMPRESSION,
    NOT_WEAK_COMPRESSION,
    WEAK_COMPRESSION,
    Classification,
    CriticalRescale,
    ExtremalPair,
    OrderResult,
    Perturbation,
    PointOnShape,
    SpectralSummary,
    classify,
    compare_order,
    distance_derivative,
    edge_contraction_check,
    extremal_pair,
    perturbation_classify,
    scale_critical,
    spectral_summary,
)

__version__ = "0.1.0"
