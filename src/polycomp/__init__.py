"""Compression analysis for convex realizations of combinatorial polytopes.

Decides whether the induced piecewise-linear map between two convex
realizations of a combinatorial polytope is a compression or a weak
compression, computes the compression metric on projective shape space,
and constructs orthogonal-projection and pleated-embedding representations
of such maps.

Each public name is imported from its module on first access (PEP 562), so
``import polycomp`` loads no submodule and a CLI call only the modules it runs.
"""

import importlib

_EXPORTS = {
    "affine": ("AffineCorrespondence", "affine_correspondence"),
    "barycentric": ("BarycentricComplex", "InducedMap", "barycentre", "barycentric_complex",
                    "evaluate_map", "induced_map", "triangulation_map"),
    "errors": ("DegenerateSimplex", "DegenerateSpan", "DuplicateVertex", "InconsistentLattice",
               "InfeasibleApex", "MalformedInput", "NonFiniteResult", "NotContraction", "NotPSD",
               "NotSimple", "NotTree", "PointOutside", "PolycompError", "PolytopeMismatch",
               "SingularSimplex"),
    "lifting": ("OrthogonalCompletion", "PleatedEmbedding", "lift_simplex",
                "orthogonal_completion", "pleat_validity", "pleated_embedding",
                "pleated_projection_chain", "projection_chain", "symmetric_sqrt"),
    "metric": ("SequenceReport", "delta_polytope", "per_chain_deltas", "sequence_report"),
    "polytopes": ("CombinatorialPolytope", "Shape", "Triangulation", "ValidationReport",
                  "build_polytope", "fan_triangulation", "ngon_polytope", "simplex_polytope",
                  "triangulation", "validate_shape"),
    "spectral": ("COMPRESSION", "NOT_WEAK_COMPRESSION", "WEAK_COMPRESSION", "Classification",
                 "CriticalRescale", "ExtremalPair", "OrderResult", "Perturbation", "PointOnShape",
                 "SpectralSummary", "classify", "compare_order", "distance_derivative",
                 "edge_contraction_check", "extremal_pair", "perturbation_classify",
                 "scale_critical", "spectral_summary"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, or one of the seven modules above, imported on first access."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
