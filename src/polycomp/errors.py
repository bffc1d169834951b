"""Exception types shared across the package."""


class PolycompError(Exception):
    """Base class for all library errors."""


class NotSimple(PolycompError):
    """Some vertex does not lie in exactly d facets."""


class InconsistentLattice(PolycompError):
    """Vertex-facet incidence data does not describe a polytope face lattice."""


class DegenerateSpan(PolycompError):
    """Affine span of the vertex coordinates is below the polytope dimension."""


class DuplicateVertex(PolycompError):
    """Two vertex points coincide within tolerance."""


class PolytopeMismatch(PolycompError):
    """The two shapes do not realize the same combinatorial polytope."""


class DegenerateSimplex(PolycompError):
    """A subdivision simplex is affinely degenerate."""


class SingularSimplex(PolycompError):
    """A simplex vertex matrix is numerically singular; ``index`` is its place in a stack."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class PointOutside(PolycompError):
    """Query point lies outside every simplex of the map's domain."""


class NotPSD(PolycompError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class NotContraction(PolycompError):
    """Operator norm exceeds one; the map is not a weak compression."""


class NotTree(PolycompError):
    """The triangulation's face-pairing graph is not a tree."""


class InfeasibleApex(PolycompError):
    """Apex placement system is inconsistent or has negative residual budget."""


class MalformedInput(PolycompError):
    """An input file does not match its documented schema."""
