"""Exception types shared across the package, each with its CLI ``exit_code``:
1 validation failure (the default), 2 numerical failure, 3 malformed input."""


class PolycompError(Exception):
    """Base class for all library errors."""

    exit_code = 1


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

    exit_code = 2


class SingularSimplex(PolycompError):
    """A simplex vertex matrix is numerically singular; ``index`` is its place in a stack."""

    exit_code = 2

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class PointOutside(PolycompError):
    """Query point lies outside every simplex of the map's domain."""


class NotPSD(PolycompError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""

    exit_code = 2


class NotContraction(PolycompError):
    """Operator norm exceeds one; the map is not a weak compression."""

    exit_code = 2


class NotTree(PolycompError):
    """The triangulation's face-pairing graph is not a tree."""


class InfeasibleApex(PolycompError):
    """Apex placement system is inconsistent or has negative residual budget."""

    exit_code = 2


class NonFiniteResult(PolycompError):
    """A result over- or underflowed to NaN, an infinity or a zero that has no meaning."""

    exit_code = 2


class MalformedInput(PolycompError):
    """An input file does not match its documented schema."""

    exit_code = 3
