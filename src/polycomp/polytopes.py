"""Combinatorial polytopes, convex realizations, and vertex triangulations.

A combinatorial polytope is stored as its vertex-facet incidence; the face
lattice is recovered as the intersection closure of the facet vertex sets.
Only simple polytopes are supported, so a face of codimension k is the
intersection of exactly k facets and its dimension can be read off the
incidence counts.  Realizations ("shapes") are coordinate matrices validated
either strictly (every combinatorial vertex an extreme point, facet
hyperplanes strictly supporting) or weakly (non-extreme vertices allowed,
adjacent facets may flatten to a common hyperplane).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateSpan,
    DuplicateVertex,
    InconsistentLattice,
    NotSimple,
)

# Dimensionless: lengths are divided by the shape's radius (see validate_shape).
COORD_TOL = 1e-9
# The strictness band around 1 of spectral's verdicts, kept here so that the CLI's
# parser reads it without importing spectral.
DEFAULT_TOL = 1e-9
FLAT_ANGLE_TOL = 1e-7
_FLAT_COS = math.cos(FLAT_ANGLE_TOL)


@dataclass(frozen=True)
class CombinatorialPolytope:
    """Vertex-indexed face lattice of a simple polytope.

    ``faces`` lists every nonempty face (the body included) as a sorted
    vertex tuple, ordered lexicographically; ``face_dims[i]`` is the
    dimension of ``faces[i]``.  The empty face is implicit.
    """

    dimension: int
    vertex_count: int
    facets: tuple[tuple[int, ...], ...]
    # Derived from the facets, so left out of equality and hashing: an
    # lru_cache keyed by a polytope hashes only its defining fields.
    faces: tuple[tuple[int, ...], ...] = field(compare=False)
    face_dims: tuple[int, ...] = field(compare=False)

    def faces_of_dim(self, k: int) -> list[tuple[int, ...]]:
        return [f for f, dk in zip(self.faces, self.face_dims) if dk == k]

    @property
    def is_simplex(self) -> bool:
        return self.vertex_count == self.dimension + 1

    @cached_property
    def facet_arrays(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """Read-only arrays for batched facet work: the (F, n) facet-vertex
        incidence mask, ``(rows, vertices)`` groups of the facets with equal
        vertex counts (facet indices ``(m,)`` and their vertices ``(m, size)``)
        and the ``(P, 2)`` facet pairs sharing a ridge: those sharing a vertex v,
        as a third facet G at v through their meet would hold the edge that the
        other d - 1 facets at v cut out, which ``build_polytope`` checks they alone hold."""
        on_facet = np.array([[v in f for v in range(self.vertex_count)] for f in self.facets])
        sizes = on_facet.sum(axis=1)
        # sorted(set()), not np.unique, which imports numpy.ma: slow in a cold CLI call
        rows = [np.flatnonzero(sizes == s) for s in sorted(set(sizes.tolist()))]
        groups = tuple((r, np.array([self.facets[i] for i in r])) for r in rows)
        ridge_pairs = np.argwhere(np.triu(on_facet @ on_facet.T, 1))
        for a in (on_facet, ridge_pairs, *(a for g in groups for a in g)):
            a.setflags(write=False)
        return on_facet, groups, ridge_pairs

    @cached_property
    def edge_array(self) -> np.ndarray:
        """Read-only (E, 2) end vertices of the 1-faces, in face order (a 1-face
        of a polytope has exactly two vertices)."""
        edges = np.array([(f[0], f[-1]) for f in self.faces_of_dim(1)], dtype=np.intp)
        edges.setflags(write=False)
        return edges

    @cached_property
    def vertex_neighbors(self) -> np.ndarray:
        """Read-only (n, d) edge neighbours of each vertex, ascending (a vertex of
        a simple polytope lies on d edges; build_polytope checks it)."""
        ends = np.concatenate([self.edge_array, self.edge_array[:, ::-1]])
        neighbors = ends[np.lexsort(ends.T[::-1]), 1].reshape(self.vertex_count, self.dimension)
        neighbors.setflags(write=False)
        return neighbors


def _intersection_closure(facet_sets: list[frozenset], body: frozenset) -> set[frozenset]:
    faces = {body} | set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        frontier = {f & g for f in frontier for g in faces} - faces - {frozenset()}
        faces |= frontier
    return faces


def build_polytope(d: int, n: int, facets) -> CombinatorialPolytope:
    """Build a simple combinatorial polytope from vertex-facet incidence.

    The face lattice is the intersection closure of the facet vertex sets;
    face dimension is ``d`` minus the number of facets containing the face.
    Raises ``NotSimple`` if some vertex is not in exactly ``d`` facets and
    ``InconsistentLattice`` if the incidence data admits no lattice.  The
    result is frozen, so it is cached and shared: equal facets (lists, tuples
    or numpy rows) give one polytope.  Errors are not cached.
    """
    return _build_polytope(d, n, tuple(tuple(map(operator.index, f)) for f in facets))


@lru_cache(maxsize=32)
def _build_polytope(d: int, n: int, facets: tuple) -> CombinatorialPolytope:
    if d < 1:
        raise ValueError("dimension must be positive")
    if n < d + 1:
        raise ValueError("a d-polytope needs at least d+1 vertices")
    facet_sets = [frozenset(f) for f in facets]
    if any(not f for f in facet_sets):
        raise ValueError("facets must be nonempty")
    if any(v < 0 or v >= n for f in facet_sets for v in f):
        raise ValueError("facet vertex index out of range")
    if len(set(facet_sets)) != len(facet_sets):
        raise InconsistentLattice("facets are not distinct")
    if len(facet_sets) < d + 1:
        raise InconsistentLattice("a d-polytope has at least d+1 facets")
    for f in facet_sets:
        if len(f) < d:
            raise InconsistentLattice("facet with fewer than d vertices")
        for g in facet_sets:
            if f is not g and f <= g:
                raise InconsistentLattice("facet contained in another facet")

    incidence = [sum(1 for f in facet_sets if v in f) for v in range(n)]
    if any(c == 0 for c in incidence):
        raise InconsistentLattice("vertex missing from every facet")
    if any(c != d for c in incidence):
        raise NotSimple(
            f"vertices {[v for v in range(n) if incidence[v] != d]} "
            f"do not lie in exactly {d} facets"
        )

    body = frozenset(range(n))
    # In a simple polytope the d facets at a vertex intersect in that vertex alone.
    for v in range(n):
        at_v = frozenset.intersection(*[f for f in facet_sets if v in f])
        if at_v != frozenset([v]):
            raise InconsistentLattice(f"facets at vertex {v} do not isolate it")

    closure = _intersection_closure(facet_sets, body)
    dims = {}
    for face in closure:
        if face == body:
            dims[face] = d
        else:
            dims[face] = d - sum(1 for f in facet_sets if face <= f)
    for face, k in dims.items():
        if len(face) < k + 1:
            raise InconsistentLattice("face with too few vertices for its dimension")
        if k == 1 and len(face) != 2:
            raise InconsistentLattice(f"1-face {tuple(sorted(face))} has more than two vertices")
    # The edges at v are the meets of d - 1 of its d facets, so at most d: all are there
    # iff the n d edge ends are.
    if 2 * sum(k == 1 for k in dims.values()) != n * d:
        raise InconsistentLattice("some vertex lies on fewer than d edges")

    ordered = sorted(tuple(sorted(face)) for face in closure)
    face_dims = tuple(dims[frozenset(face)] for face in ordered)
    return CombinatorialPolytope(
        dimension=d,
        vertex_count=n,
        facets=tuple(sorted(tuple(sorted(f)) for f in facet_sets)),
        faces=tuple(ordered),
        face_dims=face_dims,
    )


def simplex_polytope(d: int) -> CombinatorialPolytope:
    """Canonical labeled d-simplex: facets are all d-subsets of the vertices."""
    verts = range(d + 1)
    facets = [[v for v in verts if v != i] for i in verts]
    return build_polytope(d, d + 1, facets)


def ngon_polytope(n: int) -> CombinatorialPolytope:
    """Cyclic n-gon with edges {i, i+1 mod n}."""
    return build_polytope(2, n, [[i, (i + 1) % n] for i in range(n)])


def _checked_coords(polytope: CombinatorialPolytope, coords: np.ndarray, mode: str):
    """The largest absolute entry of ``coords``, after the checks every shape passes, in
    this order: one row of ``dimension`` entries per vertex, a known mode, finite entries."""
    if coords.shape != (polytope.vertex_count, polytope.dimension):
        raise ValueError(
            f"coords must be {polytope.vertex_count} x {polytope.dimension}, got {coords.shape}"
        )
    if mode not in ("strict", "weak"):
        raise ValueError("mode must be 'strict' or 'weak'")
    size = np.abs(coords).max()
    if not size < math.inf:  # a NaN entry makes the maximum NaN
        raise ValueError("coords must be finite")
    return size


def split_scale(coords: np.ndarray, size=None) -> tuple[np.ndarray, int]:
    """The mantissas coords / 2^k, whose largest |entry| (``size``, if given) is in [1/2, 1),
    and the ``frexp`` exponent k (0 for all zeros or none): exact unless an entry is about
    2^1022 below the largest, so a result computed on them scales back bit for bit."""
    k = math.frexp(np.abs(coords).max(initial=0.0) if size is None else size)[1]
    return np.ldexp(coords, -k), k


@dataclass(frozen=True, eq=False)
class Shape:
    """Coordinates of a realization of a combinatorial polytope in R^d; compares by identity.

    ``coords`` are kept as given, ``mantissas`` are coords / 2^``exponent`` (``split_scale``),
    both read-only.  Every solve reads the mantissas, where no sum or square over- or
    underflows, and brings its result to the given units by one exact power of two: a map
    P -> Q's linear part by 2^(k_Q - k_P), its alphas by the square, the metric by none."""

    polytope: CombinatorialPolytope
    coords: np.ndarray
    mode: str = "strict"
    mantissas: np.ndarray = field(init=False, repr=False)
    exponent: int = field(init=False, repr=False)

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        mantissas, exponent = split_scale(coords, _checked_coords(self.polytope, coords, self.mode))
        for a in (coords, mantissas):
            a.setflags(write=False)
        self.__dict__.update(coords=coords, mantissas=mantissas, exponent=exponent)  # past frozen

    def scaled(self, factor: float) -> "Shape":
        return Shape(self.polytope, self.coords * factor, self.mode)

    def transformed(self, rotation=None, translation=None) -> "Shape":
        c = self.coords
        if rotation is not None:
            c = c @ np.asarray(rotation, float).T
        if translation is not None:
            c = c + np.asarray(translation, float)
        return Shape(self.polytope, c, self.mode)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    verdict: str  # "strictly-convex" | "weakly-convex" | "invalid"
    facets: tuple[tuple[int, ...], ...]
    residuals: np.ndarray  # read-only, entry i on facets[i]; inf: deficient affine span
    margins: np.ndarray  # read-only, entry i on facets[i]
    vertex_extreme: tuple[bool, ...]
    flat_facet_pairs: tuple[tuple[int, int], ...]
    messages: tuple[str, ...] = ()

    @property
    def is_strict(self) -> bool:
        return self.verdict == "strictly-convex"

    @property
    def is_weak(self) -> bool:
        return self.verdict in ("strictly-convex", "weakly-convex")

    def passes(self, mode: str) -> bool:
        """Does the shape pass validation in ``mode`` ("strict" or "weak")?"""
        return self.is_strict if mode == "strict" else self.is_weak

    def to_dict(self) -> dict:
        """The report as a JSON payload, one entry per facet; an infinite residual is null."""
        return {
            "verdict": self.verdict,
            "facets": [
                {"facet": f, "margin": m, "residual": None if r == np.inf else r}
                for f, r, m in zip(self.facets, self.residuals, self.margins)
            ],
            "vertex_extreme": self.vertex_extreme,
            "flat_facet_pairs": self.flat_facet_pairs,
            "messages": self.messages,
        }


def _certified_extreme(centered: np.ndarray, vertex_normals: np.ndarray,
                       tol: float) -> np.ndarray:
    """Vertices proven extreme by a Farkas certificate, all at once.

    With ``u`` the normals summed at v and ``top`` the largest ``u . c_w``
    over w != v, ``(u, -top)`` is nonpositive on every other ``[c_w, 1]``, so
    ``[c_v, 1]`` lies at least ``(u . c_v - top) / |(u, -top)|`` from their cone.
    """
    proj = vertex_normals @ centered.T
    diagonal = proj.flat[::len(proj) + 1]  # a copy
    proj.flat[::len(proj) + 1] = -np.inf
    top = proj.max(axis=1)
    return diagonal - top > tol * np.sqrt(np.vecdot(vertex_normals, vertex_normals) + top * top)


def _certified_nonextreme(lifted: np.ndarray, gram: np.ndarray, vertices: np.ndarray,
                          neighbors: np.ndarray) -> np.ndarray:
    """Vertices proven non-extreme, all at once: ``lifted[vertices[i]]`` is within
    ``COORD_TOL`` of a nonnegative combination of the rows ``neighbors[i]``, its
    projection onto their span.  Raises ``LinAlgError`` if those rows are dependent."""
    w = np.linalg.solve(gram[neighbors[:, :, None], neighbors[:, None]],
                        gram[neighbors, vertices[:, None], None])[..., 0]
    gap = lifted[vertices] - (w[:, None] @ lifted[neighbors])[:, 0]
    return (w.min(axis=1) >= 0) & (np.sqrt(np.vecdot(gap, gap)) <= COORD_TOL)


def _cone_residual(lifted: np.ndarray, gram: np.ndarray, v: int, start=()) -> float:
    """Distance from ``lifted[v]`` to the cone of the other rows: Lawson-Hanson
    NNLS, passive sets solved through the Gram matrix, starting from the rows
    ``start`` if their solve is positive and from none otherwise.  The iterate
    stays nonnegative, so the residual is an upper bound even if the loop ends early."""
    n = len(lifted)
    gv, lam, passive = gram[v], np.zeros(n), list(start)
    grad_tol = 1e-12 * n * gram.diagonal().max()
    try:
        for _ in range(3 * n):
            while passive:  # solve the passive set; step back while a weight is not positive
                idx = np.array(passive, dtype=np.intp)
                s = np.linalg.solve(gram[idx[:, None], idx], gv[idx])
                if s.min() > 0:
                    lam[idx] = s
                    break
                # Step toward s until the first coordinate hits zero; free it.
                cur, neg = lam[idx], np.flatnonzero(s <= 0)
                ratios = cur[neg] / (cur[neg] - s[neg])
                k = int(np.argmin(ratios))
                step = cur + ratios[k] * (s - cur)
                step[neg[k]] = 0.0
                lam[idx] = np.maximum(step, 0.0)
                passive = idx[step > 0].tolist()
            grad = gv - lam @ gram  # lifted @ (lifted[v] - lam @ lifted)
            grad[passive + [v]] = -np.inf
            j = grad.argmax()
            if grad[j] <= grad_tol:
                break
            passive.append(j)
    except np.linalg.LinAlgError:
        pass
    return float(np.linalg.norm(lifted[v] - lam @ lifted))


def _raise_on_duplicate(unit: np.ndarray) -> None:
    """Raise ``DuplicateVertex`` naming the closest two rows of ``unit`` if they lie
    within ``COORD_TOL`` of each other."""
    n = len(unit)
    unit_t = unit.T.copy()  # the n^2 steps run on n-long rows, not on d-long ones
    diff = unit_t[:, :, None] - unit_t[:, None]
    diff *= diff
    sq = np.add.reduce(diff, 0)  # sqrt is monotone: the least square has the least root
    sq.flat[::n + 1] = np.inf
    i, j = divmod(int(sq.argmin()), n)
    if math.sqrt(sq[i, j]) <= COORD_TOL:
        raise DuplicateVertex(f"vertices {min(i, j)} and {max(i, j)} coincide")


def _raise_on_low_rank(unit: np.ndarray, d: int) -> None:
    """Raise ``DegenerateSpan`` if the d-th singular value of ``unit`` is at most ``COORD_TOL``."""
    if np.linalg.svd(unit, compute_uv=False)[d - 1] <= COORD_TOL:
        raise DegenerateSpan("affine span of the vertices is below d")


def _flat_pairs(normals: np.ndarray, ridge_pairs: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The ridge pairs whose normals' angle (pi minus the dihedral) is at most
    ``FLAT_ANGLE_TOL``."""
    i, j = ridge_pairs.T
    flat = np.vecdot(normals[i], normals[j]) >= _FLAT_COS
    return tuple(map(tuple, ridge_pairs[flat].tolist()))


def validate_shape(polytope: CombinatorialPolytope, coords,
                   mode: str = "strict") -> ValidationReport:
    """Check whether coordinates realize the polytope strictly or weakly.

    Per facet the report carries the supporting-hyperplane fit residual and
    the side-consistency margin (minimum signed distance of the non-facet
    vertices, positive inward).  Raises ``DegenerateSpan`` if the affine
    span of the vertices is below d and ``DuplicateVertex`` if two vertex
    points coincide within tolerance.  Each test compares a length over the
    radius r, the largest absolute centred coordinate, with ``COORD_TOL``, all on the
    coordinates' ``split_scale`` mantissas; residuals and margins are brought back by 2^k.

    On a valid shape the least margin m settles three tests, with
    tol = ``COORD_TOL`` r, since the d facets at a vertex meet only there:
    if m > 3 tol, no two vertices lie within tol (one of them would leave a
    facet at the other with a margin of at most 2 tol), so the n^2 duplicate
    test is skipped; if m > 2 (2d - 1 + d sqrt(d + 1)) tol, the summed-normal
    Farkas certificate holds at every vertex, so every vertex is extreme; if
    m > 2 (3 tol + 4 sqrt(d) ``FLAT_ANGLE_TOL`` r), no ridge pair is flat.
    For d = 2 the Farkas bound also settles the rank test: every edge line has
    the other vertices at least m inside, so the cycle is its convex hull, whose
    width, attained across an edge, is at least m; so the centred coordinates'
    sigma_2 is at least m / sqrt 2 > tol.  (For d >= 3 a bound would need the
    conditioning of the normals at a vertex, not m alone.)  Every other shape
    takes each test.
    """
    coords = np.asarray(coords, dtype=float)  # read, not written
    coords, exponent = split_scale(coords, _checked_coords(polytope, coords, mode))
    d = polytope.dimension
    n = polytope.vertex_count
    centered = coords - np.add.reduce(coords, 0) / n  # coords.mean(axis=0), one call
    r = np.abs(centered).max()
    unit = centered / (r or 1.0)  # radius 1: nothing below over- or underflows
    tol = COORD_TOL * r  # the same test on lengths in the input's units

    # Fit every facet hyperplane: one SVD per group of facets of equal size (d > 2).
    on_facet, groups, ridge_pairs = polytope.facet_arrays
    centroids = np.empty((len(on_facet), d))
    normals = np.ones((len(on_facet), d))
    deficient = np.zeros(len(on_facet), dtype=bool)
    for rows, idx in groups:
        points = coords[idx]
        c = centroids[rows] = np.add.reduce(points, 1) / idx.shape[1]
        if d == 2:  # an edge e: the unit perpendicular, and the SVD's sigma_0 = |e| / sqrt 2
            e = points[:, 1] - points[:, 0]
            length = np.hypot(e[:, 0], e[:, 1])
            deficient[rows] = length / math.sqrt(2.0) <= tol
            length += length == 0  # a zero edge gets the normal 0 / 1: the duplicate test raises
            normals[rows] = e[:, ::-1] * [-1.0, 1.0] / length[:, None]
        elif d > 1:
            _, sv, vh = np.linalg.svd(points - c[:, None], full_matrices=True)
            normals[rows] = vh[:, -1]
            if idx.shape[1] >= d:
                deficient[rows] = sv[:, d - 2] <= tol

    # Signed distances of every vertex from every facet hyperplane, (F, n), with the
    # differences made one coordinate (n-long loops) at a time; orient each normal
    # outward, with the non-facet vertices on the negative side.
    offsets = np.empty((len(on_facet), n, d))
    for k in range(d):
        np.subtract(coords[:, k], centroids[:, k, None], out=offsets[..., k])
    signed = (offsets @ normals[:, :, None])[..., 0]
    inward = (np.add.reduce(np.where(on_facet, 0.0, signed), 1) > 0)[:, None]
    np.negative(normals, out=normals, where=inward)
    np.negative(signed, out=signed, where=inward)
    margins = -np.where(on_facet, -np.inf, signed).max(axis=1)
    residuals = (np.abs(signed) * on_facet).max(axis=1)  # 0 if d = 1: a facet is its centroid
    residuals[deficient] = np.inf
    least = margins.min()
    valid = residuals.max() <= tol and least >= -tol

    wide = valid and least > 2 * (2 * d - 1 + d * math.sqrt(d + 1)) * tol  # the Farkas bound
    if not (valid and least > 3 * tol):  # the least margin's bounds: see the docstring
        _raise_on_duplicate(unit)
    if not (d == 2 and wide):
        _raise_on_low_rank(unit, d)

    messages = []
    bad = () if valid else np.flatnonzero((residuals > tol) | (margins < -tol))
    for k in bad:
        facet = polytope.facets[k]
        if deficient[k]:
            messages.append(f"facet {facet} has deficient affine span")
        elif residuals[k] > tol:
            messages.append(f"facet {facet} vertices are not coplanar")
        if margins[k] < -tol:
            messages.append(f"vertices on both sides of facet {facet}")

    # Extreme iff [u_v, 1] is farther than COORD_TOL from the cone of the other
    # lifted unit-radius points.  The Farkas certificate proves most vertices
    # extreme; a nonnegative combination of the edge neighbours' lifted points
    # within COORD_TOL of [u_v, 1] proves v is not; NNLS settles the rest.
    if wide:
        vertex_extreme = (True,) * n
    else:
        extreme = _certified_extreme(unit, on_facet.T @ normals, COORD_TOL)
        if not extreme.all():
            lifted = np.hstack([unit, np.ones((n, 1))])
            gram = lifted @ lifted.T
            open_ = np.flatnonzero(~extreme)
            nbrs = polytope.vertex_neighbors[open_]
            try:
                settled = _certified_nonextreme(lifted, gram, open_, nbrs)
            except np.linalg.LinAlgError:  # affinely dependent neighbours: NNLS alone decides
                settled, nbrs = np.zeros(len(open_), dtype=bool), nbrs[:, :0]
            for v, start in zip(open_[~settled], nbrs[~settled].tolist()):  # warm from nbrs
                extreme[v] = _cone_residual(lifted, gram, v, start) > COORD_TOL
        vertex_extreme = tuple(extreme.tolist())

    flat_pairs = ()
    if valid and d >= 2 and not least > 2 * (3 * tol + 4 * math.sqrt(d) * FLAT_ANGLE_TOL * r):
        flat_pairs = _flat_pairs(normals, ridge_pairs)

    if not valid:
        verdict = "invalid"
    elif least > tol and all(vertex_extreme):
        verdict = "strictly-convex"
    else:
        verdict = "weakly-convex"

    if verdict == "weakly-convex" and mode == "strict":
        messages.append("shape is only weakly convex")

    for a in (residuals, margins):
        np.ldexp(a, exponent, out=a)  # in the given units
        a.setflags(write=False)
    return ValidationReport(
        verdict=verdict,
        facets=polytope.facets,
        residuals=residuals,
        margins=margins,
        vertex_extreme=vertex_extreme,
        flat_facet_pairs=flat_pairs,
        messages=tuple(messages),
    )


@dataclass(frozen=True)
class Triangulation:
    """Vertex triangulation of a polytope with its face-pairing graph.

    Nodes of the pairing graph are simplices; an edge joins two simplices
    sharing d of their d+1 vertices.
    """

    polytope: CombinatorialPolytope
    simplices: tuple[tuple[int, ...], ...]
    # Derived from the simplices, so left out of equality and hashing.
    pairing_edges: tuple[tuple[int, int], ...] = field(compare=False)
    is_tree: bool = field(compare=False)


def facet_adjacency(cells) -> tuple[tuple[int, int], ...]:
    """Sorted pairs (i, j), i < j, of cells that agree in all entries but one.

    Each cell (a sequence in a canonical entry order) is keyed on itself minus
    one entry and joined to every earlier cell with that key.
    """
    earlier, edges = {}, []
    for j, cell in enumerate(map(tuple, cells)):
        for k in range(len(cell)):
            group = earlier.setdefault(cell[:k] + cell[k + 1:], [])
            edges.extend((i, j) for i in group)
            group.append(j)
    return tuple(sorted(edges))


def bfs_order(t: int, edges) -> list[tuple[int, int | None]]:
    """Breadth-first (node, parent) pairs from node 0, children in index order."""
    adjacency = {i: [] for i in range(t)}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    order = [(0, None)] if t else []
    seen = {0}
    for u, _ in order:  # the list grows while it is read: a FIFO queue
        for v in sorted(adjacency[u]):
            if v not in seen:
                seen.add(v)
                order.append((v, u))
    return order


def is_tree(t: int, edges) -> bool:
    """Is the graph on nodes 0..t-1 a tree, i.e. connected with t - 1 edges?"""
    return len(edges) == t - 1 and len(bfs_order(t, edges)) == t


def triangulation(polytope: CombinatorialPolytope, simplices) -> Triangulation:
    """Structural checks for a triangulation on the polytope's own vertices."""
    d = polytope.dimension
    n = polytope.vertex_count
    simps = []
    for s in simplices:
        tup = tuple(sorted(s))
        if len(set(tup)) != d + 1:
            raise InconsistentLattice(f"simplex {s} must have d+1 distinct vertices")
        if any(v < 0 or v >= n for v in tup):
            raise InconsistentLattice(f"simplex {s} has out-of-range vertices")
        simps.append(tup)
    if len(set(simps)) != len(simps):
        raise InconsistentLattice("duplicate simplices")
    covered = set()
    for s in simps:
        covered.update(s)
    if covered != set(range(n)):
        raise InconsistentLattice("simplices do not cover all vertices")
    if d == 2 and len(simps) != n - 2:
        raise InconsistentLattice(
            f"a triangulated n-gon has n-2 triangles, got {len(simps)}"
        )
    simps = tuple(sorted(simps))
    edges = facet_adjacency(simps)
    return Triangulation(polytope, simps, edges, is_tree(len(simps), edges))


def _polygon_cycle(polytope: CombinatorialPolytope, start: int) -> list[int]:
    neighbors = polytope.vertex_neighbors.tolist()
    cycle = [start, neighbors[start][0]]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = [v for v in neighbors[cur] if v != prev]
        if nxt[0] == start:
            break
        cycle.append(nxt[0])
    if len(cycle) != polytope.vertex_count:
        raise ValueError("facets do not form a single cycle")
    return cycle


def fan_triangulation(polytope: CombinatorialPolytope, apex: int) -> Triangulation:
    """Fan a convex n-gon from one vertex: n-2 triangles, pairing graph a path.

    The result is frozen, so it is cached and shared per (polytope, apex), as
    ``build_polytope``'s lattices are.  Errors are not cached.
    """
    return _fan_triangulation(polytope, operator.index(apex))


@lru_cache(maxsize=32)
def _fan_triangulation(polytope: CombinatorialPolytope, apex: int) -> Triangulation:
    if polytope.dimension != 2:
        raise ValueError("fan triangulation is defined for n-gons")
    if not 0 <= apex < polytope.vertex_count:
        raise ValueError(f"fan apex must be a vertex in [0, {polytope.vertex_count})")
    cycle = _polygon_cycle(polytope, apex)
    simps = [(apex, cycle[i], cycle[i + 1]) for i in range(1, len(cycle) - 1)]
    return triangulation(polytope, simps)

