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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    DegenerateSpan,
    DuplicateVertex,
    InconsistentLattice,
    NotSimple,
)

# Geometric tolerances; coordinates are assumed O(1).
COORD_TOL = 1e-9
FLAT_ANGLE_TOL = 1e-7


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
    faces: tuple[tuple[int, ...], ...]
    face_dims: tuple[int, ...]

    def faces_of_dim(self, k: int) -> list[tuple[int, ...]]:
        return [f for f, dk in zip(self.faces, self.face_dims) if dk == k]

    def face_index(self, vertices) -> int:
        return self.faces.index(tuple(sorted(vertices)))

    def face_dim(self, vertices) -> int:
        return self.face_dims[self.face_index(vertices)]

    @property
    def is_simplex(self) -> bool:
        return self.vertex_count == self.dimension + 1

    @property
    def edges(self) -> list[tuple[int, ...]]:
        return self.faces_of_dim(1)

    def facet_pairs_sharing_ridge(self) -> list[tuple[int, int]]:
        """Pairs of facet indices whose intersection is a (d-2)-face."""
        face_set = {f: d for f, d in zip(self.faces, self.face_dims)}
        pairs = []
        for i in range(len(self.facets)):
            for j in range(i + 1, len(self.facets)):
                common = tuple(sorted(set(self.facets[i]) & set(self.facets[j])))
                if common and face_set.get(common) == self.dimension - 2:
                    pairs.append((i, j))
        return pairs


def _intersection_closure(facet_sets: list[frozenset], body: frozenset) -> set[frozenset]:
    faces = {body} | set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in faces:
                h = f & g
                if h and h not in faces and h not in new:
                    new.add(h)
        faces |= new
        frontier = new
    return faces


def build_polytope(d: int, n: int, facets) -> CombinatorialPolytope:
    """Build a simple combinatorial polytope from vertex-facet incidence.

    The face lattice is the intersection closure of the facet vertex sets;
    face dimension is ``d`` minus the number of facets containing the face.
    Raises ``NotSimple`` if some vertex is not in exactly ``d`` facets and
    ``InconsistentLattice`` if the incidence data admits no lattice.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    if n < d + 1:
        raise ValueError("a d-polytope needs at least d+1 vertices")
    facet_sets = [frozenset(f) for f in facets]
    if any(not f for f in facet_sets):
        raise ValueError("facets must be nonempty")
    for f in facet_sets:
        if any(v < 0 or v >= n for v in f):
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
        if not 0 <= k <= d:
            raise InconsistentLattice("face with dimension outside [0, d]")
        if len(face) < k + 1:
            raise InconsistentLattice("face with too few vertices for its dimension")
    for f in closure:
        for g in closure:
            if f < g and dims[f] >= dims[g]:
                raise InconsistentLattice("face inclusion does not increase dimension")

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
    if d < 1:
        raise ValueError("d must be >= 1")
    verts = range(d + 1)
    facets = [[v for v in verts if v != i] for i in verts]
    return build_polytope(d, d + 1, facets)


def ngon_polytope(n: int) -> CombinatorialPolytope:
    """Cyclic n-gon with edges {i, i+1 mod n}."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return build_polytope(2, n, [[i, (i + 1) % n] for i in range(n)])


@dataclass(frozen=True)
class Shape:
    """Coordinates of a realization of a combinatorial polytope in R^d."""

    polytope: CombinatorialPolytope
    coords: np.ndarray
    mode: str = "strict"
    name: str | None = None

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.polytope.vertex_count, self.polytope.dimension):
            raise ValueError(
                f"coords must be {self.polytope.vertex_count} x "
                f"{self.polytope.dimension}, got {coords.shape}"
            )
        if self.mode not in ("strict", "weak"):
            raise ValueError("mode must be 'strict' or 'weak'")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return self.polytope.dimension

    def scaled(self, factor: float) -> "Shape":
        return Shape(self.polytope, self.coords * factor, self.mode, self.name)

    def transformed(self, rotation=None, translation=None) -> "Shape":
        c = self.coords
        if rotation is not None:
            c = c @ np.asarray(rotation, float).T
        if translation is not None:
            c = c + np.asarray(translation, float)
        return Shape(self.polytope, c, self.mode, self.name)

    def with_vertex(self, index: int, point) -> "Shape":
        c = self.coords.copy()
        c[index] = point
        return Shape(self.polytope, c, self.mode, self.name)


@dataclass(frozen=True)
class FacetReport:
    facet: tuple[int, ...]
    residual: float
    margin: float


@dataclass(frozen=True)
class ValidationReport:
    verdict: str  # "strictly-convex" | "weakly-convex" | "invalid"
    facet_reports: tuple[FacetReport, ...]
    vertex_extreme: tuple[bool, ...]
    flat_facet_pairs: tuple[tuple[int, int], ...]
    messages: tuple[str, ...] = ()

    @property
    def is_strict(self) -> bool:
        return self.verdict == "strictly-convex"

    @property
    def is_weak(self) -> bool:
        return self.verdict in ("strictly-convex", "weakly-convex")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "facets": [
                {"facet": list(r.facet), "residual": r.residual, "margin": r.margin}
                for r in self.facet_reports
            ],
            "vertex_extreme": list(self.vertex_extreme),
            "flat_facet_pairs": [list(p) for p in self.flat_facet_pairs],
            "messages": list(self.messages),
        }


def _facet_hyperplane(points: np.ndarray):
    """Best-fit hyperplane of a facet: (unit normal, centroid, fit residual).

    Returns residual = inf when the facet's own span is deficient, which
    makes the realization invalid.
    """
    c = points.mean(axis=0)
    d = points.shape[1]
    if d == 1:
        return np.array([1.0]), c, 0.0
    centered = points - c
    _, sv, vh = np.linalg.svd(centered, full_matrices=True)
    normal = vh[-1]
    sv = np.concatenate([sv, np.zeros(d - len(sv))])
    if d >= 2 and len(points) >= d and sv[d - 2] <= COORD_TOL:
        return normal, c, np.inf
    residual = float(np.abs(centered @ normal).max()) if len(points) else 0.0
    return normal, c, residual


def _vertex_is_extreme(coords: np.ndarray, i: int) -> bool:
    """LP feasibility: is vertex i a convex combination of the others?"""
    others = np.delete(coords, i, axis=0)
    k = len(others)
    a_eq = np.vstack([others.T, np.ones(k)])
    b_eq = np.concatenate([coords[i], [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k,
                  method="highs")
    return not res.success


def validate_shape(polytope: CombinatorialPolytope, coords, mode: str = "strict",
                   tol: float = COORD_TOL) -> ValidationReport:
    """Check whether coordinates realize the polytope strictly or weakly.

    Per facet the report carries the supporting-hyperplane fit residual and
    the side-consistency margin (minimum signed distance of the non-facet
    vertices, positive inward).  Raises ``DegenerateSpan`` if the affine
    span of the vertices is below d and ``DuplicateVertex`` if two vertex
    points coincide within tolerance.
    """
    coords = np.asarray(coords, dtype=float)
    d = polytope.dimension
    n = polytope.vertex_count
    if coords.shape != (n, d):
        raise ValueError(f"coords must be {n} x {d}")
    if mode not in ("strict", "weak"):
        raise ValueError("mode must be 'strict' or 'weak'")

    diffs = coords[:, None, :] - coords[None, :, :]
    dist = np.linalg.norm(diffs, axis=-1)
    np.fill_diagonal(dist, np.inf)
    if dist.min() <= tol:
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        raise DuplicateVertex(f"vertices {min(i, j)} and {max(i, j)} coincide")

    centered = coords - coords.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-8 * max(1.0, np.abs(coords).max())) < d:
        raise DegenerateSpan("affine span of the vertices is below d")

    messages = []
    facet_reports = []
    normals = []
    valid = True
    for facet in polytope.facets:
        pts = coords[list(facet)]
        normal, c, residual = _facet_hyperplane(pts)
        rest = [v for v in range(n) if v not in facet]
        signed = (coords[rest] - c) @ normal if rest else np.array([0.0])
        # Orient the normal outward: non-facet vertices on the negative side.
        if signed.sum() > 0:
            normal, signed = -normal, -signed
        margin = float(-signed.max()) if rest else np.inf
        if not np.isfinite(residual):
            valid = False
            messages.append(f"facet {facet} has deficient affine span")
            residual = float("inf")
        elif residual > tol:
            valid = False
            messages.append(f"facet {facet} vertices are not coplanar")
        if margin < -tol:
            valid = False
            messages.append(f"vertices on both sides of facet {facet}")
        facet_reports.append(FacetReport(facet, float(residual), margin))
        normals.append(normal)

    vertex_extreme = tuple(_vertex_is_extreme(coords, i) for i in range(n))

    flat_pairs = []
    if valid and d >= 2:
        for i, j in polytope.facet_pairs_sharing_ridge():
            cosang = float(np.clip(np.dot(normals[i], normals[j]), -1.0, 1.0))
            dihedral = np.pi - np.arccos(cosang)
            if abs(np.pi - dihedral) <= FLAT_ANGLE_TOL:
                flat_pairs.append((i, j))

    if not valid:
        verdict = "invalid"
    elif (all(r.margin > tol for r in facet_reports)
          and all(vertex_extreme)):
        verdict = "strictly-convex"
    else:
        verdict = "weakly-convex"

    if verdict == "weakly-convex" and mode == "strict":
        messages.append("shape is only weakly convex")

    return ValidationReport(
        verdict=verdict,
        facet_reports=tuple(facet_reports),
        vertex_extreme=vertex_extreme,
        flat_facet_pairs=tuple(flat_pairs),
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
    pairing_edges: tuple[tuple[int, int], ...]
    is_tree: bool


@dataclass(frozen=True)
class GraphSummary:
    nodes: int
    edges: tuple[tuple[int, int], ...]
    is_tree: bool


def _pairing_graph(d: int, simplices) -> tuple[tuple[tuple[int, int], ...], bool]:
    t = len(simplices)
    sets = [set(s) for s in simplices]
    edges = []
    for i in range(t):
        for j in range(i + 1, t):
            if len(sets[i] & sets[j]) == d:
                edges.append((i, j))
    return tuple(edges), is_tree(t, edges)


def is_tree(t: int, edges) -> bool:
    """Is the graph on nodes 0..t-1 a tree, i.e. connected with t - 1 edges?"""
    adjacency = {i: [] for i in range(t)}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0} if t else set()
    stack = [0] if t else []
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == t and len(edges) == t - 1


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
    return Triangulation(polytope, simps, *_pairing_graph(d, simps))


def _polygon_cycle(polytope: CombinatorialPolytope, start: int) -> list[int]:
    neighbors = {v: [] for v in range(polytope.vertex_count)}
    for a, b in polytope.facets:
        neighbors[a].append(b)
        neighbors[b].append(a)
    if any(len(nb) != 2 for nb in neighbors.values()):
        raise ValueError("polytope is not an n-gon")
    cycle = [start, min(neighbors[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = [v for v in neighbors[cur] if v != prev]
        if nxt[0] == start:
            break
        cycle.append(nxt[0])
    if len(cycle) != polytope.vertex_count:
        raise ValueError("facets do not form a single cycle")
    return cycle


def fan_triangulation(polytope_or_shape, apex: int) -> Triangulation:
    """Fan a convex n-gon from one vertex: n-2 triangles, pairing graph a path."""
    polytope = getattr(polytope_or_shape, "polytope", polytope_or_shape)
    if polytope.dimension != 2:
        raise ValueError("fan triangulation is defined for n-gons")
    cycle = _polygon_cycle(polytope, apex)
    simps = [(apex, cycle[i], cycle[i + 1]) for i in range(1, len(cycle) - 1)]
    return triangulation(polytope, simps)


def face_pairing_graph(tri: Triangulation) -> GraphSummary:
    return GraphSummary(nodes=len(tri.simplices), edges=tri.pairing_edges,
                        is_tree=tri.is_tree)
