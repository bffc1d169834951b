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

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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

    def facet_pairs_sharing_ridge(self) -> tuple[tuple[int, int], ...]:
        """Pairs of facet indices whose intersection is a (d-2)-face."""
        face_set = {f: d for f, d in zip(self.faces, self.face_dims)}
        pairs = []
        for i in range(len(self.facets)):
            for j in range(i + 1, len(self.facets)):
                common = tuple(sorted(set(self.facets[i]) & set(self.facets[j])))
                if common and face_set.get(common) == self.dimension - 2:
                    pairs.append((i, j))
        return tuple(pairs)

    @cached_property
    def facet_arrays(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """Read-only arrays for batched facet work: the (F, n) facet-vertex
        incidence mask, ``(rows, vertices)`` groups of the facets with equal
        vertex counts (facet indices ``(m,)`` and their vertices ``(m, size)``)
        and the ``(P, 2)`` facet pairs sharing a ridge."""
        on_facet = np.array([[v in f for v in range(self.vertex_count)] for f in self.facets])
        sizes = on_facet.sum(axis=1)
        # sorted(set()), not np.unique, which imports numpy.ma: slow in a cold CLI call
        rows = [np.flatnonzero(sizes == s) for s in sorted(set(sizes.tolist()))]
        groups = tuple((r, np.array([self.facets[i] for i in r])) for r in rows)
        ridge_pairs = np.array(self.facet_pairs_sharing_ridge(), dtype=int).reshape(-1, 2)
        for a in (on_facet, ridge_pairs, *(a for g in groups for a in g)):
            a.setflags(write=False)
        return on_facet, groups, ridge_pairs


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
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
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

    def passes(self, mode: str) -> bool:
        """Does the shape pass validation in ``mode`` ("strict" or "weak")?"""
        return self.is_strict if mode == "strict" else self.is_weak

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


def _certified_extreme(centered: np.ndarray, vertex_normals: np.ndarray,
                       tol: float) -> np.ndarray:
    """Vertices proven extreme by a Farkas certificate, all at once.

    With ``u`` the normals summed at v and ``top`` the largest ``u . c_w``
    over w != v, ``(u, -top)`` is nonpositive on every other ``[c_w, 1]``, so
    ``[c_v, 1]`` lies at least ``(u . c_v - top) / |(u, -top)|`` from their cone.
    """
    proj = vertex_normals @ centered.T
    own = proj.diagonal().copy()
    np.fill_diagonal(proj, -np.inf)
    top = proj.max(axis=1)
    return own - top > tol * np.sqrt((vertex_normals ** 2).sum(axis=1) + top ** 2)


def _cone_residual(lifted: np.ndarray, gram: np.ndarray, v: int) -> float:
    """Distance from ``lifted[v]`` to the cone of the other rows: Lawson-Hanson
    NNLS, passive sets solved through the Gram matrix.  The iterate stays
    nonnegative, so the residual is an upper bound even if the loop ends early."""
    n = len(lifted)
    b, lam, passive = lifted[v], np.zeros(n), np.zeros(n, dtype=bool)
    grad_tol = 1e-12 * n * gram.diagonal().max()
    try:
        for _ in range(3 * n):
            grad = lifted @ (b - lam @ lifted)
            grad[passive] = -np.inf
            grad[v] = -np.inf
            j = int(np.argmax(grad))
            if grad[j] <= grad_tol:
                break
            passive[j] = True
            while True:
                idx = np.flatnonzero(passive)
                s = np.linalg.solve(gram[np.ix_(idx, idx)], gram[idx, v])
                if (s > 0).all():
                    lam[idx] = s
                    break
                # Step toward s until the first coordinate hits zero; free it.
                cur, neg = lam[idx], np.flatnonzero(s <= 0)
                ratios = cur[neg] / (cur[neg] - s[neg])
                k = int(np.argmin(ratios))
                lam[idx] = cur + ratios[k] * (s - cur)
                lam[idx[neg[k]]] = 0.0
                passive[idx[lam[idx] <= 0]] = False
                lam[~passive] = 0.0
    except np.linalg.LinAlgError:
        pass
    return float(np.linalg.norm(b - lam @ lifted))


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
    if not np.isfinite(coords).all():
        raise ValueError("coords must be finite")

    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    if dist.min() <= tol:
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        raise DuplicateVertex(f"vertices {min(i, j)} and {max(i, j)} coincide")

    centered = coords - coords.mean(axis=0)
    if np.linalg.matrix_rank(centered, tol=1e-8 * max(1.0, np.abs(coords).max())) < d:
        raise DegenerateSpan("affine span of the vertices is below d")

    # Fit every facet hyperplane: one SVD per group of facets of equal size.
    on_facet, groups, ridge_pairs = polytope.facet_arrays
    centroids = np.empty((len(on_facet), d))
    normals = np.ones((len(on_facet), d))
    deficient = np.zeros(len(on_facet), dtype=bool)
    for rows, idx in groups:
        points = coords[idx]
        c = centroids[rows] = points.mean(axis=1)
        if d > 1:
            _, sv, vh = np.linalg.svd(points - c[:, None], full_matrices=True)
            normals[rows] = vh[:, -1]
            if idx.shape[1] >= d:
                deficient[rows] = sv[:, d - 2] <= COORD_TOL

    # Signed distances of every vertex from every facet hyperplane, (F, n);
    # orient each normal outward, with the non-facet vertices on the negative side.
    signed = ((coords - centroids[:, None]) @ normals[:, :, None])[..., 0]
    flip = np.where(on_facet, 0.0, signed).sum(axis=1) > 0
    normals[flip] *= -1
    signed[flip] *= -1
    margins = -np.where(on_facet, -np.inf, signed).max(axis=1)
    residuals = np.where(on_facet & (d > 1), np.abs(signed), 0.0).max(axis=1)
    residuals[deficient] = np.inf
    facet_reports = tuple(FacetReport(f, r, m) for f, r, m in
                          zip(polytope.facets, residuals.tolist(), margins.tolist()))
    bad = (residuals > tol) | (margins < -tol)
    valid = not bad.any()

    messages = []
    for k in np.flatnonzero(bad):
        facet = polytope.facets[k]
        if deficient[k]:
            messages.append(f"facet {facet} has deficient affine span")
        elif residuals[k] > tol:
            messages.append(f"facet {facet} vertices are not coplanar")
        if margins[k] < -tol:
            messages.append(f"vertices on both sides of facet {facet}")

    # Extreme iff [c_v, 1] is farther than tol from the cone of the other
    # lifted points; the certificate settles most vertices, NNLS the rest.
    extreme = _certified_extreme(centered, on_facet.T @ normals, tol)
    lifted = np.hstack([centered, np.ones((n, 1))])
    gram = lifted @ lifted.T
    for v in np.flatnonzero(~extreme):
        extreme[v] = _cone_residual(lifted, gram, v) > tol
    vertex_extreme = tuple(bool(e) for e in extreme)

    flat_pairs = ()
    if valid and d >= 2:
        i, j = ridge_pairs.T
        cosang = np.clip((normals[i] * normals[j]).sum(axis=1), -1.0, 1.0)
        dihedral = np.pi - np.arccos(cosang)
        flat = np.abs(np.pi - dihedral) <= FLAT_ANGLE_TOL
        flat_pairs = tuple(map(tuple, ridge_pairs[flat].tolist()))

    if not valid:
        verdict = "invalid"
    elif (margins > tol).all() and all(vertex_extreme):
        verdict = "strictly-convex"
    else:
        verdict = "weakly-convex"

    if verdict == "weakly-convex" and mode == "strict":
        messages.append("shape is only weakly convex")

    return ValidationReport(
        verdict=verdict,
        facet_reports=facet_reports,
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
