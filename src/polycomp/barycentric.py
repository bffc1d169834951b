"""Barycentric subdivision and the induced piecewise-linear map.

The subdivision of a polytope realization has one d-simplex per maximal
chain of faces F_0 c F_1 c ... c F_d, with vertices at the face barycentres.
Two realizations of the same combinatorial polytope therefore share chain
structure, which induces a piecewise-linear map matching barycentre to
barycentre.  Simplex polytopes bypass the subdivision: the single affine
map given by the vertex correspondence is used directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .affine import AffineCorrespondence, affine_correspondence, homogeneous
from .errors import DegenerateSimplex, PointOutside, PolytopeMismatch, SingularSimplex
from .polytopes import CombinatorialPolytope, Shape

BARY_TOL = 1e-9


def barycentre(face, shape: Shape) -> np.ndarray:
    """Arithmetic mean of a face's vertex coordinates."""
    idx = list(face)
    if not idx:
        raise ValueError("face must be nonempty")
    return shape.coords[idx].mean(axis=0)


@dataclass(frozen=True)
class BarycentricComplex:
    """Maximal chains of faces and their adjacency (shared d of d+1 faces)."""

    polytope: CombinatorialPolytope
    chains: tuple[tuple[int, ...], ...]  # face indices, dimensions 0..d
    adjacency: tuple[tuple[int, int], ...]
    # Read-only: ``chains`` as a (t, d+1) array, and the 0/1 face-by-vertex
    # incidence matrix of ``polytope.faces``.
    chain_faces: np.ndarray = field(compare=False, repr=False)
    incidence: np.ndarray = field(compare=False, repr=False)

    @property
    def simplex_count(self) -> int:
        return len(self.chains)


@lru_cache(maxsize=32)
def barycentric_complex(polytope: CombinatorialPolytope) -> BarycentricComplex:
    """Enumerate all maximal chains of the face lattice, deterministically.

    Chains are emitted in lexicographic order of their face-index tuples.
    Adjacent chains differ in exactly one face.  The result is cached per
    polytope (equal polytopes share it), so its arrays are read-only.
    """
    d = polytope.dimension
    by_dim = [[] for _ in range(d + 1)]
    for i, k in enumerate(polytope.face_dims):
        if 0 <= k <= d:
            by_dim[k].append(i)
    face_sets = [frozenset(f) for f in polytope.faces]

    chains = []

    def extend(chain, level):
        if level > d:
            chains.append(tuple(chain))
            return
        cur = face_sets[chain[-1]]
        for j in by_dim[level]:
            if cur < face_sets[j]:
                chain.append(j)
                extend(chain, level + 1)
                chain.pop()

    for i in by_dim[0]:
        extend([i], 1)

    adjacency = []
    seen = {}
    for ci, chain in enumerate(chains):
        for pos in range(d + 1):
            key = chain[:pos] + chain[pos + 1:]
            if (pos, key) in seen:
                adjacency.append((seen[(pos, key)], ci))
            else:
                seen[(pos, key)] = ci
    chain_faces = np.array(chains, dtype=np.intp)
    n = polytope.vertex_count
    incidence = np.array([np.isin(np.arange(n), f) for f in polytope.faces], dtype=float)
    for a in (chain_faces, incidence):
        a.setflags(write=False)
    return BarycentricComplex(polytope, tuple(chains), tuple(sorted(adjacency)),
                              chain_faces, incidence)


@dataclass(frozen=True)
class InducedMap:
    """The piecewise-linear map f: P -> Q as stacks of per-simplex affine pieces.

    ``kind`` records the domain decomposition: "simplex" for the single
    affine map of a simplex polytope, "barycentric" for chain simplices of
    the subdivision, "triangulation" for a user-supplied vertex
    triangulation.  ``maps`` holds the pieces as one stack, entry i on
    simplex i.
    """

    source: Shape
    target: Shape
    kind: str
    maps: AffineCorrespondence  # arrays (t, d+1, d), (t, d+1, d+1), (t, d, d)
    complex: BarycentricComplex | None = None
    simplices: tuple[tuple[int, ...], ...] | None = None

    @property
    def simplex_count(self) -> int:
        return len(self.maps.linear)

    @property
    def dimension(self) -> int:
        return self.source.polytope.dimension

    @cached_property
    def correspondences(self) -> tuple[AffineCorrespondence, ...]:
        return tuple(self.maps[i] for i in range(self.simplex_count))


def require_same_polytope(p: Shape, q: Shape) -> None:
    """Raise ``PolytopeMismatch`` unless P and Q realize the same polytope."""
    if p.polytope != q.polytope:
        raise PolytopeMismatch("shapes realize different combinatorial polytopes")


def chain_simplex_coords(complex_: BarycentricComplex, shape: Shape) -> np.ndarray:
    """Vertex coordinates of every chain simplex: array (t, d+1, d)."""
    inc = complex_.incidence
    # einsum adds a face's vertices in index order, as ``barycentre`` does.
    sums = np.einsum("fn,nd->fd", inc, shape.coords)
    return (sums / inc.sum(axis=1, keepdims=True))[complex_.chain_faces]


def _stacked_map(p: Shape, q: Shape, kind: str, src: np.ndarray, tgt: np.ndarray,
                 describe, **parts) -> InducedMap:
    try:
        return InducedMap(p, q, kind, affine_correspondence(src, tgt), **parts)
    except SingularSimplex as exc:
        raise DegenerateSimplex(describe(exc)) from exc


def induced_map(p: Shape, q: Shape) -> InducedMap:
    """Build the induced piecewise-linear map from P to Q.

    Barycentre naturality f(b(F)) = b(G) holds by construction: source and
    target simplex vertices are the barycentres of corresponding faces.
    Raises ``PolytopeMismatch`` or ``DegenerateSimplex``.
    """
    require_same_polytope(p, q)
    if p.polytope.is_simplex:
        return _stacked_map(p, q, "simplex", p.coords[None], q.coords[None], str,
                            simplices=(tuple(range(p.polytope.vertex_count)),))
    complex_ = barycentric_complex(p.polytope)
    return _stacked_map(p, q, "barycentric", chain_simplex_coords(complex_, p),
                        chain_simplex_coords(complex_, q),
                        lambda exc: f"chain {exc.index} is degenerate in the source",
                        complex=complex_)


def triangulation_map(p: Shape, q: Shape, simplices) -> InducedMap:
    """Per-simplex affine map over a vertex triangulation instead of B(P)."""
    require_same_polytope(p, q)
    simps = tuple(tuple(s) for s in simplices)
    idx = np.array(simps, dtype=np.intp)
    return _stacked_map(p, q, "triangulation", p.coords[idx], q.coords[idx],
                        lambda exc: f"simplex {simps[exc.index]} is degenerate in the source",
                        simplices=simps)


def evaluate_map(m: InducedMap, x, tol: float = BARY_TOL) -> np.ndarray:
    """Evaluate f at a point of P by locating a containing simplex.

    The lowest-index simplex wins whose barycentric coordinates are all
    >= -tol (they are then clamped and renormalized, so results on shared
    faces do not depend on the winner).  Raises ``PointOutside`` when no
    simplex contains the point.
    """
    x = np.asarray(x, dtype=float)
    ph = homogeneous(m.maps.source)
    xh = np.broadcast_to(np.append(x, 1.0)[:, None], ph.shape[:-1] + (1,))
    lam = np.linalg.solve(ph, xh)[..., 0]
    inside = np.flatnonzero(lam.min(axis=1) >= -tol)
    if not inside.size:
        raise PointOutside(f"point {x.tolist()} lies in no simplex of the domain")
    lam = np.clip(lam[inside[0]], 0.0, None)
    return m.maps.target[inside[0]].T @ (lam / lam.sum())
