"""Barycentric subdivision and the induced piecewise-linear map.

The subdivision of a polytope realization has one d-simplex per maximal
chain of faces F_0 c F_1 c ... c F_d, with vertices at the face barycentres.
Two realizations of the same combinatorial polytope therefore share chain
structure, which induces a piecewise-linear map matching barycentre to
barycentre.  Simplex polytopes bypass the subdivision: the single affine
map given by the vertex correspondence is used directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .affine import (
    AffineCorrespondence,
    _flat,
    edges,
    gram_eigenvalues,
    prescaled,
    solve_correspondence,
)
from .errors import (
    DegenerateSimplex,
    NonFiniteResult,
    PointOutside,
    PolytopeMismatch,
    SingularSimplex,
)
from .polytopes import CombinatorialPolytope, Shape, facet_adjacency

BARY_TOL = 1e-9


def barycentre(face, shape: Shape) -> np.ndarray:
    """Mean of a face's vertex coordinates, summed over 2^k (exact), so no sum overflows."""
    idx = list(face)
    if not idx:
        raise ValueError("face must be nonempty")
    rows, k = prescaled(shape.coords[idx])
    return np.ldexp(rows.mean(axis=0), k)


@dataclass(frozen=True)
class BarycentricComplex:
    """Maximal chains of faces and their adjacency (shared d of d+1 faces)."""

    polytope: CombinatorialPolytope
    # Read-only: the (t, d+1) chains' face indices, dimensions 0..d, and the 0/1
    # face-by-vertex incidence matrix of ``polytope.faces``.
    chain_faces: np.ndarray = field(compare=False, repr=False)
    incidence: np.ndarray = field(compare=False, repr=False)

    @property
    def simplex_count(self) -> int:
        return len(self.chain_faces)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, int], ...]:
        """Pairs of chains that share d of their d+1 faces; built when first read."""
        return facet_adjacency(self.chain_faces.tolist())


@lru_cache(maxsize=32)
def barycentric_complex(polytope: CombinatorialPolytope) -> BarycentricComplex:
    """Enumerate all maximal chains of the face lattice, one dimension at a time.

    Level k extends each chain by every k-face holding all of its last face's
    vertices, in face order, so the chains come in lexicographic order of their
    rows.  Adjacent chains differ in exactly one face.  The result is cached per
    polytope (equal polytopes share it), so its arrays are read-only.
    """
    faces = polytope.faces
    sizes = np.fromiter(map(len, faces), np.intp, len(faces))
    incidence = np.zeros((len(faces), polytope.vertex_count))
    incidence[np.repeat(np.arange(len(faces)), sizes),
              np.fromiter(itertools.chain.from_iterable(faces), np.intp, sizes.sum())] = 1.0
    dims = np.array(polytope.face_dims)
    chain_faces = np.flatnonzero(dims == 0)[:, None]
    for k in range(1, polytope.dimension + 1):
        level = np.flatnonzero(dims == k)
        contains = incidence @ incidence[level].T == sizes[:, None]  # exact counts of 0/1
        rows, cols = np.nonzero(contains[chain_faces[:, -1]])
        chain_faces = chain_faces[rows]  # frees the shorter chains before stacking the longer
        chain_faces = np.column_stack([chain_faces, level[cols]])
    for a in (chain_faces, incidence):
        a.setflags(write=False)
    return BarycentricComplex(polytope, chain_faces, incidence)


@dataclass(frozen=True, eq=False)
class InducedMap:
    """The piecewise-linear map f: P -> Q as stacks of per-simplex affine pieces.

    ``maps`` holds the pieces as one stack, entry i on simplex i: the single
    affine map of a simplex polytope, the chain simplices of the subdivision,
    or the simplices of a vertex triangulation.  Its arrays are read-only.
    Maps compare and hash by identity.
    """

    source: Shape
    target: Shape
    maps: AffineCorrespondence  # source and target (t, d+1, d), linear (t, d, d)

    @property
    def simplex_count(self) -> int:
        return len(self.maps.linear)

    @cached_property
    def alphas(self) -> np.ndarray:
        """Eigenvalues of Abar^T Abar per simplex, (t, d) ascending; computed once, read-only."""
        alphas = gram_eigenvalues(self.maps.linear)
        alphas.setflags(write=False)
        return alphas


@dataclass(frozen=True, eq=False)
class DerivedMap:
    """P -> Q by ``alphas`` that follow from another pair's; ``maps`` is solved on first read."""

    source: Shape
    target: Shape
    alphas: np.ndarray  # (t, d) ascending, made read-only

    def __post_init__(self):
        self.alphas.setflags(write=False)

    @cached_property
    def maps(self) -> AffineCorrespondence:  # the pieces, through the memoised induced_map
        return induced_map(self.source, self.target).maps


def require_same_polytope(p: Shape, q: Shape) -> None:
    """Raise ``PolytopeMismatch`` unless P and Q realize the same polytope."""
    if p.polytope != q.polytope:
        raise PolytopeMismatch("shapes realize different combinatorial polytopes")


@np.errstate(over="ignore")  # a coordinate sum that overflows reads inf; callers raise on it
def chain_simplex_coords(complex_: BarycentricComplex, shape) -> np.ndarray:
    """Vertex coordinates of every chain simplex, (..., t, d+1, d), of a shape or of
    a (..., n, d) coordinate stack; a shape gets the same bits alone or in a stack."""
    inc = complex_.incidence
    sums = inc @ getattr(shape, "coords", shape)
    return (sums / inc.sum(axis=1, keepdims=True))[..., complex_.chain_faces, :]


def shape_pieces(polytope: CombinatorialPolytope, coords: np.ndarray) -> np.ndarray:
    """The (..., t, d+1, d) pieces of a (..., n, d) realization of ``polytope``: a simplex
    polytope's one piece is its vertex simplex, any other's are its chain simplices."""
    return (coords[..., None, :, :] if polytope.is_simplex
            else chain_simplex_coords(barycentric_complex(polytope), coords))


@dataclass(frozen=True, eq=False)
class ChainStack:
    """A shape's read-only (t, d+1, d) pieces; their ``edges``, and the ``degenerate``
    flags read from them, are taken on first read, read-only too."""

    coords: np.ndarray

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # inf or nan edges: not flat; maps raise
    def edges(self) -> np.ndarray:
        e = edges(self.coords)
        e.setflags(write=False)
        return e

    @cached_property
    def degenerate(self) -> np.ndarray:
        flags = _flat(self.edges)
        flags.setflags(write=False)
        return flags


@lru_cache(maxsize=4)  # a request needs P and Q, a rescaled witness also lambda Q
def chain_stack(shape: Shape) -> ChainStack:
    """A shape's ``shape_pieces``, as one read-only stack."""
    coords = shape_pieces(shape.polytope, shape.coords)
    coords.setflags(write=False)
    return ChainStack(coords)


def _stacked_map(p: Shape, q: Shape, src: ChainStack, tgt: ChainStack, describe) -> InducedMap:
    if src.degenerate.any():
        exc = SingularSimplex("source simplex is affinely degenerate", int(src.degenerate.argmax()))
        raise DegenerateSimplex(describe(exc)) from exc
    maps = AffineCorrespondence(src.coords, tgt.coords, solve_correspondence(src.edges, tgt.edges))
    if not np.isfinite(maps.linear).all():
        raise NonFiniteResult("the map overflows: a piece's linear part is not finite")
    for a in (maps.source, maps.target, maps.linear):
        a.setflags(write=False)
    return InducedMap(p, q, maps)


@lru_cache(maxsize=4)  # a request solves (P, Q), a witness read (Q, P) or (P, lambda Q)
def induced_map(p: Shape, q: Shape) -> InducedMap:
    """Build the induced piecewise-linear map from P to Q.

    Barycentre naturality f(b(F)) = b(G) holds by construction: source and
    target simplex vertices are the barycentres of corresponding faces.
    Raises ``PolytopeMismatch`` or ``DegenerateSimplex``.  The last few maps are memoised
    per (P, Q) (shapes key by identity), and each shape's pieces and their flatness flags
    per shape (``chain_stack``), so the spectral and metric entry points build and test
    each shape and solve (P, Q) once; (Q, P) and (P, lambda Q) derive from it (``DerivedMap``).
    """
    require_same_polytope(p, q)
    describe = (str if p.polytope.is_simplex
                else lambda exc: f"chain {exc.index} is degenerate in the source")
    return _stacked_map(p, q, chain_stack(p), chain_stack(q), describe)


def triangulation_map(p: Shape, q: Shape, simplices) -> InducedMap:
    """Per-simplex affine map over a vertex triangulation instead of B(P), from
    any (t, d+1) array-like of vertex indices (a read-only array too); a
    degenerate source simplex is named by its vertices, e.g. ``(0, 1, 2)``."""
    require_same_polytope(p, q)
    idx = np.asarray(simplices, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] != p.polytope.dimension + 1:
        raise ValueError("simplices must be (d+1) x d vertex arrays of equal shape")
    return _stacked_map(p, q, ChainStack(p.coords[idx]), ChainStack(q.coords[idx]),
                        lambda exc: f"simplex {tuple(idx[exc.index].tolist())} is degenerate "
                                    "in the source")


def evaluate_map(m: InducedMap, x) -> np.ndarray:
    """Evaluate f at a point of P by locating a containing simplex.

    The lowest-index simplex wins whose barycentric coordinates are all
    >= -BARY_TOL (they are then clamped and renormalized, so results on shared
    faces do not depend on the winner).  Raises ``PointOutside`` when no
    simplex contains the point.
    """
    x = np.asarray(x, dtype=float)
    src = m.maps.source
    rest = np.linalg.solve(np.swapaxes(edges(src), -1, -2), (x - src[:, 0])[..., None])[..., 0]
    lam = np.column_stack([1.0 - rest.sum(axis=1), rest])
    inside = np.flatnonzero(lam.min(axis=1) >= -BARY_TOL)
    if not inside.size:
        raise PointOutside(f"point {x.tolist()} lies in no simplex of the domain")
    lam = np.clip(lam[inside[0]], 0.0, None)
    return m.maps.target[inside[0]].T @ (lam / lam.sum())
