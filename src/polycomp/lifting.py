"""Weak compressions realized as orthogonal projections.

A d x d weak compression M embeds as the top-left block of an orthogonal
2d x 2d matrix [[M, B], [A, C]] with A the symmetric PSD square root of
I - M^T M.  Applying the first d columns to edge vectors lifts a simplex
isometrically into R^{2d} so that dropping the last d coordinates recovers
the target simplex.  For a polytope with a tree face-pairing triangulation
the lifts glue into a pleated embedding in R^{d(t+1)}: each successive
simplex reuses the already-placed shared facet and solves for its apex,
spending any leftover distance budget in a fresh coordinate block.
Coordinate-dropping projection chains then interpolate between the pleated
embedding and the flat target, one dimension at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .affine import (
    _flat,
    determinant,
    edge_inverses,
    edges,
    gram_eigenvalues,
    linear_parts,
)
from .barycentric import shape_pieces, triangulation_map
from .errors import (
    InconsistentLattice,
    InfeasibleApex,
    NotContraction,
    NotPSD,
    NotTree,
    SingularSimplex,
)
from .polytopes import COORD_TOL, Shape, Triangulation, bfs_order, simplex_polytope, triangulation

PSD_CLAMP = 1e-8
CONTRACTION_TOL = 1e-9
DEPENDENT_TOL = 1e-8
APEX_TOL = 1e-7  # spread of an apex's budget over its largest squared edge
_CHAIN_BLOCK = 1 << 17  # floats per stage block of projection_chain: bounds its peak memory


def _eigh2(s: np.ndarray) -> tuple[tuple[float, float], float, float]:
    """The eigenvalues a + b tan theta and c - b tan theta of a symmetric 2 x 2
    S = [[a, b], [b, c]], with eigenvectors (cos theta, sin theta) and (-sin theta,
    cos theta), and cos theta, sin theta: theta = atan2(+-b, h + |delta|) in [-pi/4,
    pi/4], 2 delta = a - c, h = hypot(delta, b), +-b signed as delta.  A diagonal S
    gives its own entries and theta = 0."""
    (a, b0), (b1, c) = s.tolist()
    b, delta = (b0 + b1) / 2.0, (a - c) / 2.0
    h, sb = math.hypot(delta, b), (b if delta >= 0.0 else -b)
    tan = sb / (h + abs(delta)) if h else 0.0
    theta = math.atan2(sb, h + abs(delta))
    return (a + b * tan, c - b * tan), math.cos(theta), math.sin(theta)


def symmetric_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition: ``_eigh2``'s closed form for
    2 x 2, with no LAPACK call, ``eigh`` otherwise.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything lower raises
    ``NotPSD``.  Raises ``ValueError`` unless S is square, finite and symmetric.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(s).all():
        raise ValueError("matrix must be finite")
    if np.abs(s - s.T).max() > 1e-10 * max(1.0, np.abs(s).max()):
        raise ValueError("matrix must be symmetric")
    if s.shape[0] == 2:
        eig, cos, sin = _eigh2(s)
    else:
        eig, vec = np.linalg.eigh((s + s.T) / 2.0)
    if min(eig) < -PSD_CLAMP:
        raise NotPSD(f"eigenvalue {min(eig)} below -{PSD_CLAMP}")
    if s.shape[0] == 2:  # ru u u^T + rv v v^T
        ru, rv = (math.sqrt(max(x, 0.0)) for x in eig)
        off = (ru - rv) * cos * sin
        return np.array([[ru * cos * cos + rv * sin * sin, off],
                         [off, ru * sin * sin + rv * cos * cos]])
    root = vec @ np.diag(np.sqrt(np.clip(eig, 0.0, None))) @ vec.T
    return (root + root.T) / 2.0


@dataclass(frozen=True)
class OrthogonalCompletion:
    """Blocks of the orthogonal dilation [[M, B], [A, C]] of a contraction."""

    M: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    U: np.ndarray


def orthogonal_completion(m: np.ndarray) -> OrthogonalCompletion:
    """Complete a weak compression to an orthogonal matrix of twice the size.

    A = sqrt(I - M^T M) makes the stacked columns [M; A] orthonormal; the
    remaining columns deterministically orthonormalize the standard basis
    of R^{2d} against them, dropping near-dependent candidates.  The
    resulting sign convention puts, for the 1 x 1 case M = (0.6), the
    second column at (0.8, -0.6).  Raises ``NotContraction`` when the top
    squared singular value of M exceeds 1 + 1e-9.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    d = m.shape[0]
    alpha_max = float(gram_eigenvalues(m)[-1])  # inf where M^T M overflows
    if not alpha_max <= 1.0 + CONTRACTION_TOL:
        raise NotContraction(f"alpha_max = {alpha_max} is not at most 1")
    a = symmetric_sqrt(np.eye(d) - m.T @ m)
    cols = [np.concatenate([m[:, i], a[:, i]]) for i in range(d)]
    basis = np.eye(2 * d)
    for i in range(2 * d):
        if len(cols) == 2 * d:
            break
        r = basis[i]
        for c in cols + cols:  # two passes of Gram-Schmidt for stability
            r = r - np.dot(c, r) * c
        norm = np.linalg.norm(r)
        if norm > DEPENDENT_TOL:
            cols.append(r / norm)
    u = np.column_stack(cols)
    u[:d, :d] = m  # keep the top-left block bit-exact
    u[d:, :d] = a
    return OrthogonalCompletion(M=m, A=a, B=u[:d, d:].copy(), C=u[d:, d:].copy(), U=u)


def lift_simplex(p, q) -> np.ndarray:
    """Isometric lift of simplex P into R^{2d} projecting onto Q: the pleated
    embedding over its one simplex.  P and Q are shapes, or (d+1, d) arrays
    taken as shapes of ``simplex_polytope(d)``.

    Vertex i receives (q_i, A (p_i - p_0)); the first d coordinates
    reproduce Q exactly and pairwise distances reproduce P because
    M^T M + A^T A = I.
    """
    p, q = (s if isinstance(s, Shape) else Shape(simplex_polytope(np.shape(s)[-1]), s)
            for s in (p, q))
    tri = triangulation(p.polytope, [range(p.polytope.dimension + 1)])
    return pleated_embedding(p, q, tri).coords


@dataclass(frozen=True)
class PleatedEmbedding:
    """Piecewise-isometric embedding of P projecting orthogonally onto Q."""

    ambient_dimension: int
    coords: np.ndarray  # (N, D) one row per polytope vertex
    triangulation: Triangulation
    source: Shape
    target: Shape

    def simplex_coords(self, index: int) -> np.ndarray:
        return self.coords[list(self.triangulation.simplices[index])]


def _simplex_volume(coords: np.ndarray) -> float:
    """Total volume of a (..., d+1, d) stack of simplices."""
    return float(np.abs(determinant(edges(coords))).sum()) / math.factorial(coords.shape[-1])


def _shape_volume(shape: Shape) -> float:
    """Volume of the realization, summed over its pieces (``shape_pieces``)."""
    return _simplex_volume(shape_pieces(shape.polytope, shape.coords))


def _exponent(*arrays) -> int:
    """The k with every |entry| of the arrays below 2^k, the largest at least 2^(k-1).
    Dividing by 2^k is exact, so a result computed on the quotients scales back
    bit for bit, and no square of a length over- or underflows."""
    return int(np.frexp(max(np.abs(a).max() for a in arrays))[1])


@dataclass(frozen=True)
class _PleatPlan:
    """What the pleat path reads of a tree triangulation, which fixes all of it;
    arrays are read-only.

    ``simplices`` is the (t, d+1) vertex array; simplex 0 is the root.  Each
    later breadth-first step places the ``apex`` (t-1,) of its simplex on the
    ``shared`` (t-1, d) facet of its parent, sorted: its first vertex is u_0.
    Past the first d, the embedding's ``columns`` (d + t-1,) that can be nonzero
    are the root's block, then each step's first fresh one; ``order`` lists the
    vertices, the last placed first.  As ``(faces, ab)``
    arrays for ``_fold_angles``, ``fold_triples`` holds each pairing edge's
    facet with the vertex off it on either side, ``ridge_triples`` (empty for
    d = 1) each simplex's faces of size d-1 with the two vertices off them.
    ``ridges`` lists each ridge face of two or more simplices, sorted, with those
    simplices and the rows of their triples among the folds, then ridges.
    """

    simplices: np.ndarray
    shared: np.ndarray
    apex: np.ndarray
    columns: np.ndarray
    order: np.ndarray
    fold_triples: tuple[np.ndarray, np.ndarray]
    ridge_triples: tuple[np.ndarray, np.ndarray]
    ridges: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


def _triple_arrays(triples, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(face, a, b)`` triples with faces of ``size`` vertices as the arrays
    (g, size) of their faces and (g, 2) of their off-face vertices."""
    g = len(triples)
    return (np.array([face for face, _, _ in triples], dtype=np.intp).reshape(g, size),
            np.array([triple[1:] for triple in triples], dtype=np.intp).reshape(g, 2))


@lru_cache(maxsize=32)
def _pleat_plan(tri: Triangulation) -> _PleatPlan:
    """The plan of a tree triangulation, built on first use and shared by equal
    triangulations (it is frozen)."""
    simplices = tri.simplices
    shared, apex = [], []
    for simp_index, parent_index in bfs_order(len(simplices), tri.pairing_edges)[1:]:
        simp = simplices[simp_index]
        facet = set(simp) & set(simplices[parent_index])
        shared.append(sorted(facet))
        apex.append(next(v for v in simp if v not in facet))
    d, placed = tri.polytope.dimension, [*simplices[0], *apex]
    folds = []
    for i, j in tri.pairing_edges:
        facet = tuple(sorted(set(simplices[i]) & set(simplices[j])))
        folds.append((facet, next(v for v in simplices[i] if v not in facet),
                      next(v for v in simplices[j] if v not in facet)))
    wedges, ridges = [], {}  # each simplex's wedges at its ridge faces
    if d >= 2:
        for si, s in enumerate(simplices):
            for a, b in itertools.combinations(s, 2):
                tau = tuple(v for v in s if v not in (a, b))
                ridges.setdefault(tau, []).append((si, len(folds) + len(wedges)))
                wedges.append((tau, a, b))
    arrays = (np.array(simplices, dtype=np.intp), np.array(shared, dtype=np.intp).reshape(-1, d),
              np.array(apex, dtype=np.intp), np.r_[d:2 * d, 2 * d:d * (len(simplices) + 1):d],
              np.array([*placed[::-1], *sorted(set(range(tri.polytope.vertex_count)) - {*placed})]),
              _triple_arrays(folds, d), _triple_arrays(wedges, d - 1))
    for a in itertools.chain(arrays[:5], *arrays[5:]):
        a.setflags(write=False)
    return _PleatPlan(
        *arrays,
        ridges=tuple((tau, tuple(si for si, _ in entries), tuple(row for _, row in entries))
                     for tau, entries in sorted(ridges.items()) if len(entries) >= 2),
    )


def _min_norm_solve(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x with H x = r per (..., k, k) H, by minimum norm: r / H, or 0 where H = 0, for k = 1."""
    if h.shape[-1] == 1:
        return np.divide(r, h[..., 0], out=np.zeros_like(r), where=h[..., 0] != 0.0)
    return (np.linalg.pinv(h) @ r[..., None])[..., 0]


def _apex_solve(pq_edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each apex's weights gamma (t-1, d-1) and budgets (t-1, d) from its edges
    e_i = v - u_i to the shared facet, a (2, t-1, d, d) stack of P's and Q's.
    gamma solves H gamma = r (``_min_norm_solve``), with H the facet's defect
    Gram <u_i - u_0, u_j - u_0> and r_i = <u_i - u_0, v - u_0>, each in P less
    in Q.  Budget i, D_i - |sum_j gamma_j Y_j - Y_i|^2 for any gamma, is
    evaluated as 2 <a, e_i> - |a|^2 in P less in Q, with a = v - u_0 -
    sum_j gamma_j (u_j - u_0): its terms are of size |a| |e_i|, not |e_i|^2."""
    facet = pq_edges[..., :1, :] - pq_edges[..., 1:, :]  # u_i - u_0, i >= 1
    gram, r = facet @ np.swapaxes(facet, -1, -2), (facet @ pq_edges[..., 0, :, None])[..., 0]
    gamma = _min_norm_solve(gram[0] - gram[1], r[0] - r[1])
    a = pq_edges[..., 0, :] - (gamma[:, None, :] @ facet)[..., 0, :]
    budgets = 2.0 * np.vecdot(a[..., None, :], pq_edges) - np.vecdot(a, a)[..., None]
    return gamma, budgets[0] - budgets[1]


def pleated_embedding(p: Shape, q: Shape, tri: Triangulation) -> PleatedEmbedding:
    """Pleated embedding of P in R^{d(t+1)} projecting onto Q.

    Every vertex takes Q's coordinates in the first d columns, and the root
    simplex A (p_i - p_0) in the next d, with A = sqrt(I - M^T M) from the map M
    that the triangulation's solve already holds.  Each later simplex
    (breadth-first over the pairing tree, children in index order) puts its
    apex v over the placed shared facet (u_0, ..., u_{d-1}): past the first d
    columns, X_v = sum_i beta_i X_{u_i} + sqrt(s) e_z0, e_z0 the first column
    of its fresh block.  The Y_i = X_{u_i} - X_{u_0} have the facet's defect
    Gram H = P_f P_f^T - Q_f Q_f^T, so beta = (1 - sum gamma, gamma) and the
    budgets s_i = D_i - |sum_j gamma_j Y_j - Y_i|^2 that the d distance
    equations leave, D_i = |p_v - p_{u_i}|^2 - |q_v - q_{u_i}|^2, come from P
    and Q alone (``_apex_solve``); s is the budget at the nearest facet vertex,
    the least rounded.  The first apex in breadth-first order whose s_i spread
    by more than ``APEX_TOL`` of its largest squared edge (an inconsistent
    system), or else whose s is below -``CONTRACTION_TOL`` of it, raises
    ``InfeasibleApex``.  One unit lower triangular system (I - B) X = F,
    B[v, u_i] = beta_i, then places every apex.  It runs on P and Q divided by
    a power of two that brings their coordinates to size about 1, which is
    exact, so no squared length over- or underflows at any scale.  The
    simplices, the order and each step's shared facet, apex and fresh column
    come from the triangulation's plan (``_pleat_plan``), built on first use.
    """
    if tri.polytope != p.polytope:
        raise InconsistentLattice("triangulation belongs to a different polytope")
    if not tri.is_tree:
        raise NotTree("face-pairing graph of the triangulation is not a tree")
    plan = _pleat_plan(tri)
    k = _exponent(p.coords, q.coords)
    source, target = p, q  # the embedding keeps the given shapes
    p, q = (Shape(s.polytope, np.ldexp(s.coords, -k), s.mode) for s in (p, q))
    m = triangulation_map(p, q, plan.simplices)
    vol = _simplex_volume(m.maps.source)
    vol_p = _shape_volume(p)
    if abs(vol - vol_p) > COORD_TOL * vol_p:
        raise InconsistentLattice("simplices do not tile the source shape")
    if not (m.alphas[:, -1] <= 1.0 + CONTRACTION_TOL).all():
        raise NotContraction("the map defined by the triangulation expands a pair")

    d, shared, apex = p.polytope.dimension, plan.shared, plan.apex
    pq = np.stack([p.coords, q.coords])
    pq_edges = pq[:, apex, None] - pq[:, shared]  # (2, t-1, d, d): v - u_i in P and in Q
    lengths2 = np.vecdot(pq_edges[0], pq_edges[0])
    scales = lengths2.max(axis=1)  # s and its spread are squared lengths
    gamma, budgets = _apex_solve(pq_edges)
    s = budgets[np.arange(len(apex)), lengths2.argmin(axis=1)]
    inconsistent = budgets.max(axis=1) - budgets.min(axis=1) > APEX_TOL * scales
    failed = inconsistent | (s < -CONTRACTION_TOL * scales)
    if failed.any():
        j = int(failed.argmax())  # the first failing apex, its spread tested first
        if inconsistent[j]:
            raise InfeasibleApex("distance system for the apex is inconsistent")
        raise InfeasibleApex(f"negative residual budget, {s[j] / scales[j]:.3g} of the largest "
                             "squared edge")

    n, root, lin = p.polytope.vertex_count, plan.simplices[0], m.maps.linear[0]
    rhs = np.zeros((n, len(plan.columns)))  # F on the plan's columns; the others stay zero
    rhs[root, :d] = (p.coords[root] - p.coords[root[0]]) @ symmetric_sqrt(np.eye(d) - lin.T @ lin)
    rhs[apex, d + np.arange(len(apex))] = np.sqrt(np.maximum(s, 0.0))
    weights = np.eye(n)  # I - B; upper triangular in the plan's order: no pivots, zeros stay exact
    weights[apex[:, None], shared] = np.column_stack([gamma.sum(axis=1) - 1.0, -gamma])
    coords, order = np.zeros((n, d * (len(plan.simplices) + 1))), plan.order
    coords[:, :d] = q.coords
    coords[order[:, None], plan.columns] = np.linalg.solve(weights[np.ix_(order, order)],
                                                           rhs[order])
    return PleatedEmbedding(ambient_dimension=coords.shape[1], coords=np.ldexp(coords, k),
                            triangulation=tri, source=source, target=target)


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``np.triu_indices(n, 1)``: every pair i < j of n points."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def isometry_residual(lifted, source) -> float | np.ndarray:
    """Largest change of a pairwise distance between corresponding points, per
    point set of a (..., k+1, D) stack; a float for a single set."""
    k = _exponent(lifted, source)
    lifted, source = np.ldexp(lifted, -k), np.ldexp(source, -k)  # exact
    i, j = _pair_indices(source.shape[-2])
    res = np.abs(np.linalg.norm(lifted[..., i, :] - lifted[..., j, :], axis=-1)
                 - np.linalg.norm(source[..., i, :] - source[..., j, :], axis=-1)
                 ).max(axis=-1, initial=0.0)
    res = np.ldexp(res, k)
    return float(res) if res.ndim == 0 else res


def _fold_angles(coords: np.ndarray, faces: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Per ``(face, a, b)`` triple, a row of the (g, size) ``faces`` and (g, 2)
    ``ab``, the angle at the face between a and b orthogonal to its span (pi =
    flat), on ``coords`` divided to size about 1.  The faces' edges from their
    first vertex get an orthonormal basis from one stacked ``_gram_schmidt``, run
    once more on its columns for two or more edges."""
    if not len(faces):
        return np.empty(0)
    base = coords[faces[:, :1]]  # (g, 1, D)
    r = coords[ab] - base  # (g, 2, D): ra, rb
    if faces.shape[1] > 1:
        basis = np.swapaxes(coords[faces[:, 1:]] - base, -1, -2)  # (g, D, size-1)
        for _ in range(min(2, basis.shape[-1])):
            norms = np.diagonal(_gram_schmidt(basis), axis1=-2, axis2=-1)
        basis /= np.where(norms > 0.0, norms, 1.0)[..., None, :]  # orthonormal
        r -= (r @ basis) @ np.swapaxes(basis, -1, -2)
    norms = np.linalg.norm(r, axis=-1)
    cosang = (r[:, 0] * r[:, 1]).sum(axis=-1) / (norms[:, 0] * norms[:, 1])
    return np.arccos(np.clip(cosang, -1.0, 1.0))


@dataclass(frozen=True)
class FacetFold:
    simplices: tuple[int, int]
    shared_vertices: tuple[int, ...]
    dihedral: float  # pi means locally flat


@dataclass(frozen=True)
class RidgeAngles:
    vertices: tuple[int, ...]
    simplices: tuple[int, ...]
    angle_sum: float
    strictly_below_pi: bool


@dataclass(frozen=True)
class PleatValidityReport:
    isometry_residuals: np.ndarray  # per simplex
    projection_residual: float
    facet_folds: tuple[FacetFold, ...]
    ridge_angle_sums: tuple[RidgeAngles, ...]

    @property
    def max_isometry_residual(self) -> float:
        return float(self.isometry_residuals.max())


def pleat_validity(pe: PleatedEmbedding) -> PleatValidityReport:
    """Residuals and fold angles of a pleated embedding.

    Facet folds report the angle across each shared (d-1)-face (pi = flat);
    ridge angle sums aggregate, at each (d-2)-face shared by several
    simplices, the per-simplex dihedral angles there, to be compared with
    pi.  The flat case (angle exactly pi at a facet) is reported, not
    rejected.
    """
    p = pe.source
    d = p.polytope.dimension
    tri = pe.triangulation
    plan = _pleat_plan(tri)

    projection_residual = float(np.abs(pe.coords[:, :d] - pe.target.coords).max())
    coords = np.ldexp(pe.coords, -_exponent(pe.coords))  # exact, and angles are scale-free
    angles = np.concatenate([_fold_angles(coords, *plan.fold_triples),
                             _fold_angles(coords, *plan.ridge_triples)]).tolist()
    folds = [FacetFold(simplices=edge, shared_vertices=tuple(shared), dihedral=angle)
             for edge, shared, angle in zip(tri.pairing_edges, plan.fold_triples[0].tolist(),
                                            angles)]
    sums = [(tau, simplices, float(sum(angles[row] for row in rows)))
            for tau, simplices, rows in plan.ridges]
    ridge_reports = [RidgeAngles(tau, simplices, total, total < np.pi - 1e-9)
                     for tau, simplices, total in sums]

    idx = plan.simplices
    return PleatValidityReport(
        isometry_residuals=isometry_residual(pe.coords[idx], p.coords[idx]),
        projection_residual=projection_residual,
        facet_folds=tuple(folds),
        ridge_angle_sums=tuple(ridge_reports),
    )


@dataclass(frozen=True)
class ProjectionStage:
    ambient_dimension: int
    coords: np.ndarray
    per_simplex_alpha_vs_prev: np.ndarray | None
    per_simplex_alpha_vs_source: np.ndarray

    @property
    def alpha_max_vs_prev(self) -> float | None:
        if self.per_simplex_alpha_vs_prev is None:
            return None
        return float(self.per_simplex_alpha_vs_prev.max())


@dataclass(frozen=True)
class ProjectionChain:
    stages: tuple[ProjectionStage, ...]
    final_residual: float  # distance of the last stage to the target shape


def _dot_rows(x: np.ndarray, y: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_w x y per row of two (..., w) arrays, first term to last: ``np.multiply`` into
    ``tmp``, then ``np.add.accumulate`` in place.  No step fuses a product into a sum, so
    the bits are those of this order on any platform and in any layout."""
    return np.add.accumulate(np.multiply(x, y, out=tmp), axis=-1, out=tmp)[..., -1].copy()


def _gram_schmidt(a: np.ndarray, first: np.ndarray | None = None) -> np.ndarray:
    """R of a = QR per (..., w, k) matrix by modified Gram-Schmidt, r_jj >= 0; in place,
    a's columns become those of Q diag(r_jj) (a zero column stays zero).  R is backward
    stable as Householder's is (Bjorck and Paige, SIAM J. Matrix Anal. Appl. 13, 1992);
    the columns lose orthogonality with the condition number, and a second call restores
    it.  Every sum runs over the w rows in order (``_dot_rows``), so zero rows past a
    matrix's last leave its bits alone in any stack.  ``first``, (..., k), may hold the
    first step's sums a_0 . a_j as ``_dot_rows`` gives them, read from elsewhere."""
    k = a.shape[-1]
    r = np.zeros(a.shape[:-2] + (k, k))
    tmp = np.empty_like(a[..., 0])  # one scratch column, laid out as a's
    for i in range(k):
        col = a[..., i]
        if i or first is None:  # sums[..., j - i] = a_i . a_j, before this step's updates
            sums = np.stack([_dot_rows(col, a[..., j], tmp) for j in range(i, k)], axis=-1)
        else:
            sums = first
        norm2 = sums[..., 0]
        r[..., i, i] = np.sqrt(norm2)
        for j in range(i + 1, k):
            dot, nonzero = sums[..., j - i], norm2 > 0.0
            np.divide(dot, r[..., i, i], out=r[..., i, j], where=nonzero)
            scale = np.divide(dot, norm2, out=np.zeros_like(dot), where=nonzero)
            a[..., j] -= np.einsum("...w,...->...w", col, scale, out=tmp)  # no broadcast buffer
    return r


def _stage_pairs(top: np.ndarray, stages: int, step: int, pair) -> np.ndarray:
    """(stages, t) alphas: ``pair(r, i)``, r = max(s, top[i]), at row s = 0 and each s > top[i],
    row by row in blocks of ``step``; the rows between share row 0's frame and alpha."""
    s = np.arange(stages)[:, None]
    computed = (s > top) | (s == 0)
    rows, simp = np.nonzero(computed)
    alphas = np.empty(computed.shape)
    for lo in range(0, len(rows), step):
        r, i = rows[lo:lo + step], simp[lo:lo + step]
        alphas[r, i] = pair(np.maximum(r, top[i]), i)
    return np.where(computed, alphas, alphas[:1])


def projection_chain(coords: np.ndarray, d: int, simplices,
                     source: Shape | None = None,
                     target: Shape | None = None) -> ProjectionChain:
    """Drop the last coordinate one dimension at a time down to R^d.

    Every stage records, per simplex, the top squared singular value of the
    affine map from the previous stage (an orthogonal projection restricted
    to the simplex, hence always a weak compression) and from the source
    shape, or else the first stage.  That map X, from the source edges in a
    frame of their span (R of ``_gram_schmidt`` when the source has more than k
    dimensions), is solved once in edge form; stage c frames X's first c
    columns by the R of their ``_gram_schmidt``, R_c.  The top
    ``gram_eigenvalues`` of R_c is the source alpha, and that of the linear
    part from R_{c+1}^T onto R_c^T the previous-stage one.  A simplex whose
    edges are zero past column c computes one of each for every stage above c.
    The R_c and the pairs go in blocks of about ``_CHAIN_BLOCK`` floats, which
    bounds the peak memory; a block of R_c is one gathered (k, w, b) array,
    its columns' rows laid out frames last, zeroed past each frame's c rows
    and orthogonalized in place, and its sums add row after row, so R_c has
    the same bits in any block.  The first Gram-Schmidt step's sums of R_c
    are running sums over a simplex's rows, taken once for all its stages.
    ``simplices`` is any (t, k+1) array-like of vertex indices, a read-only
    array too.  Raises ``ValueError`` unless 1 <= d <= the ambient dimension,
    ``simplices`` is such an array of indices into ``coords`` and ``source``
    and ``target`` have a vertex per row of it; ``SingularSimplex`` for the
    first degenerate source simplex, then for the first stage's, by ``index``.
    """
    coords = np.asarray(coords, dtype=float)
    big_d = coords.shape[1]
    if not 1 <= d <= big_d:
        raise ValueError(f"base dimension must be between 1 and the ambient dimension {big_d}")
    if len({len(s) for s in simplices}) > 1:
        raise ValueError("every simplex must list the same number of vertices")
    idx = np.asarray(simplices, dtype=np.intp)  # (t, k+1)
    if idx.ndim != 2 or not idx.size:
        raise ValueError("simplices must list at least one simplex")
    if idx.min() < 0 or idx.max() >= len(coords):
        raise ValueError(f"simplex vertex index out of range for {len(coords)} vertices")
    for name, shape in (("source", source), ("target", target)):
        if shape is not None and len(shape.coords) != len(coords):
            raise ValueError(f"{name} has {len(shape.coords)} vertices, coords has {len(coords)}")
    # Every alpha is a ratio of lengths: take the edges divided by one power of two (exact).
    e = _exponent(coords, coords if source is None else source.coords)
    (t, k), e_tgt = idx[:, 1:].shape, edges(np.ldexp(coords, -e)[idx])  # (t, k, D)
    src = edges(np.ldexp(coords if source is None else source.coords, -e)[idx])
    if src.shape[-1] < k:  # more than D+1 points are affinely dependent
        raise SingularSimplex("source simplex is affinely degenerate", 0)
    if src.shape[-1] > k:  # the edges in an orthonormal frame of their span: R_src^T
        src = np.swapaxes(_gram_schmidt(np.swapaxes(src, -1, -2)), -1, -2)
    flat = _flat(src)
    if flat.any():
        raise SingularSimplex("source simplex is affinely degenerate", int(flat.argmax()))
    xt = linear_parts(edge_inverses(src, flat), e_tgt)  # (t, D, k): X^T
    del e_tgt, src

    # frames[r, i]: R_c^T of simplex i, c = D - r, if a pair reads it (c <= rep[i] + 1)
    stages = big_d - d + 1
    rep = np.maximum(((xt != 0.0).any(axis=2) * np.arange(1, big_d + 1)).max(axis=1), d)
    frame_rows, frame_simp = np.nonzero(np.arange(stages)[:, None] >= big_d - 1 - rep)
    frames, step = np.zeros((stages, t, k, k)), max(1, _CHAIN_BLOCK // (k * big_d))
    columns = np.ascontiguousarray(np.transpose(xt, (2, 1, 0)))  # (k, D, t): frames last
    del xt  # the frames read only the columns, and the pairs only the frames
    # The first step's sums of R_c are those of the first c rows: a running sum per simplex.
    prefix = np.multiply(columns[:1], columns)
    np.add.accumulate(prefix, axis=1, out=prefix)
    for lo in range(0, len(frame_rows), step):
        r, i = frame_rows[lo:lo + step], frame_simp[lo:lo + step]
        w = big_d - r[0]  # no frame of the block is wider
        past = np.arange(w)[:, None] >= big_d - r  # each frame's rows past its D - r
        part = np.empty((k, w, len(i)))
        for j in range(k):  # the first w rows of each column; "clip" takes unbuffered
            np.take(columns[j, :w], i, axis=1, out=part[j], mode="clip")
        np.copyto(part, 0.0, where=past)
        first = prefix[:, big_d - 1 - r, i].T
        frames[r, i] = np.swapaxes(_gram_schmidt(part.T, first), -1, -2)
    del columns, prefix, part, past

    def previous(r, i):  # stage D - r - 1 from the wider stage D - r
        flat = _flat(frames[r, i])
        if flat.any():
            raise SingularSimplex("source simplex is affinely degenerate", int(i[flat.argmax()]))
        inv = edge_inverses(frames[r, i], flat)
        return gram_eigenvalues(linear_parts(inv, frames[r + 1, i]))[..., -1]

    # Row 0 holds every simplex's pair: the first previous-stage one to fail is the loop's.
    step = max(1, _CHAIN_BLOCK // (2 * k * k))  # a pair reads two k x k matrices
    alphas_src = _stage_pairs(big_d - rep, stages, step,
                              lambda r, i: gram_eigenvalues(frames[r, i])[..., -1])
    alphas_prev = _stage_pairs(big_d - 1 - rep, stages - 1, step, previous)
    chain = tuple(ProjectionStage(dim, coords[:, :dim], prev, src) for dim, prev, src
                  in zip(range(big_d, d - 1, -1), [None, *alphas_prev], alphas_src))
    final = 0.0 if target is None else float(np.abs(coords[:, :d] - target.coords).max())
    return ProjectionChain(stages=chain, final_residual=final)


def pleated_projection_chain(pe: PleatedEmbedding) -> ProjectionChain:
    return projection_chain(pe.coords, pe.source.polytope.dimension,
                            _pleat_plan(pe.triangulation).simplices, pe.source, pe.target)
