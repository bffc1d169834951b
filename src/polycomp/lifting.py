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
from functools import lru_cache, reduce

import numpy as np

from .affine import (
    DET_TOL,
    _flat,
    determinant,
    edge_inverses,
    edges,
    gram_eigenvalues,
    linear_parts,
)
from .barycentric import chain_stack, triangulation_map
from .errors import (
    InconsistentLattice,
    InfeasibleApex,
    NotContraction,
    NotPSD,
    NotTree,
    SingularSimplex,
)
from .polytopes import (COORD_TOL, Shape, Triangulation, bfs_order, simplex_polytope,
                        split_scale, triangulation)

PSD_CLAMP = 1e-8
CONTRACTION_TOL = 1e-9
DEPENDENT_TOL = 1e-8
APEX_TOL = 1e-7  # spread of an apex's budget over its largest squared edge


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
    B[v, u_i] = beta_i, then places every apex.  The map reads the shapes'
    mantissas, and the placement runs on P and Q over 2^k, k the larger of their
    exponents, which is exact, so no squared length over- or underflows at any
    scale.  The simplices, the order and each step's shared facet, apex and fresh column
    come from the triangulation's plan (``_pleat_plan``), built on first use.
    """
    if tri.polytope != p.polytope:
        raise InconsistentLattice("triangulation belongs to a different polytope")
    if not tri.is_tree:
        raise NotTree("face-pairing graph of the triangulation is not a tree")
    plan = _pleat_plan(tri)
    m = triangulation_map(p, q, plan.simplices)
    # d! times the volume of the triangulation and of P's own pieces, on P's mantissas
    vol, vol_p = (np.abs(determinant(e)).sum() for e in (edges(m.maps.source),
                                                         chain_stack(p).edges))
    if abs(vol - vol_p) > COORD_TOL * vol_p:
        raise InconsistentLattice("simplices do not tile the source shape")
    if not (m.alphas[:, -1] <= 1.0 + CONTRACTION_TOL).all():
        raise NotContraction("the map defined by the triangulation expands a pair")

    d, shared, apex, k = p.polytope.dimension, plan.shared, plan.apex, max(p.exponent, q.exponent)
    pq = np.ldexp(np.stack([p.coords, q.coords]), -k)
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

    n, root = p.polytope.vertex_count, plan.simplices[0]
    lin = np.ldexp(m.maps.linear[0], q.exponent - p.exponent)  # the root piece's, P -> Q
    rhs = np.zeros((n, len(plan.columns)))  # F on the plan's columns; the others stay zero
    rhs[root, :d] = (pq[0, root] - pq[0, root[0]]) @ symmetric_sqrt(np.eye(d) - lin.T @ lin)
    rhs[apex, d + np.arange(len(apex))] = np.sqrt(np.maximum(s, 0.0))
    weights = np.eye(n)  # I - B; upper triangular in the plan's order: no pivots, zeros stay exact
    weights[apex[:, None], shared] = np.column_stack([gamma.sum(axis=1) - 1.0, -gamma])
    coords, order = np.zeros((n, d * (len(plan.simplices) + 1))), plan.order
    coords[:, :d] = pq[1]
    coords[order[:, None], plan.columns] = np.linalg.solve(weights[np.ix_(order, order)],
                                                           rhs[order])
    return PleatedEmbedding(ambient_dimension=coords.shape[1], coords=np.ldexp(coords, k),
                            triangulation=tri, source=p, target=q)


@lru_cache(maxsize=8)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``np.triu_indices(n, 1)``: every pair i < j of n points."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def isometry_residual(lifted, source) -> float | np.ndarray:
    """Largest change of a pairwise distance between corresponding points, per
    point set of a (..., k+1, D) stack; a float for a single set.  No squared
    distance may overflow: ``pleat_validity`` passes coordinates over a power of two."""
    i, j = _pair_indices(source.shape[-2])
    res = np.abs(np.linalg.norm(lifted[..., i, :] - lifted[..., j, :], axis=-1)
                 - np.linalg.norm(source[..., i, :] - source[..., j, :], axis=-1)
                 ).max(axis=-1, initial=0.0)
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
    # Over 2^k, exact: the coordinates are Q's or within P's diameter of 0, so no squared
    # distance overflows, and the angles are scale-free.
    coords = np.ldexp(pe.coords, -(k := max(p.exponent, pe.target.exponent)))
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
        isometry_residuals=np.ldexp(isometry_residual(coords[idx], np.ldexp(p.coords[idx], -k)), k),
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


def _gram_schmidt(a: np.ndarray) -> np.ndarray:
    """R of a = QR per (..., w, k) matrix by modified Gram-Schmidt, r_jj >= 0; in place,
    a's columns become those of Q diag(r_jj) (a zero column stays zero).  R is backward
    stable as Householder's is (Bjorck and Paige, SIAM J. Matrix Anal. Appl. 13, 1992);
    the columns lose orthogonality with the condition number, and a second call restores
    it.  Every sum runs over the w rows in order, ``np.multiply`` then ``np.add.accumulate``,
    with no step fusing a product into a sum, so its bits are those of this order on any
    platform and in any layout, and zero rows past a matrix's last leave them alone in
    any stack."""
    k = a.shape[-1]
    r = np.zeros(a.shape[:-2] + (k, k))
    tmp = np.empty_like(a[..., 0])  # one scratch column, laid out as a's
    for i in range(k):
        col = a[..., i]
        # sums[..., j - i] = a_i . a_j, before this step's updates
        sums = np.stack([np.add.accumulate(np.multiply(col, a[..., j], out=tmp), axis=-1,
                                           out=tmp)[..., -1].copy() for j in range(i, k)], -1)
        norm2 = sums[..., 0]
        r[..., i, i] = np.sqrt(norm2)
        for j in range(i + 1, k):
            dot, nonzero = sums[..., j - i], norm2 > 0.0
            np.divide(dot, r[..., i, i], out=r[..., i, j], where=nonzero)
            scale = np.divide(dot, norm2, out=np.zeros_like(dot), where=nonzero)
            a[..., j] -= np.einsum("...w,...->...w", col, scale, out=tmp)  # no broadcast buffer
    return r


def _sure_not_flat(g: np.ndarray, rows: int) -> np.ndarray:
    """Per (..., k, k) Gram G of at most ``rows`` rows, summed as ``projection_chain`` sums
    them: does det G certainly pass 16 DET_TOL^2 L^k, L = max_j G_jj?  The computed entries
    are within gamma_rows sqrt(G_ii G_jj), so each of the k! Leibniz products is within
    (1 + gamma_rows)^k - 1 of H = prod_j G_jj, and the computed det within k! gamma_N H,
    N = k (rows + 1) + k!: below the margin 4 k! N u H taken on the computed H (u the unit
    roundoff, gamma_n = n u / (1 - n u)).  Then the frame R of the rows has |det R| above
    2.8 DET_TOL L^(k/2), which leaves R's own backward error, O(rows k u) of its top
    singular value, room to pass ``_flat``.  Only for k <= 4 and G_jj in [1e-30, 1e30],
    where no product overflows and an underflow's error is far below the margin."""
    k, size = g.shape[-1], math.factorial(g.shape[-1])
    if k > 4:
        return np.zeros(g.shape[:-2], dtype=bool)
    det, diag = 0.0, [g[..., j, j] for j in range(k)]
    for p in itertools.permutations(range(k)):
        term = reduce(np.multiply, [g[..., i, j] for i, j in enumerate(p)])
        odd = sum(a > b for a, b in itertools.combinations(p, 2)) % 2
        det = det - term if odd else det + term
    margin = 4 * size * (k * (rows + 1) + size) * (np.finfo(float).eps / 2)
    long2, least = reduce(np.maximum, diag), reduce(np.minimum, diag)
    return ((det - margin * reduce(np.multiply, diag) > 16 * DET_TOL ** 2 * long2 ** k)
            & (least >= 1e-30) & (long2 <= 1e30))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing map's alphas read inf
def projection_chain(coords: np.ndarray, d: int, simplices,
                     source: Shape | None = None,
                     target: Shape | None = None) -> ProjectionChain:
    """Drop the last coordinate one dimension at a time down to R^d.

    Every stage records, per simplex, the top squared singular value of the
    affine map from the previous stage (an orthogonal projection restricted
    to the simplex, hence always a weak compression) and from the source
    shape, or else the first stage.  That map X, from the source edges in a
    frame of their span (R of ``_gram_schmidt`` when the source has more than k
    dimensions), is solved once in edge form.  Stage c keeps X's first c rows,
    whose Gram G_c is a running sum of their outer products (``np.multiply``,
    then ``np.add.accumulate``: no product fuses into a sum).  The source alpha
    is lambda_max(G_c), inf where G_c is not finite: (a + c) / 2 + hypot((a - c)
    / 2, b) of [[a, b], [b, c]] for k = 2, a sum of nonnegative terms good to a
    few ulps, else ``eigvalsh``'s.  The previous-stage alpha is exactly 1 for
    k >= 2: dropping coordinate c + 1 fixes the directions of the stage's k-plane
    with x_{c+1} = 0, which span k - 1 >= 1 dimensions or more.  For a segment
    it is G_c / G_{c+1}.  A stage above R^d is flat where ``_flat`` of the R_c^T
    of its rows is: ``_sure_not_flat`` clears most from det G_c, and
    ``_gram_schmidt`` frames the rest, stage by stage.  ``simplices`` is any
    (t, k+1) array-like of vertex indices, a read-only array too.  X maps the
    source's mantissas to those of ``coords`` (``split_scale``), so no edge over-
    or underflows at any scale; its alphas are then brought to the given units.  Raises
    ``ValueError`` unless ``coords`` is a finite 2-D array, 1 <= d <= its
    ambient dimension, ``simplices`` is such an array of indices into ``coords``
    and ``source`` and ``target`` have a vertex per row of it;
    ``SingularSimplex`` for the first degenerate source simplex, then for the
    first stage's, by ``index``.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or not np.isfinite(coords).all():
        raise ValueError("coords must be a finite 2-D array")
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
    # The map X runs between mantissas; its alphas are brought back by 4^(exp - src_exp).
    mantissas, exp = split_scale(coords)
    src, src_exp = (mantissas, exp) if source is None else (source.mantissas, source.exponent)
    (t, k), e_tgt, src = idx[:, 1:].shape, edges(mantissas[idx]), edges(src[idx])  # (t, k, D)
    if src.shape[-1] < k:  # more than D+1 points are affinely dependent
        raise SingularSimplex("source simplex is affinely degenerate", 0)
    if src.shape[-1] > k:  # the edges in an orthonormal frame of their span: R_src^T
        src = np.swapaxes(_gram_schmidt(np.swapaxes(src, -1, -2)), -1, -2)
    flat = _flat(src)
    if flat.any():
        raise SingularSimplex("source simplex is affinely degenerate", int(flat.argmax()))
    xt = linear_parts(edge_inverses(src, flat), e_tgt)  # (t, D, k): X^T
    del e_tgt, src

    rows = xt.transpose(1, 0, 2)[..., None]  # (D, t, k, 1): X's rows
    gram = np.multiply(rows, np.swapaxes(rows, -1, -2))
    np.add.accumulate(gram, axis=0, out=gram)  # gram[c - 1] = G_c
    gram = gram[d - 1:][::-1]  # stage by stage from R^D: stage r keeps D - r rows
    sure = _sure_not_flat(gram[:-1], big_d)
    for r in np.flatnonzero(~sure.all(axis=1)):  # the first flat (stage, simplex) raises
        i = np.flatnonzero(~sure[r])
        flat = _flat(np.swapaxes(_gram_schmidt(xt[i, :big_d - r]), -1, -2))
        if flat.any():
            raise SingularSimplex("source simplex is affinely degenerate", int(i[flat.argmax()]))
    if k == 2:  # nan only where G_c is not finite
        a, b, c = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
        alphas = np.fmin((a + c) / 2 + np.hypot((a - c) / 2, b), np.inf)
    else:  # LAPACK may not converge on a non-finite matrix
        finite = np.isfinite(gram).all(axis=(-2, -1))
        top = np.linalg.eigvalsh(np.where(finite[..., None, None], gram, 0.0))[..., -1]
        alphas = np.where(finite, top, np.inf)  # (stages, t)
    # G_c / G_{c+1} for a segment, where inf / inf (an overflowing pair) reads inf
    prev = np.fmin(alphas[1:] / alphas[:-1], np.inf) if k == 1 else np.ones((len(alphas) - 1, t))
    alphas = np.ldexp(alphas, 2 * (exp - src_exp))
    chain = tuple(ProjectionStage(dim, coords[:, :dim], p, s) for dim, p, s
                  in zip(range(big_d, d - 1, -1), [None, *prev], alphas))
    final = 0.0 if target is None else float(np.abs(coords[:, :d] - target.coords).max())
    return ProjectionChain(stages=chain, final_residual=final)


def pleated_projection_chain(pe: PleatedEmbedding) -> ProjectionChain:
    return projection_chain(pe.coords, pe.source.polytope.dimension,
                            _pleat_plan(pe.triangulation).simplices, pe.source, pe.target)
