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

from .affine import affine_correspondence, frame_map, intrinsic_map
from .barycentric import (
    barycentric_complex,
    chain_simplex_coords,
    triangulation_map,
)
from .errors import (
    InconsistentLattice,
    InfeasibleApex,
    NotContraction,
    NotPSD,
    NotTree,
    SingularSimplex,
)
from .polytopes import COORD_TOL, Shape, Triangulation, bfs_order

PSD_CLAMP = 1e-8
CONTRACTION_TOL = 1e-9
DEPENDENT_TOL = 1e-8
APEX_TOL = 1e-7  # spread of an apex's budget over its largest squared edge
_CHAIN_BLOCK = 1 << 17  # floats per stage block of projection_chain: bounds its peak memory


def symmetric_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything lower raises
    ``NotPSD``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("matrix must be square")
    if np.abs(s - s.T).max() > 1e-10 * max(1.0, np.abs(s).max()):
        raise ValueError("matrix must be symmetric")
    eig, vec = np.linalg.eigh((s + s.T) / 2.0)
    if eig.min() < -PSD_CLAMP:
        raise NotPSD(f"eigenvalue {eig.min()} below -{PSD_CLAMP}")
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
    with np.errstate(over="ignore"):  # an overflowing Gram fails the test below
        gram = m.T @ m
    alpha_max = float(np.linalg.eigvalsh(gram)[-1])
    if not alpha_max <= 1.0 + CONTRACTION_TOL:
        raise NotContraction(f"alpha_max = {alpha_max} is not at most 1")
    a = symmetric_sqrt(np.eye(d) - gram)
    cols = [np.concatenate([m[:, i], a[:, i]]) for i in range(d)]
    basis = np.eye(2 * d)
    for i in range(2 * d):
        if len(cols) == 2 * d:
            break
        r = basis[i]
        for c in cols:  # two passes of Gram-Schmidt for stability
            r = r - np.dot(c, r) * c
        for c in cols:
            r = r - np.dot(c, r) * c
        norm = np.linalg.norm(r)
        if norm > DEPENDENT_TOL:
            cols.append(r / norm)
    u = np.column_stack(cols)
    u[:d, :d] = m  # keep the top-left block bit-exact
    u[d:, :d] = a
    return OrthogonalCompletion(M=m, A=a, B=u[:d, d:].copy(), C=u[d:, d:].copy(), U=u)


def _simplex_coords(p) -> np.ndarray:
    return p.coords if isinstance(p, Shape) else np.asarray(p, dtype=float)


def lift_simplex(p, q) -> np.ndarray:
    """Isometric lift of simplex P into R^{2d} projecting onto Q.

    Vertex i receives (q_i, A (p_i - p_0)); the first d coordinates
    reproduce Q exactly and pairwise distances reproduce P because
    M^T M + A^T A = I.
    """
    src = _simplex_coords(p)
    tgt = _simplex_coords(q)
    return _lift_rows(src, tgt, orthogonal_completion(affine_correspondence(src, tgt).linear).A)


def _lift_rows(src: np.ndarray, tgt: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Rows (q_i, A (p_i - p_0)) of a simplex lifted by the block A of its map."""
    return np.hstack([tgt, (src - src[0]) @ a.T])


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
    e = coords[..., 1:, :] - coords[..., :1, :]
    return float(np.abs(np.linalg.det(e)).sum()) / math.factorial(coords.shape[-1])


def _shape_volume(shape: Shape) -> float:
    """Volume of the realization, summed over barycentric chain simplices."""
    if shape.polytope.is_simplex:
        return _simplex_volume(shape.coords)
    return _simplex_volume(chain_simplex_coords(barycentric_complex(shape.polytope), shape))


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
    ``shared`` (t-1, d) facet of its parent.  As ``(faces, ab)`` arrays for
    ``_fold_angles``, ``fold_triples`` holds each pairing edge's facet with the
    vertex off it on either side, ``ridge_triples`` (empty for d = 1) each
    simplex's faces of size d-1 with the two vertices off them.  ``ridges``
    lists each ridge face of two or more simplices, sorted, with those
    simplices and the rows of their triples among the folds, then ridges.
    """

    simplices: np.ndarray
    shared: np.ndarray
    apex: np.ndarray
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
    d = tri.polytope.dimension
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
              np.array(apex, dtype=np.intp), _triple_arrays(folds, d),
              _triple_arrays(wedges, d - 1))
    for a in itertools.chain(arrays[:3], *arrays[3:]):
        a.setflags(write=False)
    return _PleatPlan(
        *arrays,
        ridges=tuple((tau, tuple(si for si, _ in entries), tuple(row for _, row in entries))
                     for tau, entries in sorted(ridges.items()) if len(entries) >= 2),
    )


def pleated_embedding(p: Shape, q: Shape, tri: Triangulation) -> PleatedEmbedding:
    """Pleated embedding of P in R^{d(t+1)} projecting onto Q.

    The root simplex takes the rows (q_i, A (p_i - p_0)) of ``lift_simplex``
    in the first 2d coordinates, with A = sqrt(I - M^T M) from the map M that
    the triangulation's solve already holds.  Each subsequent simplex
    (breadth-first over the pairing tree, children in index order) shares a
    facet that is already placed; its apex takes Q's coordinates in the first
    block, the middle coordinates solving the pairwise-difference system of
    the d distance equations to the shared vertices, and the leftover budget
    s = l^2 - |placed part|^2 as sqrt(s) in the first coordinate of the
    simplex's fresh block.  The middle solution maximizes s over the affine
    solution set (the closest point to the shared vertices' middle
    coordinates), so s < 0 only when the input is not a weak compression
    or the system is numerically inconsistent; both raise
    ``InfeasibleApex``.  It runs on P and Q divided by a power of two that
    brings their coordinates to size about 1, which is exact, so no squared
    length over- or underflows at any scale.  The simplices, the order and
    each step's shared facet and apex come from the triangulation's plan
    (``_pleat_plan``), built on first use.
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

    d = p.polytope.dimension
    big_d = d * (len(tri.simplices) + 1)
    coords = np.zeros((p.polytope.vertex_count, big_d))

    root = plan.simplices[0]
    lin = m.maps.linear[0]
    a = symmetric_sqrt(np.eye(d) - lin.T @ lin)
    coords[root, : 2 * d] = _lift_rows(p.coords[root], q.coords[root], a)

    # What P, Q and the tree fix for every step: the apex's squared P edges to
    # the shared facet and the Q part of its distance equations.
    shared, apex = plan.shared, plan.apex
    p_edges = p.coords[apex, None] - p.coords[shared]
    q_edges = q.coords[apex, None] - q.coords[shared]
    lengths2 = np.vecdot(p_edges, p_edges)
    scales = lengths2.max(axis=1).tolist()  # s and its spread are squared lengths
    q_part = np.vecdot(q_edges, q_edges)
    coords[apex, :d] = q.coords[apex]

    for z0, v, facet, l2, qq, scale in zip(range(2 * d, big_d, d), apex, shared, lengths2,
                                           q_part, scales):
        mids = coords[facet, d:z0]
        base = (qq + np.vecdot(mids, mids)) - l2
        # Pairwise differences: 2 <w, mids_j - mids_0> = base_j - base_0.
        a_mat = 2.0 * (mids[1:] - mids[0])
        b_vec = base[1:] - base[0]
        # Maximizing s over the affine solution set = projecting mids_0 onto it.
        shift, *_ = np.linalg.lstsq(a_mat, b_vec - a_mat @ mids[0], rcond=None)
        w = mids[0] + shift
        s_all = -(base - 2.0 * (mids @ w) + np.dot(w, w))
        if s_all.max() - s_all.min() > APEX_TOL * scale:
            raise InfeasibleApex("distance system for the apex is inconsistent")
        s = float(s_all.sum()) / len(s_all)  # np.mean's arithmetic
        if s < -CONTRACTION_TOL * scale:
            raise InfeasibleApex(f"negative residual budget, {s / scale:.3g} of the largest "
                                 "squared edge")
        coords[v, d:z0] = w
        coords[v, z0] = math.sqrt(max(s, 0.0))

    return PleatedEmbedding(ambient_dimension=big_d, coords=np.ldexp(coords, k),
                            triangulation=tri, source=source, target=target)


def isometry_residual(lifted, source) -> float | np.ndarray:
    """Largest change of a pairwise distance between corresponding points, per
    point set of a (..., k+1, D) stack; a float for a single set."""
    k = _exponent(lifted, source)
    lifted, source = np.ldexp(lifted, -k), np.ldexp(source, -k)  # exact
    i, j = np.triu_indices(source.shape[-2], 1)
    res = np.abs(np.linalg.norm(lifted[..., i, :] - lifted[..., j, :], axis=-1)
                 - np.linalg.norm(source[..., i, :] - source[..., j, :], axis=-1)
                 ).max(axis=-1, initial=0.0)
    res = np.ldexp(res, k)
    return float(res) if res.ndim == 0 else res


def _fold_angles(coords: np.ndarray, faces: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Per ``(face, a, b)`` triple, a row of the (g, size) ``faces`` and (g, 2)
    ``ab``, the angle at the face between a and b orthogonal to its span (pi =
    flat), on ``coords`` divided to size about 1; one stacked QR."""
    if not len(faces):
        return np.empty(0)
    base = coords[faces[:, :1]]  # (g, 1, D)
    r = coords[ab] - base  # (g, 2, D): ra, rb
    if faces.shape[1] > 1:
        qmat = np.linalg.qr(np.swapaxes(coords[faces[:, 1:]] - base, -1, -2))[0]
        r = r - (r @ qmat) @ np.swapaxes(qmat, -1, -2)
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
    ridge_reports = []
    for tau, simplices, rows in plan.ridges:
        total = sum(angles[row] for row in rows)
        ridge_reports.append(RidgeAngles(
            vertices=tau,
            simplices=simplices,
            angle_sum=float(total),
            strictly_below_pi=bool(total < np.pi - 1e-9),
        ))

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


def _prefix_gram_tops(m: np.ndarray, first: int) -> np.ndarray:
    """Top eigenvalue of the Gram matrix of each column prefix of a (t, k, D)
    stack, from ``first`` + 1 columns up: (D - first, t).  The Grams are
    cumulative sums over column blocks of about ``_CHAIN_BLOCK`` floats, each
    led by the running total, so every sum adds in column order."""
    t, k, big_d = m.shape
    step = max(1, _CHAIN_BLOCK // (t * k * k))
    gram, tops = np.empty((t, 0, k, k)), []
    for lo in range(0, big_d, step):
        cols = m[..., lo:lo + step]
        gram = np.cumsum(np.concatenate([gram[:, -1:], np.einsum("tic,tjc->tcij", cols, cols)],
                                        axis=1), axis=1)[:, -cols.shape[-1]:]
        tops.append(np.linalg.eigvalsh(gram[:, max(0, first - lo):])[..., -1])
    return np.concatenate(tops, axis=1).T


def _pair_alphas(r_src: np.ndarray, r_tgt: np.ndarray) -> np.ndarray:
    """Top eigenvalue of X^T X, X = R_src^-T R_tgt^T, per pair of (P, k, k) stage frames."""
    x = frame_map(np.swapaxes(r_src, -1, -2), np.swapaxes(r_tgt, -1, -2))
    return np.linalg.eigvalsh(np.swapaxes(x, -1, -2) @ x)[..., -1]


def projection_chain(coords: np.ndarray, d: int, simplices,
                     source: Shape | None = None,
                     target: Shape | None = None) -> ProjectionChain:
    """Drop the last coordinate one dimension at a time down to R^d.

    Every stage records, per simplex, the top squared singular value of the
    affine map from the previous stage (an orthogonal projection restricted
    to the simplex, hence always a weak compression) and from the original
    source shape when given.  The source is solved once; a stage's source
    alphas are the top eigenvalues of the Gram matrices of that map's column
    prefix.  Against the previous stage, each stage's edges are factored once
    (R_c, the R-only QR of their first c columns), and the map from stage
    c + 1 to c has the singular values of the k x k R_c R_{c+1}^-1; a simplex
    whose edges are zero past column c computes that pair once for every
    stage above.  The source Grams, the R_c and the pairs go in blocks of about
    ``_CHAIN_BLOCK`` floats, which bounds the peak memory.  ``simplices`` is
    any (t, k+1) array-like of vertex indices, a read-only array too.  Raises
    ``ValueError`` unless 1 <= d <= the ambient dimension and ``simplices`` is
    such an array of indices into ``coords``, and ``SingularSimplex`` for a
    degenerate source simplex first, then for the first stage's; ``index``
    names the simplex.
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
    stack = coords[idx]
    base = stack if source is None else source.coords[idx]
    alphas_src = _prefix_gram_tops(intrinsic_map(base, stack), d - 1)[::-1]  # (stages, t)
    edges = stack[:, 1:] - stack[:, :1]  # (t, k, D); a stage keeps its first dim columns
    del stack, base  # the stages read only the edges: free the rest before the frames

    # Row s compares stage dims[s] with the stage above.  Simplex i's stages at
    # or above rep[i] all take row 0's pair, at min(D - 1, rep[i]); the pairs
    # run row by row, so the first one that fails is the per-stage loop's.
    dims = np.arange(big_d - 1, d - 1, -1)
    used = (edges != 0.0).any(axis=1)  # (t, D): columns the edges use
    rep = np.maximum((used * np.arange(1, big_d + 1)).max(axis=1), d)
    computed = dims[:, None] < rep
    computed[:1] = True
    rows, simp = np.nonzero(computed)
    pair_dims = np.minimum(dims[rows], rep[simp])
    # frames[r, i]: R of simplex i's edges in their first D - r columns, if a pair reads it.
    k = idx.shape[1] - 1
    frame_rows, frame_simp = np.nonzero(np.arange(len(dims) + 1)[:, None] >= big_d - 1 - rep)
    frames, step = np.zeros((len(dims) + 1, len(idx), k, k)), max(1, _CHAIN_BLOCK // (k * big_d))
    for lo in range(0, len(frame_rows), step):
        r, i = frame_rows[lo:lo + step], frame_simp[lo:lo + step]
        w = big_d - r[0]  # no frame of the block is wider
        part = np.where(np.arange(w) + r[:, None, None] < big_d, edges[i, :, :w], 0.0)
        frames[r, i, :w] = np.linalg.qr(np.swapaxes(part, -1, -2), mode="r")
    alphas, step = np.empty(computed.shape), max(1, _CHAIN_BLOCK // (2 * k * k))
    for lo in range(0, len(simp), step):
        r, i = big_d - 1 - pair_dims[lo:lo + step], simp[lo:lo + step]  # source frames
        try:
            alphas[rows[lo:lo + step], i] = _pair_alphas(frames[r, i], frames[r + 1, i])
        except SingularSimplex as exc:
            exc.index = int(simp[lo + exc.index])  # the simplex, not its pair slot
            raise
    alphas_prev = np.where(computed, alphas, alphas[:1])
    stages = tuple(ProjectionStage(dim, coords[:, :dim], prev, src) for dim, prev, src
                   in zip(range(big_d, d - 1, -1), [None, *alphas_prev], alphas_src))
    final_residual = 0.0
    if target is not None:
        final_residual = float(np.abs(stages[-1].coords - target.coords).max())
    return ProjectionChain(stages=stages, final_residual=final_residual)


def pleated_projection_chain(pe: PleatedEmbedding) -> ProjectionChain:
    return projection_chain(pe.coords, pe.source.polytope.dimension,
                            _pleat_plan(pe.triangulation).simplices, pe.source, pe.target)
