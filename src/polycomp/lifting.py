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

import math
from dataclasses import dataclass

import numpy as np

from .affine import affine_correspondence, restricted_singular_values
from .barycentric import barycentric_complex, chain_simplex_coords, triangulation_map
from .errors import (
    InconsistentLattice,
    InfeasibleApex,
    NotContraction,
    NotPSD,
    NotTree,
)
from .polytopes import Shape, Triangulation, bfs_order
from .spectral import NOT_WEAK_COMPRESSION, classify

PSD_CLAMP = 1e-8
CONTRACTION_TOL = 1e-9
DEPENDENT_TOL = 1e-8


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
    gram = m.T @ m
    alpha_max = float(np.linalg.eigvalsh(gram)[-1])
    if alpha_max > 1.0 + CONTRACTION_TOL:
        raise NotContraction(f"alpha_max = {alpha_max} exceeds 1")
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
    corr = affine_correspondence(src, tgt)
    comp = orthogonal_completion(corr.linear)
    edges = src - src[0]
    return np.hstack([tgt, edges @ comp.A.T])


def projection_is_compression(lifted, d: int) -> bool:
    """Does dropping to the first d coordinates strictly compress the set?

    True iff the projection restricted to the linear span of the lifted
    point set has every singular value below 1 - 1e-9, i.e. no direction in
    the span is horizontal.
    """
    x = np.asarray(lifted, dtype=float)
    centered = x - x.mean(axis=0)
    _, sv, vh = np.linalg.svd(centered, full_matrices=False)
    if len(sv) == 0 or sv[0] <= 1e-12:
        return True
    rank = int((sv > 1e-12 * sv[0]).sum())
    basis = vh[:rank].T  # (D, rank), orthonormal columns spanning the set
    svals = np.linalg.svd(basis[:d, :], compute_uv=False)
    return bool((svals < 1.0 - 1e-9).all())


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


def pleated_embedding(p: Shape, q: Shape, tri: Triangulation,
                      tol: float = CONTRACTION_TOL) -> PleatedEmbedding:
    """Pleated embedding of P in R^{d(t+1)} projecting onto Q.

    The root simplex is placed by ``lift_simplex`` in the first 2d
    coordinates.  Each subsequent simplex (breadth-first over the pairing
    tree, children in index order) shares a facet that is already placed;
    its apex takes Q's coordinates in the first block, the middle
    coordinates solving the pairwise-difference system of the d distance
    equations to the shared vertices, and the leftover budget
    s = l^2 - |placed part|^2 as sqrt(s) in the first coordinate of the
    simplex's fresh block.  The middle solution maximizes s over the affine
    solution set (the closest point to the shared vertices' middle
    coordinates), so s < 0 only when the input is not a weak compression
    or the system is numerically inconsistent; both raise
    ``InfeasibleApex``.
    """
    if tri.polytope != p.polytope:
        raise InconsistentLattice("triangulation belongs to a different polytope")
    if not tri.is_tree:
        raise NotTree("face-pairing graph of the triangulation is not a tree")
    m = triangulation_map(p, q, tri.simplices)
    vol = _simplex_volume(m.maps.source)
    vol_p = _shape_volume(p)
    if abs(vol - vol_p) > 1e-9 * max(1.0, vol_p):
        raise InconsistentLattice("simplices do not tile the source shape")
    if classify(m, tol).verdict == NOT_WEAK_COMPRESSION:
        raise NotContraction("the map defined by the triangulation expands a pair")

    d = p.polytope.dimension
    t = len(tri.simplices)
    n = p.polytope.vertex_count
    big_d = d * (t + 1)
    coords = np.zeros((n, big_d))

    order = bfs_order(len(tri.simplices), tri.pairing_edges)
    root = tri.simplices[order[0][0]]
    root_idx = list(root)
    lifted = lift_simplex(p.coords[root_idx], q.coords[root_idx])
    coords[root_idx, : 2 * d] = lifted

    next_col = 2 * d
    for simp_index, parent_index in order[1:]:
        simp = tri.simplices[simp_index]
        parent = tri.simplices[parent_index]
        shared = sorted(set(simp) & set(parent))
        apex = next(v for v in simp if v not in shared)
        z0 = next_col
        next_col += d

        qa = q.coords[apex]
        shared_coords = coords[shared]
        mids = shared_coords[:, d:z0]
        lengths2 = np.array([
            float(np.dot(p.coords[apex] - p.coords[v], p.coords[apex] - p.coords[v]))
            for v in shared
        ])
        base = np.array([
            float(np.dot(qa - shared_coords[j, :d], qa - shared_coords[j, :d])
                  + np.dot(mids[j], mids[j])) - lengths2[j]
            for j in range(len(shared))
        ])
        # Pairwise differences: 2 <w, mids_j - mids_0> = base_j - base_0.
        a_mat = 2.0 * (mids[1:] - mids[0])
        b_vec = base[1:] - base[0]
        # Maximizing s over the affine solution set = projecting mids_0 onto it.
        shift, *_ = np.linalg.lstsq(a_mat, b_vec - a_mat @ mids[0], rcond=None)
        w = mids[0] + shift
        s_all = -(base - 2.0 * (mids @ w) + np.dot(w, w))
        scale = max(1.0, float(lengths2.max()))
        if s_all.max() - s_all.min() > 1e-7 * scale:
            raise InfeasibleApex("distance system for the apex is inconsistent")
        s = float(s_all.mean())
        if s < -CONTRACTION_TOL:
            raise InfeasibleApex(f"negative residual budget {s}")
        coords[apex, :d] = qa
        coords[apex, d:z0] = w
        coords[apex, z0] = np.sqrt(max(s, 0.0))

    return PleatedEmbedding(ambient_dimension=big_d, coords=coords,
                            triangulation=tri, source=p, target=q)


def isometry_residual(lifted, source) -> float | np.ndarray:
    """Largest change of a pairwise distance between corresponding points, per
    point set of a (..., k+1, D) stack; a float for a single set."""
    lifted = np.asarray(lifted, dtype=float)
    source = np.asarray(source, dtype=float)
    i, j = np.triu_indices(source.shape[-2], 1)
    res = np.abs(np.linalg.norm(lifted[..., i, :] - lifted[..., j, :], axis=-1)
                 - np.linalg.norm(source[..., i, :] - source[..., j, :], axis=-1)
                 ).max(axis=-1, initial=0.0)
    return float(res) if res.ndim == 0 else res


def _fold_angle(coords: np.ndarray, face, a: int, b: int) -> float:
    """Angle at ``face`` between vertices a and b, orthogonal to its span (pi = flat)."""
    base = coords[face[0]]
    ra = coords[a] - base
    rb = coords[b] - base
    if len(face) > 1:
        qmat, _ = np.linalg.qr((coords[list(face[1:])] - base).T)
        ra = ra - qmat @ (qmat.T @ ra)
        rb = rb - qmat @ (qmat.T @ rb)
    cosang = float(np.clip(np.dot(ra, rb) / (np.linalg.norm(ra) * np.linalg.norm(rb)),
                           -1.0, 1.0))
    return float(np.arccos(cosang))


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
    q = pe.target
    d = p.polytope.dimension
    tri = pe.triangulation

    projection_residual = float(np.abs(pe.coords[:, :d] - q.coords).max())

    folds = []
    for i, j in tri.pairing_edges:
        shared = sorted(set(tri.simplices[i]) & set(tri.simplices[j]))
        apex_i = next(v for v in tri.simplices[i] if v not in shared)
        apex_j = next(v for v in tri.simplices[j] if v not in shared)
        folds.append(FacetFold(simplices=(i, j), shared_vertices=tuple(shared),
                               dihedral=_fold_angle(pe.coords, shared, apex_i, apex_j)))

    ridges = {}
    if d >= 2:
        for si, s in enumerate(tri.simplices):
            for drop in range(d + 1):
                for drop2 in range(drop + 1, d + 1):
                    tau = tuple(v for k, v in enumerate(s) if k not in (drop, drop2))
                    angle = _fold_angle(pe.coords, tau, s[drop], s[drop2])
                    ridges.setdefault(tau, []).append((si, angle))

    ridge_reports = []
    for tau in sorted(ridges):
        entries = ridges[tau]
        if len(entries) < 2:
            continue
        total = sum(angle for _, angle in entries)
        ridge_reports.append(RidgeAngles(
            vertices=tau,
            simplices=tuple(si for si, _ in entries),
            angle_sum=float(total),
            strictly_below_pi=bool(total < np.pi - 1e-9),
        ))

    idx = np.array(tri.simplices)
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


def projection_chain(coords: np.ndarray, d: int, simplices,
                     source: Shape | None = None,
                     target: Shape | None = None) -> ProjectionChain:
    """Drop the last coordinate one dimension at a time down to R^d.

    Every stage records, per simplex, the top squared singular value of the
    affine map from the previous stage (an orthogonal projection restricted
    to the simplex, hence always a weak compression) and from the original
    source shape when given.
    """
    coords = np.asarray(coords, dtype=float)
    big_d = coords.shape[1]
    if len({len(s) for s in simplices}) > 1:
        raise ValueError("every simplex must list the same number of vertices")
    idx = np.array(simplices, dtype=int)  # (t, k+1)
    stack = coords[idx]
    base = stack if source is None else source.coords[idx]
    stages = []
    for dim in range(big_d, d - 1, -1):
        cur = stack[..., :dim]
        alphas_prev = None
        if dim < big_d:
            alphas_prev = restricted_singular_values(stack[..., :dim + 1], cur).max(axis=-1) ** 2
        alphas_src = restricted_singular_values(base, cur).max(axis=-1) ** 2
        stages.append(ProjectionStage(dim, coords[:, :dim], alphas_prev, alphas_src))
    final_residual = 0.0
    if target is not None:
        final_residual = float(np.abs(stages[-1].coords - target.coords).max())
    return ProjectionChain(stages=tuple(stages), final_residual=final_residual)


def pleated_projection_chain(pe: PleatedEmbedding) -> ProjectionChain:
    return projection_chain(pe.coords, pe.source.polytope.dimension,
                            pe.triangulation.simplices, source=pe.source,
                            target=pe.target)
