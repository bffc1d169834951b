"""Homogeneous affine correspondences between simplices.

A d-simplex with vertices p_1..p_{d+1} is written as the (d+1)x(d+1) matrix
whose columns are the vertices embedded in the hyperplane x_{d+1} = 1.  The
affine map carrying one simplex onto another is then A = Q P^{-1}; dropping
its last row and column leaves the d x d linear part used by every spectral
criterion in this package, and all of it broadcasts over stacks of simplices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSimplex

DET_TOL = 1e-12


def homogeneous(vertices: np.ndarray) -> np.ndarray:
    """Column matrices [[p_1 .. p_{d+1}], [1 .. 1]] of vertex arrays (..., d+1, d)."""
    v = np.asarray(vertices, dtype=float)
    ones = np.ones(v.shape[:-2] + (1, v.shape[-2]))
    return np.concatenate([np.swapaxes(v, -1, -2), ones], axis=-2)


def degenerate(vertices: np.ndarray) -> np.ndarray:
    """Per simplex of a (..., d+1, d) stack: |det| <= DET_TOL * max(1, max |coord|)^d."""
    v = np.asarray(vertices, dtype=float)
    scale = np.maximum(1.0, np.abs(v).max(axis=(-2, -1)))
    return np.abs(np.linalg.det(homogeneous(v))) <= DET_TOL * scale ** v.shape[-1]


@dataclass(frozen=True)
class AffineCorrespondence:
    """Affine map between two d-simplices given by vertex correspondence;
    the arrays may carry leading stack axes, and indexing picks one map."""

    source: np.ndarray  # (..., d+1, d) rows are vertices
    target: np.ndarray
    matrix: np.ndarray  # (..., d+1, d+1) homogeneous map, last row (0,..,0,1)
    linear: np.ndarray  # (..., d, d) reduced matrix

    @property
    def dimension(self) -> int:
        return self.source.shape[-1]

    def __getitem__(self, i) -> AffineCorrespondence:
        return AffineCorrespondence(self.source[i], self.target[i], self.matrix[i],
                                    self.linear[i])

    def apply(self, x: np.ndarray) -> np.ndarray:
        xh = np.append(np.asarray(x, dtype=float), 1.0)
        return (self.matrix @ xh)[..., :-1]

    def gram_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of linear^T linear, ascending (squared singular values)."""
        return np.linalg.eigvalsh(np.swapaxes(self.linear, -1, -2) @ self.linear)


def affine_correspondence(source, target) -> AffineCorrespondence:
    """Affine maps taking each source simplex of a (..., d+1, d) stack onto its target.

    Raises ``SingularSimplex`` when a source simplex is affinely degenerate
    (|det| below 1e-12 at coordinate scale); ``index`` names the first.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim < 2 or src.shape[-2] != src.shape[-1] + 1:
        raise ValueError("simplices must be (d+1) x d vertex arrays of equal shape")
    bad = np.flatnonzero(degenerate(src))
    if bad.size:
        raise SingularSimplex("source simplex is affinely degenerate", int(bad[0]))
    d = src.shape[-1]
    p = np.swapaxes(homogeneous(src), -1, -2)
    matrix = np.swapaxes(np.linalg.solve(p, np.swapaxes(homogeneous(tgt), -1, -2)), -1, -2)
    return AffineCorrespondence(src, tgt, matrix, np.ascontiguousarray(matrix[..., :d, :d]))


def restricted_singular_values(source, target) -> np.ndarray:
    """Singular values of the affine maps between k-simplices in mixed dimensions.

    Source and target are (..., k+1, D_s) and (..., k+1, D_t) stacks.  Each
    source simplex may live in a higher-dimensional space than its own
    affine hull; the map is measured relative to the intrinsic (isometric)
    coordinates of that hull.  Used to certify that dropping coordinates is
    a per-simplex weak compression.  Raises ``SingularSimplex`` when a
    source simplex is affinely degenerate; ``index`` names the first.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape[-2] > src.shape[-1] + 1:  # more than D+1 points are affinely dependent
        raise SingularSimplex("source simplex is affinely degenerate", 0)
    e_src = np.swapaxes(src[..., 1:, :] - src[..., :1, :], -1, -2)  # (..., D_s, k)
    e_tgt = tgt[..., 1:, :] - tgt[..., :1, :]  # (..., k, D_t)
    _, r = np.linalg.qr(e_src)
    cond = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    bad = np.flatnonzero(cond.min(axis=-1) <= DET_TOL * np.maximum(1.0, cond.max(axis=-1)))
    if bad.size:
        raise SingularSimplex("source simplex is affinely degenerate", int(bad[0]))
    m = np.linalg.solve(np.swapaxes(r, -1, -2), e_tgt)  # target edges, intrinsic coords
    return np.linalg.svd(np.swapaxes(m, -1, -2), compute_uv=False)
