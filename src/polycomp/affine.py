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
    """Per simplex of a (..., d+1, d) stack: are its edges p_i - p_0 ``_flat``?
    Free of position and scale."""
    v = np.asarray(vertices, dtype=float)
    return _flat(v[..., 1:, :] - v[..., :1, :])


@np.errstate(over="ignore")  # an overflowing length takes the rescaling branch
def _flat(e: np.ndarray, triangular: bool = False) -> np.ndarray:
    """Per (..., d, d) edge matrix: is |det| <= DET_TOL once the rows are scaled
    to a unit longest row?  A ``triangular`` stack's determinant is read as the
    product of its diagonal instead of an LU factorization."""
    long2 = np.vecdot(e, e).max(axis=-1)  # the longest row, squared
    if not 1e-40 < long2.min() <= long2.max() < 1e40:  # else |det| could over- or underflow
        size = np.abs(e).reshape(e.shape[:-2] + (-1,)).max(axis=-1)[..., None, None]
        e = e / np.where(size > 0, size, 1.0)  # each matrix's largest |entry| becomes 1
        long2 = np.vecdot(e, e).max(axis=-1)
    det = np.diagonal(e, 0, -2, -1).prod(axis=-1) if triangular else np.linalg.det(e)
    return np.abs(det) <= DET_TOL * long2 ** (e.shape[-1] / 2)


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

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing Gram's eigenvalues read inf
    def gram_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of linear^T linear, ascending (squared singular values)."""
        gram = np.swapaxes(self.linear, -1, -2) @ self.linear
        finite = np.isfinite(gram).all(axis=(-2, -1))[..., None]  # else LAPACK may not converge
        return np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], gram, 0.0)), np.inf)


def affine_correspondence(source, target) -> AffineCorrespondence:
    """Affine maps taking each source simplex of a (..., d+1, d) stack onto its target.

    Raises ``SingularSimplex`` when a source simplex is ``degenerate``;
    ``index`` names the first.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim < 2 or src.shape[-2] != src.shape[-1] + 1:
        raise ValueError("simplices must be (d+1) x d vertex arrays of equal shape")
    bad = np.flatnonzero(degenerate(src))
    if bad.size:
        raise SingularSimplex("source simplex is affinely degenerate", int(bad[0]))
    return solve_correspondence(src, tgt)


def solve_correspondence(src: np.ndarray, tgt: np.ndarray) -> AffineCorrespondence:
    """``affine_correspondence`` on float stacks already known to be nondegenerate."""
    d = src.shape[-1]
    p = np.swapaxes(homogeneous(src), -1, -2)
    matrix = np.swapaxes(np.linalg.solve(p, np.swapaxes(homogeneous(tgt), -1, -2)), -1, -2)
    return AffineCorrespondence(src, tgt, matrix, np.ascontiguousarray(matrix[..., :d, :d]))


def intrinsic_map(source, target) -> np.ndarray:
    """Affine maps between k-simplices in mixed dimensions, in intrinsic coordinates.

    Source and target are (..., k+1, D_s) and (..., k+1, D_t) stacks.  Each
    source simplex may live in a higher-dimensional space than its own
    affine hull; row i of the returned (..., k, D_t) map is the image of the
    i-th vector of an orthonormal frame of that hull (from the QR of the
    source edges).  Raises ``SingularSimplex`` when a source simplex is
    ``degenerate``, tested on its edges in that frame; ``index`` names the first.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.ndim < 2 or tgt.ndim < 2:
        raise ValueError("simplices must be (..., k+1, D) vertex arrays")
    if src.shape[-2] > src.shape[-1] + 1:  # more than D+1 points are affinely dependent
        raise SingularSimplex("source simplex is affinely degenerate", 0)
    e_src = np.swapaxes(src[..., 1:, :] - src[..., :1, :], -1, -2)  # (..., D_s, k)
    e_tgt = tgt[..., 1:, :] - tgt[..., :1, :]  # (..., k, D_t)
    frame = np.swapaxes(np.linalg.qr(e_src, mode="r"), -1, -2)  # row i: edge i in the frame
    bad = np.flatnonzero(_flat(frame, triangular=True))
    if bad.size:
        raise SingularSimplex("source simplex is affinely degenerate", int(bad[0]))
    return np.linalg.solve(frame, e_tgt)


def restricted_singular_values(source, target) -> np.ndarray:
    """Singular values, descending, of ``intrinsic_map(source, target)``.

    Used to certify that dropping coordinates is a per-simplex weak
    compression.  Raises ``SingularSimplex`` as ``intrinsic_map`` does.
    """
    return np.linalg.svd(np.swapaxes(intrinsic_map(source, target), -1, -2), compute_uv=False)
