"""Affine correspondences between simplices, in edge form.

A d-simplex with vertices p_0..p_d is held by its edge matrix E, whose rows
are the edges p_i - p_0.  The affine map carrying it onto a simplex with
edge matrix F has the linear part A = (E^{-1} F)^T; a piece is its two
vertex arrays and that linear part, and it maps x to q_0 + A (x - p_0).
Every spectral criterion in this package reads the d x d linear part,
through the eigenvalues of its Gram matrix A^T A, and all of it broadcasts
over stacks of simplices, so a shape's edge inverses can be computed once and
shared by every map out of it.  For d = 2 the determinant, the inverse and the
Gram eigenvalues are closed forms, with no per-matrix LAPACK call; for d = 4 the
determinant and the inverse are, as a Laplace expansion in complementary 2 x 2 minors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SingularSimplex

DET_TOL = 1e-12


def edges(vertices: np.ndarray) -> np.ndarray:
    """The (..., d, d) edge matrices, rows p_i - p_0, of a (..., d+1, d) vertex stack."""
    v = np.asarray(vertices, dtype=float)
    return v[..., 1:, :] - v[..., :1, :]


def degenerate(vertices: np.ndarray) -> np.ndarray:
    """Per simplex of a (..., d+1, d) stack: are its ``edges`` ``_flat``?
    Free of position and scale."""
    return _flat(edges(vertices))


@np.errstate(over="ignore", invalid="ignore")  # overflow: rescaled; inf or nan: not flat
def _flat(e: np.ndarray) -> np.ndarray:
    """Per (..., d, d) edge matrix: is |det| <= DET_TOL once the rows are scaled to a unit
    longest row?  det is ``determinant``'s: for a triangular 2 x 2, its diagonal's product."""
    long2 = np.vecdot(e, e).max(axis=-1)  # the longest row, squared
    if not 1e-40 < long2.min() <= long2.max() < 1e40:  # else |det| could over- or underflow
        size = np.abs(e).reshape(e.shape[:-2] + (-1,)).max(axis=-1)[..., None, None]
        e = e / np.where(size > 0, size, 1.0)  # each matrix's largest |entry| becomes 1
        long2 = np.vecdot(e, e).max(axis=-1)
    return np.abs(determinant(e)) <= DET_TOL * long2 ** (e.shape[-1] / 2)


def determinant(e: np.ndarray) -> np.ndarray:
    """det per (..., d, d) matrix: ps - qr for d = 2, a Laplace expansion in 2 x 2 minors
    for d = 4 (``_laplace4``), else an LU factorization."""
    if e.shape[-1] == 4:
        return _laplace4(_entries4(e))[1].reshape(e.shape[:-2])
    if e.shape[-1] != 2:
        return np.linalg.det(e)
    return e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] * e[..., 1, 0]


# The column pairs of the 2 x 2 minors of a 4 x 4 matrix M; pair 5 - k is pair k's complement.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Entry 4 i + j is M[i, j].  On pair k = (a, b), minor k of rows (0, 1) and minor 6 + k
# of rows (2, 3) are M[r, a] M[r + 1, b] - M[r, b] M[r + 1, a], r = 0 and 2.
_MINOR_TERMS = np.array([[4 * r + a, 4 * r + 4 + b, 4 * r + b, 4 * r + 4 + a]
                         for r in (0, 2) for a, b in _PAIRS]).T


def _cofactor_terms() -> tuple[np.ndarray, np.ndarray]:
    """(3, 16) tables of the three terms of each cofactor C_ij, in the adjugate's order
    (entry 4 j + i).  Along the other row r of i's pair of rows, (-1)^(i + j) C_ij =
    sum_t (-1)^t M[r, l_t] m_t over the columns l_0 < l_1 < l_2 other than j, m_t the
    minor of the other pair of rows on the complement of the pair {j, l_t}."""
    entries, minors = np.empty((2, 3, 16), dtype=np.intp)
    for i, j in itertools.product(range(4), repeat=2):
        for t, l in enumerate(c for c in range(4) if c != j):
            entries[t, 4 * j + i] = 4 * (i ^ 1) + l
            minors[t, 4 * j + i] = (11 if i < 2 else 5) - _PAIRS.index(tuple(sorted((j, l))))
    return entries, minors


_COFACTOR_ENTRIES, _COFACTOR_MINORS = _cofactor_terms()
_COFACTOR_SIGNS = np.array([(-1.0) ** (k // 4 + k % 4) for k in range(16)])[:, None]


def _entries4(e: np.ndarray) -> np.ndarray:
    """The (16, n) contiguous copy of a (..., 4, 4) stack of n matrices, entry 4 i + j
    first: always a copy, which ``_inverse`` scales in place."""
    return e.reshape(-1, 16).T.copy()


def _laplace4(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The twelve 2 x 2 minors (``_MINOR_TERMS``) and the determinant, the Laplace
    expansion along rows (0, 1), sum_k +-s_k c_(5-k), of (16, n) entries."""
    a, b, c, d = (f.take(i, 0) for i in _MINOR_TERMS)
    minors = a * b - c * d
    p = minors[:6] * minors[:5:-1]
    return minors, (p[0] - p[1] + p[2]) + (p[3] - p[4] + p[5])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a singular matrix reads inf/nan
def _inverse(e: np.ndarray) -> np.ndarray:
    """E^{-1} per (..., d, d) matrix.  For d = 2 and d = 4 it is the adjugate of the
    ``prescaled`` M = E / 2^k over det(M) 2^k, exact scalings that keep the determinant
    in range; a 4 x 4 cofactor is three entries times complementary minors."""
    if e.shape[-1] == 4:
        f = _entries4(e)
        k = np.frexp(np.abs(f).max(axis=0))[1]  # ``prescaled``, on the entries-first copy
        np.ldexp(f, -k, out=f)
        minors, det = _laplace4(f)
        t0, t1, t2 = (f.take(i, 0) * minors.take(j, 0)
                      for i, j in zip(_COFACTOR_ENTRIES, _COFACTOR_MINORS))
        adj = t0 - t1 + t2
        adj /= _COFACTOR_SIGNS * np.ldexp(det, k)
        return np.ascontiguousarray(adj.T).reshape(e.shape)
    if e.shape[-1] != 2:
        return np.linalg.inv(e)
    m, k = prescaled(e)
    adj = np.empty_like(m)  # [[s, -q], [-r, p]] for M = [[p, q], [r, s]]
    adj[..., 0, 0], adj[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
    adj[..., 0, 1], adj[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    adj /= np.ldexp(determinant(m), k)[..., None, None]
    return adj


@dataclass(frozen=True)
class AffineCorrespondence:
    """Affine map between two d-simplices given by vertex correspondence;
    the arrays may carry leading stack axes, and indexing picks one map."""

    source: np.ndarray  # (..., d+1, d) rows are vertices
    target: np.ndarray
    linear: np.ndarray  # (..., d, d) reduced matrix

    @property
    def dimension(self) -> int:
        return self.source.shape[-1]

    def __getitem__(self, i) -> AffineCorrespondence:
        return AffineCorrespondence(self.source[i], self.target[i], self.linear[i])


@np.errstate(over="ignore", invalid="ignore")  # an overflowing Gram's eigenvalues read inf
def gram_eigenvalues(linear: np.ndarray) -> np.ndarray:
    """Eigenvalues of A^T A per (..., d, d) linear part A, ascending; inf where they are
    not finite.  For d = 2, A = [[p, q], [r, s]], they are sigma_1^2 and (det A / sigma_1)^2,
    sigma_1 = (hypot(p + s, r - q) + hypot(p - s, r + q)) / 2: no Gram is formed, so each
    is good to a few (1 + sigma_1 / sigma_2) ulps.  Otherwise the Gram is formed from a
    contiguous A^T, so a piece gets the same bits in any stack, whatever its layout, and
    one ``eigvalsh`` takes the stack as it is, or, where a Gram is not finite, with those
    Grams replaced by zeros."""
    if linear.shape[-1] == 2:
        p, q, r, s = linear[..., 0, 0], linear[..., 0, 1], linear[..., 1, 0], linear[..., 1, 1]
        top = (np.hypot(p + s, r - q) + np.hypot(p - s, r + q)) / 2
        alphas = np.empty(top.shape + (2,))
        np.square(determinant(linear) / top, out=alphas[..., 0])
        np.square(top, out=alphas[..., 1])
        np.fmin(alphas[..., 0], alphas[..., 1], out=alphas[..., 0])  # ascending; A = 0: 0/0 -> 0
        alphas[~np.isfinite(alphas[..., 1])] = np.inf
        return alphas
    gram = np.ascontiguousarray(np.swapaxes(linear, -1, -2)) @ linear
    if np.isfinite(gram).all():
        return np.linalg.eigvalsh(gram)
    finite = np.isfinite(gram).all(axis=(-2, -1))[..., None]  # else LAPACK may not converge
    return np.where(finite, np.linalg.eigvalsh(np.where(finite[..., None], gram, 0.0)), np.inf)


def prescaled(linear: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each (..., d, d) matrix divided by 2^k, and k, the ``frexp`` exponent of its largest
    |entry|: exact, so its Gram eigenvalues scale by exactly 4^-k, the largest to about 1."""
    k = np.frexp(np.abs(linear).max(axis=(-2, -1)))[1]
    return np.ldexp(linear, -k[..., None, None]), k


def edge_inverses(e: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """E^{-1} per (..., d, d) edge matrix; a matrix flagged in ``flat`` is replaced by
    the identity first, so no singular one is inverted."""
    return _inverse(np.where(flat[..., None, None], np.eye(e.shape[-1]), e))


@np.errstate(over="ignore", invalid="ignore")  # it reads inf or nan; callers raise on it
def linear_parts(inv_src: np.ndarray, e_tgt: np.ndarray) -> np.ndarray:
    """The linear parts (E^{-1} F)^T from source edge inverses and target edge matrices."""
    return np.swapaxes(inv_src @ e_tgt, -1, -2)


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
    return AffineCorrespondence(src, tgt, solve_correspondence(edges(src), edges(tgt)))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing inverse reads inf or nan
def solve_correspondence(e_src: np.ndarray, e_tgt: np.ndarray) -> np.ndarray:
    """The linear parts (E^{-1} F)^T of the maps between simplex stacks with edge matrices
    E = ``e_src`` and F = ``e_tgt``, the sources already known to be nondegenerate."""
    return linear_parts(_inverse(e_src), e_tgt)

