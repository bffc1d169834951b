"""Deterministic random generators and shape helpers for the tests.

Everything random takes an explicit numpy Generator so that property suites
are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from polycomp.affine import AffineCorrespondence
from polycomp.polytopes import Shape, ngon_polytope, simplex_polytope


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_contraction(rng: np.random.Generator, d: int,
                       sigma_range=(0.2, 0.95)) -> np.ndarray:
    """Random matrix with singular values drawn from sigma_range."""
    u = random_rotation(rng, d)
    v = random_rotation(rng, d)
    sv = rng.uniform(*sigma_range, d)
    return u @ np.diag(sv) @ v.T


def random_weak_contraction(rng: np.random.Generator, d: int) -> np.ndarray:
    """Contraction with top singular value exactly one."""
    u = random_rotation(rng, d)
    v = random_rotation(rng, d)
    sv = np.sort(rng.uniform(0.2, 1.0, d))[::-1]
    sv[0] = 1.0
    return u @ np.diag(sv) @ v.T


def random_simplex_coords(rng: np.random.Generator, d: int,
                          min_singular: float = 0.3,
                          max_singular: float = 3.0) -> np.ndarray:
    """(d+1) moderately conditioned points in R^d (rejection sampled)."""
    while True:
        pts = rng.standard_normal((d + 1, d))
        sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        if sv[-1] >= min_singular and sv[0] <= max_singular:
            return pts


def random_simplex_shape(rng: np.random.Generator, d: int) -> Shape:
    return Shape(simplex_polytope(d), random_simplex_coords(rng, d))


def random_convex_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """Valtr's algorithm: a random convex n-gon, vertices counterclockwise."""
    xs = np.sort(rng.uniform(0.0, 1.0, n))
    ys = np.sort(rng.uniform(0.0, 1.0, n))

    def paired_diffs(vals):
        mid = vals[1:-1]
        mask = rng.integers(0, 2, mid.size).astype(bool)
        up = np.concatenate([[vals[0]], mid[mask], [vals[-1]]])
        down = np.concatenate([[vals[0]], mid[~mask], [vals[-1]]])
        return np.concatenate([np.diff(up), -np.diff(down)])

    dx = paired_diffs(xs)
    dy = paired_diffs(ys)
    rng.shuffle(dy)
    vecs = np.column_stack([dx, dy])
    vecs = vecs[np.argsort(np.arctan2(vecs[:, 1], vecs[:, 0]))]
    pts = np.cumsum(vecs, axis=0)
    return pts - pts.mean(axis=0)


def random_polygon_shape(rng: np.random.Generator, n: int) -> Shape:
    return Shape(ngon_polytope(n), random_convex_polygon(rng, n))


def given_piece(m, i: int) -> AffineCorrespondence:
    """Piece i of an induced map in the shapes' given units: ``m.maps`` holds the
    pieces between their mantissas."""
    corr, kp, kq = m.maps[i], m.source.exponent, m.target.exponent
    return AffineCorrespondence(np.ldexp(corr.source, kp), np.ldexp(corr.target, kq),
                                np.ldexp(corr.linear, kq - kp))


def is_homothetic(p: Shape, q: Shape, tol: float = 1e-9) -> bool:
    """Do the two shapes differ by an isometry and a uniform scale?

    Checked on pairwise vertex distances: all ratios equal within tol.
    """
    n = p.coords.shape[0]
    iu = np.triu_indices(n, k=1)
    dp = np.linalg.norm(p.coords[iu[0]] - p.coords[iu[1]], axis=1)
    dq = np.linalg.norm(q.coords[iu[0]] - q.coords[iu[1]], axis=1)
    ratios = dq / dp
    return bool(ratios.max() - ratios.min() <= tol * max(1.0, ratios.max()))
