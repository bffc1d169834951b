"""Sanity checks for the deterministic random generators."""

import numpy as np

from polycomp import validate_shape
from generators import (
    random_contraction,
    random_convex_polygon,
    random_polygon_shape,
    random_rotation,
    random_simplex_coords,
    random_weak_contraction,
)


def test_random_rotation_orthogonal(rng):
    for d in (1, 2, 3, 5):
        r = random_rotation(rng, d)
        assert np.abs(r.T @ r - np.eye(d)).max() <= 1e-12
        assert np.linalg.det(r) > 0


def test_random_contraction_bounds(rng):
    for _ in range(20):
        d = int(rng.integers(1, 7))
        m = random_contraction(rng, d, sigma_range=(0.2, 0.95))
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv.max() <= 0.95 + 1e-12
        assert sv.min() >= 0.2 - 1e-12


def test_random_weak_contraction_top_is_one(rng):
    for _ in range(10):
        d = int(rng.integers(1, 6))
        m = random_weak_contraction(rng, d)
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(sv.max() - 1.0) <= 1e-12
        assert sv.min() <= 1.0 + 1e-12


def test_random_simplex_conditioning(rng):
    for d in (1, 2, 3, 4):
        pts = random_simplex_coords(rng, d)
        sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
        assert sv[-1] >= 0.3 and sv[0] <= 3.0


def test_random_convex_polygon_is_strictly_convex(rng):
    for n in (3, 4, 6, 9):
        coords = random_convex_polygon(rng, n)
        assert coords.shape == (n, 2)
        shape = random_polygon_shape(rng, n)
        report = validate_shape(shape.polytope, shape.coords, "strict")
        assert report.verdict == "strictly-convex"
