"""Power-of-two scale invariance: every solve reads a shape's mantissas.

P * 2^a and Q * 2^b have the mantissas of P and Q, so the map between them is the
unscaled one's, brought to the given units by exact powers of two: its alphas by
4^(b - a), lambda by 2^(a - b), a pleat's coordinates by 2^a, and the metric,
verdicts after a critical rescale, and relations at a = b by nothing at all.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from polycomp import (
    affine_correspondence,
    classify,
    compare_order,
    delta_polytope,
    fan_triangulation,
    induced_map,
    per_chain_deltas,
    pleat_validity,
    pleated_embedding,
    pleated_projection_chain,
    perturbation_classify,
    scale_critical,
    triangulation_map,
)
from polycomp.io import load_shape
from polycomp.polytopes import Shape
from generators import random_polygon_shape
from test_chain_kernel import projective_cube

DATA = Path(__file__).parent / "data"
EXPONENTS = (0, 300, -300, 600, -600, 1000, -1000)
TINY = np.finfo(float).tiny


def scaled(shape, a):
    """``shape`` times 2^a, or None where that does not keep every bit."""
    coords = np.ldexp(shape.coords, a)
    if not (np.isfinite(coords).all() and np.array_equal(np.ldexp(coords, -a), shape.coords)):
        return None
    return Shape(shape.polytope, coords, shape.mode)


def assert_image(got, want, shift):
    """``got`` is ``want`` times 2^shift bit for bit wherever that is finite and normal
    (or zero); elsewhere the power of two itself leaves the float range."""
    with np.errstate(over="ignore"):
        image = np.ldexp(np.asarray(want, dtype=float), shift)
    keep = (image == 0.0) | (np.isfinite(image) & (np.abs(image) >= TINY))
    np.testing.assert_array_equal(np.asarray(got)[keep], image[keep])


@pytest.mark.parametrize("pair", [(-600, 600), (600, -600), (-1000, 1000)])
def test_delta_of_the_golden_triangles_at_far_scales(pair):
    p, q = (load_shape(DATA / f) for f in ("P.json", "Q.json"))
    a, b = pair
    assert delta_polytope(scaled(p, a), scaled(q, b)) == delta_polytope(p, q) == 2.849747058825571


def pair_corpus():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4, 5):
        yield f"{d}-cube", projective_cube(rng, d), projective_cube(rng, d)
    for n in (5, 9):
        yield f"{n}-gon", random_polygon_shape(rng, n), random_polygon_shape(rng, n)


@pytest.mark.parametrize("name,p,q", list(pair_corpus()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_maps_scale_by_exact_powers_of_two(name, p, q):
    m = induced_map(p, q)
    deltas, rescale, order = per_chain_deltas(p, q), scale_critical(p, q), compare_order(p, q)
    verdict = classify(m).verdict
    for a, b in itertools.product(EXPONENTS, repeat=2):
        pa, qb = scaled(p, a), scaled(q, b)
        if pa is None or qb is None:
            continue
        far = induced_map(pa, qb)
        assert_image(far.alphas, m.alphas, 2 * (b - a))
        assert per_chain_deltas(pa, qb).tobytes() == deltas.tobytes()
        if 0.0 < far.alphas.max() < np.inf:
            r = scale_critical(pa, qb)
            assert r.lam == np.ldexp(rescale.lam, a - b), (a, b)
            assert r.classification.verdict == rescale.classification.verdict
            assert r.classification.summary.alpha_max == rescale.classification.summary.alpha_max
        if a == b:
            assert classify(far).verdict == verdict
            assert compare_order(pa, qb).relation == order.relation


def test_raw_simplex_stacks_scale_by_exact_powers_of_two():
    # affine_correspondence takes raw stacks, and splits them as a shape is split;
    # without that, a 4 x 4 determinant overflows at 2^300 and the linear parts read NaN.
    rng = np.random.default_rng(43)
    for d in (2, 3, 4, 5):
        src, tgt, vel = rng.standard_normal((3, 6, d + 1, d))
        linear = affine_correspondence(src, tgt).linear
        sym = [perturbation_classify(s, v).symmetric_part for s, v in zip(src, vel)]
        for a, b in itertools.product(EXPONENTS, repeat=2):
            far = affine_correspondence(np.ldexp(src, a), np.ldexp(tgt, b)).linear
            assert_image(far, linear, b - a)
            for s, v, want in zip(src, vel, sym):
                got = perturbation_classify(np.ldexp(s, a), np.ldexp(v, a)).symmetric_part
                assert got.tobytes() == want.tobytes()


def fan_pairs():
    """n-gon pairs with Q scaled so that the fan from vertex 0 has alpha_max 0.81."""
    rng = np.random.default_rng(41)
    for n in (4, 7, 12):
        p, q = random_polygon_shape(rng, n), random_polygon_shape(rng, n)
        tri = fan_triangulation(p.polytope, 0)
        yield p, q.scaled(np.sqrt(0.81 / triangulation_map(p, q, tri.simplices).alphas.max())), tri


def test_fan_pleats_scale_by_exact_powers_of_two():
    for p, q, tri in fan_pairs():
        pe = pleated_embedding(p, q, tri)
        report, chain = pleat_validity(pe), pleated_projection_chain(pe)
        for a, b in itertools.product(EXPONENTS, repeat=2):
            pa, qb = scaled(p, a), scaled(q, b)
            if pa is None or qb is None:
                continue
            assert_image(triangulation_map(pa, qb, tri.simplices).alphas,
                         triangulation_map(p, q, tri.simplices).alphas, 2 * (b - a))
            if a != b:
                continue
            far = pleated_embedding(pa, qb, tri)
            assert_image(far.coords, pe.coords, a)
            far_report = pleat_validity(far)
            assert_image(far_report.isometry_residuals, report.isometry_residuals, a)
            assert ([f.dihedral for f in far_report.facet_folds]
                    == [f.dihedral for f in report.facet_folds])
            for got, want in zip(pleated_projection_chain(far).stages, chain.stages):
                assert got.per_simplex_alpha_vs_source.tobytes() == \
                    want.per_simplex_alpha_vs_source.tobytes()


def test_a_square_near_the_float_maximum_against_itself():
    # lambda is that of the square's mantissas, 1e308 / 2^1024 times the unit square,
    # which reads 1 + 2^-52 at any scale (also unscaled, at 0.556 times the square).
    square = load_shape(DATA / "square.json")
    for sign in (1.0, -1.0):
        big = Shape(square.polytope, sign * 1e308 * square.coords)
        assert classify(induced_map(big, big)).verdict == "WeakCompressionNotStrict"
        assert delta_polytope(big, big) == 0.0
        assert compare_order(big, big).relation == "both"
        unit = Shape(square.polytope, big.mantissas)
        assert scale_critical(big, big).lam == scale_critical(unit, unit).lam == 1.0 + 2.0**-52
