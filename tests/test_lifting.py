"""Orthogonal completions, simplex lifts, pleated embeddings, chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp import (
    NotContraction,
    NotPSD,
    NotTree,
    Shape,
    SingularSimplex,
    Triangulation,
    fan_triangulation,
    lift_simplex,
    ngon_polytope,
    orthogonal_completion,
    pleat_validity,
    pleated_embedding,
    pleated_projection_chain,
    projection_chain,
    projection_is_compression,
    restricted_singular_values,
    scale_critical,
    simplex_polytope,
    symmetric_sqrt,
)
from polycomp.generators import (
    random_contraction,
    random_convex_polygon,
    random_simplex_coords,
)
from polycomp.lifting import isometry_residual


def pairwise_distance_residual(lifted, source):
    n = len(source)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(np.linalg.norm(lifted[i] - lifted[j])
                                   - np.linalg.norm(source[i] - source[j])))
    return worst


def test_symmetric_sqrt_basics():
    assert np.allclose(symmetric_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(symmetric_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                       atol=1e-12)


def test_symmetric_sqrt_reconstruction(rng):
    for _ in range(10):
        d = int(rng.integers(1, 7))
        g = rng.standard_normal((d, d))
        s = g.T @ g
        a = symmetric_sqrt(s)
        assert np.abs(a - a.T).max() <= 1e-12
        assert np.abs(a @ a - s).max() <= 1e-9


def test_symmetric_sqrt_not_psd():
    with pytest.raises(NotPSD):
        symmetric_sqrt(np.diag([1.0, -0.5]))


def test_completion_three_four_five():
    comp = orthogonal_completion(np.array([[0.6]]))
    expected = np.array([[0.6, 0.8], [0.8, -0.6]])
    assert np.abs(comp.U - expected).max() <= 1e-12
    assert np.abs(comp.U.T @ comp.U - np.eye(2)).max() <= 1e-12


def test_completion_identity_is_identity():
    comp = orthogonal_completion(np.eye(4))
    assert np.array_equal(comp.U, np.eye(8))


def test_completion_random_contractions(rng):
    for _ in range(30):
        d = int(rng.integers(1, 7))
        m = random_contraction(rng, d, sigma_range=(0.0, 1.0))
        comp = orthogonal_completion(m)
        assert np.array_equal(comp.U[:d, :d], m)
        assert np.abs(comp.U.T @ comp.U - np.eye(2 * d)).max() <= 1e-10
        gram = comp.M.T @ comp.M + comp.A.T @ comp.A
        assert np.abs(gram - np.eye(d)).max() <= 1e-10


def test_completion_rejects_expansion():
    with pytest.raises(NotContraction):
        orthogonal_completion(np.diag([1.5, 0.3]))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_completion_property(seed, d):
    rng = np.random.default_rng(seed)
    m = random_contraction(rng, d, sigma_range=(0.0, 1.0))
    comp = orthogonal_completion(m)
    assert np.abs(comp.U.T @ comp.U - np.eye(2 * d)).max() <= 1e-10
    assert np.abs(comp.M.T @ comp.M + comp.A.T @ comp.A - np.eye(d)).max() <= 1e-10


def test_lift_identity_pads_with_zeros(rng):
    src = random_simplex_coords(rng, 3)
    lifted = lift_simplex(src, src)
    assert np.allclose(lifted[:, :3], src)
    assert np.abs(lifted[:, 3:]).max() <= 1e-7


def test_lift_segment_at_sixty_degrees():
    seg = simplex_polytope(1)
    p = Shape(seg, [[0.0], [1.0]])
    q = Shape(seg, [[0.0], [0.5]])
    lifted = lift_simplex(p, q)
    assert np.allclose(lifted[0], [0.0, 0.0], atol=1e-12)
    assert np.allclose(lifted[1], [0.5, np.sqrt(0.75)], atol=1e-12)


def test_lift_random_critical_pairs(rng):
    for _ in range(10):
        d = int(rng.integers(1, 5))
        poly = simplex_polytope(d)
        p = Shape(poly, random_simplex_coords(rng, d))
        q = Shape(poly, random_simplex_coords(rng, d))
        critical = scale_critical(p, q).scaled_target
        lifted = lift_simplex(p, critical)
        assert pairwise_distance_residual(lifted, p.coords) <= 1e-9
        assert np.abs(lifted[:, :d] - critical.coords).max() <= 1e-10


def test_lift_rejects_expanding_pair(triangle_pair):
    p, q = triangle_pair
    with pytest.raises(NotContraction):
        lift_simplex(p, q)


def test_projection_is_compression_cases(rng):
    src = random_simplex_coords(rng, 2)
    assert not projection_is_compression(lift_simplex(src, src), 2)
    assert projection_is_compression(lift_simplex(src, 0.5 * src), 2)
    partial = src @ np.diag([1.0, 0.5]).T
    assert not projection_is_compression(lift_simplex(src, partial), 2)


def square_pair(scale=0.8):
    poly = ngon_polytope(4)
    p = Shape(poly, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return p, p.scaled(scale)


def test_pleated_zero_pleat():
    p, _ = square_pair()
    tri = fan_triangulation(p.polytope, 0)
    pe = pleated_embedding(p, p, tri)
    assert pe.ambient_dimension == 6
    assert np.allclose(pe.coords[:, :2], p.coords, atol=1e-12)
    assert np.abs(pe.coords[:, 2:]).max() <= 1e-9
    report = pleat_validity(pe)
    # flat along the diagonal: dihedral = pi within reporting accuracy
    assert all(abs(f.dihedral - np.pi) <= 1e-6 for f in report.facet_folds)


def test_pleated_square_downscaled():
    p, q = square_pair(0.8)
    tri = fan_triangulation(p.polytope, 0)
    pe = pleated_embedding(p, q, tri)
    report = pleat_validity(pe)
    assert report.max_isometry_residual <= 1e-9
    assert report.projection_residual <= 1e-10
    assert all(f.dihedral < np.pi - 1e-6 for f in report.facet_folds)
    # the two triangles store one coordinate row per shared vertex
    s0, s1 = tri.simplices
    shared = sorted(set(s0) & set(s1))
    assert np.array_equal(pe.coords[shared], pe.coords[shared])
    # ridge angle sums are intrinsic, so they match the source's corner angles
    for ridge in report.ridge_angle_sums:
        assert ridge.angle_sum == pytest.approx(np.pi / 2, abs=1e-9)
        assert ridge.strictly_below_pi


def test_pleated_hexagon_random_weak_target(rng):
    poly = ngon_polytope(6)
    for _ in range(5):
        coords = random_convex_polygon(rng, 6)
        p = Shape(poly, coords)
        m = random_contraction(rng, 2, sigma_range=(0.3, 0.95))
        q = Shape(poly, coords @ m.T)
        tri = fan_triangulation(poly, int(rng.integers(0, 6)))
        pe = pleated_embedding(p, q, tri)
        assert pe.ambient_dimension == 2 * (4 + 1)
        report = pleat_validity(pe)
        assert report.max_isometry_residual <= 1e-9
        assert report.projection_residual <= 1e-10


def test_pleated_rejects_expanding_map():
    p, q = square_pair()
    grown = p.scaled(1.5)
    tri = fan_triangulation(p.polytope, 0)
    with pytest.raises(NotContraction):
        pleated_embedding(p, grown, tri)


def test_pleated_rejects_non_tree():
    p, q = square_pair()
    tri = fan_triangulation(p.polytope, 0)
    fake = Triangulation(polytope=tri.polytope, simplices=tri.simplices,
                         pairing_edges=tri.pairing_edges, is_tree=False)
    with pytest.raises(NotTree):
        pleated_embedding(p, q, fake)


def test_projection_chain_square():
    p, q = square_pair(0.8)
    tri = fan_triangulation(p.polytope, 0)
    pe = pleated_embedding(p, q, tri)
    chain = pleated_projection_chain(pe)
    dims = [s.ambient_dimension for s in chain.stages]
    assert dims == [6, 5, 4, 3, 2]
    for stage in chain.stages[1:]:
        assert stage.alpha_max_vs_prev <= 1.0 + 1e-9
    assert chain.final_residual <= 1e-12
    # alpha relative to the source never increases as coordinates drop
    seq = [s.per_simplex_alpha_vs_source for s in chain.stages]
    for earlier, later in zip(seq, seq[1:]):
        assert (later <= earlier + 1e-9).all()


def test_projection_chain_zero_pleat():
    p, _ = square_pair()
    tri = fan_triangulation(p.polytope, 0)
    pe = pleated_embedding(p, p, tri)
    chain = pleated_projection_chain(pe)
    for stage in chain.stages:
        assert np.allclose(stage.coords[:, :2], p.coords, atol=1e-9)
        if stage.ambient_dimension > 2:
            assert np.abs(stage.coords[:, 2:]).max() <= 1e-9


def test_projection_chain_matches_single_lift(rng):
    # a one-simplex pleat is exactly the 2d lift, then a chain down to d
    d = 2
    poly = simplex_polytope(d)
    src = random_simplex_coords(rng, d)
    p = Shape(poly, src)
    q = Shape(poly, src @ random_contraction(rng, d).T)
    tri = fan_triangulation(poly, 0)
    pe = pleated_embedding(p, q, tri)
    assert pe.ambient_dimension == 2 * d
    lifted = lift_simplex(p, q)
    assert np.abs(pe.coords - lifted).max() <= 1e-10
    chain = projection_chain(pe.coords, d, tri.simplices, source=p, target=q)
    assert [s.ambient_dimension for s in chain.stages] == [4, 3, 2]
    for stage in chain.stages[1:]:
        assert stage.alpha_max_vs_prev <= 1.0 + 1e-9


# Stacked kernels against per-simplex loop references ----------------------


def reference_restricted_svals(src, tgt):
    """One simplex: target edges in an orthonormal frame of the source hull."""
    _, r = np.linalg.qr((src[1:] - src[0]).T)
    return np.linalg.svd(np.linalg.solve(r.T, tgt[1:] - tgt[0]).T, compute_uv=False)


def reference_perp_to_face(points, base, apex):
    """Component of (apex - base) orthogonal to the span of (points - base)."""
    r = apex - base
    if len(points):
        qmat, _ = np.linalg.qr((points - base).T)
        r = r - qmat @ (qmat.T @ r)
    return r


def reference_angle(coords, face, a, b):
    base = coords[face[0]]
    span = coords[list(face[1:])]
    ra = reference_perp_to_face(span, base, coords[a])
    rb = reference_perp_to_face(span, base, coords[b])
    return float(np.arccos(np.clip(
        np.dot(ra, rb) / (np.linalg.norm(ra) * np.linalg.norm(rb)), -1.0, 1.0)))


def pleated_polygon(rng, n=9, apex=2):
    poly = ngon_polytope(n)
    coords = random_convex_polygon(rng, n)
    p = Shape(poly, coords)
    q = Shape(poly, coords @ random_contraction(rng, 2, sigma_range=(0.3, 0.95)).T)
    return pleated_embedding(p, q, fan_triangulation(poly, apex))


def test_stacked_restricted_svals_match_loop_on_pleat(rng):
    pe = pleated_polygon(rng)
    idx = np.array(pe.triangulation.simplices)
    chain = pleated_projection_chain(pe)
    for stage, prev in zip(chain.stages, (None,) + chain.stages[:-1]):
        cur = stage.coords[idx]
        src = pe.source.coords[idx]
        want = [reference_restricted_svals(s, t).max() ** 2 for s, t in zip(src, cur)]
        np.testing.assert_allclose(stage.per_simplex_alpha_vs_source, want, rtol=1e-12)
        if prev is not None:
            want = [reference_restricted_svals(s, t).max() ** 2
                    for s, t in zip(prev.coords[idx], cur)]
            np.testing.assert_allclose(stage.per_simplex_alpha_vs_prev, want, rtol=1e-12)
    stacked = restricted_singular_values(pe.coords[idx], pe.source.coords[idx])
    assert stacked.shape == (len(idx), 2)
    for got, s, t in zip(stacked, pe.coords[idx], pe.source.coords[idx]):
        np.testing.assert_allclose(got, reference_restricted_svals(s, t), rtol=1e-12)


def test_stacked_restricted_svals_mixed_dimensions(rng):
    src = rng.standard_normal((4, 5, 3, 6))  # triangles in R^6
    tgt = rng.standard_normal((4, 5, 3, 2))  # onto triangles in R^2
    got = restricted_singular_values(src, tgt)
    assert got.shape == (4, 5, 2)
    for i, j in np.ndindex(4, 5):
        np.testing.assert_allclose(got[i, j], reference_restricted_svals(src[i, j], tgt[i, j]),
                                   rtol=1e-12)


def test_restricted_svals_name_first_degenerate_simplex(rng):
    src = rng.standard_normal((6, 3, 4))
    src[4, 2] = src[4, 0]  # repeated vertex
    src[2, 2] = 0.5 * (src[2, 0] + src[2, 1])  # collinear
    with pytest.raises(SingularSimplex, match="^source simplex is affinely degenerate$") as exc:
        restricted_singular_values(src, src[..., :2])
    assert exc.value.index == 2
    with pytest.raises(SingularSimplex) as exc:
        restricted_singular_values(src[3:], src[3:])
    assert exc.value.index == 1


def test_restricted_svals_reject_too_many_points(rng):
    # More than D + 1 points are always affinely dependent.
    with pytest.raises(SingularSimplex, match="^source simplex is affinely degenerate$") as exc:
        restricted_singular_values(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    assert exc.value.index == 0


def test_projection_chain_rejects_ragged_simplices(rng):
    coords = rng.standard_normal((5, 3))
    with pytest.raises(ValueError, match="^every simplex must list the same number of vertices$"):
        projection_chain(coords, 2, [[0, 1, 2], [1, 2, 3, 4]])


def test_stacked_isometry_residual_matches_double_loop(rng):
    lifted = rng.standard_normal((7, 4, 5))
    source = rng.standard_normal((7, 4, 3))
    got = isometry_residual(lifted, source)
    want = [pairwise_distance_residual(a, b) for a, b in zip(lifted, source)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    single = isometry_residual(lifted[0], source[0])
    assert isinstance(single, float)
    assert single == pytest.approx(want[0], rel=1e-12)


def test_fold_and_ridge_angles_match_perp_formula(rng):
    pe = pleated_polygon(rng)
    report = pleat_validity(pe)
    tri = pe.triangulation
    assert len(report.facet_folds) == len(tri.pairing_edges)
    for fold in report.facet_folds:
        i, j = fold.simplices
        (a,) = set(tri.simplices[i]) - set(fold.shared_vertices)
        (b,) = set(tri.simplices[j]) - set(fold.shared_vertices)
        want = reference_angle(pe.coords, fold.shared_vertices, a, b)
        assert fold.dihedral == pytest.approx(want, abs=1e-12)
    assert report.ridge_angle_sums
    for ridge in report.ridge_angle_sums:
        want = 0.0
        for si in ridge.simplices:
            a, b = sorted(set(tri.simplices[si]) - set(ridge.vertices))
            want += reference_angle(pe.coords, ridge.vertices, a, b)
        assert ridge.angle_sum == pytest.approx(want, abs=1e-12)
    np.testing.assert_allclose(
        report.isometry_residuals,
        [pairwise_distance_residual(pe.simplex_coords(k), pe.source.coords[list(s)])
         for k, s in enumerate(tri.simplices)], rtol=1e-12, atol=1e-15)
