"""Orthogonal completions, simplex lifts, pleated embeddings, chains."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp import (
    InconsistentLattice,
    InfeasibleApex,
    NotContraction,
    NotPSD,
    NotTree,
    PolytopeMismatch,
    Shape,
    SingularSimplex,
    Triangulation,
    build_polytope,
    fan_triangulation,
    lift_simplex,
    ngon_polytope,
    orthogonal_completion,
    pleat_validity,
    pleated_embedding,
    pleated_projection_chain,
    projection_chain,
    restricted_singular_values,
    scale_critical,
    simplex_polytope,
    symmetric_sqrt,
    triangulation,
)
from generators import (
    random_contraction,
    random_convex_polygon,
    random_rotation,
    random_simplex_coords,
)
from polycomp import lifting
from polycomp import affine
from polycomp.affine import DET_TOL, affine_correspondence, intrinsic_map
from polycomp.barycentric import triangulation_map
from polycomp.lifting import FacetFold, RidgeAngles, isometry_residual
from polycomp.polytopes import COORD_TOL, bfs_order, facet_adjacency


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


def test_symmetric_sqrt_and_completion_reject_bad_matrices():
    with pytest.raises(ValueError, match="^matrix must be square$"):
        symmetric_sqrt(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        symmetric_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        orthogonal_completion(np.full((2, 1), 0.5))


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


def test_completion_rejects_an_overflowing_gram():
    # M^T M overflows, so its eigenvalues are NaN, which no bound admits.
    with pytest.raises(NotContraction, match="^alpha_max = nan is not at most 1$"):
        orthogonal_completion(np.diag([1e300, 1e-300]))


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
    def projection_compresses(lifted, d):
        return restricted_singular_values(lifted, lifted[:, :d]).max() < 1 - 1e-9

    src = random_simplex_coords(rng, 2)
    assert not projection_compresses(lift_simplex(src, src), 2)
    assert projection_compresses(lift_simplex(src, 0.5 * src), 2)
    partial = src @ np.diag([1.0, 0.5]).T
    assert not projection_compresses(lift_simplex(src, partial), 2)


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


@pytest.mark.parametrize("scale", [1.0, 1e-5])
def test_pleated_rejects_overlapping_simplices_at_any_scale(scale):
    # Both triangles stand on edge {0, 1}: their areas add to 2, the quad's is 1.75.
    quad = Shape(ngon_polytope(4), scale * np.array([[0.0, 0.0], [2.0, 0.0], [1.5, 1.0],
                                                     [0.0, 1.0]]))
    tri = triangulation(quad.polytope, [(0, 1, 2), (0, 1, 3)])
    assert tri.is_tree
    with pytest.raises(InconsistentLattice, match="^simplices do not tile the source shape$"):
        pleated_embedding(quad, quad, tri)


def test_pleated_rejects_non_tree():
    p, q = square_pair()
    tri = fan_triangulation(p.polytope, 0)
    fake = Triangulation(polytope=tri.polytope, simplices=tri.simplices,
                         pairing_edges=tri.pairing_edges, is_tree=False)
    with pytest.raises(NotTree):
        pleated_embedding(p, q, fake)


def reference_pleat(p, q, tri):
    """The pleated coordinates as the apex loop computed them before its P and
    Q data moved out of the loop: the root by a fresh solve and orthogonal
    completion, then per apex the shared facet, its squared P edges and the
    distance equations to the placed vertices."""
    if tri.polytope != p.polytope:
        raise InconsistentLattice("triangulation belongs to a different polytope")
    if not tri.is_tree:
        raise NotTree("face-pairing graph of the triangulation is not a tree")
    k = lifting._exponent(p.coords, q.coords)
    p, q = (Shape(s.polytope, np.ldexp(s.coords, -k), s.mode) for s in (p, q))
    m = triangulation_map(p, q, tri.simplices)
    vol = lifting._simplex_volume(m.maps.source)
    vol_p = lifting._shape_volume(p)
    if abs(vol - vol_p) > COORD_TOL * vol_p:
        raise InconsistentLattice("simplices do not tile the source shape")
    if not (m.alphas[:, -1] <= 1.0 + lifting.CONTRACTION_TOL).all():
        raise NotContraction("the map defined by the triangulation expands a pair")
    d = p.polytope.dimension
    coords = np.zeros((p.polytope.vertex_count, d * (len(tri.simplices) + 1)))
    order = bfs_order(len(tri.simplices), tri.pairing_edges)
    root_idx = list(tri.simplices[order[0][0]])
    src, tgt = p.coords[root_idx], q.coords[root_idx]
    comp = orthogonal_completion(affine_correspondence(src, tgt).linear)
    coords[root_idx, : 2 * d] = np.hstack([tgt, (src - src[0]) @ comp.A.T])
    next_col = 2 * d
    for simp_index, parent_index in order[1:]:
        simp = tri.simplices[simp_index]
        shared = sorted(set(simp) & set(tri.simplices[parent_index]))
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
        a_mat = 2.0 * (mids[1:] - mids[0])
        b_vec = base[1:] - base[0]
        shift, *_ = np.linalg.lstsq(a_mat, b_vec - a_mat @ mids[0], rcond=None)
        w = mids[0] + shift
        s_all = -(base - 2.0 * (mids @ w) + np.dot(w, w))
        scale = float(lengths2.max())
        if s_all.max() - s_all.min() > lifting.APEX_TOL * scale:
            raise InfeasibleApex("distance system for the apex is inconsistent")
        s = float(s_all.mean())
        if s < -lifting.CONTRACTION_TOL * scale:
            raise InfeasibleApex(f"negative residual budget, {s / scale:.3g} of the largest "
                                 "squared edge")
        coords[apex, :d] = qa
        coords[apex, d:z0] = w
        coords[apex, z0] = np.sqrt(max(s, 0.0))
    return np.ldexp(coords, k)


def fan_pair(rng, n):
    """Independent random n-gons P and Q, Q scaled so that the fan map from a
    random vertex has alpha_max 0.81, and that fan."""
    poly = ngon_polytope(n)
    p = Shape(poly, random_convex_polygon(rng, n))
    q = Shape(poly, random_convex_polygon(rng, n))
    tri = fan_triangulation(poly, int(rng.integers(n)))
    q = q.scaled(np.sqrt(0.81 / triangulation_map(p, q, tri.simplices).alphas.max()))
    return p, q, tri


def star_hexagon_pair(rng):
    """A hexagon on the star triangle (0, 2, 4) and its three ears, the star
    first so the breadth-first order places the three ears as one layer."""
    poly = ngon_polytope(6)
    simplices = ((0, 2, 4), (0, 1, 2), (2, 3, 4), (0, 4, 5))
    tri = Triangulation(polytope=poly, simplices=simplices,
                        pairing_edges=facet_adjacency(simplices), is_tree=True)
    assert bfs_order(4, tri.pairing_edges) == [(0, None), (1, 0), (2, 0), (3, 0)]
    p = Shape(poly, random_convex_polygon(rng, 6))
    q = Shape(poly, random_convex_polygon(rng, 6))
    return p, q.scaled(np.sqrt(0.81 / triangulation_map(p, q, simplices).alphas.max())), tri


def pleat_corpus(rng):
    for n in range(4, 21):
        for _ in range(3):
            yield fan_pair(rng, n)
    for _ in range(5):
        yield star_hexagon_pair(rng)
        yield prism_pair(rng)
    p, q, tri = fan_pair(rng, 9)
    yield p, p, tri  # the zero pleat
    square, _ = square_pair()
    yield square, square, fan_triangulation(square.polytope, 0)
    yield fan_pair(rng, 3)  # one simplex: no pairing edge, so no fold


@pytest.mark.parametrize("scale", [1.0, 2.0**40, 2.0**-40, 1e150, 1e-150])
def test_pleat_coordinates_match_reference_loop_bit_for_bit(rng, scale):
    count = 0
    for p, q, tri in pleat_corpus(rng):
        p, q = p.scaled(scale), q.scaled(scale)
        pe = pleated_embedding(p, q, tri)
        np.testing.assert_array_equal(pe.coords, reference_pleat(p, q, tri))
        count += 1
    assert count == 17 * 3 + 10 + 3


def triple_angles(coords, triples):
    """``_fold_angles`` of a list of ``(face, a, b)`` triples whose faces have
    one size, as a list."""
    if not triples:
        return []
    faces = np.array([face for face, _, _ in triples], dtype=np.intp)
    ab = np.array([(a, b) for _, a, b in triples], dtype=np.intp)
    return lifting._fold_angles(coords, faces, ab).tolist()


def reference_validity(pe):
    """Fold and ridge reports as ``pleat_validity`` built them on every call
    before the triangulation's plan: triples and ridge grouping from the
    simplices, angles per face size."""
    tri = pe.triangulation
    triples = []
    for i, j in tri.pairing_edges:
        shared = tuple(sorted(set(tri.simplices[i]) & set(tri.simplices[j])))
        triples.append((shared, next(v for v in tri.simplices[i] if v not in shared),
                        next(v for v in tri.simplices[j] if v not in shared)))
    wedges, owners = [], []
    if pe.source.polytope.dimension >= 2:
        for si, s in enumerate(tri.simplices):
            for a, b in itertools.combinations(s, 2):
                wedges.append((tuple(v for v in s if v not in (a, b)), a, b))
                owners.append(si)
    coords = np.ldexp(pe.coords, -lifting._exponent(pe.coords))
    folds = tuple(FacetFold((i, j), shared, angle) for (i, j), (shared, _, _), angle
                  in zip(tri.pairing_edges, triples, triple_angles(coords, triples)))
    ridges = {}
    for si, (tau, _, _), angle in zip(owners, wedges, triple_angles(coords, wedges)):
        ridges.setdefault(tau, []).append((si, angle))
    reports = []
    for tau in sorted(ridges):
        if len(ridges[tau]) >= 2:
            total = sum(angle for _, angle in ridges[tau])
            reports.append(RidgeAngles(tau, tuple(si for si, _ in ridges[tau]), float(total),
                                       bool(total < np.pi - 1e-9)))
    idx = np.array(tri.simplices)
    return isometry_residual(pe.coords[idx], pe.source.coords[idx]), folds, tuple(reports)


def pleat_outputs(p, q, tri):
    pe = pleated_embedding(p, q, tri)
    return pe, pleat_validity(pe), pleated_projection_chain(pe)


def assert_same_pleat(got, want):
    (pe, report, chain), (pe_want, report_want, chain_want) = got, want
    np.testing.assert_array_equal(pe.coords, pe_want.coords)
    np.testing.assert_array_equal(report.isometry_residuals, report_want.isometry_residuals)
    assert report.projection_residual == report_want.projection_residual
    assert report.facet_folds == report_want.facet_folds
    assert report.ridge_angle_sums == report_want.ridge_angle_sums
    assert chain.final_residual == chain_want.final_residual
    assert len(chain.stages) == len(chain_want.stages)
    for stage, other in zip(chain.stages, chain_want.stages):
        np.testing.assert_array_equal(stage.coords, other.coords)
        np.testing.assert_array_equal(stage.per_simplex_alpha_vs_source,
                                      other.per_simplex_alpha_vs_source)
        if stage.per_simplex_alpha_vs_prev is None:
            assert other.per_simplex_alpha_vs_prev is None
        else:
            np.testing.assert_array_equal(stage.per_simplex_alpha_vs_prev,
                                          other.per_simplex_alpha_vs_prev)


def test_pleat_through_a_cached_plan_equals_a_fresh_one(rng):
    """On the reference_pleat corpus (fans from random apexes, the star hexagon,
    prisms), a pleat through a cached fan and plan, through a fresh copy of the
    triangulation with the plan built again, and through the per-call
    reference code all agree bit for bit."""
    for p, q, tri in pleat_corpus(rng):
        apexes = set.intersection(*map(set, tri.simplices)) if tri.polytope.dimension == 2 else ()
        if apexes:  # a fan: the cache hands out the corpus's triangulation again
            assert any(fan_triangulation(p.polytope, a) is tri for a in apexes)
        pleat_outputs(p, q, tri)
        cached = pleat_outputs(p, q, tri)
        lifting._pleat_plan.cache_clear()
        fresh_tri = (triangulation(tri.polytope, tri.simplices) if tri.simplices == tuple(
            sorted(tri.simplices)) else dataclasses.replace(tri))
        assert fresh_tri == tri and fresh_tri is not tri
        fresh = pleat_outputs(p, q, fresh_tri)
        assert_same_pleat(cached, fresh)
        pe, report, chain = cached
        residuals, folds, ridges = reference_validity(pe)
        np.testing.assert_array_equal(report.isometry_residuals, residuals)
        assert report.facet_folds == folds and report.ridge_angle_sums == ridges
        d = p.polytope.dimension
        want = projection_chain(pe.coords, d, tri.simplices, source=p, target=q)
        assert_same_pleat((pe, report, chain), (pe, report, want))


def test_plan_arrays_are_read_only_and_the_cache_is_bounded(rng):
    pe = pleated_prism(rng)
    plan = lifting._pleat_plan(pe.triangulation)
    assert lifting._pleat_plan(pe.triangulation) is plan
    arrays = [plan.simplices, plan.shared, plan.apex, *plan.fold_triples, *plan.ridge_triples]
    assert plan.shared.shape == (2, 3) and plan.apex.shape == (2,)
    assert [a.shape for a in (*plan.fold_triples, *plan.ridge_triples)] == [
        (2, 3), (2, 2), (18, 2), (18, 2)]  # two pairing edges; 3 tetrahedra, 6 edges each
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 7
    size = lifting._pleat_plan.cache_info().maxsize
    for n in range(4, size + 12):
        lifting._pleat_plan(fan_triangulation(ngon_polytope(n), 0))
    assert lifting._pleat_plan.cache_info().currsize == size


def error_of(f, *args):
    with pytest.raises((NotContraction, InfeasibleApex)) as info:
        f(*args)
    return type(info.value), str(info.value)


def test_pleat_of_shapes_of_different_polytopes_is_a_mismatch(rng):
    p, _ = square_pair()
    q = Shape(ngon_polytope(5), random_convex_polygon(rng, 5))
    with pytest.raises(PolytopeMismatch, match="^shapes realize different combinatorial "
                                               "polytopes$"):
        pleated_embedding(p, q, fan_triangulation(p.polytope, 0))
    with pytest.raises(InconsistentLattice, match="^triangulation belongs to a different "
                                                  "polytope$"):
        pleated_embedding(p, p, fan_triangulation(q.polytope, 0))


def test_pleat_errors_match_reference_loop(monkeypatch):
    p, q = square_pair(0.8)
    tri = fan_triangulation(p.polytope, 0)
    expanding = error_of(pleated_embedding, p, p.scaled(1.5), tri)
    assert expanding == error_of(reference_pleat, p, p.scaled(1.5), tri)
    assert expanding == (NotContraction, "the map defined by the triangulation expands a pair")
    # On a weak compression both apex tests pass in exact arithmetic, so a solver
    # that misses the solution stands in for a numerically failed system: on the
    # pleated square the residuals then differ, and on the zero pleat they are
    # equal and negative.
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda a, b, rcond: (np.full(a.shape[1], 10.0), *lstsq(a, b, rcond)[1:]))
    inconsistent = error_of(pleated_embedding, p, q, tri)
    assert inconsistent == error_of(reference_pleat, p, q, tri)
    assert inconsistent == (InfeasibleApex, "distance system for the apex is inconsistent")
    negative = error_of(pleated_embedding, p, p, tri)
    assert negative == error_of(reference_pleat, p, p, tri)
    # |w|^2 = 200 over a largest squared edge of 1/4: the prescaling halves the square.
    assert negative == (InfeasibleApex,
                        "negative residual budget, -800 of the largest squared edge")


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


NEAR_RATIOS = [0.5, 1 - 1e-6, 1 + 1e-6, 2.0, 0.0]  # |det| over the flatness threshold


def triangular_stacks(rng):
    """Lower and upper triangular (g, k, k) stacks with the flags they should
    get (None: not known): random ones, ones whose |det| sits at NEAR_RATIOS
    times the flatness threshold, and all of them scaled by 1e+-200."""
    for k in range(1, 5):
        cases = [(np.tril(rng.standard_normal((60, k, k))), None)]
        if k > 1:  # a 1 x 1 matrix is flat only at 0
            e = np.tril(rng.standard_normal((60, k, k)))
            e[:, -1, -1] = 0.0  # a last diagonal of about 1e-12 moves no row length
            long2 = np.vecdot(e, e).max(axis=-1)
            rest = np.prod(np.diagonal(e, 0, -2, -1)[:, :-1], axis=-1)
            ratio = np.resize(NEAR_RATIOS, 60)
            e[:, -1, -1] = ratio * DET_TOL * long2 ** (k / 2) / rest
            cases.append((e, ratio <= 1.0))
        for stack, want in cases:
            for scale in (1.0, 1e200, 1e-200):
                yield stack * scale, want
                yield np.swapaxes(stack, -1, -2) * scale, None  # rows are now columns


def test_triangular_flatness_matches_lu_determinant(rng):
    for e, want in triangular_stacks(rng):
        got = affine._flat(e, triangular=True)
        np.testing.assert_array_equal(got, affine._flat(e))
        if want is not None:
            np.testing.assert_array_equal(got, want)


def test_intrinsic_map_names_the_simplex_the_lu_test_names(rng):
    src = rng.standard_normal((8, 3, 4))
    src[5, 2] = src[5, 0] + 1e-7 * (src[5, 1] - src[5, 0])  # all but flat
    src[3, 2] = 0.5 * (src[3, 0] + src[3, 1])  # collinear
    for stack in (src, src[4:]):
        e_src = np.swapaxes(stack[:, 1:] - stack[:, :1], -1, -2)
        frames = np.swapaxes(np.linalg.qr(e_src, mode="r"), -1, -2)
        want = int(np.flatnonzero(affine._flat(frames))[0])
        with pytest.raises(SingularSimplex) as exc:
            intrinsic_map(stack, stack)
        assert exc.value.index == want


def test_restricted_svals_reject_too_many_points(rng):
    # More than D + 1 points are always affinely dependent.
    with pytest.raises(SingularSimplex, match="^source simplex is affinely degenerate$") as exc:
        restricted_singular_values(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    assert exc.value.index == 0


def test_projection_chain_rejects_ragged_simplices(rng):
    coords = rng.standard_normal((5, 3))
    with pytest.raises(ValueError, match="^every simplex must list the same number of vertices$"):
        projection_chain(coords, 2, [[0, 1, 2], [1, 2, 3, 4]])


@pytest.mark.parametrize("simplices,message", [
    ([[0, 1, 2], [1, 2, 5]], "^simplex vertex index out of range for 5 vertices$"),
    ([[0, 1, 2], [-1, 2, 3]], "^simplex vertex index out of range for 5 vertices$"),
    ([], "^simplices must list at least one simplex$"),
    ([[]], "^simplices must list at least one simplex$"),
])
def test_projection_chain_rejects_bad_simplices(rng, simplices, message):
    with pytest.raises(ValueError, match=message):
        projection_chain(rng.standard_normal((5, 3)), 2, simplices)


@pytest.mark.parametrize("d", [0, -1, 4, 7])
def test_projection_chain_rejects_base_dimension_out_of_range(rng, d):
    coords = rng.standard_normal((5, 3))
    target = Shape(ngon_polytope(5), rng.standard_normal((5, 2)))
    for kwargs in ({}, {"target": target}):
        with pytest.raises(ValueError, match="^base dimension must be between 1 and "
                                             "the ambient dimension 3$"):
            projection_chain(coords, d, [[0, 1, 2]], **kwargs)


def test_restricted_svals_reject_flat_arrays(rng):
    with pytest.raises(ValueError, match=r"^simplices must be \(\.\.\., k\+1, D\) vertex arrays$"):
        restricted_singular_values(rng.standard_normal(3), rng.standard_normal(3))
    with pytest.raises(ValueError, match="^simplices must be"):
        restricted_singular_values(rng.standard_normal((3, 2)), rng.standard_normal(2))


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


# Stacked projection chain and batched fold angles against the per-call loops


def reference_chain(coords, d, simplices, source=None):
    """Per-stage loop: one restricted-SVD call against the previous stage and one
    against the source at every stage, as (dim, alphas_prev, alphas_src)."""
    stack = coords[np.array(simplices)]
    base = stack if source is None else source.coords[np.array(simplices)]
    big_d = coords.shape[1]
    out = []
    for dim in range(big_d, d - 1, -1):
        cur = stack[..., :dim]
        prev = None
        if dim < big_d:
            prev = restricted_singular_values(stack[..., :dim + 1], cur).max(axis=-1) ** 2
        out.append((dim, prev, restricted_singular_values(base, cur).max(axis=-1) ** 2))
    return out


def prism_pair(rng):
    """A skewed triangular prism (vertices 0-2 bottom, 3-5 top), its image under a
    random contraction, and its staircase of three tetrahedra, a path of face pairings."""
    poly = build_polytope(3, 6, [[0, 1, 2], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [0, 2, 5, 3]])
    bottom = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.8, 0.0]])
    coords = np.vstack([bottom, bottom + [0.2, 0.1, 1.0]]) @ random_rotation(rng, 3).T
    p = Shape(poly, coords)
    q = Shape(poly, coords @ random_contraction(rng, 3, sigma_range=(0.3, 0.95)).T)
    tri = triangulation(poly, [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5]])
    assert tri.is_tree
    return p, q, tri


def pleated_prism(rng):
    return pleated_embedding(*prism_pair(rng))


def stages_per_block(monkeypatch, coords, simplices, stages):
    """Make projection_chain stack ``stages`` stages per call (None: the default)."""
    if stages is not None:
        size = np.array(simplices).size * coords.shape[1]
        monkeypatch.setattr(lifting, "_CHAIN_BLOCK", stages * size)


def assert_chain_matches_loop(coords, d, simplices, source=None):
    chain = projection_chain(coords, d, simplices, source=source)
    want = reference_chain(coords, d, simplices, source)
    assert [s.ambient_dimension for s in chain.stages] == [dim for dim, _, _ in want]
    for stage, (dim, prev, src) in zip(chain.stages, want):
        np.testing.assert_array_equal(stage.coords, coords[:, :dim])
        np.testing.assert_allclose(stage.per_simplex_alpha_vs_source, src, rtol=0, atol=1e-12)
        if prev is None:
            assert stage.per_simplex_alpha_vs_prev is None
        else:
            np.testing.assert_allclose(stage.per_simplex_alpha_vs_prev, prev, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stages", [None, 1, 4])
def test_stacked_chain_matches_stage_loop_on_fans(rng, monkeypatch, stages):
    for n, apex in [(5, 0), (9, 2), (12, 7)]:
        pe = pleated_polygon(rng, n, apex)
        simplices = pe.triangulation.simplices
        stages_per_block(monkeypatch, pe.coords, simplices, stages)
        assert_chain_matches_loop(pe.coords, 2, simplices, pe.source)
        assert_chain_matches_loop(pe.coords, 2, simplices)


@pytest.mark.parametrize("stages", [None, 1, 3])
def test_stacked_chain_matches_stage_loop_on_prism(rng, monkeypatch, stages):
    pe = pleated_prism(rng)
    assert pe.ambient_dimension == 12
    simplices = pe.triangulation.simplices
    stages_per_block(monkeypatch, pe.coords, simplices, stages)
    assert_chain_matches_loop(pe.coords, 3, simplices, pe.source)
    assert_chain_matches_loop(pe.coords, 3, simplices)


@pytest.mark.parametrize("stages", [None, 1, 2])
def test_stacked_chain_names_simplex_degenerate_at_lower_stage(rng, monkeypatch, stages):
    # Triangles in R^5 down to R^2.  Triangle 1 spans a plane only through
    # coordinate 4, so its previous stage is degenerate from the R^3 stage on
    # (source R^4); triangle 3 only through coordinate 3 (from the R^2 stage
    # on).  The first failing stage decides, and the error names the
    # simplex, not its (stage, simplex) slot in a stacked call.
    coords = rng.standard_normal((12, 5))
    coords[4] = coords[3] + [1.0, 0.0, 0.0, 0.0, 1.0]
    coords[5] = coords[3] + [2.0, 0.0, 0.0, 0.0, 0.5]
    coords[10] = coords[9] + [0.0, 1.0, 0.0, 1.0, 0.0]
    coords[11] = coords[9] + [0.0, 3.0, 0.0, 0.0, 0.0]
    simplices = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    stages_per_block(monkeypatch, coords, simplices, stages)
    for chain in (projection_chain, reference_chain):
        with pytest.raises(SingularSimplex, match="^source simplex is affinely degenerate$") as exc:
            chain(coords, 2, simplices)
        assert exc.value.index == 1
    # Without triangle 1, triangle 3 fails one stage later.
    for chain in (projection_chain, reference_chain):
        with pytest.raises(SingularSimplex) as exc:
            chain(coords, 2, [simplices[0], simplices[2], simplices[3]])
        assert exc.value.index == 2
    # A degenerate source simplex is named before any stage's.
    flat = rng.standard_normal((12, 2))
    flat[8] = 0.5 * (flat[6] + flat[7])
    for chain in (projection_chain, reference_chain):
        with pytest.raises(SingularSimplex) as exc:
            chain(coords, 2, simplices, source=Shape(ngon_polytope(12), flat))
        assert exc.value.index == 2


def pairs_per_block(monkeypatch, simplices, pairs):
    """Make projection_chain compute 1 to ``pairs`` (stage, simplex) pairs per call,
    each reading two k x k stage frames; blocks this small factor one frame per QR."""
    monkeypatch.setattr(lifting, "_CHAIN_BLOCK", pairs * 2 * (len(simplices[0]) - 1) ** 2)


def computed_pairs(monkeypatch):
    """Count the (stage, simplex) pairs projection_chain hands to ``_pair_alphas``."""
    counted = []
    pair_alphas = lifting._pair_alphas

    def counting(r_src, r_tgt):
        counted.append(len(r_src))
        return pair_alphas(r_src, r_tgt)

    monkeypatch.setattr(lifting, "_pair_alphas", counting)
    return counted


def zero_tail_embedding(rng, size):
    """Four simplices of ``size`` vertices in R^7: simplex 0 is dense, 1 is
    constant in column 2 and past column 3, 2 past column 2, 3 past column 1."""
    coords = rng.standard_normal((4 * size, 7))
    rows = [slice(i * size, (i + 1) * size) for i in range(4)]
    coords[rows[1], 2] = 0.25
    coords[rows[1], 4:] = coords[size, 4:]
    coords[rows[2], 3:] = 0.0
    coords[rows[3], 2:] = coords[3 * size, 2:]
    return coords, np.arange(4 * size).reshape(4, size).tolist()


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_chain_reuse_matches_stage_loop(rng, monkeypatch, pairs):
    source = Shape(ngon_polytope(12), rng.standard_normal((12, 2)))
    counted = computed_pairs(monkeypatch)
    # Dense: every (stage, simplex) pair is computed.
    dense = rng.standard_normal((12, 6))
    simplices = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    pairs_per_block(monkeypatch, simplices, pairs)
    assert_chain_matches_loop(dense, 2, simplices, source)
    assert sum(counted) == 4 * 4 and max(counted) <= pairs
    # Zero tails: simplex 1 computes one pair for stage 4 and up, simplex 2 for
    # stage 3 and up, simplex 3 for stage max(2, d) and up.  A triangle's
    # previous-stage alphas are all about 1; a segment's are not.
    for size, d, count in ((3, 2, 5 + 3 + 2 + 1), (2, 1, 6 + 4 + 3 + 2)):
        coords, simplices = zero_tail_embedding(rng, size)
        pairs_per_block(monkeypatch, simplices, pairs)
        for base in (None, Shape(ngon_polytope(4 * size), rng.standard_normal((4 * size, 2)))):
            counted.clear()
            assert_chain_matches_loop(coords, d, simplices, base)
            assert sum(counted) == count and max(counted) <= pairs
    # d == D: one stage and no previous-stage alphas.
    chain = projection_chain(coords, 7, simplices)
    assert [s.ambient_dimension for s in chain.stages] == [7]
    assert chain.stages[0].per_simplex_alpha_vs_prev is None
    assert_chain_matches_loop(coords, 7, simplices)


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_chain_reuse_names_the_loops_simplex(rng, monkeypatch, pairs):
    # Triangles in R^7 down to R^2 over a nondegenerate planar source.
    # Triangle 2 is collinear and uses only columns 0-2, so its one computed
    # pair (stage 3) stands for every stage from 6 down and fails first.
    # Triangle 1 spans its plane only through column 5 and fails at stage 4,
    # which a pair order by stage alone would reach first.
    coords = rng.standard_normal((9, 7))
    coords[4] = coords[3] + [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    coords[5] = coords[3] + [2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    coords[7] = coords[6] + [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    coords[8] = coords[6] + [2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    source = Shape(ngon_polytope(9), random_convex_polygon(rng, 9))
    simplices = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    pairs_per_block(monkeypatch, simplices, pairs)
    for got_simplices, index in ((simplices, 2), (simplices[:2], 1)):
        for chain in (projection_chain, reference_chain):
            with pytest.raises(SingularSimplex, match="^source simplex is affinely degenerate$") as exc:
                chain(coords, 2, got_simplices, source=source)
            assert exc.value.index == index


@pytest.mark.parametrize("pairs", [None, 1, 3])
def test_previous_stage_alphas_match_closed_forms(rng, monkeypatch, pairs):
    """Against what the geometry fixes, with no solve or SVD of its own."""
    # Dropping one coordinate of a k >= 2 plane keeps a direction of it, so a
    # triangle's or tetrahedron's top alpha against the stage above is 1.
    for pe in [pleated_polygon(rng, n, apex) for n, apex in [(5, 0), (9, 2), (12, 7)]] \
            + [pleated_prism(rng)]:
        if pairs is not None:
            pairs_per_block(monkeypatch, pe.triangulation.simplices, pairs)
        for stage in pleated_projection_chain(pe).stages[1:]:
            np.testing.assert_allclose(stage.per_simplex_alpha_vs_prev, 1.0, rtol=0, atol=1e-10)
    # A segment's edge e goes from stage c + 1 to stage c scaled by |e[:c]| / |e[:c+1]|.
    coords, simplices = zero_tail_embedding(rng, 2)
    if pairs is not None:
        pairs_per_block(monkeypatch, simplices, pairs)
    e = coords[1::2] - coords[::2]  # (4, 7): the edge of each segment
    for stage in projection_chain(coords, 1, simplices).stages[1:]:
        c = stage.ambient_dimension
        want = (e[:, :c] ** 2).sum(axis=1) / (e[:, :c + 1] ** 2).sum(axis=1)
        np.testing.assert_allclose(stage.per_simplex_alpha_vs_prev, want, rtol=0, atol=1e-12)
        if c >= 4:  # segments 1-3 are constant past column 3: their reused pairs read 1
            np.testing.assert_array_equal(want[1:], 1.0)


def fold_triples(pe):
    """Every (face, a, b) triple of a pleat: each facet across its pairing edge,
    then each simplex's faces of size d-1 with the two vertices off them."""
    tri = pe.triangulation
    triples = []
    for i, j in tri.pairing_edges:
        shared = tuple(sorted(set(tri.simplices[i]) & set(tri.simplices[j])))
        (a,) = set(tri.simplices[i]) - set(shared)
        (b,) = set(tri.simplices[j]) - set(shared)
        triples.append((shared, a, b))
    for s in tri.simplices:
        for a, b in itertools.combinations(s, 2):
            triples.append((tuple(v for v in s if v not in (a, b)), a, b))
    return triples


def test_batched_fold_angles_match_single_face_loop(rng, monkeypatch):
    for pe, sizes in [(pleated_polygon(rng, 11, 4), {1, 2}), (pleated_prism(rng), {2, 3})]:
        triples = fold_triples(pe)
        assert {len(face) for face, _, _ in triples} == sizes
        for size in sizes:
            group = [triple for triple in triples if len(triple[0]) == size]
            got = np.array(triple_angles(pe.coords, group))
            want = [reference_angle(pe.coords, *triple) for triple in group]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert (got > 0.0).all()  # the pleats fold: no angle collapses to zero
    empty = np.empty((0, 2), dtype=np.intp)
    monkeypatch.setattr(np.linalg, "qr", None)  # an empty group makes no QR call
    assert lifting._fold_angles(pe.coords, empty, empty).shape == (0,)


@pytest.mark.parametrize("n", [128, 192])
def test_chain_peak_memory_is_bounded_on_large_fans(rng, n):
    # One stacked call over all 2n - 3 stages of this fan would allocate hundreds of
    # MB; summing the source Grams block by block keeps n = 192 under the bound too.
    poly = ngon_polytope(n)
    coords = random_convex_polygon(rng, n)
    pe = pleated_embedding(Shape(poly, coords), Shape(poly, 0.7 * coords),
                           fan_triangulation(poly, 0))
    tracemalloc.start()
    try:
        chain = pleated_projection_chain(pe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chain.stages) == 2 * n - 3
    assert peak < 12e6


@pytest.mark.parametrize("columns", [1, 2, 5])
def test_source_gram_blocks_add_in_column_order(rng, monkeypatch, columns):
    """Summing the source Grams over blocks of a few columns, running total
    first, gives every stage's source alphas bit for bit."""
    pe = pleated_polygon(rng, 9, 2)
    want = pleated_projection_chain(pe)
    t, k = len(pe.triangulation.simplices), 2
    monkeypatch.setattr(lifting, "_CHAIN_BLOCK", columns * t * k * k)
    for stage, expected in zip(pleated_projection_chain(pe).stages, want.stages):
        np.testing.assert_array_equal(stage.per_simplex_alpha_vs_source,
                                      expected.per_simplex_alpha_vs_source)
