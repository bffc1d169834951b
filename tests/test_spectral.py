"""Classification, extremal pairs, rescaling, order and perturbations."""

import dataclasses
import itertools
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp import (
    COMPRESSION,
    NOT_WEAK_COMPRESSION,
    WEAK_COMPRESSION,
    NonFiniteResult,
    PointOnShape,
    PolycompError,
    Shape,
    SingularSimplex,
    affine_correspondence,
    build_polytope,
    classify,
    compare_order,
    distance_derivative,
    edge_contraction_check,
    extremal_pair,
    induced_map,
    ngon_polytope,
    perturbation_classify,
    scale_critical,
    simplex_polytope,
    spectral_summary,
)
from polycomp import barycentric, spectral
from polycomp.io import load_matrix, load_shape, load_shapes
from test_chain_kernel import projective_cube
from generators import (
    random_contraction,
    random_polygon_shape,
    random_rotation,
    random_simplex_coords,
    random_simplex_shape,
)

# frozen from the edge-vector + SVD oracle (see test_oracle_spectrum)
PAIR_ALPHA_MAX = 1.0511158364553255
PAIR_ALPHA_MIN = 0.06081646276273039


def oracle_spectrum(src, tgt):
    """Independent spectrum: edge-vector inverse + SVD instead of the
    Gram matrix + symmetric-eigensolver path used by the library."""
    ep = (src[1:] - src[0]).T
    eq = (tgt[1:] - tgt[0]).T
    m = eq @ np.linalg.inv(ep)
    sv = np.linalg.svd(m, compute_uv=False)
    return sv**2


def test_affine_correspondence_identity_and_scaling():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    corr = affine_correspondence(src, src)
    assert np.allclose(corr.linear, np.eye(2), atol=1e-12)
    corr = affine_correspondence(src, 3.0 * src)
    assert np.allclose(corr.linear, 3.0 * np.eye(2), atol=1e-12)


def test_affine_correspondence_singular():
    src = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularSimplex):
        affine_correspondence(src, src)
    with pytest.raises(ValueError, match="^simplices must be .* of equal shape$"):
        affine_correspondence(src, src[:, :1])


def test_oracle_spectrum(triangle_pair):
    p, q = triangle_pair
    alphas = oracle_spectrum(p.coords, q.coords)
    assert alphas[0] == pytest.approx(PAIR_ALPHA_MAX, abs=1e-12)
    assert alphas[1] == pytest.approx(PAIR_ALPHA_MIN, abs=1e-12)
    s = spectral_summary(induced_map(p, q))
    assert s.alpha_max == pytest.approx(PAIR_ALPHA_MAX, abs=1e-10)
    assert s.alpha_min == pytest.approx(PAIR_ALPHA_MIN, abs=1e-10)
    # must exceed the squared ratio of the published expanding pair
    assert s.alpha_max >= (0.427901 / 0.422811) ** 2


def test_spectral_summary_identity_and_diag(unit_square):
    s = spectral_summary(induced_map(unit_square, unit_square))
    assert s.alpha_min == pytest.approx(1.0, abs=1e-12)
    assert s.alpha_max == pytest.approx(1.0, abs=1e-12)

    tri = simplex_polytope(2)
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p = Shape(tri, src)
    q = Shape(tri, src @ np.diag([2.0, 1.0]).T)
    s = spectral_summary(induced_map(p, q))
    assert np.allclose(s.per_simplex[0], [1.0, 4.0], atol=1e-12)


def test_spectral_rotation_invariance(rng):
    p = random_simplex_shape(rng, 3)
    q = random_simplex_shape(rng, 3)
    s0 = spectral_summary(induced_map(p, q)).per_simplex
    rot_p = p.transformed(rotation=random_rotation(rng, 3), translation=rng.uniform(-1, 1, 3))
    rot_q = q.transformed(rotation=random_rotation(rng, 3), translation=rng.uniform(-1, 1, 3))
    s1 = spectral_summary(induced_map(rot_p, rot_q)).per_simplex
    assert np.abs(s0 - s1).max() <= 1e-10


# Translating by up to 1e6 rounds each coordinate by up to about 1e-10, and thin
# chain simplices amplify that (8e-9 relative on alpha_max over 300 seeds).
MOTION_RTOL = 1e-6


@given(st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=40, deadline=None)
def test_classify_invariant_under_rigid_motions(seed, log_offset):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    p, q = random_polygon_shape(rng, n), random_polygon_shape(rng, n)
    q = q.scaled(rng.uniform(0.7, 1.3) / np.sqrt(classify(induced_map(p, q)).summary.alpha_max))
    rot, offset = random_rotation(rng, 2), 10.0**log_offset * rng.standard_normal(2)
    base = classify(induced_map(p, q))
    moved = classify(induced_map(p.transformed(rot, offset), q.transformed(rot, offset)))
    assert moved.summary.alpha_max == pytest.approx(base.summary.alpha_max, rel=MOTION_RTOL)
    if abs(base.summary.alpha_max - 1.0) > MOTION_RTOL:  # outside what rounding can cross
        assert moved.verdict == base.verdict
    if np.abs(edge_contraction_check(p, q).ratios - 1.0).min() > MOTION_RTOL:
        assert moved.edge_contracting == base.edge_contracting


@pytest.mark.parametrize("offset,scale", [(1e6, 1.0), (1e7, 1.0), (0.0, 1e-6), (0.0, 1e200)])
def test_hexagons_keep_their_verdict_far_away_and_at_any_scale(offset, scale):
    p, q = load_shapes(Path(__file__).parent / "data" / "hexagons.json")[:2]
    base = classify(induced_map(p, q))
    p, q = (s.scaled(scale).transformed(translation=[offset, -offset]) for s in (p, q))
    moved = classify(induced_map(p, q))
    assert (moved.verdict, moved.edge_contracting) == (base.verdict, base.edge_contracting)
    assert moved.summary.alpha_max == pytest.approx(base.summary.alpha_max, rel=MOTION_RTOL)
    assert moved.witness.ratio == pytest.approx(base.witness.ratio, rel=MOTION_RTOL)


def test_classify_homothety_and_identity(unit_square):
    assert classify(induced_map(unit_square, unit_square.scaled(0.5))).verdict == COMPRESSION
    assert classify(induced_map(unit_square, unit_square)).verdict == WEAK_COMPRESSION


def test_classify_published_pair(triangle_pair):
    p, q = triangle_pair
    result = classify(induced_map(p, q))
    assert result.verdict == NOT_WEAK_COMPRESSION
    assert result.edge_contracting


def test_edge_contraction_published_distances(triangle_pair):
    p, q = triangle_pair
    report = edge_contraction_check(p, q)
    lengths = {e: (s, t) for e, s, t in zip(report.edges, report.source_lengths,
                                            report.target_lengths)}
    assert lengths[(0, 1)][0] == pytest.approx(3.64329, abs=1e-4)
    assert lengths[(0, 1)][1] == pytest.approx(1.90369, abs=1e-4)
    assert lengths[(1, 2)][0] == pytest.approx(1.63809, abs=1e-4)
    assert lengths[(1, 2)][1] == pytest.approx(0.490719, abs=1e-4)
    assert lengths[(0, 2)][0] == pytest.approx(2.54493, abs=1e-4)
    assert lengths[(0, 2)][1] == pytest.approx(2.05509, abs=1e-4)
    assert report.all_contracting


def test_edge_contraction_identity(unit_square):
    report = edge_contraction_check(unit_square, unit_square)
    assert np.allclose(report.ratios, 1.0)
    assert not report.all_contracting


def cube_polytope(d):
    verts = list(itertools.product((0, 1), repeat=d))
    return build_polytope(d, 2**d, [[i for i, v in enumerate(verts) if v[k] == side]
                                    for k in range(d) for side in (0, 1)])


def test_edge_lengths_match_per_edge_norm(rng):
    # The stacked lengths equal np.linalg.norm of each edge vector bit for bit.
    for poly in (ngon_polytope(7), simplex_polytope(3), cube_polytope(3), cube_polytope(4)):
        d, n = poly.dimension, poly.vertex_count
        p = Shape(poly, rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3), mode="weak")
        q = Shape(poly, rng.standard_normal((n, d)), mode="weak")
        report = edge_contraction_check(p, q)
        want = [(f[0], f[-1]) for f in poly.faces_of_dim(1)]
        assert report.edges == tuple(want)
        assert all(type(v) is int for e in report.edges for v in e)
        for shape, got in ((p, report.source_lengths), (q, report.target_lengths)):
            ref = np.array([np.linalg.norm(shape.coords[i] - shape.coords[j]) for i, j in want])
            assert (got == ref).all()
    assert not poly.edge_array.flags.writeable
    assert poly.edge_array is poly.edge_array


def test_lengths_direct_branch_matches_the_rescale(rng):
    # Where no square over- or underflows, sqrt(v . v) is already the bits of
    # the power-of-two rescale.  The rows times 2^shift, with the largest |entry|
    # lifted to 2^899, go through the rescale, which scales exactly.  Rows mix
    # entries 30 decades apart.
    for scale in 10.0 ** np.arange(-80, 101, 10):
        v = rng.standard_normal((2, 40, 4)) * scale * 10.0 ** rng.uniform(-30, 0, (2, 40, 4))
        assert np.abs(v).max() <= 2.0 ** 400 and np.vecdot(v, v).min() >= 2.0 ** -800
        shift = 900 - int(np.frexp(np.abs(v).max())[1])
        rescaled = np.ldexp(spectral._lengths(np.ldexp(v, shift)), -shift)
        assert spectral._lengths(v).tobytes() == rescaled.tobytes()


def stacked_edge_check(p, q):
    """Lengths and ratios as one ``_lengths`` call over both shapes' stacked edges."""
    edges = p.polytope.edge_array
    src, tgt = spectral._lengths(np.stack([s.coords[edges[:, 0]] - s.coords[edges[:, 1]]
                                           for s in (p, q)]))
    with np.errstate(over="ignore"):
        return src, tgt, tgt / src


def test_cached_edge_lengths_match_the_stacked_form(rng):
    # Per shape, the lengths take the direct branch or the rescale on their own;
    # either way they keep the bits of the stacked call, even beside a far scale.
    for poly in (ngon_polytope(7), cube_polytope(3), cube_polytope(4)):
        d, n = poly.dimension, poly.vertex_count
        for p_scale, q_scale in itertools.product((1e-300, 1.0, 1e300), repeat=2):
            p = Shape(poly, rng.standard_normal((n, d)) * p_scale, mode="weak")
            q = Shape(poly, rng.standard_normal((n, d)) * q_scale, mode="weak")
            report = edge_contraction_check(p, q)
            got = (report.source_lengths, report.target_lengths, report.ratios)
            for a, b in zip(got, stacked_edge_check(p, q)):
                assert a.tobytes() == b.tobytes(), (p_scale, q_scale)


def test_edge_lengths_are_cached_per_shape_and_read_only(rng):
    spectral._edge_lengths.cache_clear()
    poly = cube_polytope(4)
    p, q = (Shape(poly, rng.standard_normal((16, 4)), mode="weak") for _ in range(2))
    first, again = edge_contraction_check(p, q), edge_contraction_check(q, p)
    assert first.source_lengths is again.target_lengths is spectral._edge_lengths(p)
    assert first.target_lengths is again.source_lengths is spectral._edge_lengths(q)
    for a in (first.source_lengths, first.target_lengths):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert spectral._edge_lengths.cache_info().misses == 2


def test_a_job_computes_three_length_arrays(monkeypatch):
    # classify, both directions of compare_order and scale_critical read P, Q and
    # lambda Q: lambda Q gets its own lengths, and no shape's are computed twice.
    rng = np.random.default_rng(33)
    p, q = projective_cube(rng, 4), projective_cube(rng, 4)
    spectral._edge_lengths.cache_clear()
    rows = []
    monkeypatch.setattr(spectral, "_lengths",
                        lambda v, _f=spectral._lengths: rows.append(len(v)) or _f(v))
    classify(induced_map(p, q))
    compare_order(p, q)
    r = scale_critical(p, q)
    assert rows == [32] * 3
    lengths = spectral._edge_lengths(r.scaled_target)
    assert lengths is not spectral._edge_lengths(q)
    assert lengths.tobytes() == stacked_edge_check(p, r.scaled_target)[1].tobytes()
    assert r.classification.edge_contracting == bool((lengths / spectral._edge_lengths(p)
                                                      < 1.0 - spectral.DEFAULT_TOL).all())


def test_extremal_pair_identity_and_diag(unit_square):
    w = extremal_pair(induced_map(unit_square, unit_square))
    assert w.ratio == pytest.approx(1.0, abs=1e-12)
    assert w.anchor_vertex is not None

    tri = simplex_polytope(2)
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    q = Shape(tri, src @ np.diag([2.0, 1.0]).T)
    w = extremal_pair(induced_map(Shape(tri, src), q))
    assert w.ratio == pytest.approx(2.0, abs=1e-12)
    direction = (w.y - w.x) / np.linalg.norm(w.y - w.x)
    assert abs(abs(direction[0]) - 1.0) <= 1e-9  # e1 is the top direction


def test_extremal_pair_published(triangle_pair):
    p, q = triangle_pair
    w = extremal_pair(induced_map(p, q))
    assert w.ratio > 1.012
    assert w.ratio == pytest.approx(np.sqrt(PAIR_ALPHA_MAX), abs=1e-9)


def test_extremal_ratio_matches_alpha_max(rng):
    for d in (1, 2, 3, 4):
        for _ in range(10):
            p = random_simplex_shape(rng, d)
            q = random_simplex_shape(rng, d)
            m = induced_map(p, q)
            s = spectral_summary(m)
            w = extremal_pair(m)
            assert w.ratio == pytest.approx(np.sqrt(s.alpha_max), abs=1e-9)
            if d <= 2:
                # a polygon/segment/triangle simplex always anchors at a vertex
                assert w.anchor_vertex is not None
            if w.anchor_vertex is not None:
                assert np.array_equal(
                    w.x, m.maps[w.simplex_index].source[w.anchor_vertex])


@pytest.mark.parametrize("offset", [1e4, 1e8, 1e10, 1e12])
def test_witness_ratio_keeps_its_digits_far_from_the_origin(triangle_pair, unit_square, offset):
    # The ratio reads the linear part on the displacement it builds, not on y - x, so the
    # offset of both shapes cancels nowhere.
    sheared = unit_square.transformed(np.array([[1.0, 0.5], [0.0, 1.0]]))
    for p, q in (triangle_pair, (unit_square, sheared)):
        m = induced_map(*(s.transformed(translation=[offset, offset]) for s in (p, q)))
        ratio = extremal_pair(m).ratio
        assert abs(ratio / np.sqrt(spectral_summary(m).alpha_max) - 1.0) <= 1e-15


def test_extremal_pair_interior_chord_fallback():
    # midline directions of the regular tetrahedron avoid every vertex cone
    tet = simplex_polytope(3)
    src = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    q = Shape(tet, src @ np.diag([1.5, 1.0, 0.9]).T)
    w = extremal_pair(induced_map(Shape(tet, src), q))
    assert w.anchor_vertex is None
    assert w.ratio == pytest.approx(1.5, abs=1e-9)


def test_scale_critical_trivial(unit_square):
    r = scale_critical(unit_square, unit_square)
    assert r.lam == pytest.approx(1.0, abs=1e-12)
    r = scale_critical(unit_square, unit_square.scaled(2.0))
    assert r.lam == pytest.approx(0.5, abs=1e-12)
    assert r.classification.verdict == WEAK_COMPRESSION
    assert r.classification.witness.ratio == pytest.approx(1.0, abs=1e-9)


def test_scale_critical_published(triangle_pair):
    p, q = triangle_pair
    r = scale_critical(p, q)
    assert r.lam == pytest.approx(1.0 / np.sqrt(PAIR_ALPHA_MAX), abs=1e-9)
    assert r.lam < 1.0 / 1.012
    assert r.classification.verdict == WEAK_COMPRESSION
    assert abs(r.classification.summary.alpha_max - 1.0) <= 1e-9


@pytest.mark.parametrize("p_scale,q_scale", [(1e-160, 1e160), (1e160, 1e-160), (1.0, 1e300),
                                              (1e300, 1.0), (1.0, 1e-300), (1e-300, 1.0)])
def test_scale_critical_rejects_an_alpha_max_out_of_range(unit_square, p_scale, q_scale):
    # alpha_max over- or underflows (to inf, NaN or 0), or the map itself does.
    p, q = unit_square.scaled(p_scale), unit_square.scaled(q_scale)
    with pytest.raises(NonFiniteResult):
        scale_critical(p, q)
    with pytest.raises(NonFiniteResult):
        classify(induced_map(p, q))


def test_an_overflowing_map_raises_non_finite_result(unit_square):
    with pytest.raises(NonFiniteResult, match="^the map overflows: a piece's linear part "
                                              "is not finite$"):
        classify(induced_map(unit_square.scaled(1e-160), unit_square.scaled(1e160)))


def test_a_triangulation_map_whose_source_edges_overflow_raises_non_finite_result():
    # Edges of 3.4e308: the source's flags and its solve read the same (inf) edges.
    poly = ngon_polytope(5)
    small = np.array([[1.0, 0.0], [-1, -1], [-1, -0.5], [-1, 0.5], [-1, 1]])
    big = small * np.array([1.7e308, 1e308])
    p, q = Shape(poly, big), Shape(poly, small)
    for f in (induced_map, lambda p, q: barycentric.triangulation_map(
            p, q, [[0, 1, 2], [0, 2, 3], [0, 3, 4]])):
        with pytest.raises(NonFiniteResult, match="^the map overflows"):
            f(p, q)


def test_compare_order_homothety(unit_square):
    half = unit_square.scaled(0.5)
    assert compare_order(unit_square, half).relation == "P<=Q"
    assert compare_order(half, unit_square).relation == "Q<=P"


def test_compare_order_isometric(unit_square, rng):
    rot = random_rotation(rng, 2)
    moved = unit_square.transformed(rotation=rot, translation=[3.0, -1.0])
    result = compare_order(unit_square, moved)
    assert result.relation == "both"
    # antisymmetry at the spectral level: all singular values in the unit band
    per = result.forward.summary.per_simplex
    assert np.abs(np.sqrt(per) - 1.0).max() <= 1e-9


def test_compare_order_published_incomparable(triangle_pair):
    # oracle: the inverse spectrum decides the backward direction
    p, q = triangle_pair
    inv_alpha_max = 1.0 / oracle_spectrum(p.coords, q.coords)[-1]
    assert inv_alpha_max > 1.0  # backward map also expands
    result = compare_order(p, q)
    assert result.relation == "incomparable"
    assert result.backward.summary.alpha_max == pytest.approx(inv_alpha_max, rel=1e-9)


def solved_order(p, q, tol=spectral.DEFAULT_TOL):
    """compare_order's relation from two explicit solves, (P, Q) and (Q, P)."""
    weak = tuple(classify(induced_map(a, b), tol).is_weak_compression for a, b in ((p, q), (q, p)))
    return {(True, True): "both", (True, False): "P<=Q", (False, True): "Q<=P"}.get(
        weak, "incomparable")


def derived_pairs():
    rng = np.random.default_rng(2101)
    for d in (2, 3, 4, 5):
        for _ in range(3 if d < 5 else 1):
            yield f"{d}-cube", projective_cube(rng, d), projective_cube(rng, d)
    for n in (3, 5, 8, 11):
        yield f"{n}-gon", random_polygon_shape(rng, n), random_polygon_shape(rng, n)


@pytest.mark.parametrize("name,p,q", list(derived_pairs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_derived_spectra_match_the_solved_ones(name, p, q):
    # Q -> P inverts P -> Q on every chain, and P -> lambda Q is lambda times it.
    order, rescale = compare_order(p, q), scale_critical(p, q)
    backward = classify(induced_map(q, p))
    scaled = classify(induced_map(p, q.scaled(rescale.lam)))
    for got, want in ((order.backward, backward), (rescale.classification, scaled)):
        # Per chain, relative to its largest alpha, as eigvalsh is accurate; the
        # solve's own error grows with the chain's conditioning.
        got_a, want_a = got.summary.per_simplex, want.summary.per_simplex
        top, cond = want_a[:, -1:], want_a[:, -1:] / want_a[:, :1]
        assert (np.abs(got_a - want_a) <= 1e-13 * np.sqrt(cond) * top).all()
        assert got.verdict == want.verdict
        assert got.edge_contracting == want.edge_contracting
    assert order.relation == solved_order(p, q)
    assert rescale.classification.summary.alpha_max == 1.0
    # The witnesses solve the other pair on first read, as a solved map's would.
    for got, want in ((order.backward, backward), (rescale.classification, scaled)):
        assert got.witness.ratio == pytest.approx(want.witness.ratio, rel=1e-12)
        assert got.map.maps.linear.tobytes() == want.map.maps.linear.tobytes()


def test_derived_classifications_solve_nothing_until_the_witness_is_read(unit_square):
    half = unit_square.scaled(0.5)
    barycentric.induced_map.cache_clear()
    order, rescale = compare_order(unit_square, half), scale_critical(unit_square, half)
    derived = order.backward.map
    assert [f.name for f in dataclasses.fields(derived)] == ["source", "target", "alphas"]
    repr(order), repr(rescale), dataclasses.replace(derived)  # generic reads solve nothing
    assert not derived.alphas.flags.writeable
    assert barycentric.induced_map.cache_info().misses == 1
    assert order.backward.witness.ratio == pytest.approx(2.0, rel=1e-15)
    assert rescale.classification.witness.ratio == pytest.approx(1.0, rel=1e-15)
    assert barycentric.induced_map.cache_info().misses == 3


def outcome(f):
    """f()'s result, or the type of the ``PolycompError`` or ``LinAlgError`` it raises."""
    try:
        return f()
    except (PolycompError, np.linalg.LinAlgError) as exc:
        return type(exc)


@pytest.mark.parametrize("exponent", [100, 150, 154, 160])
def test_derived_order_agrees_with_the_solve_at_far_scales(rng, unit_square, exponent):
    shapes = [unit_square, random_polygon_shape(rng, 7), projective_cube(rng, 3),
              projective_cube(rng, 4)]
    for p in shapes:
        for s in (10.0 ** exponent, 10.0 ** -exponent):
            q = p.scaled(s)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = outcome(lambda: compare_order(p, q).relation)
                rescale = outcome(lambda: scale_critical(p, q))
            assert got == outcome(lambda: solved_order(p, q)), (s, p.polytope.vertex_count)
            assert got in ("P<=Q", "Q<=P", NonFiniteResult)
            if not isinstance(rescale, type):  # the rescale returned
                assert rescale.classification.verdict == WEAK_COMPRESSION
                assert rescale.classification.summary.alpha_max == 1.0


def test_perturbation_uniform_shrink_and_grow(rng):
    p = random_simplex_shape(rng, 2)
    shrink = perturbation_classify(p, -p.coords)
    assert shrink.infinitesimal_weak_compression
    assert np.allclose(shrink.symmetric_part, -2.0 * np.eye(2), atol=1e-10)
    grow = perturbation_classify(p, p.coords)
    assert not grow.infinitesimal_weak_compression
    assert np.allclose(grow.symmetric_part, 2.0 * np.eye(2), atol=1e-10)


def test_perturbation_rejects_bad_shapes_and_velocities(rng):
    p = random_simplex_shape(rng, 2)
    with pytest.raises(ValueError, match="^velocities must match the vertex coordinate layout$"):
        perturbation_classify(p, p.coords[:2])
    square = rhombus_shape()
    with pytest.raises(ValueError, match="^perturbation analysis applies to simplex shapes$"):
        perturbation_classify(square, square.coords)
    flat = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(SingularSimplex, match="^simplex shape is affinely degenerate$"):
        perturbation_classify(np.array(flat), np.zeros((3, 2)))


def test_perturbation_rotation_boundary(rng):
    p = random_simplex_shape(rng, 2)
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    result = perturbation_classify(p, p.coords @ j.T)
    assert np.abs(result.symmetric_part).max() <= 1e-10
    assert result.infinitesimal_weak_compression


def exact_symmetric_part(coords, velocities):
    """W + W^T for W = (E^{-1} F_v)^T, in exact rationals: E has rows p_i - p_0 and
    F_v rows v_i - v_0; Gauss-Jordan elimination on [E | F_v] leaves E^{-1} F_v."""
    rows = [[Fraction(a) - Fraction(b) for a, b in zip(r, first)]
            for first, block in ((coords[0], coords[1:]), (velocities[0], velocities[1:]))
            for r in block]
    d = len(coords) - 1
    m = [rows[i] + rows[d + i] for i in range(d)]
    for c in range(d):
        pivot = next(r for r in range(c, d) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(d):
            if r != c:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    x = [row[d:] for row in m]
    return [[x[i][j] + x[j][i] for j in range(d)] for i in range(d)]


DYADIC_PERTURBATIONS = [
    ([[0.0, 0.0], [1.0, 0.0], [0.5, 0.75]], [[0.25, -0.5], [-0.125, 0.0], [0.0, 0.375]]),
    ([[0.5, -0.25], [3.0, 0.5], [-1.25, 2.0]], [[1.0, 0.5], [-0.75, 0.25], [0.125, -1.5]]),
    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 1.0, 0.0], [0.5, 0.5, 0.75]],
     [[0.125, 0.0, -0.5], [0.0, 0.25, 0.0], [-0.375, 0.0, 0.5], [0.25, -0.25, 0.125]]),
    ([[1.0, 2.0, -1.0], [-0.5, 0.25, 1.5], [2.25, -1.0, 0.5], [0.0, 1.0, 3.0]],
     [[0.5, 0.0, 0.25], [-1.0, 0.75, 0.0], [0.0, -0.5, 1.25], [0.375, 0.125, -0.25]]),
]


def test_perturbation_matches_an_exact_rational_oracle():
    data = Path(__file__).parent / "data"
    cases = DYADIC_PERTURBATIONS + [(load_shape(data / "P.json").coords.tolist(),
                                     load_matrix(data / "V.json").tolist())]
    for coords, velocities in cases:
        got = perturbation_classify(np.array(coords), velocities).symmetric_part
        want = exact_symmetric_part(coords, velocities)
        scale = max(abs(w) for row in want for w in row)
        err = max(abs(Fraction(float(g)) - w) for gs, ws in zip(got, want) for g, w in zip(gs, ws))
        assert err <= Fraction(1e-15) * scale


def rhombus_shape(a=2.0, b=1.0):
    return Shape(ngon_polytope(4), [[-a, 0.0], [0.0, b], [a, 0.0], [0.0, -b]])


def rhombus_flex(a=2.0, b=1.0, s=1.0):
    return np.array([[-s, 0.0], [0.0, -(a / b) * s], [s, 0.0], [0.0, (a / b) * s]])


def test_distance_derivative_zero_velocity():
    shape = rhombus_shape()
    v = np.zeros_like(shape.coords)
    x = PointOnShape(face=(0,))
    y = PointOnShape(face=(2, 3))
    assert distance_derivative(shape, v, x, y) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="^velocities must match the vertex coordinate layout$"):
        distance_derivative(shape, v[:3], x, y)
    with pytest.raises(ValueError, match="^weights must match the face's vertex count$"):
        PointOnShape(face=(2, 3), weights=(1.0,)).resolve(shape.coords)


def test_rhombus_flex_preserves_edges():
    shape = rhombus_shape()
    v = rhombus_flex(s=1.0)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        deriv = distance_derivative(shape, v, PointOnShape(face=(i,)),
                                    PointOnShape(face=(j,)))
        assert abs(deriv) <= 1e-8


def test_rhombus_flex_vertex_to_midpoint():
    a, b, s = 2.0, 1.0, -1.0
    shape = rhombus_shape(a, b)
    v = rhombus_flex(a, b, s)
    deriv = distance_derivative(shape, v, PointOnShape(face=(0,)),
                                PointOnShape(face=(2, 3), weights=(0.5, 0.5)))
    # analytic first-order oracle: grad of ||p1 - m|| dotted with velocities
    p1, m = shape.coords[0], (shape.coords[2] + shape.coords[3]) / 2.0
    vel = v[0] - (v[2] + v[3]) / 2.0
    analytic = float((p1 - m) @ vel / np.linalg.norm(p1 - m))
    assert analytic == pytest.approx(2 * a * s / np.sqrt(9 * a**2 / 4 + b**2 / 4),
                                     abs=1e-12)
    assert deriv == pytest.approx(analytic, abs=1e-5)


def test_convexity_of_weak_compressions(rng):
    # lambda*A + (1-lambda)*I stays a weak compression
    for _ in range(5):
        d = int(rng.integers(1, 5))
        m = random_contraction(rng, d, sigma_range=(0.2, 1.0))
        for lam in rng.uniform(0.0, 1.0, 20):
            blended = lam * m + (1 - lam) * np.eye(d)
            top = np.linalg.eigvalsh(blended.T @ blended)[-1]
            assert top <= 1.0 + 1e-10


def test_composition_submultiplicative(rng):
    for _ in range(20):
        d = int(rng.integers(1, 5))
        a = random_contraction(rng, d, sigma_range=(0.2, 1.0))
        b = random_contraction(rng, d, sigma_range=(0.2, 1.0))
        amax = np.linalg.eigvalsh(a.T @ a)[-1]
        bmax = np.linalg.eigvalsh(b.T @ b)[-1]
        cmax = np.linalg.eigvalsh((a @ b).T @ (a @ b))[-1]
        assert cmax <= amax * bmax + 1e-9


def test_classify_agrees_with_sampling_oracle(rng):
    # smaller sibling of the acceptance criterion: 40 pairs, 2000 samples
    for _ in range(40):
        d = int(rng.integers(1, 5))
        p = Shape(simplex_polytope(d), random_simplex_coords(rng, d))
        q = Shape(simplex_polytope(d), random_simplex_coords(rng, d))
        m = induced_map(p, q)
        result = classify(m)
        w1 = rng.dirichlet(np.ones(d + 1), size=2000)
        w2 = rng.dirichlet(np.ones(d + 1), size=2000)
        xs, ys = w1 @ p.coords, w2 @ p.coords
        fxs, fys = w1 @ q.coords, w2 @ q.coords
        gaps = np.linalg.norm(xs - ys, axis=1)
        keep = gaps > 1e-12
        ratios = np.linalg.norm(fxs - fys, axis=1)[keep] / gaps[keep]
        top = np.sqrt(spectral_summary(m).alpha_max)
        if abs(top - 1.0) <= 1e-7:
            continue
        if result.verdict in (COMPRESSION, WEAK_COMPRESSION):
            assert ratios.max() <= 1.0 + 1e-7
        else:
            seeded = extremal_pair(m).ratio
            assert max(ratios.max(), seeded) > 1.0 + 1e-9
