"""Barycentric subdivision, induced maps, naturality and continuity."""

import dataclasses
import itertools

import numpy as np
import pytest

from polycomp import (
    DegenerateSimplex,
    PointOutside,
    PolytopeMismatch,
    Shape,
    barycentre,
    barycentric_complex,
    build_polytope,
    evaluate_map,
    induced_map,
    ngon_polytope,
    simplex_polytope,
)
from polycomp.affine import degenerate
from generators import given_piece


def brute_force_chains(polytope):
    """Oracle: every strictly increasing face sequence of dimensions 0..d."""
    d = polytope.dimension
    by_dim = [[i for i, k in enumerate(polytope.face_dims) if k == dim]
              for dim in range(d + 1)]
    chains = []
    for combo in itertools.product(*by_dim):
        ok = True
        for a, b in zip(combo, combo[1:]):
            if not set(polytope.faces[a]) < set(polytope.faces[b]):
                ok = False
                break
        if ok:
            chains.append(combo)
    return set(chains)


def test_barycentre_singleton_and_edge(unit_square):
    assert np.allclose(barycentre([2], unit_square), [1.0, 1.0])
    assert np.allclose(barycentre([0, 1], unit_square), [0.5, 0.0])
    with pytest.raises(ValueError, match="^face must be nonempty$"):
        barycentre((), unit_square)


def test_barycentre_body_of_published_triangle(triangle_pair):
    p, _ = triangle_pair
    b = barycentre([0, 1, 2], p)
    assert np.allclose(b, [1.7843333333333333, 0.7396666666666667], atol=1e-12)


CUBE3 = build_polytope(3, 8, [[v for v in range(8) if (v >> k) & 1 == side]
                              for k in range(3) for side in (0, 1)])
PRISM = build_polytope(3, 6, [[0, 1, 2], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [0, 2, 5, 3]])


@pytest.mark.parametrize("polytope,expected", [
    (simplex_polytope(2), 6),
    (ngon_polytope(4), 8),
    (simplex_polytope(3), 24),
    (ngon_polytope(5), 10),
    (CUBE3, 48),
    (PRISM, 36),
])
def test_chain_counts(polytope, expected):
    complex_ = barycentric_complex(polytope)
    assert complex_.simplex_count == expected
    # Row for row: the chains come in lexicographic order of their face indices.
    assert complex_.chain_faces.tolist() == [list(c) for c in sorted(brute_force_chains(polytope))]


def test_chain_structure():
    complex_ = barycentric_complex(ngon_polytope(5))
    poly = complex_.polytope
    for chain in complex_.chain_faces.tolist():
        dims = [poly.face_dims[i] for i in chain]
        assert dims == [0, 1, 2]
        assert set(poly.faces[chain[0]]) < set(poly.faces[chain[1]])
    for i, j in complex_.adjacency:
        assert len(set(complex_.chain_faces[i]) & set(complex_.chain_faces[j])) == 2


def test_induced_map_identity(unit_square):
    m = induced_map(unit_square, unit_square)
    for i in range(m.simplex_count):
        corr = m.maps[i]
        assert np.allclose(corr.linear, np.eye(2), atol=1e-12)
        sv = np.linalg.svd(corr.linear, compute_uv=False)
        assert np.abs(sv - 1.0).max() <= 1e-12


def test_induced_map_homothety(unit_square):
    m = induced_map(unit_square, unit_square.scaled(2.0))
    for i in range(m.simplex_count):
        corr = given_piece(m, i)
        assert np.allclose(corr.linear, 2.0 * np.eye(2), atol=1e-12)


def test_induced_map_simplex_bypass(triangle_pair):
    p, q = triangle_pair
    m = induced_map(p, q)
    assert m.simplex_count == 1


def test_induced_map_polytope_mismatch(unit_square, triangle_pair):
    with pytest.raises(PolytopeMismatch):
        induced_map(unit_square, triangle_pair[0])


def test_induced_map_degenerate_source():
    poly = ngon_polytope(4)
    # two coincident vertices collapse a chain simplex
    p = Shape(poly, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    q = Shape(poly, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DegenerateSimplex):
        induced_map(p, q)


def test_degenerate_is_free_of_position_and_scale():
    # Normalised |det| of the edge matrix: h for the first two, 0 for the last.
    thin, flatter = ([[0.0, 0.0], [1.0, 0.0], [0.5, h]] for h in (1e-11, 1e-13))
    line = [[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]
    want = [False, False, True, True]
    for scale in (2.0**-900, 2.0**-40, 1.0, 2.0**40, 2.0**900):  # exact rescalings
        stack = scale * np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], thin, flatter, line])
        assert degenerate(stack).tolist() == want
        moved = stack + scale * np.array([1e6, -1e6])  # far away, on the simplices' scale
        assert degenerate(moved[[0, 3]]).tolist() == [False, True]
    mixed = np.array([1e-200, 1e200])[:, None, None, None] * np.array([[[0.0, 0.0], [1.0, 0.0],
                                                                    [0.0, 1.0]], line])
    assert degenerate(mixed).tolist() == [[False, True], [False, True]]
    assert degenerate(np.zeros((3, 2)))  # a simplex shrunk to a point


def image(corr, x):
    """The piece's affine map at x (a point, or a stack of points): q_0 + A (x - p_0)."""
    return corr.target[0] + (x - corr.source[0]) @ corr.linear.T


def test_affine_invariants(triangle_pair):
    p, q = triangle_pair
    corr = induced_map(p, q).maps[0]
    assert [f.name for f in dataclasses.fields(corr)] == ["source", "target", "linear"]
    assert corr.linear.shape == (2, 2)
    assert np.abs(image(corr, corr.source) - corr.target).max() <= 1e-10


def test_evaluate_map_vertices(unit_square):
    target = unit_square.scaled(3.0).transformed(translation=[2.0, -1.0])
    m = induced_map(unit_square, target)
    for i in range(4):
        out = evaluate_map(m, unit_square.coords[i])
        assert np.allclose(out, target.coords[i], atol=1e-10)


def test_evaluate_map_published_points(triangle_pair):
    p, q = triangle_pair
    m = induced_map(p, q)
    x = np.array([0.34, 0.464, 0.196]) @ p.coords
    y = np.array([0.149, 0.316, 0.535]) @ p.coords
    assert np.allclose(x, [1.97432, 0.819808], atol=1e-4)
    assert np.allclose(y, [2.10787, 0.41864], atol=1e-4)
    qx = evaluate_map(m, x)
    qy = evaluate_map(m, y)
    assert np.allclose(qx, [4.21365, 2.49228], atol=1e-4)
    assert np.allclose(qy, [4.34854, 2.0862], atol=1e-4)


def test_evaluate_map_outside(unit_square):
    m = induced_map(unit_square, unit_square)
    with pytest.raises(PointOutside):
        evaluate_map(m, [5.0, 5.0])


def test_naturality(rng):
    # f(b(F)) = b(G) for every face, on a random pentagon pair
    from generators import random_polygon_shape

    p = random_polygon_shape(rng, 5)
    q = random_polygon_shape(rng, 5)
    m = induced_map(p, q)
    for face in p.polytope.faces:
        image = evaluate_map(m, barycentre(face, p))
        assert np.linalg.norm(image - barycentre(face, q)) <= 1e-10


def test_continuity_on_shared_facets(rng):
    # adjacent chain simplices agree on their shared face
    from generators import random_polygon_shape

    p = random_polygon_shape(rng, 6)
    q = random_polygon_shape(rng, 6)
    m = induced_map(p, q)
    complex_ = barycentric_complex(p.polytope)
    samples_per_pair = 1000 // max(1, len(complex_.adjacency))
    for i, j in complex_.adjacency:
        ci, cj = complex_.chain_faces[i].tolist(), complex_.chain_faces[j].tolist()
        shared = [f for f in ci if f in cj]
        pts = np.stack([barycentre(p.polytope.faces[f], p) for f in shared])
        w = rng.dirichlet(np.ones(len(shared)), size=samples_per_pair)
        xs = w @ pts
        for x in xs:
            yi = image(m.maps[i], x)
            yj = image(m.maps[j], x)
            assert np.linalg.norm(yi - yj) <= 1e-10
