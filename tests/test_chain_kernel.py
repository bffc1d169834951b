"""The stacked chain kernel against per-simplex loop references.

Each reference builds one ``affine_correspondence`` per simplex from
``barycentre`` coordinates, or scans the simplices one by one, so the
batched ``induced_map``, ``per_chain_deltas`` and ``evaluate_map`` are
checked against the plain loop they must agree with.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from polycomp import (
    DegenerateSimplex,
    PointOutside,
    Shape,
    SingularSimplex,
    affine_correspondence,
    barycentre,
    barycentric_complex,
    build_polytope,
    evaluate_map,
    fan_triangulation,
    induced_map,
    ngon_polytope,
    per_chain_deltas,
    simplex_polytope,
    spectral_summary,
    triangulation_map,
)
from polycomp.affine import degenerate, edge_inverses, edges, gram_eigenvalues
from polycomp.barycentric import chain_simplex_coords
from generators import random_convex_polygon
from polycomp.metric import _deltas
from polycomp.polytopes import facet_adjacency

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def cube_shape(d, coords):
    verts = list(itertools.product((0, 1), repeat=d))
    facets = [[i for i, v in enumerate(verts) if v[k] == side]
              for k in range(d) for side in (0, 1)]
    return Shape(build_polytope(d, 2**d, facets), coords)


def projective_cube(rng, d):
    """A projective image of the centred unit d-cube; facets stay planar."""
    x = np.array(list(itertools.product((0, 1), repeat=d)), dtype=float) - 0.5
    a = np.eye(d) + 0.2 * rng.standard_normal((d, d))
    c = rng.uniform(-0.3, 0.3, d)
    return cube_shape(d, (x @ a.T + rng.standard_normal(d)) / (1.0 + x @ c)[:, None])


def reference_simplices(p, q, simplices=None):
    if simplices is not None:
        return ([p.coords[list(s)] for s in simplices],
                [q.coords[list(s)] for s in simplices])
    faces = p.polytope.faces
    chains = barycentric_complex(p.polytope).chain_faces
    return tuple([np.array([barycentre(faces[f], shape) for f in chain]) for chain in chains]
                 for shape in (p, q))


def reference_spectra(p, q, simplices=None):
    """Per-simplex alphas and deltas from the per-simplex loop."""
    src, tgt = reference_simplices(p, q, simplices)
    alphas = np.array([gram_eigenvalues(affine_correspondence(s, t).linear)
                       for s, t in zip(src, tgt)])
    deltas = np.array([np.log(a[-1] / a[0]) for a in alphas])
    return alphas, deltas


def stacked_deltas(src, tgt):
    """``metric._deltas`` on two (t, d+1, d) vertex stacks, from their flags and edges."""
    flags = (degenerate(src), degenerate(tgt))
    return _deltas(edge_inverses(edges(src), flags[0]), edges(tgt), flags)


def first_degenerate(src, tgt, check_target):
    """First simplex whose loop reference raises, checking its target first."""
    for i, (s, t) in enumerate(zip(src, tgt)):
        try:
            if check_target:
                affine_correspondence(t, s)
            affine_correspondence(s, t)
        except SingularSimplex:
            return i
    return None


def pair_cases():
    rng = np.random.default_rng(20240611)
    yield "3-cube", projective_cube(rng, 3), projective_cube(rng, 3), None
    yield "4-cube", projective_cube(rng, 4), projective_cube(rng, 4), None
    poly = ngon_polytope(9)
    p = Shape(poly, random_convex_polygon(rng, 9))
    q = Shape(poly, 1.3 * random_convex_polygon(rng, 9))
    yield "9-gon", p, q, None
    yield "fan", p, q, fan_triangulation(poly, 2).simplices


@pytest.mark.parametrize("name,p,q,simplices", list(pair_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_stacked_kernel_matches_per_simplex_loop(name, p, q, simplices):
    want_alphas, want_deltas = reference_spectra(p, q, simplices)
    m = induced_map(p, q) if simplices is None else triangulation_map(p, q, simplices)
    assert m.simplex_count == len(want_alphas)
    np.testing.assert_allclose(spectral_summary(m).per_simplex, want_alphas, rtol=1e-12)
    deltas = (per_chain_deltas(p, q) if simplices is None
              else stacked_deltas(m.maps.source, m.maps.target))
    np.testing.assert_allclose(deltas, want_deltas, rtol=1e-12)
    src, tgt = reference_simplices(p, q, simplices)
    for i, (s, t) in enumerate(zip(src, tgt)):
        corr = m.maps[i]
        np.testing.assert_allclose(corr.source, s, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(corr.target, t, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(corr.linear, affine_correspondence(s, t).linear,
                                   rtol=1e-12, atol=1e-14)


def collapsed_square(gone, onto):
    coords = SQUARE.copy()
    coords[gone] = coords[onto]
    return Shape(ngon_polytope(4), coords)


def test_degenerate_chain_index_matches_loop():
    good = Shape(ngon_polytope(4), SQUARE * [2.0, 1.0])
    late = collapsed_square(2, 1)   # degenerate chains at edge {1, 2}
    early = collapsed_square(3, 0)  # degenerate chains at edge {0, 3}
    want = first_degenerate(*reference_simplices(late, good), check_target=False)
    assert want is not None
    with pytest.raises(DegenerateSimplex, match=rf"^chain {want} is degenerate in the source$"):
        induced_map(late, good)
    # (early, late) has a bad source chain before the first bad target chain.
    for p, q in ((good, late), (early, late), (late, early)):
        want = first_degenerate(*reference_simplices(p, q), check_target=True)
        assert want is not None
        with pytest.raises(DegenerateSimplex, match=rf"^chain {want} is degenerate$"):
            per_chain_deltas(p, q)


def test_deltas_name_first_degenerate_side():
    good = Shape(ngon_polytope(4), SQUARE * [2.0, 1.0])
    late = collapsed_square(2, 1)
    early = collapsed_square(3, 0)
    complex_ = barycentric_complex(good.polytope)
    # The source of (early, late) is degenerate at a lower chain index than its target.
    for p, q, side in ((early, late, "source"), (late, early, "target"),
                       (early, good, "source"), (good, late, "target")):
        want = first_degenerate(*reference_simplices(p, q), check_target=True)
        with pytest.raises(SingularSimplex, match=f"^{side} simplex") as exc:
            stacked_deltas(chain_simplex_coords(complex_, p), chain_simplex_coords(complex_, q))
        assert exc.value.index == want


def test_degenerate_triangulation_simplex_is_named():
    p = collapsed_square(2, 1)
    with pytest.raises(DegenerateSimplex, match=r"^simplex \(1, 2, 3\) is degenerate"):
        triangulation_map(p, Shape(p.polytope, SQUARE), [(0, 1, 3), (1, 2, 3)])
    for simplices in ([(0, 1), (2, 3)], [(0, 1, 2, 3)], []):  # not d+1 vertices each
        with pytest.raises(ValueError, match=r"^simplices must be \(d\+1\) x d vertex arrays"):
            triangulation_map(p, Shape(p.polytope, SQUARE), simplices)


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("simplices", [
    [[0, 1, 3], [1, 2, 3]],
    ((0, 1, 3), (1, 2, 3)),
    read_only(np.array([[0, 1, 3], [1, 2, 3]], dtype=np.intp)),
], ids=["list", "tuple", "read-only-intp"])
def test_degenerate_triangulation_simplex_is_named_by_plain_ints(simplices):
    p = collapsed_square(2, 1)
    with pytest.raises(DegenerateSimplex) as exc:
        triangulation_map(p, Shape(p.polytope, SQUARE), simplices)
    assert str(exc.value) == "simplex (1, 2, 3) is degenerate in the source"


def reference_evaluate(m, x, tol=1e-9):
    for i in range(m.simplex_count):
        corr = m.maps[i]
        rest = np.linalg.solve((corr.source[1:] - corr.source[0]).T, x - corr.source[0])
        lam = np.append(1.0 - rest.sum(), rest)
        if lam.min() >= -tol:
            lam = np.clip(lam, 0.0, None)
            return corr.target.T @ (lam / lam.sum())
    raise PointOutside("outside")


def test_evaluate_map_matches_linear_scan():
    rng = np.random.default_rng(7)
    poly = ngon_polytope(7)
    p = Shape(poly, random_convex_polygon(rng, 7))
    q = Shape(poly, random_convex_polygon(rng, 7))
    m = induced_map(p, q)
    # Chain vertices lie on shared faces, where several simplices accept them.
    points = list(m.maps.source.reshape(-1, 2)) + list(rng.uniform(-0.6, 0.6, (200, 2)))
    for x in points:
        try:
            want = reference_evaluate(m, x)
        except PointOutside:
            with pytest.raises(PointOutside):
                evaluate_map(m, x)
            continue
        np.testing.assert_array_equal(evaluate_map(m, x), want)


def test_complex_is_cached_read_only_and_shared():
    a = barycentric_complex(ngon_polytope(6))
    b = barycentric_complex(ngon_polytope(6))
    assert a is b
    for arr in (a.chain_faces, a.incidence):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1
    assert a.chain_faces.shape == (a.simplex_count, 3)
    shape = Shape(ngon_polytope(6), random_convex_polygon(np.random.default_rng(3), 6))
    want = np.array([[barycentre(a.polytope.faces[f], shape) for f in c] for c in a.chain_faces])
    np.testing.assert_allclose(chain_simplex_coords(a, shape), want, rtol=1e-15, atol=1e-15)


def isin_incidence(polytope):
    """The face-by-vertex incidence as it was built: one ``np.isin`` per face."""
    n = polytope.vertex_count
    return np.array([np.isin(np.arange(n), f) for f in polytope.faces], dtype=float)


@pytest.mark.parametrize("kind,size", [("simplex", d) for d in (1, 2, 3, 4)]
                         + [("ngon", n) for n in (3, 5, 8)]
                         + [("cube", d) for d in (2, 3, 4, 5)])
def test_complex_adjacency_on_first_read_and_scattered_incidence(rng, kind, size):
    if kind == "cube":
        shape = projective_cube(rng, size)
    elif kind == "ngon":
        shape = Shape(ngon_polytope(size), random_convex_polygon(rng, size))
    else:
        shape = Shape(simplex_polytope(size), rng.standard_normal((size + 1, size)))
    complex_ = barycentric_complex.__wrapped__(shape.polytope)  # a fresh, uncached build
    assert "adjacency" not in vars(complex_)
    assert complex_.adjacency == facet_adjacency(complex_.chain_faces.tolist())
    assert complex_.adjacency is complex_.adjacency
    np.testing.assert_array_equal(complex_.incidence, isin_incidence(shape.polytope))
    assert complex_.incidence.dtype == np.float64
    old = dataclasses.replace(complex_, incidence=isin_incidence(shape.polytope))
    np.testing.assert_array_equal(chain_simplex_coords(complex_, shape),
                                  chain_simplex_coords(old, shape))
