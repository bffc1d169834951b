"""Face lattices, shape validation, fans and face-pairing graphs."""

import functools
import itertools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp import (
    DegenerateSpan,
    DuplicateVertex,
    InconsistentLattice,
    MalformedInput,
    NotSimple,
    Shape,
    barycentric_complex,
    build_polytope,
    fan_triangulation,
    ngon_polytope,
    simplex_polytope,
    triangulation,
    validate_shape,
)
from generators import random_convex_polygon
from polycomp import polytopes
from polycomp.io import load_shapes, shape_from_dict
from polycomp.polytopes import (
    COORD_TOL,
    FLAT_ANGLE_TOL,
    _certified_extreme,
    _certified_nonextreme,
    _cone_residual,
    facet_adjacency,
)


def brute_force_lattice(n, facets):
    """Oracle: all nonempty intersections of facet subfamilies, plus the body."""
    facet_sets = [frozenset(f) for f in facets]
    faces = {frozenset(range(n))}
    for r in range(1, len(facet_sets) + 1):
        for combo in itertools.combinations(facet_sets, r):
            inter = frozenset.intersection(*combo)
            if inter:
                faces.add(inter)
    return {tuple(sorted(f)) for f in faces}


def test_triangle_lattice():
    p = build_polytope(2, 3, [[0, 1], [1, 2], [0, 2]])
    assert len(p.faces) == 7  # 3 vertices + 3 edges + body
    assert len(p.faces_of_dim(0)) == 3
    assert len(p.faces_of_dim(1)) == 3
    assert p.faces_of_dim(2) == [(0, 1, 2)]


def test_quadrilateral_lattice():
    p = build_polytope(2, 4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    assert len(p.faces) == 9  # 4 + 4 + 1
    assert len(p.faces_of_dim(0)) == 4
    assert len(p.faces_of_dim(1)) == 4


def test_tetrahedron_lattice_against_oracle():
    facets = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    p = build_polytope(3, 4, facets)
    assert len(p.faces) == 15  # 4 + 6 + 4 + 1
    assert set(p.faces) == brute_force_lattice(4, facets)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_simplex_face_count(d):
    p = simplex_polytope(d)
    assert len(p.faces) == 2 ** (d + 1) - 1
    assert p.is_simplex


def test_ngon_generators():
    sq = ngon_polytope(4)
    assert set(sq.facets) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    hexagon = ngon_polytope(6)
    assert len(hexagon.faces) == 13


@given(st.integers(min_value=3, max_value=9))
@settings(max_examples=20, deadline=None)
def test_lattice_intersection_closed(n):
    p = ngon_polytope(n)
    face_set = set(p.faces)
    for f in p.faces:
        for g in p.faces:
            common = tuple(sorted(set(f) & set(g)))
            assert common == () or common in face_set


def test_not_simple():
    # vertex 0 sits in three facets of a would-be 2-polytope
    with pytest.raises(NotSimple):
        build_polytope(2, 5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]])


def test_inconsistent_lattice():
    with pytest.raises(InconsistentLattice):
        build_polytope(2, 4, [[0, 1], [0, 1, 2], [2, 3], [3, 0]])  # containment
    with pytest.raises(InconsistentLattice):
        build_polytope(2, 3, [[0, 1], [1, 2]])  # too few facets for a 2-polytope
    with pytest.raises((InconsistentLattice, NotSimple)):
        build_polytope(3, 4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1]])
    with pytest.raises(InconsistentLattice, match=r"^1-face \(0, 1, 2\) has more than two"):
        build_polytope(2, 6, [[0, 1, 2], [1, 3], [0, 4], [2, 5], [3, 4, 5]])  # a 3-vertex edge
    with pytest.raises(InconsistentLattice, match="^facets are not distinct$"):
        build_polytope(2, 3, [[0, 1], [1, 2], [0, 2], [0, 1]])
    with pytest.raises(InconsistentLattice, match="^vertex missing from every facet$"):
        build_polytope(2, 4, [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(InconsistentLattice, match="^facets at vertex 0 do not isolate it$"):
        build_polytope(2, 4, [[0, 1, 2], [0, 1, 3], [2, 3]])
    # Facets 034 and 012 at vertex 0 meet in vertex 0 alone, not in an edge.
    with pytest.raises(InconsistentLattice, match="^some vertex lies on fewer than d edges$"):
        build_polytope(3, 5, [[1, 2, 4], [2, 3, 4], [0, 3, 4], [0, 1, 3], [0, 1, 2]])


@pytest.mark.parametrize("d,n,facets,message", [
    (0, 1, [[0]], "^dimension must be positive$"),
    (2, 2, [[0, 1], [1, 0]], r"^a d-polytope needs at least d\+1 vertices$"),
    (2, 3, [[0, 1], [1, 2], []], "^facets must be nonempty$"),
    (2, 3, [[0, 1], [1, 2], [2, 3]], "^facet vertex index out of range$"),
])
def test_build_polytope_rejects_bad_arguments(d, n, facets, message):
    with pytest.raises(ValueError, match=message):
        build_polytope(d, n, facets)


def test_validate_unit_square_strict(unit_square):
    report = validate_shape(unit_square.polytope, unit_square.coords, "strict")
    assert report.verdict == "strictly-convex"
    assert (report.margins > 0).all()
    assert all(report.vertex_extreme)
    assert report.facets == unit_square.polytope.facets
    for a in (report.residuals, report.margins):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_validate_pentagon_with_flat_vertex():
    poly = ngon_polytope(5)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [-1.0, 2.0]])
    # vertex 1 is the midpoint of its neighbours' segment
    report = validate_shape(poly, coords, "weak")
    assert report.verdict == "weakly-convex"
    assert report.vertex_extreme == (True, False, True, True, True)
    assert len(report.flat_facet_pairs) == 1


def test_validate_published_triangle(triangle_pair):
    p, _ = triangle_pair
    report = validate_shape(p.polytope, p.coords, "strict")
    assert report.verdict == "strictly-convex"


def test_validate_degenerate_span():
    poly = simplex_polytope(2)
    with pytest.raises(DegenerateSpan):
        validate_shape(poly, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_validate_duplicate_vertex():
    poly = ngon_polytope(4)
    with pytest.raises(DuplicateVertex):
        validate_shape(poly, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_validate_nonconvex_invalid():
    poly = ngon_polytope(4)
    report = validate_shape(poly, [[0.0, 0.0], [1.0, 0.0], [0.2, 0.2], [0.0, 1.0]])
    assert report.verdict == "invalid"


def test_strict_iff_weak_and_extreme(rng):
    # on polygons: strict acceptance == weak acceptance + all vertices extreme
    for n in (4, 5, 6, 7):
        poly = ngon_polytope(n)
        coords = random_convex_polygon(rng, n)
        report = validate_shape(poly, coords, "strict")
        assert report.verdict == "strictly-convex"
        assert report.is_weak and all(report.vertex_extreme)
    # flatten one vertex of a hexagon: weak yes, strict no
    poly = ngon_polytope(6)
    reg = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)])
    reg[1] = (reg[0] + reg[2]) / 2
    report = validate_shape(poly, reg, "weak")
    assert report.verdict == "weakly-convex"
    assert not all(report.vertex_extreme)


def test_fan_triangulation_square(unit_square):
    tri = fan_triangulation(unit_square.polytope, 0)
    assert tri.simplices == ((0, 1, 2), (0, 2, 3))
    assert tri.is_tree
    assert len(tri.simplices) == 2 and len(tri.pairing_edges) == 1


def test_fan_triangulation_hexagon():
    tri = fan_triangulation(ngon_polytope(6), 0)
    assert len(tri.simplices) == 4
    assert len(tri.pairing_edges) == 3 and tri.is_tree
    degrees = {}
    for i, j in tri.pairing_edges:
        degrees[i] = degrees.get(i, 0) + 1
        degrees[j] = degrees.get(j, 0) + 1
    assert sorted(degrees.values()) == [1, 1, 2, 2]  # a path


def test_fan_triangulation_triangle():
    tri = fan_triangulation(simplex_polytope(2), 0)
    assert tri.simplices == ((0, 1, 2),)
    assert tri.is_tree
    assert tri.pairing_edges == ()


def test_fan_triangulation_is_shared_per_polytope_and_apex(rng):
    poly = ngon_polytope(7)
    for apex in (0, 3, 6):
        tri = fan_triangulation(poly, apex)
        assert fan_triangulation(poly, apex) is tri
        assert fan_triangulation(Shape(poly, random_convex_polygon(rng, 7)), np.int64(apex)) is tri
        assert tri == triangulation(poly, tri.simplices)
    assert fan_triangulation(poly, 0) is not fan_triangulation(poly, 3)


@pytest.mark.parametrize("poly,apex,message", [
    (ngon_polytope(5), -1, r"^fan apex must be a vertex in \[0, 5\)$"),
    (ngon_polytope(5), 5, r"^fan apex must be a vertex in \[0, 5\)$"),
    (simplex_polytope(3), 0, "^fan triangulation is defined for n-gons$"),
    (build_polytope(2, 6, [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]), 0,
     "^facets do not form a single cycle$"),
])
def test_fan_triangulation_raises_on_every_call(poly, apex, message):
    cached = polytopes._fan_triangulation.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            fan_triangulation(poly, apex)
    assert polytopes._fan_triangulation.cache_info().currsize == cached


def test_fan_cache_is_bounded():
    size = polytopes._fan_triangulation.cache_info().maxsize
    for n in range(4, size + 12):
        fan_triangulation(ngon_polytope(n), 0)
    assert polytopes._fan_triangulation.cache_info().currsize == size


def cube_polytope(d):
    verts = list(itertools.product((0, 1), repeat=d))
    return build_polytope(d, 2**d, [[i for i, v in enumerate(verts) if v[k] == side]
                                    for k in range(d) for side in (0, 1)])


def first_key_adjacency(cells):
    """Chain adjacency as ``barycentric_complex`` used to build it: each
    (position, rest) key joins later cells to the first cell with it."""
    seen, edges = {}, []
    for ci, cell in enumerate(cells):
        for pos in range(len(cell)):
            key = (pos, cell[:pos] + cell[pos + 1:])
            if key in seen:
                edges.append((seen[key], ci))
            else:
                seen[key] = ci
    return tuple(sorted(edges))


def shared_entry_adjacency(cells):
    """Pairing graph as ``triangulation`` used to build it: every pair of
    cells sharing all entries but one, by set intersection."""
    return tuple((i, j) for i, j in itertools.combinations(range(len(cells)), 2)
                 if len(set(cells[i]) & set(cells[j])) == len(cells[i]) - 1)


def adjacency_cases():
    polytopes = ([(f"simplex{d}", simplex_polytope(d)) for d in range(1, 5)]
                 + [(f"{n}-gon", ngon_polytope(n)) for n in range(3, 21)]
                 + [(f"cube{d}", cube_polytope(d)) for d in range(2, 5)])
    for name, poly in polytopes:
        yield f"chains-{name}", tuple(map(tuple, barycentric_complex(poly).chain_faces.tolist()))
    for n in range(3, 21):
        for apex in sorted({0, n // 2}):
            yield f"fan-{n}-gon-{apex}", fan_triangulation(ngon_polytope(n), apex).simplices
    yield "three-on-one-edge", ((0, 1, 2), (0, 1, 3), (0, 1, 4))


@pytest.mark.parametrize("name,cells", list(adjacency_cases()),
                         ids=[name for name, _ in adjacency_cases()])
def test_facet_adjacency_matches_both_former_graphs(name, cells):
    edges = facet_adjacency(cells)
    assert edges == shared_entry_adjacency(cells)
    # A chain's entry at position k is a k-face, so the position is implied,
    # and at most two chains share a key: the former chain graph agrees.
    if name.startswith("chains"):
        assert edges == first_key_adjacency(cells)


def test_three_triangles_on_one_edge_pair_each_other():
    tri = triangulation(ngon_polytope(5), [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert tri.pairing_edges == ((0, 1), (0, 2), (1, 2))
    assert not tri.is_tree


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_fan_always_tree_with_n_minus_2_simplices(n):
    tri = fan_triangulation(ngon_polytope(n), apex=1)
    assert len(tri.simplices) == n - 2
    assert tri.is_tree


def test_both_diagonals_rejected():
    poly = ngon_polytope(4)
    with pytest.raises(InconsistentLattice):
        triangulation(poly, [[0, 1, 2], [0, 2, 3], [0, 1, 3], [1, 2, 3]])


def test_triangulation_must_cover_vertices():
    poly = ngon_polytope(4)
    with pytest.raises(InconsistentLattice):
        triangulation(poly, [[0, 1, 2], [0, 1, 2]])
    with pytest.raises(InconsistentLattice, match="^simplices do not cover all vertices$"):
        triangulation(poly, [[0, 1, 2]])


@pytest.mark.parametrize("simplices,message", [
    ([[0, 0, 1], [0, 2, 3]], "must have d\\+1 distinct vertices$"),
    ([[0, 1, 4], [0, 2, 3]], "has out-of-range vertices$"),
])
def test_triangulation_rejects_bad_simplices(simplices, message):
    with pytest.raises(InconsistentLattice, match=message):
        triangulation(ngon_polytope(4), simplices)


# --- extreme-vertex test: Farkas certificate plus Lawson-Hanson NNLS --------

def cube_polytope_and_coords(d):
    verts = list(itertools.product((0, 1), repeat=d))
    facets = [[i for i, v in enumerate(verts) if v[k] == side]
              for k in range(d) for side in (0, 1)]
    return build_polytope(d, 2**d, facets), np.array(verts, dtype=float) - 0.5


def ngon_of_class(rng, n, cls):
    """Convex n-gon; "weak" puts vertex k on its neighbours' chord, "reflex"
    pulls it inside the hull.  Returns coords and k (None for "strict")."""
    pts = random_convex_polygon(rng, n)
    if cls == "strict":
        return pts, None
    k = int(rng.integers(n))
    prev, nxt = pts[k - 1], pts[(k + 1) % n]
    if cls == "weak":
        pts[k] = prev + rng.uniform(0.3, 0.7) * (nxt - prev)
    else:
        mid = (prev + nxt) / 2.0
        pts[k] = mid + rng.uniform(0.2, 0.4) * (pts.mean(axis=0) - mid)
    return pts, k


def hull_test_cases(seed=11):
    """(polytope, coords, on-boundary vertex) triples: n-gons of every class,
    perturbed 3- and 4-cubes and random point clouds on both lattices."""
    rng = np.random.default_rng(seed)
    for cls in ("strict", "weak", "reflex"):
        for n in (5, 8, 13, 21):
            coords, k = ngon_of_class(rng, n, cls)
            yield ngon_polytope(n), coords, k if cls == "weak" else None
    for d in (3, 4):
        poly, x = cube_polytope_and_coords(d)
        for scale in (0.02, 0.3):
            yield poly, x + scale * rng.standard_normal(x.shape), None
    for n in (4, 7, 12):
        yield ngon_polytope(n), rng.standard_normal((n, 2)), None
    poly, _ = cube_polytope_and_coords(3)
    for _ in range(4):
        yield poly, rng.standard_normal((8, 3)), None


def clear_of_hull_boundary(coords, skip=None, gap=1e-6) -> bool:
    """Is every vertex but ``skip`` farther than ``gap`` from the boundary of
    the hull of the others?  (The signed facet-plane distances bound it.)"""
    hull = pytest.importorskip("scipy.spatial").ConvexHull
    for v in range(len(coords)):
        if v == skip:
            continue
        eq = hull(np.delete(coords, v, axis=0)).equations
        if abs((eq[:, :-1] @ coords[v] + eq[:, -1]).max()) <= gap:
            return False
    return True


def lp_extreme(coords) -> tuple[bool, ...]:
    """Oracle: vertex i is extreme iff no convex combination of the others hits it."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    flags = []
    for i in range(len(coords)):
        others = np.delete(coords, i, axis=0)
        res = linprog(np.zeros(len(others)),
                      A_eq=np.vstack([others.T, np.ones(len(others))]),
                      b_eq=np.append(coords[i], 1.0), bounds=(0, None), method="highs")
        flags.append(not res.success)
    return tuple(flags)


def test_vertex_extreme_matches_lp_oracle():
    checked = 0
    for poly, coords, skip in hull_test_cases():
        if not clear_of_hull_boundary(coords, skip):
            continue
        report = validate_shape(poly, coords, "weak")
        assert report.vertex_extreme == lp_extreme(coords)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("offset, extreme", [(1e-6, True), (1e-12, False), (-1e-12, False)])
def test_vertex_extreme_near_chord(offset, extreme):
    n = 6
    coords = np.array([[np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)]
                       for k in range(n)])
    outward = (coords[0] + coords[2]) / np.linalg.norm(coords[0] + coords[2])
    coords[1] = (coords[0] + coords[2]) / 2 + offset * outward
    report = validate_shape(ngon_polytope(n), coords, "weak")
    assert report.vertex_extreme == (True, extreme, True, True, True, True)


def unit_lifted(coords):
    """The lifted points [u_v, 1] at the unit radius validate_shape uses, and their Gram matrix."""
    centered = coords - coords.mean(axis=0)
    lifted = np.hstack([centered / np.abs(centered).max(), np.ones((len(coords), 1))])
    return lifted, lifted @ lifted.T


def test_cone_residual_matches_scipy_nnls():
    # The residual value, not only its threshold: lifted weak and reflex
    # n-gons at n = 16..32 and random clouds, at the unit radius validate_shape uses.
    nnls = pytest.importorskip("scipy.optimize").nnls
    rng = np.random.default_rng(15)
    cases = [ngon_of_class(rng, n, cls) for cls in ("weak", "reflex") for n in (16, 24, 32)]
    cases += [(rng.standard_normal((n, d)), None) for n, d in ((8, 2), (14, 2), (12, 3), (16, 4))]
    checked = 0
    for coords, k in cases:
        n = len(coords)
        lifted, gram = unit_lifted(coords)
        got = np.array([_cone_residual(lifted, gram, v) for v in range(n)])
        want = np.array([nnls(np.delete(lifted, v, axis=0).T, lifted[v])[1] for v in range(n)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        if clear_of_hull_boundary(coords, k):
            assert tuple((got > COORD_TOL).tolist()) == lp_extreme(coords)
            checked += 1
    assert checked >= 8


def test_certificate_implies_nnls_extreme():
    rng = np.random.default_rng(12)
    tol = 1e-9
    certified = 0
    for poly, coords, _ in hull_test_cases(seed=13):
        n, d = coords.shape
        centered = coords - coords.mean(axis=0)
        lifted = np.hstack([centered, np.ones((n, 1))])
        gram = lifted @ lifted.T
        # With the facet normals validate_shape uses: same flags as NNLS alone.
        nnls = tuple(_cone_residual(lifted, gram, v) > tol for v in range(n))
        assert validate_shape(poly, coords, "weak").vertex_extreme == nnls
        # Any direction yields a valid certificate; try radial and random ones.
        for normals in (centered, rng.standard_normal((n, d))):
            proven = _certified_extreme(centered, normals, tol)
            for v in np.flatnonzero(proven):
                assert _cone_residual(lifted, gram, v) > tol
            certified += int(proven.sum())
    assert certified > 100


def test_neighbour_certificate_implies_nnls_nonextreme():
    # A nonnegative combination of other rows within COORD_TOL of lifted[v]
    # bounds the cone distance, so NNLS finds v non-extreme too: with the edge
    # neighbours validate_shape uses, and with random other rows.
    rng = np.random.default_rng(16)
    cases = [(poly, coords) for poly, coords, _ in hull_test_cases(seed=17)]
    cases += [(ngon_polytope(n), ngon_of_class(rng, n, cls)[0])
              for cls in ("weak", "reflex") for n in (16, 24, 32)]
    # A vertex on the line of its neighbours but past one of them is extreme.
    ring = np.array([[np.cos(t), np.sin(t)] for t in np.linspace(0, 2 * np.pi, 9)[:-1]])
    ring[3] = ring[2] + 1.5 * (ring[4] - ring[2])
    cases.append((ngon_polytope(8), ring))
    for d in (3, 4):  # a vertex moved into the hull of its neighbours
        poly, x = cube_polytope_and_coords(d)
        x = x + 0.02 * rng.standard_normal(x.shape)
        x[0] = rng.dirichlet(np.ones(d)) @ x[poly.vertex_neighbors[0]]
        cases.append((poly, x))
    certified = 0
    for poly, coords in cases:
        lifted, gram = unit_lifted(coords)
        n, d = coords.shape
        vertices = np.arange(n)
        others = np.array([rng.choice(np.delete(vertices, v), d, replace=False) for v in vertices])
        for rows in (poly.vertex_neighbors, others):
            proven = _certified_nonextreme(lifted, gram, vertices, rows)
            for v in np.flatnonzero(proven):
                assert _cone_residual(lifted, gram, v) <= COORD_TOL
            certified += int(proven.sum())
    assert certified >= 9  # the moved vertex of every weak n-gon and of both cubes


def test_nnls_runs_only_where_neither_certificate_settles(monkeypatch):
    seen, calls = {}, []

    def farkas(*args):
        proven = _certified_extreme(*args)
        seen["extreme"] = proven.copy()  # validate_shape writes NNLS verdicts into it
        return proven

    def neighbours(lifted, gram, vertices, rows):
        seen["open"], seen["settled"] = vertices, _certified_nonextreme(lifted, gram, vertices, rows)
        return seen["settled"]

    def nnls(lifted, gram, v, start=()):
        calls.append(v)
        return _cone_residual(lifted, gram, v, start)

    for name, spy in (("_certified_extreme", farkas), ("_certified_nonextreme", neighbours),
                      ("_cone_residual", nnls)):
        monkeypatch.setattr(polytopes, name, spy)
    rng = np.random.default_rng(18)
    for n in (8, 16, 24, 32):
        for cls in ("weak", "reflex"):
            coords, k = ngon_of_class(rng, n, cls)
            seen.clear()
            calls.clear()
            report = validate_shape(ngon_polytope(n), coords, "weak")
            assert not report.vertex_extreme[k]
            assert list(seen["open"]) == np.flatnonzero(~seen["extreme"]).tolist()
            assert calls == seen["open"][~seen["settled"]].tolist()
            if cls == "weak":  # the chord vertex is proven non-extreme without NNLS
                assert calls == []
            else:  # the reflex vertex is not on its neighbours' chord: NNLS decides it
                assert k in calls and len(calls) < n


def test_dependent_neighbours_leave_the_vertex_to_nnls(monkeypatch):
    rng = np.random.default_rng(19)
    coords, k = ngon_of_class(rng, 12, "weak")
    lifted, gram = unit_lifted(coords)
    with pytest.raises(np.linalg.LinAlgError):  # a repeated row: a singular system
        _certified_nonextreme(lifted, gram, np.array([k]), np.array([[k - 1, k - 1]]))
    want = validate_shape(ngon_polytope(12), coords, "weak").vertex_extreme
    assert not want[k]

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(polytopes, "_certified_nonextreme", singular)
    assert validate_shape(ngon_polytope(12), coords, "weak").vertex_extreme == want


def test_vertex_neighbors_are_the_edge_neighbours():
    n = 7
    poly = ngon_polytope(n)
    assert poly.vertex_neighbors.tolist() == [sorted([(v - 1) % n, (v + 1) % n]) for v in range(n)]
    for d in (1, 3, 4):
        poly = simplex_polytope(1) if d == 1 else cube_polytope_and_coords(d)[0]
        edges = {frozenset(e) for e in poly.edge_array.tolist()}
        assert poly.vertex_neighbors.shape == (poly.vertex_count, d)
        for v, row in enumerate(poly.vertex_neighbors.tolist()):
            assert row == sorted(row) and all(frozenset((v, w)) in edges for w in row)
    assert not poly.vertex_neighbors.flags.writeable
    assert poly.vertex_neighbors is poly.vertex_neighbors


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["strict", "weak", "reflex"]), st.floats(min_value=-6.0, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_validate_verdict_invariant_under_homotheties(seed, cls, log_scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    coords, _ = ngon_of_class(rng, n, cls)
    poly = ngon_polytope(n)
    for mode in ("strict", "weak"):
        report = validate_shape(poly, coords * 10.0**log_scale, mode)
        assert report.verdict == validate_shape(poly, coords, mode).verdict


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e8, 1e200])
def test_square_and_hexagons_validate_strictly_at_any_scale(unit_square, scale):
    shapes = [unit_square, *load_shapes(Path(__file__).parent / "data" / "hexagons.json")]
    for s in shapes:
        report = validate_shape(s.polytope, s.coords * scale, "strict")
        assert report.verdict == "strictly-convex", report.messages


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_validate_reports_in_input_units_near_the_float_maximum(unit_square, sign):
    """Coordinates of 2^1023 times the square's or a hexagon's, where sums over the
    vertices overflow (the square's coordinates, the hexagon's signed distances): the
    report is the one at scale 1, residuals and margins times 2^1023."""
    shapes = [unit_square, *load_shapes(Path(__file__).parent / "data" / "hexagons.json")]
    for s in shapes:
        big = np.ldexp(sign * s.coords, 1023)
        want = validate_shape(s.polytope, sign * s.coords, "weak")
        got = validate_shape(s.polytope, big, "weak")
        assert got.verdict == want.verdict == "strictly-convex", got.messages
        assert (got.vertex_extreme, got.flat_facet_pairs, got.messages) == (
            want.vertex_extreme, want.flat_facet_pairs, want.messages)
        for a, b in ((got.residuals, want.residuals), (got.margins, want.margins)):
            np.testing.assert_array_equal(a, np.ldexp(b, 1023))
            assert not a.flags.writeable


def test_vertex_extreme_translation_invariant():
    for poly, coords, _ in hull_test_cases(seed=14):
        report = validate_shape(poly, coords, "weak")
        moved = validate_shape(poly, coords + 1e3, "weak")
        assert moved.vertex_extreme == report.vertex_extreme


def test_validate_rejects_non_finite(unit_square):
    coords = unit_square.coords.copy()
    coords[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        validate_shape(unit_square.polytope, coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_shape_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="^coords must be finite$"):
        Shape(ngon_polytope(3), [[0.0, 0.0], [1.0, bad], [0.0, 1.0]])


def test_shape_rejects_a_wrong_layout_and_an_unknown_mode():
    with pytest.raises(ValueError, match=r"^coords must be 3 x 2, got \(2, 2\)$"):
        Shape(ngon_polytope(3), [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="^mode must be 'strict' or 'weak'$"):
        Shape(ngon_polytope(3), [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], mode="x")


def test_passes_follows_mode():
    poly = ngon_polytope(5)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [-1.0, 2.0]])
    report = validate_shape(poly, coords, "weak")
    assert report.passes("weak") and not report.passes("strict")


# --- batched facet fits against the per-facet loop ---------------------------

def reference_fits(poly, coords, tol=COORD_TOL):
    """One SVD fit per facet, lengths over the radius r: (residuals, margins,
    outward normals, r)."""
    n, d = coords.shape
    r = np.abs(coords - coords.mean(axis=0)).max()
    residuals, margins, normals = [], [], []
    for facet in poly.facets:
        points = coords[list(facet)]
        c = points.mean(axis=0)
        normal, residual = np.array([1.0]), 0.0
        if d > 1:
            _, sv, vh = np.linalg.svd(points - c, full_matrices=True)
            normal = vh[-1]
            residual = float(np.abs((points - c) @ normal).max())
            if len(points) >= d and sv[d - 2] <= tol * r:
                residual = np.inf
        rest = [v for v in range(n) if v not in facet]
        signed = (coords[rest] - c) @ normal
        if signed.sum() > 0:
            normal, signed = -normal, -signed
        residuals.append(residual)
        margins.append(float(-signed.max()))
        normals.append(normal)
    return residuals, margins, normals, r


def facet_pairs_sharing_ridge(poly):
    """Pairs of facet indices whose intersection is a (d-2)-face, by set intersection."""
    face_set = dict(zip(poly.faces, poly.face_dims))
    return [(i, j) for i, j in itertools.combinations(range(len(poly.facets)), 2)
            if face_set.get(tuple(sorted(set(poly.facets[i]) & set(poly.facets[j]))))
            == poly.dimension - 2]


@pytest.mark.parametrize("poly", [simplex_polytope(d) for d in (1, 2, 3, 4)]
                         + [ngon_polytope(n) for n in (3, 4, 5, 8, 13)]
                         + [cube_polytope(3), cube_polytope(4),
                            build_polytope(3, 6, [[0, 1, 2], [3, 4, 5], [0, 1, 4, 3],
                                                  [1, 2, 5, 4], [0, 2, 5, 3]])],
                         ids=[f"simplex{d}" for d in (1, 2, 3, 4)]
                         + [f"{n}-gon" for n in (3, 4, 5, 8, 13)] + ["cube3", "cube4", "prism"])
def test_ridge_pairs_are_the_facet_pairs_meeting_in_a_ridge(poly):
    """The facet pairs that share a vertex are, in a simple polytope, those whose
    meet is a (d-2)-face, in the same order."""
    ridge_pairs = poly.facet_arrays[2]
    assert ridge_pairs.shape[1] == 2
    assert list(map(tuple, ridge_pairs.tolist())) == facet_pairs_sharing_ridge(poly)


def reference_validate(poly, coords, mode, tol=COORD_TOL):
    """The per-facet loop that validate_shape batches, running every test: the
    n^2 duplicate test, the rank, one SVD fit per facet, vertex_extreme from NNLS
    alone and every ridge pair's angle, lengths over the radius r.  Raises
    DuplicateVertex or DegenerateSpan; else returns (verdict, vertex_extreme,
    flat_facet_pairs, messages, residuals, margins)."""
    n, d = coords.shape
    centered = coords - coords.mean(axis=0)
    r = np.abs(centered).max()
    unit = centered / (r or 1.0)
    dist = np.linalg.norm(unit[:, None] - unit[None], axis=2)
    np.fill_diagonal(dist, np.inf)
    i, j = sorted(np.unravel_index(int(dist.argmin()), dist.shape))
    if dist[i, j] <= tol:
        raise DuplicateVertex(f"vertices {i} and {j} coincide")
    if np.linalg.svd(unit, compute_uv=False)[d - 1] <= tol:
        raise DegenerateSpan("affine span of the vertices is below d")
    residuals, margins, normals, _ = reference_fits(poly, coords, tol)
    messages = []
    for facet, residual, margin in zip(poly.facets, residuals, margins):
        if residual == np.inf:
            messages.append(f"facet {facet} has deficient affine span")
        elif residual > tol * r:
            messages.append(f"facet {facet} vertices are not coplanar")
        if margin < -tol * r:
            messages.append(f"vertices on both sides of facet {facet}")
    valid = not messages
    lifted = np.hstack([unit, np.ones((n, 1))])
    gram = lifted @ lifted.T
    extreme = tuple(_cone_residual(lifted, gram, v) > tol for v in range(n))
    flat = []
    if valid and d >= 2:
        for i, j in facet_pairs_sharing_ridge(poly):
            cosang = float(np.clip(np.dot(normals[i], normals[j]), -1.0, 1.0))
            if abs(np.pi - (np.pi - np.arccos(cosang))) <= FLAT_ANGLE_TOL:
                flat.append((i, j))
    if not valid:
        verdict = "invalid"
    elif min(margins) > tol * r and all(extreme):
        verdict = "strictly-convex"
    else:
        verdict = "weakly-convex"
        if mode == "strict":
            messages.append("shape is only weakly convex")
    return verdict, extreme, tuple(flat), tuple(messages), residuals, margins


def projective_cube(rng, d):
    """The d-cube's lattice and an admissible projective image of it: the
    hyperplane sent to infinity misses the cube, so the image is convex."""
    poly, x = cube_polytope_and_coords(d)
    while True:
        a = np.eye(d) + 0.25 * rng.standard_normal((d, d))
        w = 0.15 * rng.standard_normal(d)
        den = x @ w + 1.0
        if den.min() > 0.4 and np.linalg.svd(a, compute_uv=False)[-1] > 0.3:
            return poly, (x @ a.T + 0.1 * rng.standard_normal(d)) / den[:, None]


def batched_validation_cases(seed=21):
    """(label, polytope, coords): n-gons of every class and random clouds;
    3- and 4-cubes exact, with two adjacent facets flattened, perturbed off
    coplanar, with a facet squashed onto a line, and random; a tetrahedron
    and a segment; n-gons of every class with n = 16, 24, 32 and a projective
    4-cube; each at three coordinate scales."""
    rng = np.random.default_rng(seed)
    cases = []
    for cls in ("strict", "weak", "reflex"):
        for n in (5, 8, 13):
            cases.append((f"{cls}-{n}-gon", ngon_polytope(n), ngon_of_class(rng, n, cls)[0]))
    for n in (4, 7):
        cases.append((f"cloud-{n}-gon", ngon_polytope(n), rng.standard_normal((n, 2))))
    for d in (3, 4):
        poly, x = cube_polytope_and_coords(d)
        flat = x.copy()
        flat[(x[:, 0] > 0) & (x[:, 1] > 0), :2] = 0.0  # facets x0=+, x1=+ on x0+x1=0
        squashed = x.copy()
        on = np.flatnonzero(x[:, 0] > 0)
        squashed[on, 1:] = np.linspace(-0.6, 0.6, len(on))[:, None]
        cases += [(f"{d}-cube", poly, x), (f"flat-{d}-cube", poly, flat),
                  (f"bent-{d}-cube", poly, x + 0.02 * rng.standard_normal(x.shape)),
                  (f"squashed-{d}-cube", poly, squashed),
                  (f"cloud-{d}-cube", poly, rng.standard_normal(x.shape))]
    cases.append(("tetrahedron", simplex_polytope(3), rng.standard_normal((4, 3))))
    cases.append(("segment", simplex_polytope(1), np.array([[2.0], [-1.0]])))
    # At the benchmark's sizes, from a second stream: the cases above keep their draws.
    rng = np.random.default_rng([seed, 1])
    for cls in ("strict", "weak", "reflex"):
        for n in (16, 24, 32):
            cases.append((f"{cls}-{n}-gon", ngon_polytope(n), ngon_of_class(rng, n, cls)[0]))
    cases.append(("projective-4-cube", *projective_cube(rng, 4)))
    return [(f"{label}-x{scale:g}", poly, coords * scale)
            for label, poly, coords in cases for scale in (1e-3, 1.0, 1e3)]


# --- the least margin's three bounds ------------------------------------------

def margin_bounds(d):
    """The least margins over r past which validate_shape skips the duplicate
    test, the Farkas certificate and the flat-pair test, in that order."""
    return (3 * COORD_TOL, 2 * (2 * d - 1 + d * np.sqrt(d + 1)) * COORD_TOL,
            2 * (3 * COORD_TOL + 4 * np.sqrt(d) * FLAT_ANGLE_TOL))


def wedge(d, eps):
    """The d-cube's lattice as {0 <= x_k <= 1 for k < d - 1, 0 <= x_(d-1) <= eps +
    mean(x_k)}: convex, every facet planar, vertices 0 and 1 eps apart, and its
    least margin a fixed multiple of eps."""
    poly, x = cube_polytope_and_coords(d)
    x = x + 0.5
    x[:, -1] *= eps + x[:, :-1].mean(axis=1)
    return poly, x


def folded_cube(d, h):
    """The d-cube [0, 1]^d with its vertices at x_0 = x_1 = 1 moved to x_0 = x_1 =
    (1 + h) / 2: at h = 0 the facets x_0 = 1 and x_1 = 1 lie on one hyperplane, and
    their normals' angle grows with h.  Returns the two facets' indices too."""
    poly, x = cube_polytope_and_coords(d)
    x = x + 0.5
    pair = [poly.facets.index(tuple(np.flatnonzero(x[:, k] == 1).tolist())) for k in (0, 1)]
    x[(x[:, 0] == 1) & (x[:, 1] == 1), :2] = (1 + h) / 2
    return poly, x, pair


def solve_increasing(f, target):
    """x in [0, 1] with f(x) = target, by bisection, for f increasing through target."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return (lo + hi) / 2


def least_margin_over_r(poly, coords):
    _, margins, _, r = reference_fits(poly, coords)
    return min(margins) / r


def wedge_at_margin(d, target):
    """The wedge whose least margin over r is ``target``."""
    return wedge(d, solve_increasing(lambda e: least_margin_over_r(*wedge(d, e)), target))


def folded_cube_at_angle(d, angle):
    """The folded cube whose two folded facets' normals make ``angle`` (measured
    by the chord between them, accurate at small angles)."""
    def measured(h):
        poly, coords, (i, j) = folded_cube(d, h)
        normals = reference_fits(poly, coords)[2]
        return 2 * np.arcsin(np.linalg.norm(normals[i] - normals[j]) / 2)
    return folded_cube(d, solve_increasing(measured, angle))[:2]


@functools.lru_cache(maxsize=1)
def bound_cases():
    """(label, polytope, coords) at each bound, for d = 2, 3 and 4: a wedge whose
    vertices 0 and 1 are tol (1 -+ 1e-3) apart, wedges whose least margins are
    each of the three bounds times (1 -+ 1e-3), and a cube folded until two facets'
    normals make FLAT_ANGLE_TOL (1 -+ 0.25): the cos test resolves an angle that
    small to about 1%."""
    cases = []
    for d in (2, 3, 4):
        for side, f in (("below", 1 - 1e-3), ("above", 1 + 1e-3)):
            eps = f * COORD_TOL
            for _ in range(3):  # the radius moves with eps, by about eps
                x = wedge(d, eps)[1]
                eps = f * COORD_TOL * np.abs(x - x.mean(axis=0)).max()
            cases.append((f"pair-at-tol-{side}-{d}-wedge", *wedge(d, eps)))
            for name, bound in zip(("duplicate", "farkas", "flat"), margin_bounds(d)):
                cases.append((f"margin-at-{name}-bound-{side}-{d}-wedge",
                              *wedge_at_margin(d, f * bound)))
        for side, f in (("below", 1 - 0.25), ("above", 1 + 0.25)):
            cases.append((f"angle-at-flat-tol-{side}-{d}-cube",
                          *folded_cube_at_angle(d, f * FLAT_ANGLE_TOL)))
    return tuple(cases)


@pytest.mark.parametrize("label,poly,coords", batched_validation_cases() + list(bound_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_batched_validate_matches_per_facet_loop(label, poly, coords):
    for mode in ("strict", "weak"):
        try:
            verdict, extreme, flat, messages, residuals, margins = reference_validate(
                poly, coords, mode)
        except (DuplicateVertex, DegenerateSpan) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                validate_shape(poly, coords, mode)
            continue
        report = validate_shape(poly, coords, mode)
        assert (report.verdict, report.vertex_extreme, report.flat_facet_pairs,
                report.messages) == (verdict, extreme, flat, messages)
        atol = 1e-12 * np.abs(coords).max()
        np.testing.assert_allclose(report.residuals, residuals, rtol=0, atol=atol)
        np.testing.assert_allclose(report.margins, margins, rtol=0, atol=atol)


def spy_on_settled_tests(monkeypatch):
    """Record the calls of the three tests that the least margin can settle."""
    calls = []
    for name in ("_raise_on_duplicate", "_certified_extreme", "_flat_pairs"):
        def spy(*args, _name=name, _f=getattr(polytopes, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(polytopes, name, spy)
    return calls


def test_each_test_is_skipped_only_past_its_bound(monkeypatch):
    calls = spy_on_settled_tests(monkeypatch)
    names = ("duplicate", "farkas", "flat")
    checked = 0
    for label, poly, coords in bound_cases():
        if not label.startswith("margin-at-"):
            continue
        name, side = label.split("-")[2], label.split("-")[4]
        k = names.index(name)
        calls.clear()
        validate_shape(poly, coords, "strict")
        want = [j > k or (j == k and side == "below") for j in range(3)]
        got = [f in calls for f in ("_raise_on_duplicate", "_certified_extreme", "_flat_pairs")]
        assert got == want, label
        checked += 1
    assert checked == 18


def test_wide_strict_shapes_skip_the_farkas_certificate(monkeypatch):
    calls = spy_on_settled_tests(monkeypatch)
    rng = np.random.default_rng(22)
    n = 16
    regular = np.array([[np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n)] for k in range(n)])
    poly4, cube4 = cube_polytope_and_coords(4)
    for poly, coords in ((ngon_polytope(n), regular), (poly4, cube4)):
        calls.clear()
        assert validate_shape(poly, coords, "strict").verdict == "strictly-convex"
        assert calls == []
    for cls in ("weak", "reflex"):
        for n in (8, 16, 32):
            calls.clear()
            coords, k = ngon_of_class(rng, n, cls)
            assert not validate_shape(ngon_polytope(n), coords, "weak").vertex_extreme[k]
            assert "_certified_extreme" in calls and "_raise_on_duplicate" in calls


def test_the_rank_test_is_skipped_only_on_wide_polygons(monkeypatch):
    # For d = 2 a least margin past the Farkas bound bounds sigma_2 below; for d >= 3
    # the rank test always runs.
    calls, rank_test = [], polytopes._raise_on_low_rank
    monkeypatch.setattr(polytopes, "_raise_on_low_rank",
                        lambda *args: calls.append(1) or rank_test(*args))
    checked = 0
    for label, poly, coords in bound_cases():
        if label.startswith("margin-at-farkas-"):
            calls.clear()
            validate_shape(poly, coords, "strict")
            d, side = poly.dimension, label.split("-")[4]
            assert calls == ([] if d == 2 and side == "above" else [1]), label
            checked += 1
    assert checked == 6
    regular = [[np.cos(2 * np.pi * k / 16), np.sin(2 * np.pi * k / 16)] for k in range(16)]
    for poly, coords in ((ngon_polytope(16), regular), cube_polytope_and_coords(4)):
        calls.clear()
        assert validate_shape(poly, coords, "strict").verdict == "strictly-convex"
        assert calls == ([] if poly.dimension == 2 else [1])


def test_a_duplicate_vertex_raises_before_a_degenerate_span():
    collinear = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(DuplicateVertex):
        validate_shape(ngon_polytope(4), collinear, "weak")
    with pytest.raises(DegenerateSpan):
        validate_shape(ngon_polytope(4), collinear[1:] + [[3.0, 0.0]], "weak")


def test_batched_validation_cases_cover_every_outcome():
    seen = set()
    for _, poly, coords in batched_validation_cases():
        report = validate_shape(poly, coords, "strict")
        seen.add(report.verdict)
        seen.update(m.split(") ", 1)[-1] for m in report.messages)
        seen.add("flat" if report.flat_facet_pairs else "no flat")
    assert seen >= {"strictly-convex", "weakly-convex", "invalid", "flat", "no flat",
                    "has deficient affine span", "vertices are not coplanar",
                    "shape is only weakly convex"}
    assert any(m.startswith("vertices on both sides") for m in seen)


def test_build_polytope_shares_one_lattice_per_incidence():
    facets = [[3, 4], [0, 1], [4, 0], [1, 2], [2, 3]]
    from_rows = build_polytope(2, 5, np.array(facets))
    assert build_polytope(2, 5, facets) is from_rows
    assert build_polytope(2, 5, tuple(tuple(f) for f in facets)) is from_rows
    reordered = build_polytope(2, 5, facets[::-1])  # another cache key: an equal lattice
    assert reordered is not from_rows
    assert reordered == from_rows and hash(reordered) == hash(from_rows)
    assert all(type(v) is int for f in from_rows.facets for v in f)
    assert ngon_polytope(8) is ngon_polytope(8)


def test_shape_from_dict_shares_the_lattice_and_its_errors():
    facets = [[3, 4], [0, 1], [4, 0], [1, 2], [2, 3]]
    doc = {"dimension": 2, "vertex_count": 5, "facets": facets,
           "vertices": [[0.0, 0.0], [2.0, 0.0], [2.5, 1.0], [1.0, 2.0], [-0.5, 1.0]]}
    assert shape_from_dict(doc).polytope is build_polytope(2, 5, np.array(facets))
    named = shape_from_dict({**doc, "name": "P"})  # an optional field, read by nothing
    assert named.coords.tobytes() == shape_from_dict(doc).coords.tobytes()
    for bad, error in (([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]], NotSimple),
                       ([[0, 1], [0, 1, 2], [2, 3], [3, 0]], InconsistentLattice)):
        n = max(map(max, bad)) + 1
        shape_doc = {**doc, "vertex_count": n, "facets": bad, "vertices": doc["vertices"][:n]}
        with pytest.raises(error) as got:
            shape_from_dict(shape_doc)
        with pytest.raises(error) as want:
            build_polytope(2, n, bad)
        assert str(got.value) == str(want.value)


SQUARE_DOC = {"dimension": 2, "vertex_count": 4, "facets": [[0, 1], [1, 2], [2, 3], [3, 0]],
              "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]}
FLOAT_MAX_INT = int(sys.float_info.max)  # the float maximum, exactly


def square_doc_with(field, i, value, k=None):
    """SQUARE_DOC with ``doc[field][i]``, or its entry ``k``, set to ``value``."""
    doc = {**SQUARE_DOC, field: [list(row) for row in SQUARE_DOC[field]]}
    if k is None:
        doc[field][i] = value
    else:
        doc[field][i][k] = value
    return doc


VERTEX_ROW_MESSAGE = "<shape>: field 'vertices[2]' must be 2 finite numbers"
FACET_ROW_MESSAGE = "<shape>: field 'facets[1]' must list vertex indices in [0, 4)"


@pytest.mark.parametrize("field,value,k,message", [
    ("vertices", True, 1, VERTEX_ROW_MESSAGE),
    ("vertices", "1.0", 1, VERTEX_ROW_MESSAGE),
    ("vertices", None, 1, VERTEX_ROW_MESSAGE),
    ("vertices", float("nan"), 1, VERTEX_ROW_MESSAGE),
    ("vertices", float("inf"), 1, VERTEX_ROW_MESSAGE),
    ("vertices", -float("inf"), 1, VERTEX_ROW_MESSAGE),
    ("vertices", FLOAT_MAX_INT + 1, 1, VERTEX_ROW_MESSAGE),
    ("vertices", -FLOAT_MAX_INT - 1, 1, VERTEX_ROW_MESSAGE),
    ("vertices", [1.0], None, VERTEX_ROW_MESSAGE),
    ("vertices", [1.0, 1.0, 1.0], None, VERTEX_ROW_MESSAGE),
    ("vertices", {"x": 1.0}, None, VERTEX_ROW_MESSAGE),
    ("vertices", 1.0, None, VERTEX_ROW_MESSAGE),
    ("facets", [1, True], None, FACET_ROW_MESSAGE),
    ("facets", [1, 4], None, FACET_ROW_MESSAGE),
    ("facets", [-1, 2], None, FACET_ROW_MESSAGE),
    ("facets", [1.0, 2], None, FACET_ROW_MESSAGE),
    ("facets", [], None, FACET_ROW_MESSAGE),
    ("facets", "12", None, FACET_ROW_MESSAGE),
], ids=lambda v: repr(v)[:24])
def test_shape_from_dict_names_the_bad_row(field, value, k, message):
    i = 2 if field == "vertices" else 1
    with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
        shape_from_dict(square_doc_with(field, i, value, k))


def test_shape_from_dict_names_the_first_bad_row_and_facets_first():
    doc = square_doc_with("vertices", 3, [0.0, float("nan")])
    doc["vertices"][1] = [0.0, None]
    with pytest.raises(MalformedInput, match=r"'vertices\[1\]'"):
        shape_from_dict(doc)
    doc["facets"] = [[0, 1], [1, 2], [2, 4], [3, 0]]
    with pytest.raises(MalformedInput, match=r"'facets\[2\]'"):
        shape_from_dict(doc)


def test_shape_from_dict_accepts_numbers_up_to_the_float_maximum():
    for value in (FLOAT_MAX_INT, -FLOAT_MAX_INT, sys.float_info.max, 3):
        shape = shape_from_dict(square_doc_with("vertices", 2, value, 1))
        assert shape.coords[2, 1] == float(value)
    # Finite rows whose sum overflows, and np.float64 entries, are accepted too.
    huge = shape_from_dict(square_doc_with("vertices", 2, [1e308, 1e308]))
    assert huge.coords[2].tolist() == [1e308, 1e308]
    doc = {**SQUARE_DOC, "vertices": [[np.float64(x) for x in row] for row in SQUARE_DOC["vertices"]]}
    assert shape_from_dict(doc).coords.tolist() == SQUARE_DOC["vertices"]


def test_build_polytope_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(NotSimple):
            build_polytope(2, 5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]])
        with pytest.raises(InconsistentLattice):
            build_polytope(2, 4, [[0, 1], [0, 1, 2], [2, 3], [3, 0]])


def test_import_does_not_load_scipy():
    code = "import sys, polycomp, polycomp.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
