"""Compression metric: axioms, invariances, Cauchy sequences, completion."""

import itertools
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycomp import (
    DegenerateSimplex,
    NonFiniteResult,
    PolycompError,
    PolytopeMismatch,
    Shape,
    build_polytope,
    delta_polytope,
    induced_map,
    ngon_polytope,
    per_chain_deltas,
    sequence_report,
    simplex_polytope,
    spectral_summary,
    validate_shape,
)
from polycomp import barycentre, barycentric_complex, metric
from polycomp.affine import degenerate
from polycomp.barycentric import chain_simplex_coords
from polycomp.io import load_shapes
from generators import is_homothetic, random_polygon_shape, random_rotation, random_simplex_shape

DATA = Path(__file__).parent / "data"
LN4 = 1.3862943611198906  # frozen: per-chain SVD oracle on square vs 2x1 rectangle


def oracle_delta_polytope(p, q):
    """Independent delta: per-chain edge-vector linear maps and SVD."""
    from polycomp import barycentre, barycentric_complex

    complex_ = barycentric_complex(p.polytope)
    worst = 0.0
    for chain in complex_.chain_faces:
        src = np.stack([barycentre(p.polytope.faces[f], p) for f in chain])
        tgt = np.stack([barycentre(p.polytope.faces[f], q) for f in chain])
        m = (tgt[1:] - tgt[0]).T @ np.linalg.inv((src[1:] - src[0]).T)
        sv = np.linalg.svd(m, compute_uv=False)
        worst = max(worst, float(np.log(sv[0] ** 2 / sv[-1] ** 2)))
    return worst


def test_delta_simplex_trivial(rng):
    p = random_simplex_shape(rng, 2)
    assert delta_polytope(p, p) == pytest.approx(0.0, abs=1e-12)
    moved = p.scaled(3.7).transformed(rotation=random_rotation(rng, 2),
                                      translation=[1.0, -2.0])
    assert delta_polytope(p, moved) == pytest.approx(0.0, abs=1e-10)


def test_delta_simplex_diagonal():
    tri = simplex_polytope(2)
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    p = Shape(tri, src)
    q = Shape(tri, src @ np.diag([2.0, 1.0]).T)
    assert delta_polytope(p, q) == pytest.approx(np.log(4.0), abs=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_delta_far_from_the_unit_scale_keeps_its_value(unit_square, scale):
    # The alphas of square -> square * scale (or of the 2x1 rectangle, or of a
    # generic pentagon pair) over- or underflow, or are subnormal and short of
    # digits, but their ratio is not: the memoised map and the stacked request
    # path both divide the linear parts by a power of two first.
    rng = np.random.default_rng(3)
    rect = Shape(unit_square.polytope, unit_square.coords * [2.0, 1.0])
    p, q = random_polygon_shape(rng, 5), random_polygon_shape(rng, 5)
    for source, target, want in ((unit_square, unit_square, 0.0), (unit_square, rect, LN4),
                                 (p, q, delta_polytope(p, q))):
        far = target.scaled(scale)
        for delta in (delta_polytope(source, far),
                      float(metric._pair_deltas([source, far], [(0, 1)])[0])):
            assert abs(delta - want) <= 1e-12


def test_delta_of_a_non_finite_linear_part_raises(unit_square):
    # Here the linear parts themselves (about 1e600) are not finite.
    p, q = unit_square.scaled(1e-300), unit_square.scaled(1e300)
    with pytest.raises(NonFiniteResult, match="^the map overflows: a piece's linear part "
                                              "is not finite$"):
        delta_polytope(p, q)
    with pytest.raises(NonFiniteResult, match="^an eigenvalue of the map over- or underflows$"):
        metric._pair_deltas([p, q], [(0, 1)])


def test_delta_polytope_matches_simplex(triangle_pair):
    # A simplex polytope's one piece is its vertex map: one per-chain delta.
    p, q = triangle_pair
    deltas = per_chain_deltas(p, q)
    assert deltas.shape == (1,)
    assert float(deltas[0]).hex() == delta_polytope(p, q).hex()


def test_delta_square_vs_rectangle(unit_square):
    assert delta_polytope(unit_square, unit_square) == pytest.approx(0.0, abs=1e-12)
    rect = Shape(unit_square.polytope, [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    value = delta_polytope(unit_square, rect)
    assert value == pytest.approx(LN4, abs=1e-12)
    assert value == pytest.approx(oracle_delta_polytope(unit_square, rect), abs=1e-12)
    assert delta_polytope(rect, unit_square) == pytest.approx(value, abs=1e-12)


def test_delta_random_polygons_match_oracle(rng):
    for n in (4, 5, 6):
        p = random_polygon_shape(rng, n)
        q = random_polygon_shape(rng, n)
        assert delta_polytope(p, q) == pytest.approx(oracle_delta_polytope(p, q),
                                                     abs=1e-10)


def test_delta_symmetry_via_inverse(rng):
    # the forward and backward spectra are reciprocal, so both orders agree
    for _ in range(10):
        p = random_simplex_shape(rng, 3)
        q = random_simplex_shape(rng, 3)
        assert abs(delta_polytope(p, q) - delta_polytope(q, p)) <= 1e-10


def test_delta_homothety_isometry_invariance(rng):
    p = random_polygon_shape(rng, 5)
    q = random_polygon_shape(rng, 5)
    base = delta_polytope(p, q)
    for _ in range(5):
        lam = rng.uniform(0.1, 10.0)
        rot = random_rotation(rng, 2)
        t = rng.uniform(-5.0, 5.0, 2)
        moved = q.scaled(lam).transformed(rotation=rot, translation=t)
        assert abs(delta_polytope(p, moved) - base) <= 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_delta_projective_class_property(seed, lam):
    # delta vanishes on the whole homothety-plus-isometry class
    rng = np.random.default_rng(seed)
    p = random_simplex_shape(rng, 2)
    moved = p.scaled(lam).transformed(rotation=random_rotation(rng, 2),
                                      translation=rng.uniform(-3, 3, 2))
    assert delta_polytope(p, moved) <= 1e-10


def ulp_sensitivity(p, q, base):
    """How far delta moves when the coordinates of P and Q move by one ulp: the
    sum, over coordinates, of the larger change of a +1 and a -1 ulp step."""
    total = 0.0
    for side, shape in enumerate((p, q)):
        for idx in np.ndindex(shape.coords.shape):
            moved = []
            for direction in (np.inf, -np.inf):
                coords = shape.coords.copy()
                coords[idx] = np.nextafter(coords[idx], direction)
                step = Shape(shape.polytope, coords, shape.mode)
                moved.append(delta_polytope(step, q) if side == 0 else delta_polytope(p, step))
            total += max(abs(m - base) for m in moved)
    return total


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-6.0, max_value=6.0), st.floats(min_value=-6.0, max_value=6.0))
@example(seed=16624, log_a=0.0, log_b=1.5)  # delta 16.6 moved by 1.39e-9 at this scale
@settings(max_examples=40, deadline=None)
def test_delta_invariant_under_homotheties(seed, log_a, log_b):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    p, q = random_polygon_shape(rng, n), random_polygon_shape(rng, n)
    base = delta_polytope(p, q)
    # A power of two scales every coordinate exactly, and delta with it.
    k_a, k_b = round(log_a * 3.3219), round(log_b * 3.3219)  # log2(10^x)
    assert delta_polytope(p.scaled(2.0**k_a), q.scaled(2.0**k_b)) == base
    # A decimal scale rounds each coordinate by up to one ulp, so delta may move as
    # far as one-ulp steps of the coordinates move it, plus the solver's own error:
    # the least Gram eigenvalue is known to eps * alpha_max, so its log to eps *
    # e^delta.  Their sum bounded the change by 2x over 4,000 random cases.
    got = delta_polytope(p.scaled(10.0**log_a), q.scaled(10.0**log_b))
    bound = ulp_sensitivity(p, q, base) + np.finfo(float).eps * np.exp(base)
    assert abs(got - base) <= 2.0 * bound


@pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e8])
def test_hexagon_deltas_keep_their_value_at_any_scale(scale):
    shapes = load_shapes(DATA / "hexagons.json")
    want = sequence_report(shapes, window=2, eps=1e-3).delta_matrix
    got = sequence_report([s.scaled(scale) for s in shapes], window=2, eps=1e-3).delta_matrix
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert delta_polytope(*shapes[:2]) == pytest.approx(
        delta_polytope(*(s.scaled(scale) for s in shapes[:2])), abs=1e-12)


def test_submultiplicativity_transfer(rng):
    # gamma_max <= alpha_max * beta_max and gamma_min >= alpha_min * beta_min
    for _ in range(10):
        p = random_simplex_shape(rng, 2)
        q = random_simplex_shape(rng, 2)
        r = random_simplex_shape(rng, 2)
        sa = spectral_summary(induced_map(p, q))
        sb = spectral_summary(induced_map(q, r))
        sc = spectral_summary(induced_map(p, r))
        assert sc.alpha_max <= sa.alpha_max * sb.alpha_max + 1e-9
        assert sc.alpha_min >= sa.alpha_min * sb.alpha_min - 1e-9


class AxiomReport(NamedTuple):
    """Delta matrix and the violations of each metric axiom, per pair and triple."""

    delta_matrix: np.ndarray
    symmetry_violations: tuple
    identity_violations: tuple
    positivity_violations: tuple
    triangle_violations: tuple

    @property
    def passed(self) -> bool:
        return not any(self[1:])


def loop_axiom_suite(shapes, seed=0, tol_sym=1e-12, tol_id=1e-10, tol_tri=1e-9, tol_pos=1e-10):
    """Symmetry, identity under homothety and isometry, positivity and the
    triangle inequality, one delta_polytope call per ordered pair."""
    n = len(shapes)
    delta = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                delta[i, j] = delta_polytope(shapes[i], shapes[j])
    sym = [(i, j, abs(delta[i, j] - delta[j, i])) for i in range(n) for j in range(i + 1, n)
           if abs(delta[i, j] - delta[j, i]) > tol_sym]
    rng = np.random.default_rng(seed)
    ident = []
    d = shapes[0].polytope.dimension
    for i, s in enumerate(shapes):
        lam = rng.uniform(0.1, 10.0)
        rot = random_rotation(rng, d)
        t = rng.uniform(-1.0, 1.0, d)
        dd = delta_polytope(s, s.scaled(lam).transformed(rotation=rot, translation=t))
        if dd > tol_id:
            ident.append((i, dd))
    pos = []
    for i in range(n):
        for j in range(i + 1, n):
            homothetic = is_homothetic(shapes[i], shapes[j])
            if homothetic and delta[i, j] > tol_id:
                pos.append((i, j, delta[i, j], "homothetic but delta > 0"))
            if not homothetic and delta[i, j] <= tol_pos:
                pos.append((i, j, delta[i, j], "distinct classes but delta ~ 0"))
    tri = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                excess = delta[i, k] - delta[i, j] - delta[j, k]
                if len({i, j, k}) == 3 and excess > tol_tri:
                    tri.append((i, j, k, excess))
    return AxiomReport(delta, tuple(sym), tuple(ident), tuple(pos), tuple(tri))


def test_metric_axiom_suite_homothetic_copies(rng):
    p = random_simplex_shape(rng, 2)
    shapes = [p, p.scaled(2.0), p.scaled(0.3)]
    report = loop_axiom_suite(shapes)
    assert report.passed
    assert np.abs(report.delta_matrix).max() <= 1e-10


def test_metric_axiom_suite_random_triangles(rng):
    shapes = [random_simplex_shape(rng, 2) for _ in range(12)]
    report = loop_axiom_suite(shapes)
    assert report.passed, report


def test_triangle_inequality_published(triangle_pair):
    p, q = triangle_pair
    unit = Shape(p.polytope, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    report = loop_axiom_suite([p, q, unit])
    assert not report.triangle_violations


def test_is_homothetic(rng):
    p = random_polygon_shape(rng, 5)
    assert is_homothetic(p, p.scaled(4.2).transformed(rotation=random_rotation(rng, 2)))
    q = random_polygon_shape(rng, 5)
    assert not is_homothetic(p, q)


def test_is_cauchy_constant(unit_square):
    seq = [unit_square] * 8
    assert sequence_report(seq, window=2, eps=1e-12).cauchy


def test_is_cauchy_shrinking_axis(rng):
    # P_n = diag(1 + 1/n, 1) P_0 with delta(P_n, P_m) = 2|ln((1+1/n)/(1+1/m))|
    p0 = random_simplex_shape(rng, 2)
    seq = [Shape(p0.polytope, p0.coords @ np.diag([1 + 1 / n, 1.0]).T)
           for n in range(1, 41)]
    n, m = 25, 40
    expected = 2 * abs(np.log((1 + 1 / n) / (1 + 1 / m)))
    got = delta_polytope(seq[n - 1], seq[m - 1])
    assert got == pytest.approx(expected, abs=1e-10)
    assert sequence_report(seq, window=20, eps=0.1).cauchy


def test_is_not_cauchy_diverging_axis(rng):
    # P_n = diag(n, 1) P_0: delta(P_n, P_2n) = ln 4 forever
    p0 = random_simplex_shape(rng, 2)
    seq = [Shape(p0.polytope, p0.coords @ np.diag([float(n), 1.0]).T)
           for n in range(1, 21)]
    assert delta_polytope(seq[4], seq[9]) == pytest.approx(np.log(4.0), abs=1e-10)
    result = sequence_report(seq, window=10, eps=1.0)
    assert not result.cauchy
    assert result.first_violation is not None


def test_report_verdicts_follow_row_order_and_the_tail_tolerance(rng):
    # P(x) = diag(e^x, 1) P_0 gives delta(P(x), P(y)) = 2|x - y|.  Row order finds
    # (0, 3) before (1, 2), which a column-order scan would find first; the last
    # step of the distances to the limit P(0) rises by 1e-6 (no convergence) or by
    # 2e-10, within the 1e-9 the rule allows.
    p0 = random_simplex_shape(rng, 2)

    def member(x):
        return Shape(p0.polytope, p0.coords @ np.diag([np.exp(x), 1.0]).T)

    seq = [member(x) for x in (0.0, 0.1, -0.1, 1.0)]
    report = sequence_report(seq, window=0, eps=0.3)
    assert (report.cauchy, report.first_violation) == (False, (0, 3))
    assert sequence_report(seq, window=1, eps=0.3).first_violation == (1, 2)
    for rise, converges in ((1e-6, False), (2e-10, True)):
        seq = [member(x) for x in (0.3, 0.2, 0.01, 0.01 + rise / 2)]
        report = sequence_report(seq, window=0, eps=0.1, limit=p0)
        assert report.converges is converges


def hexagon_family(steps=20):
    poly = ngon_polytope(6)
    reg = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)] for k in range(6)])
    flat = (reg[0] + reg[2]) / 2.0

    def member(tau):
        c = reg.copy()
        c[1] = flat + tau * (reg[1] - flat)
        return c

    seq = [Shape(poly, member(2.0 ** -i)) for i in range(1, steps + 1)]
    limit = Shape(poly, member(0.0), mode="weak")
    return seq, limit


def test_converges_constant(unit_square):
    assert sequence_report([unit_square] * 8, window=0, eps=1e-9, limit=unit_square).converges


def test_hexagon_family_converges_to_weak_limit():
    seq, limit = hexagon_family(12)
    assert sequence_report(seq, window=0, eps=1e-2, limit=limit).converges
    strict_report = validate_shape(limit.polytope, limit.coords, "strict")
    weak_report = validate_shape(limit.polytope, limit.coords, "weak")
    assert strict_report.verdict != "strictly-convex"
    assert weak_report.verdict == "weakly-convex"


def test_diverging_sequence_does_not_converge(rng):
    p0 = random_simplex_shape(rng, 2)
    seq = [Shape(p0.polytope, p0.coords @ np.diag([float(n), 1.0]).T)
           for n in range(1, 13)]
    assert not sequence_report(seq, window=0, eps=1.0, limit=p0).converges


def test_delta_rejects_degenerate_limit():
    poly = ngon_polytope(4)
    good = Shape(poly, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # two coincident vertices collapse a barycentric simplex
    bad = Shape(poly, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]], mode="weak")
    with pytest.raises(DegenerateSimplex):
        delta_polytope(good, bad)
    with pytest.raises(DegenerateSimplex):
        delta_polytope(bad, good)


# --- stacked requests against a per-pair delta_polytope loop ---------------

def loop_sequence(shapes, limit=None):
    """Delta matrix and limit deltas, one delta_polytope call per pair."""
    n = len(shapes)
    delta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            delta[i, j] = delta[j, i] = delta_polytope(shapes[i], shapes[j])
    if limit is None:
        return delta, None
    return delta, np.array([delta_polytope(s, limit) for s in shapes])


def octagon_family(rng, size, converging=True):
    """Octagons whose vertex k moves onto its neighbours' chord, plus the weak limit."""
    poly = ngon_polytope(8)
    base = random_polygon_shape(rng, 8).coords
    k = int(rng.integers(8))
    flat = 0.5 * (base[k - 1] + base[(k + 1) % 8])
    taus = [0.5 ** i if converging else 0.3 + 0.5 * (i % 2) for i in range(1, size + 1)]

    def member(tau):
        c = base.copy()
        c[k] = flat + tau * (base[k] - flat)
        return c

    return [Shape(poly, member(t)) for t in taus], Shape(poly, member(0.0), mode="weak")


def cube_sequence(size):
    verts = np.array(list(itertools.product((0, 1), repeat=3)), dtype=float)
    poly = build_polytope(3, 8, [[i for i, v in enumerate(verts) if v[k] == side]
                                 for k in range(3) for side in (0, 1)])
    seq = [Shape(poly, verts @ np.diag([1 + 1 / n, 1.0, 1 + 0.5 / n])) for n in range(1, size + 1)]
    return seq, Shape(poly, verts)


def simplex_sequence(rng, size):
    p0 = random_simplex_shape(rng, 3)
    return ([Shape(p0.polytope, p0.coords @ np.diag([1 + 1 / n, 1.0, 1 - 0.3 / n]))
             for n in range(1, size + 1)], p0)


def sequence_cases():
    rng = np.random.default_rng(20240611)
    for i in range(6):
        yield f"octagon-{i}", *octagon_family(rng, 8, converging=i % 2 == 0)
    yield "octagon-40", *octagon_family(rng, 40)
    yield "3-cube", *cube_sequence(10)
    yield "simplex", *simplex_sequence(rng, 12)


@pytest.mark.parametrize("name,seq,limit", list(sequence_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_stacked_requests_match_per_pair_loop(name, seq, limit):
    # The verdicts follow from the loop's distances: the first violation is the first
    # pair (i, j), i >= window and j > i, in row order with delta >= eps, and the
    # sequence converges when the trailing quarter of its distances to the limit
    # (at least two) is below eps and never rises by more than 1e-9.
    want, want_limit = loop_sequence(seq, limit)
    n = len(seq)
    tail = want_limit[-max(2, n // 4):]
    assert (sequence_report(seq, window=2, eps=0.1).delta_matrix == want).all()
    for window, eps in itertools.product((0, 2, n // 2), (1e-3, 0.1, 10.0)):
        report = sequence_report(seq, window=window, eps=eps, limit=limit)
        assert (report.delta_matrix == want).all()
        assert (report.limit_deltas == want_limit).all()
        violations = np.triu(want >= eps, k=1)
        violations[:window] = False
        hits = np.argwhere(violations)  # row-major, so in row order
        first = tuple(hits[0].tolist()) if len(hits) else None
        assert report.first_violation == first
        assert report.cauchy is (first is None)
        expected = (tail < eps).all() and (np.diff(tail) <= 1e-9).all()
        assert report.converges is bool(expected)


def oracle_chain_coords(shape):
    """(t, d+1, d) chain simplices from ``barycentre``: the one vertex simplex of a
    simplex polytope, else one per maximal chain of faces."""
    if shape.polytope.is_simplex:
        return shape.coords[None]
    faces = shape.polytope.faces
    return np.array([[barycentre(faces[f], shape) for f in chain]
                     for chain in barycentric_complex(shape.polytope).chain_faces])


def hilbert_deltas(src, tgt):
    """Per simplex of two (t, d+1, d) stacks, ln(lam_max / lam_min) of G_Q v = lam G_P v,
    with G the Gram matrix of a simplex's edges (Hilbert's projective metric on
    positive definite matrices), solved through a Cholesky factor L of G_P: the
    eigenvalues of L^-1 G_Q L^-T.  Returns the deltas and the ratios lam_max / lam_min."""
    ep, eq = src[:, 1:] - src[:, :1], tgt[:, 1:] - tgt[:, :1]
    gp, gq = ep @ ep.transpose(0, 2, 1), eq @ eq.transpose(0, 2, 1)
    low = np.linalg.cholesky(gp)
    half = np.linalg.solve(low, gq)  # L^-1 G_Q, whose transpose is G_Q L^-T
    lam = np.linalg.eigvalsh(np.linalg.solve(low, half.transpose(0, 2, 1)))
    ratio = lam[:, -1] / lam[:, 0]
    return np.log(ratio), ratio


def oracle_cases():
    rng = np.random.default_rng(2401)
    for d in (2, 3, 4, 5):
        *seq, limit = (random_simplex_shape(rng, d) for _ in range(7))
        yield f"simplex-{d}", seq, limit
    for name, seq, limit in sequence_cases():
        if name != "simplex":
            yield name, seq, limit


@pytest.mark.parametrize("name,seq,limit", list(oracle_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_deltas_match_the_gram_eigenproblem_oracle(name, seq, limit):
    # The oracle shares no code with the affine solve.  Alphas carry a relative
    # error of about 1e-13 sqrt(alpha_max / alpha_min), so a delta, the log of
    # their ratio, may be off by that much absolutely.
    shapes, n = seq + [limit], len(seq)
    x = [oracle_chain_coords(s) for s in shapes]
    report = sequence_report(seq, window=n // 2, eps=0.1, limit=limit)
    for i, j in [(i, j) for i in range(n) for j in range(i + 1, n)] + [(i, n) for i in range(n)]:
        want, ratio = hilbert_deltas(x[i], x[j])
        got = per_chain_deltas(shapes[i], shapes[j])
        assert (np.abs(got - want) <= 1e-13 * np.sqrt(ratio)).all()
        pair = report.delta_matrix[i, j] if j < n else report.limit_deltas[i]
        assert abs(pair - want.max()) <= 1e-13 * np.sqrt(ratio.max())


def test_stacked_requests_on_empty_and_single_sequences(unit_square):
    assert sequence_report([], window=0, eps=0.1).delta_matrix.shape == (0, 0)
    report = sequence_report([unit_square], window=0, eps=0.1, limit=unit_square)
    assert report.delta_matrix.shape == (1, 1) and report.limit_deltas.tolist() == [0.0]
    assert sequence_report([], window=0, eps=0.1, limit=unit_square).converges


def outcome(f, *args, **kwargs):
    """Value, or the error's type, message and the chain index of its cause."""
    try:
        return f(*args, **kwargs)
    except PolycompError as exc:
        return type(exc), str(exc), getattr(exc.__cause__, "index", None)


def collapsed(shape, gone, onto):
    c = shape.coords.copy()
    c[gone] = c[onto]
    return Shape(shape.polytope, c, mode="weak")


def assert_same_error(seq, limit, expected_type):
    """Every stacked request raises what its per-pair loop raises first."""
    want = outcome(loop_sequence, seq, limit)
    assert isinstance(want, tuple) and want[0] is expected_type
    assert outcome(sequence_report, seq, window=2, eps=0.1, limit=limit) == want
    assert outcome(loop_axiom_suite, seq + [limit])[0] is expected_type
    return want


@pytest.mark.parametrize("pos", [0, 4, 7])
@pytest.mark.parametrize("gone,onto", [(1, 0), (5, 4), (7, 6)])
def test_degenerate_member_is_named_as_by_the_loop(pos, gone, onto):
    seq, limit = octagon_family(np.random.default_rng(5), 8)
    seq[pos] = collapsed(seq[pos], gone, onto)
    assert_same_error(seq, limit, DegenerateSimplex)


@pytest.mark.parametrize("gone", [0, 3, 7])
def test_degenerate_limit_is_named_as_by_the_loop(gone):
    seq, limit = octagon_family(np.random.default_rng(6), 8)
    _, message, _ = assert_same_error(seq, collapsed(limit, gone, (gone + 1) % 8),
                                      DegenerateSimplex)
    assert message.startswith("chain ")


def test_first_of_two_degenerate_members_is_named():
    seq, limit = octagon_family(np.random.default_rng(7), 8)
    early, late = collapsed(seq[2], 6, 5), collapsed(seq[5], 1, 0)
    seq[2], seq[5] = early, late
    _, message, chain = assert_same_error(seq, limit, DegenerateSimplex)
    # member 2 fails first, in pair (0, 2), at a chain where member 5 is fine
    assert outcome(delta_polytope, seq[0], early)[1:] == (message, chain)
    assert outcome(delta_polytope, seq[0], late)[1] != message


def test_mismatch_after_degenerate_pair_raises_the_degenerate_chain():
    seq, limit = octagon_family(np.random.default_rng(8), 8)
    hexagon = Shape(ngon_polytope(6), random_polygon_shape(np.random.default_rng(1), 6).coords)
    bad = collapsed(seq[1], 3, 2)
    assert_same_error([seq[0], bad] + seq[2:4] + [hexagon] + seq[5:], limit, DegenerateSimplex)
    assert_same_error(seq[:3] + [hexagon, bad] + seq[5:], limit, PolytopeMismatch)
    assert_same_error(seq, hexagon, PolytopeMismatch)
    assert_same_error(seq[:6] + [collapsed(seq[6], 3, 2)], hexagon, DegenerateSimplex)


def test_simplex_polytope_errors_name_the_side(triangle_pair):
    p, q = triangle_pair
    flat = Shape(p.polytope, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], mode="weak")
    for seq, side in (([p, flat, q], "target"), ([flat, p, q], "source")):
        _, message, chain = assert_same_error(seq, q, DegenerateSimplex)
        assert (message, chain) == (f"{side} simplex is affinely degenerate", 0)
    assert assert_same_error([p, q], flat, DegenerateSimplex)[1].startswith("target")
    with pytest.raises(DegenerateSimplex, match="^source simplex is affinely degenerate$"):
        per_chain_deltas(flat, p)


@pytest.mark.parametrize("block", [1, 64, 100])
def test_blocked_solve_matches_per_pair_loop(monkeypatch, block):
    """Pairs split over several _deltas calls keep the values and the first error."""
    monkeypatch.setattr(metric, "_BLOCK", block)  # 1 or 2 octagon pairs (32 chains) per call
    seq, limit = octagon_family(np.random.default_rng(9), 8)
    want, want_limit = loop_sequence(seq, limit)
    report = sequence_report(seq, window=4, eps=0.1, limit=limit)
    assert (report.delta_matrix == want).all() and (report.limit_deltas == want_limit).all()
    assert_same_error(seq[:5] + [collapsed(seq[5], 2, 1)] + seq[6:], limit, DegenerateSimplex)
    hexagon = Shape(ngon_polytope(6), random_polygon_shape(np.random.default_rng(2), 6).coords)
    assert_same_error(seq[:6] + [hexagon, seq[7]], limit, PolytopeMismatch)


def test_blocked_solve_bounds_peak_memory():
    """Peak memory of a long request stays far below that of one stacked call."""
    seq, limit = octagon_family(np.random.default_rng(10), 60)

    def peak():
        tracemalloc.start()
        try:
            sequence_report(seq, window=2, eps=0.1, limit=limit)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = peak()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_BLOCK", 10**9)
        assert blocked < peak() / 3


def test_gathered_degeneracy_flags_equal_per_pair_ones(monkeypatch):
    """Flags computed once per shape and gathered per pair match a per-pair test."""
    seq, limit = octagon_family(np.random.default_rng(11), 8)
    seq[3], seq[6] = collapsed(seq[3], 2, 1), collapsed(seq[6], 5, 4)
    shapes, n = seq + [limit], len(seq)
    complex_ = barycentric_complex(limit.polytope)
    pending, seen = [], []

    def checked(inv_src, e_tgt, flags):
        block = pending[:2]  # the next two pairs of the request
        del pending[:2]
        for got, side in zip(flags, (0, 1)):
            want = [degenerate(chain_simplex_coords(complex_, shapes[pair[side]]))
                    for pair in block]
            assert (got == np.concatenate(want)).all()
        seen.append(np.concatenate(flags))
        return real(inv_src, e_tgt, flags)

    real = metric._deltas
    monkeypatch.setattr(metric, "_BLOCK", 32)  # two pairs of 16 octagon chains per call
    to_limit = [(i, n) for i in range(n)]
    with monkeypatch.context() as mp:
        mp.setattr(metric, "_deltas", checked)
        for request, pairs in (
                (lambda: sequence_report(seq, window=2, eps=0.1, limit=limit),
                 [(i, j) for i in range(n) for j in range(i + 1, n)] + to_limit),
                (lambda: metric._pair_deltas(shapes, to_limit), to_limit)):
            pending[:] = pairs
            assert outcome(request)[0] is DegenerateSimplex
    assert_same_error(seq, limit, DegenerateSimplex)
    assert any(f.any() for f in seen) and not all(f.any() for f in seen)
