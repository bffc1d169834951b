"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays well under a minute.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from polycomp import (
    COMPRESSION,
    NOT_WEAK_COMPRESSION,
    WEAK_COMPRESSION,
    PointOnShape,
    Shape,
    classify,
    delta_polytope,
    distance_derivative,
    evaluate_map,
    extremal_pair,
    fan_triangulation,
    induced_map,
    lift_simplex,
    ngon_polytope,
    orthogonal_completion,
    pleat_validity,
    pleated_embedding,
    pleated_projection_chain,
    scale_critical,
    sequence_report,
    simplex_polytope,
    spectral_summary,
    validate_shape,
)
from generators import (
    given_piece,
    is_homothetic,
    random_contraction,
    random_convex_polygon,
    random_rotation,
    random_simplex_coords,
    random_weak_contraction,
)

TRI_P = np.array([[0.0, 1.692], [3.452, 0.527], [1.901, 0.0]])
TRI_Q = np.array([[3.452, 3.519], [4.696, 2.078], [4.393, 1.692]])


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_1_counterexample_regression():
    with criterion(1, "triangle counterexample regression"):
        poly = simplex_polytope(2)
        p = Shape(poly, TRI_P)
        q = Shape(poly, TRI_Q)

        def dist(c, i, j):
            return np.linalg.norm(c[i] - c[j])

        assert dist(TRI_P, 0, 1) == pytest.approx(3.64329, abs=1e-4)
        assert dist(TRI_P, 0, 2) == pytest.approx(2.54493, abs=1e-4)
        assert dist(TRI_P, 1, 2) == pytest.approx(1.63809, abs=1e-4)
        assert dist(TRI_Q, 0, 1) == pytest.approx(1.90369, abs=1e-4)
        assert dist(TRI_Q, 0, 2) == pytest.approx(2.05509, abs=1e-4)
        assert dist(TRI_Q, 1, 2) == pytest.approx(0.490719, abs=1e-4)

        m = induced_map(p, q)
        px = np.array([0.34, 0.464, 0.196]) @ TRI_P
        py = np.array([0.149, 0.316, 0.535]) @ TRI_P
        qx = evaluate_map(m, px)
        qy = evaluate_map(m, py)
        assert px == pytest.approx([1.97432, 0.819808], abs=1e-4)
        assert py == pytest.approx([2.10787, 0.41864], abs=1e-4)
        assert qx == pytest.approx([4.21365, 2.49228], abs=1e-4)
        assert qy == pytest.approx([4.34854, 2.0862], abs=1e-4)
        assert np.linalg.norm(px - py) == pytest.approx(0.422811, abs=1e-4)
        assert np.linalg.norm(qx - qy) == pytest.approx(0.427901, abs=1e-4)

        result = classify(m)
        assert result.verdict == NOT_WEAK_COMPRESSION
        assert result.edge_contracting


def test_criterion_2_spectral_vs_oracle():
    with criterion(2, "spectral classification vs sampling oracle"):
        rng = np.random.default_rng(2024)
        disagreements = 0
        for trial in range(200):
            d = int(rng.integers(1, 5))
            poly = simplex_polytope(d)
            src = random_simplex_coords(rng, d)
            style = trial % 3
            if style == 0:  # strict compression by construction
                tgt = src @ random_contraction(rng, d, (0.2, 0.9)).T + rng.uniform(-1, 1, d)
            elif style == 1:  # weak compression with top singular value 1
                tgt = src @ random_weak_contraction(rng, d).T
            else:
                tgt = random_simplex_coords(rng, d)
            p, q = Shape(poly, src), Shape(poly, tgt)
            m = induced_map(p, q)
            verdict = classify(m).verdict
            top = float(np.sqrt(spectral_summary(m).alpha_max))
            if abs(top - 1.0) <= 1e-7:
                # inside the strictness band: the oracle cannot distinguish
                continue
            w1 = rng.dirichlet(np.ones(d + 1), size=10_000)
            w2 = rng.dirichlet(np.ones(d + 1), size=10_000)
            gaps = np.linalg.norm(w1 @ src - w2 @ src, axis=1)
            keep = gaps > 1e-12
            ratios = (np.linalg.norm(w1 @ tgt - w2 @ tgt, axis=1)[keep] / gaps[keep])
            if verdict in (COMPRESSION, WEAK_COMPRESSION):
                if ratios.max() > 1.0 + 1e-7:
                    disagreements += 1
            else:
                seeded = extremal_pair(m).ratio  # pair along the top direction
                if max(ratios.max(), seeded) <= 1.0 + 1e-9:
                    disagreements += 1
        assert disagreements == 0


def test_criterion_3_orthogonal_completion_and_lift():
    with criterion(3, "orthogonal completion and simplex lift residuals"):
        rng = np.random.default_rng(3)
        for trial in range(100):
            d = int(rng.integers(1, 7))
            m = random_contraction(rng, d, sigma_range=(0.0, 1.0))
            comp = orthogonal_completion(m)
            assert np.abs(comp.U.T @ comp.U - np.eye(2 * d)).max() <= 1e-10
            assert np.array_equal(comp.U[:d, :d], m)

            src = random_simplex_coords(rng, d)
            tgt = src @ m.T + rng.uniform(-1.0, 1.0, d)
            lifted = lift_simplex(src, tgt)
            iso = max(
                abs(np.linalg.norm(lifted[i] - lifted[j])
                    - np.linalg.norm(src[i] - src[j]))
                for i in range(d + 1) for j in range(i + 1, d + 1))
            assert iso <= 1e-9
            assert np.abs(lifted[:, :d] - tgt).max() <= 1e-10


def test_criterion_4_metric_axioms():
    with criterion(4, "metric axioms on simplex triples"):
        rng = np.random.default_rng(4)
        cases = [(2, 50), (3, 20)]
        for d, trials in cases:
            poly = simplex_polytope(d)
            for _ in range(trials):
                shapes = [Shape(poly, random_simplex_coords(rng, d)) for _ in range(3)]
                deltas = {}
                for i in range(3):
                    for j in range(3):
                        if i != j:
                            deltas[i, j] = delta_polytope(shapes[i], shapes[j])
                # symmetry
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert abs(deltas[i, j] - deltas[j, i]) <= 1e-12
                # homothety/isometry invariance
                for i, s in enumerate(shapes):
                    lam = rng.uniform(0.1, 10.0)
                    moved = s.scaled(lam).transformed(
                        rotation=random_rotation(rng, d),
                        translation=rng.uniform(-1, 1, d))
                    assert delta_polytope(s, moved) <= 1e-10
                # triangle inequality
                for i in range(3):
                    for j in range(3):
                        for k in range(3):
                            if len({i, j, k}) == 3:
                                assert (deltas[i, k]
                                        <= deltas[i, j] + deltas[j, k] + 1e-9)
                # positivity for non-homothetic pairs
                for i in range(3):
                    for j in range(i + 1, 3):
                        assert not is_homothetic(shapes[i], shapes[j])
                        assert deltas[i, j] > 1e-10
                # simplex consistency: the stacked request agrees with the pair path
                matrix = sequence_report(shapes, window=0, eps=1.0).delta_matrix
                for i in range(3):
                    for j in range(3):
                        if i != j:
                            assert abs(deltas[i, j] - matrix[i, j]) <= 1e-12


def test_criterion_5_critical_rescaling():
    with criterion(5, "critical rescaling of polygon pairs"):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 10))
            poly = ngon_polytope(n)
            p = Shape(poly, random_convex_polygon(rng, n))
            q = Shape(poly, random_convex_polygon(rng, n))
            result = scale_critical(p, q)
            summary = result.classification.summary
            assert 1.0 - 1e-9 <= summary.alpha_max <= 1.0 + 1e-9
            witness = result.classification.witness
            assert witness.anchor_vertex is not None  # vertex-anchored in 2d
            anchored = given_piece(induced_map(p, result.scaled_target),
                                   witness.simplex_index).source[witness.anchor_vertex]
            assert np.array_equal(witness.x, anchored)
            assert witness.ratio == pytest.approx(1.0, abs=1e-9)


def test_criterion_6_pleated_square():
    with criterion(6, "pleated embedding of the square and its chain"):
        poly = ngon_polytope(4)
        p = Shape(poly, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        q = p.scaled(0.8)
        tri = fan_triangulation(poly, 0)
        pe = pleated_embedding(p, q, tri)
        assert pe.ambient_dimension == 6

        report = pleat_validity(pe)
        assert report.max_isometry_residual <= 1e-9
        assert report.projection_residual <= 1e-10

        s0, s1 = tri.simplices
        shared = sorted(set(s0) & set(s1))
        rows0 = pe.simplex_coords(0)[[s0.index(v) for v in shared]]
        rows1 = pe.simplex_coords(1)[[s1.index(v) for v in shared]]
        assert np.array_equal(rows0, rows1)  # the shared diagonal is stored once

        chain = pleated_projection_chain(pe)
        assert [s.ambient_dimension for s in chain.stages] == [6, 5, 4, 3, 2]
        transitions = [s for s in chain.stages if s.alpha_max_vs_prev is not None]
        assert len(transitions) == 4
        for stage in transitions:
            assert stage.alpha_max_vs_prev <= 1.0 + 1e-9
        assert chain.final_residual <= 1e-10


def test_criterion_7_rhombus_perturbation():
    with criterion(7, "rhombus four-bar flex derivatives"):
        a, b = 2.0, 1.0
        poly = ngon_polytope(4)
        shape = Shape(poly, [[-a, 0.0], [0.0, b], [a, 0.0], [0.0, -b]])

        def flex(s):
            return np.array([[-s, 0.0], [0.0, -(a / b) * s],
                             [s, 0.0], [0.0, (a / b) * s]])

        for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            deriv = distance_derivative(shape, flex(1.0), PointOnShape(face=(i,)),
                                        PointOnShape(face=(j,)))
            assert abs(deriv) <= 1e-8

        deriv = distance_derivative(shape, flex(-1.0), PointOnShape(face=(0,)),
                                    PointOnShape(face=(2, 3), weights=(0.5, 0.5)))
        assert deriv == pytest.approx(-4.0 / np.sqrt(9.25), abs=1e-5)


def test_criterion_8_completion_experiment():
    with criterion(8, "hexagon completion experiment"):
        poly = ngon_polytope(6)
        reg = np.array([[np.cos(k * np.pi / 3), np.sin(k * np.pi / 3)]
                        for k in range(6)])
        flat = (reg[0] + reg[2]) / 2.0

        def member(tau):
            c = reg.copy()
            c[1] = flat + tau * (reg[1] - flat)
            return c

        seq = [Shape(poly, member(2.0 ** -i)) for i in range(1, 21)]
        limit = Shape(poly, member(0.0), mode="weak")

        assert sequence_report(seq, window=10, eps=0.05).cauchy
        assert sequence_report(seq, window=10, eps=1e-3, limit=limit).converges

        strict_report = validate_shape(poly, limit.coords, "strict")
        weak_report = validate_shape(poly, limit.coords, "weak")
        assert strict_report.verdict != "strictly-convex"
        assert weak_report.verdict == "weakly-convex"
        assert not all(weak_report.vertex_extreme)  # the flattened vertex
        assert len(weak_report.flat_facet_pairs) == 1
