"""The memoised induced map and chain stacks: one solve per (P, Q) pair and
one chain build, flatness test and edge-length array per shape, shared by
the spectral and metric entry points, with the same values and errors as
uncached calls; the extremal pair is computed only when read."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from polycomp import (
    Classification,
    DegenerateSimplex,
    Shape,
    classify,
    compare_order,
    delta_polytope,
    extremal_pair,
    induced_map,
    ngon_polytope,
    per_chain_deltas,
    scale_critical,
    spectral_summary,
)
from polycomp import affine, barycentric, metric, spectral
from polycomp.affine import degenerate
from polycomp.barycentric import barycentric_complex, chain_simplex_coords, chain_stack
from polycomp.io import load_shape
from test_chain_kernel import SQUARE, projective_cube

DATA = Path(__file__).parent / "data"

ENTRY_POINTS = (
    lambda p, q: classify(induced_map(p, q)),
    compare_order,
    scale_critical,
    delta_polytope,
    per_chain_deltas,
)


def clear_memo():
    barycentric.induced_map.cache_clear()
    barycentric.chain_stack.cache_clear()
    spectral._edge_lengths.cache_clear()


def canon(v):
    """Exact, hashable form of an output: array bytes and float bit patterns."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, Shape):
        return canon(v.coords), v.mode
    if dataclasses.is_dataclass(v):
        fields = tuple(canon(getattr(v, f.name)) for f in dataclasses.fields(v))
        # The witness is a cached property, not a field.
        return fields + (canon(v.witness),) if isinstance(v, Classification) else fields
    if isinstance(v, (list, tuple)):
        return tuple(canon(x) for x in v)
    return v


def pair_cases():
    rng = np.random.default_rng(20240611)
    yield "4-cube", projective_cube(rng, 4), projective_cube(rng, 4)
    yield "golden", load_shape(DATA / "P.json"), load_shape(DATA / "Q.json")


@pytest.mark.parametrize("name,p,q", list(pair_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_warm_results_equal_cold_ones(name, p, q):
    cold = []
    for f in ENTRY_POINTS:
        clear_memo()
        cold.append(canon(f(p, q)))
    clear_memo()
    first = [canon(f(p, q)) for f in ENTRY_POINTS]
    again = [canon(f(p, q)) for f in ENTRY_POINTS]
    assert first == cold and again == cold


def test_memoised_arrays_are_read_only():
    rng = np.random.default_rng(5)
    p, q = projective_cube(rng, 3), projective_cube(rng, 3)
    m = induced_map(p, q)
    c = classify(m)
    arrays = (m.maps.source, m.maps.target, m.maps.linear, m.alphas,
              c.summary.per_simplex, c.witness.x, c.witness.y)
    arrays += tuple(a for s in (p, q) for a in (chain_stack(s).coords, chain_stack(s).degenerate))
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0
    assert induced_map(p, q) is m
    assert m.maps.source is chain_stack(p).coords and m.maps.target is chain_stack(q).coords


def test_memo_stays_bounded():
    clear_memo()
    rng = np.random.default_rng(6)
    poly = ngon_polytope(4)
    for _ in range(20):
        p, q = (Shape(poly, SQUARE + 0.1 * rng.standard_normal((4, 2))) for _ in range(2))
        classify(induced_map(p, q))
        delta_polytope(p, q)
    assert barycentric.induced_map.cache_info().currsize <= 4
    assert barycentric.chain_stack.cache_info().currsize <= 4
    assert spectral._edge_lengths.cache_info().currsize <= 4


def test_witness_is_computed_once_and_only_when_read(monkeypatch):
    rng = np.random.default_rng(9)
    p, q = projective_cube(rng, 3), projective_cube(rng, 3)
    calls = []
    monkeypatch.setattr(spectral, "extremal_pair", lambda m: calls.append(m) or extremal_pair(m))
    compare_order(p, q)
    scale_critical(p, q)
    c = classify(induced_map(p, q))
    assert calls == []
    assert c.witness is c.witness
    assert calls == [c.map]


def test_degenerate_pairs_raise_on_every_call():
    poly = ngon_polytope(4)
    good = Shape(poly, SQUARE * [2.0, 1.0])
    flat = SQUARE.copy()
    flat[2] = flat[1]
    flat = Shape(poly, flat, mode="weak")
    for _ in range(2):
        with pytest.raises(DegenerateSimplex, match="in the source$"):
            induced_map(flat, good)
    assert induced_map(good, flat).target is flat  # a degenerate target still maps
    for p, q in ((flat, good), (good, flat)):
        with pytest.raises(DegenerateSimplex) as want:
            metric._pair_deltas((p, q), [(0, 1)])
        for f in (delta_polytope, per_chain_deltas, delta_polytope, per_chain_deltas):
            with pytest.raises(DegenerateSimplex) as got:
                f(p, q)
            assert str(got.value) == str(want.value)
            assert got.value.__cause__.index == want.value.__cause__.index
    # compare_order and scale_critical, each after another entry point warmed
    # the memo, name the first flat chain, found here without the memo.
    first = int(np.flatnonzero(degenerate(chain_simplex_coords(barycentric_complex(poly),
                                                               flat)))[0])
    clear_memo()
    lam = scale_critical(good, flat).lam  # a flat target is rescaled, not rejected
    for warm in ENTRY_POINTS:
        for p, q in ((good, flat), (flat, good)):
            try:
                warm(p, q)
            except DegenerateSimplex:
                pass
            for f in (compare_order, scale_critical):
                for _ in range(2):
                    if (f, p) == (scale_critical, good):
                        assert f(p, q).lam == lam
                        continue
                    with pytest.raises(DegenerateSimplex) as got:
                        f(p, q)
                    assert str(got.value) == f"chain {first} is degenerate in the source"
                    assert got.value.__cause__.index == first
                    assert str(got.value.__cause__) == "source simplex is affinely degenerate"


def test_one_job_solves_each_pair_once(monkeypatch):
    rng = np.random.default_rng(7)
    p, q = projective_cube(rng, 4), projective_cube(rng, 4)
    clear_memo()
    calls, tested = [], []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    def flatness(test):
        def wrapper(v):
            tested.append(v)
            return test(v)
        return wrapper

    # A pair's linear parts come from ``solve_correspondence`` in a map and from
    # ``linear_parts`` in a metric request; both build chains through
    # ``shape_pieces``, which looks ``chain_simplex_coords`` up in ``barycentric``.
    # A chain stack's flags are ``_flat`` of its edges; a vertex stack's are ``degenerate``.
    monkeypatch.setattr(barycentric, "solve_correspondence",
                        counted("solve", barycentric.solve_correspondence))
    monkeypatch.setattr(metric, "linear_parts", counted("solve", metric.linear_parts))
    monkeypatch.setattr(barycentric, "chain_simplex_coords",
                        counted("chains", barycentric.chain_simplex_coords))
    monkeypatch.setattr(barycentric, "_flat", counted("flat", flatness(affine._flat)))
    for mod in (affine, barycentric):
        monkeypatch.setattr(mod, "edges", counted("edges", mod.edges))
    for mod in (affine, metric):
        monkeypatch.setattr(mod, "degenerate", counted("flat", flatness(degenerate)))
    for f in ENTRY_POINTS:
        f(p, q)
    # One solve of (P, Q) over the chains of two shapes, and the flatness of P
    # and Q, tested once each on edges taken once each: the spectra of (Q, P)
    # and (P, lambda Q) derive from (P, Q), and no witness is read.
    assert sorted(calls) == ["chains"] * 2 + ["edges"] * 2 + ["flat"] * 2 + ["solve"]
    assert [v is chain_stack(s).edges for v, s in zip(tested, (p, q))] == [True, True]


def test_shapes_compare_and_hash_by_identity(unit_square):
    twin = Shape(unit_square.polytope, unit_square.coords)
    assert unit_square == unit_square and unit_square != twin
    assert hash(twin) == object.__hash__(twin)
    assert len({unit_square, twin, unit_square}) == 2


def reference_extremal_pair(m):
    """(x, y, anchor) from one solve per vertex and sign, then one for the chord."""
    s = spectral_summary(m)
    corr = m.maps[s.argmax_simplex]
    d = corr.dimension
    u = np.linalg.svd(corr.linear)[2][0]
    e_t = (corr.source[1:] - corr.source[0]).T

    def velocity(v):  # barycentric velocity along v; its entries sum to 0
        rest = np.linalg.solve(e_t, v)
        return np.append(-rest.sum(), rest)

    for k in range(d + 1):
        for sign in (1.0, -1.0):
            lam_dot = velocity(sign * u)
            if np.delete(lam_dot, k).min() < -1e-12 * np.abs(lam_dot).max() or lam_dot[k] >= 0:
                continue
            x = corr.source[k]
            return x, x + 1.0 / (-lam_dot[k]) * sign * u, k
    lam_c = np.full(d + 1, 1.0 / (d + 1))
    lam_dot = velocity(u)
    lo = max(-lam_c[i] / lam_dot[i] for i in range(d + 1) if lam_dot[i] > 0)
    hi = min(-lam_c[i] / lam_dot[i] for i in range(d + 1) if lam_dot[i] < 0)
    centre = corr.source.mean(axis=0)
    return centre + lo * u, centre + hi * u, None


def test_extremal_pair_matches_per_sign_solves(triangle_pair):
    rng = np.random.default_rng(8)
    maps = [induced_map(*triangle_pair)]
    maps += [induced_map(projective_cube(rng, d), projective_cube(rng, d))
             for d in (2, 3, 4) for _ in range(6)]
    kinds = set()
    for m in maps:
        got, (x, y, k) = extremal_pair(m), reference_extremal_pair(m)
        assert (got.x.tobytes(), got.y.tobytes(), got.anchor_vertex) == (
            x.tobytes(), y.tobytes(), k)
        kinds.add(k is None)
    assert kinds == {True, False}  # both the anchored pair and the chord are covered
