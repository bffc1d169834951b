"""Seeded inputs for the four workloads, written as polycomp documents.

Every input is a pure function of (seed, workload, stream, index), so the same
seed gives the same inputs and no two indices share one.  The program only
ever receives shape, triangulation and sequence documents; the construction
facts kept beside them (verdict class, validity class, the non-extreme
vertex, the flags a family was built to have) are what the checks compare
against.  Each class is built with a margin, checked here with the oracle,
so that no verdict sits on a tolerance boundary.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import oracle

WORKLOAD_IDS = {"pairs-cube4": 1, "validate-ngon": 2, "sequence-octagon": 3, "pleat-ngon": 4}
WARMUP, POOL, CLI = 0, 1, 2  # input streams

CUBE_DIM = 4
NGON_RANGE = (16, 32)        # validate-ngon polygon sizes, inclusive
FAMILY_SIZE = 8              # sequence-octagon members per family
FAMILY_EPS = 0.1
PLEAT_RANGE = (12, 20)       # pleat-ngon polygon sizes, inclusive
GAP = 1e-4                   # least vertex-to-chord distance and edge length


def rng_for(seed: int, workload: str, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], stream, index])


def size_for(index: int, sizes: tuple[int, int]) -> int:
    """Polygon size of input `index`.  The sizes are taken in turn, so every
    run has the same mix of sizes and its percentiles do not jump with the seed
    from one size to the next."""
    return sizes[0] + index % (sizes[1] - sizes[0] + 1)


def shape_doc(coords, facets, mode="strict", name=None) -> dict:
    coords = np.asarray(coords, float)
    doc = {"dimension": coords.shape[1], "vertex_count": coords.shape[0],
           "facets": facets, "vertices": coords.tolist(), "mode": mode}
    if name is not None:
        doc["name"] = name
    return doc


def _chord_gaps(pts: np.ndarray) -> np.ndarray:
    prev, nxt = np.roll(pts, 1, axis=0), np.roll(pts, -1, axis=0)
    chord = nxt - prev
    cross = chord[:, 0] * (pts - prev)[:, 1] - chord[:, 1] * (pts - prev)[:, 0]
    return np.abs(cross) / np.linalg.norm(chord, axis=1)


def valtr(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random convex n-gon (Valtr), counterclockwise, centred, no near-flat vertex."""
    while True:
        vecs = []
        for _ in range(2):
            vals = np.sort(rng.uniform(0.0, 1.0, n))
            up = rng.integers(0, 2, n - 2).astype(bool)
            a = np.concatenate([[vals[0]], vals[1:-1][up], [vals[-1]]])
            b = np.concatenate([[vals[0]], vals[1:-1][~up], [vals[-1]]])
            vecs.append(np.concatenate([np.diff(a), -np.diff(b)]))
        rng.shuffle(vecs[1])
        v = np.column_stack(vecs)
        v = v[np.argsort(np.arctan2(v[:, 1], v[:, 0]))]
        pts = np.cumsum(v, axis=0)
        pts -= pts.mean(axis=0)
        edges = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        if edges.min() > GAP and _chord_gaps(pts).min() > GAP:
            return pts


def _projective_cube(rng: np.random.Generator, d: int) -> np.ndarray:
    """Admissible projective image of the d-cube: the hyperplane sent to
    infinity misses the cube, so the image is convex with the same lattice."""
    x = oracle.cube_vertices(d)
    while True:
        a = np.eye(d) + 0.25 * rng.standard_normal((d, d))
        w = 0.15 * rng.standard_normal(d)
        den = x @ w + 1.0
        if den.min() > 0.4 and np.linalg.svd(a, compute_uv=False)[-1] > 0.3:
            return (x @ a.T + 0.1 * rng.standard_normal(d)) / den[:, None]


def make_pairs_cube4(rng, index):
    """P, Q projective 4-cubes; Q scaled so alpha_max is 0.81 (even index,
    a compression) or 1.21 (odd index, not a weak compression)."""
    cx = oracle.complex_for("cube", CUBE_DIM)
    facets = oracle.cube_facets(CUBE_DIM)
    target = 0.81 if index % 2 == 0 else 1.21
    while True:
        p, q = _projective_cube(rng, CUBE_DIM), _projective_cube(rng, CUBE_DIM)
        spec = oracle.chain_spectrum(cx, p, q)
        scale = np.sqrt(target / spec["alpha_max"].max())
        # Keep the backward verdict (alpha_min against 1) off the tolerance band.
        if abs(spec["alpha_min"].min() * scale**2 - 1.0) > 1e-3:
            break
    q = q * scale
    return {"P": shape_doc(p, facets, name="P"), "Q": shape_doc(q, facets, name="Q"),
            "verdict": oracle.COMPRESSION if target < 1 else oracle.NOT_WEAK_COMPRESSION,
            "chains": len(cx.chains), "n": len(p)}


NGON_CLASSES = ("strictly-convex", "weakly-convex", "invalid", "strictly-convex")


def _ngon_of_class(rng, n, cls):
    """Polygon document plus the index of its non-extreme vertex (or None)."""
    pts = valtr(rng, n)
    if cls == "strictly-convex":
        return shape_doc(pts, oracle.ngon_facets(n)), None
    k = int(rng.integers(n))
    prev, nxt = pts[k - 1], pts[(k + 1) % n]
    if cls == "weakly-convex":
        pts[k] = prev + rng.uniform(0.3, 0.7) * (nxt - prev)  # on the neighbours' chord
        return shape_doc(pts, oracle.ngon_facets(n), mode="weak"), k
    mid = (prev + nxt) / 2.0
    pts[k] = mid + rng.uniform(0.2, 0.4) * (pts.mean(axis=0) - mid)  # reflex, inside the hull
    return shape_doc(pts, oracle.ngon_facets(n)), k


def make_validate_ngon(rng, index):
    """P of class NGON_CLASSES[index % 4] (strict 1/2, weak 1/4, invalid 1/4), Q strict."""
    n = size_for(index, NGON_RANGE)
    cls = NGON_CLASSES[index % len(NGON_CLASSES)]
    p, k = _ngon_of_class(rng, n, cls)
    q, _ = _ngon_of_class(rng, n, "strictly-convex")
    return {"P": p, "Q": q, "p_class": cls, "p_nonextreme": k, "n": n,
            "chains": 2 * n if cls != "invalid" else 0}


def make_sequence_octagon(rng, index):
    """Octagons whose vertex k moves toward its neighbours' chord, plus the
    weakly convex limit on the chord.  Even index: tau_i = 2^-i, Cauchy and
    convergent.  Odd index: tau alternates near 0.3 and 0.8, neither."""
    converging = index % 2 == 0
    cx = oracle.complex_for("ngon", 8)
    facets = oracle.ngon_facets(8)
    i = np.arange(1, FAMILY_SIZE + 1)
    window = FAMILY_SIZE // 2
    tail = max(2, FAMILY_SIZE // 4)
    while True:
        base = valtr(rng, 8)
        k = int(rng.integers(8))
        flat = base[k - 1] + rng.uniform(0.35, 0.65) * (base[(k + 1) % 8] - base[k - 1])
        taus = 0.5**i if converging else 0.3 + 0.5 * (i % 2) + 0.01 * i / FAMILY_SIZE
        members = [base.copy() for _ in taus]
        for m, tau in zip(members, taus):
            m[k] = flat + tau * (base[k] - flat)
        limit = base.copy()
        limit[k] = flat
        matrix, limit_deltas = oracle.family_deltas(cx, members, limit)
        ii, jj = np.triu_indices(FAMILY_SIZE, k=1)
        late = matrix[ii, jj][ii >= window]
        trailing = limit_deltas[-tail:]
        if converging:
            ok = (late.max() < FAMILY_EPS / 2 and trailing.max() < FAMILY_EPS / 2
                  and (np.diff(trailing) < -1e-6).all())
        else:
            ok = (late.max() > 2 * FAMILY_EPS and trailing.max() > 2 * FAMILY_EPS
                  and ((late < FAMILY_EPS / 2) | (late > 2 * FAMILY_EPS)).all())
        if ok:
            break
    docs = [shape_doc(m, facets, name=f"s{j}") for j, m in enumerate(members)]
    return {"members": docs, "limit": shape_doc(limit, facets, mode="weak", name="limit"),
            "limit_nonextreme": k, "cauchy": converging, "converges": converging,
            "eps": FAMILY_EPS, "window": window, "K": FAMILY_SIZE, "chains": len(cx.chains)}


def make_pleat_ngon(rng, index):
    """P, Q strict n-gons; Q scaled so the fan map from vertex 0 has alpha_max 0.81."""
    n = size_for(index, PLEAT_RANGE)
    p, q = valtr(rng, n), valtr(rng, n)
    q *= np.sqrt(0.81 / oracle.fan_spectrum(p, q)["alpha_max"].max())
    facets = oracle.ngon_facets(n)
    return {"P": shape_doc(p, facets, name="P"), "Q": shape_doc(q, facets, name="Q"),
            "n": n, "triangles": n - 2}


MAKERS = {"pairs-cube4": make_pairs_cube4, "validate-ngon": make_validate_ngon,
          "sequence-octagon": make_sequence_octagon, "pleat-ngon": make_pleat_ngon}


def make(workload: str, seed: int, stream: int, index: int) -> dict:
    return MAKERS[workload](rng_for(seed, workload, stream, index), index)


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def cli_case(workload: str, inp: dict, index: int, outdir: Path) -> dict:
    """Write the files for one CLI call; return its argv tail and subcommand.

    pairs-cube4 cycles classify, order, scale and distance, mirroring the
    library job; the other workloads use the subcommand their job mirrors.
    """
    stem = outdir / f"cli{index}"
    if workload == "sequence-octagon":
        seq = _write(stem.with_suffix(".seq.json"), inp["members"])
        lim = _write(stem.with_suffix(".limit.json"), inp["limit"])
        return {"sub": "sequence", "args": [seq, "--limit", lim, "--eps", repr(inp["eps"])]}
    p = _write(stem.with_suffix(".P.json"), inp["P"])
    q = _write(stem.with_suffix(".Q.json"), inp["Q"])
    if workload == "pleat-ngon":
        tri = _write(stem.with_suffix(".tri.json"),
                     {"simplices": [list(s) for s in oracle.fan_simplices(inp["n"])]})
        return {"sub": "pleat", "args": [p, q, "--triangulation", tri]}
    if workload == "pairs-cube4":
        return {"sub": ("classify", "order", "scale", "distance")[index % 4], "args": [p, q]}
    return {"sub": "classify", "args": [p, q]}


def properties(workload: str, inputs: list[dict]) -> dict:
    """Input properties of a run: class shares, size ranges, chains per pair."""
    count = len(inputs)

    def share(key):
        counts = {}
        for i in inputs:
            counts[str(i[key])] = counts.get(str(i[key]), 0) + 1
        return {k: c / count for k, c in sorted(counts.items())}

    out = {"inputs": count}
    if workload == "pairs-cube4":
        out.update(verdict_share=share("verdict"), chains_per_pair=inputs[0]["chains"],
                   vertices=inputs[0]["n"])
    elif workload == "validate-ngon":
        sizes = [i["n"] for i in inputs]
        out.update(p_class_share=share("p_class"), n_range=[min(sizes), max(sizes)],
                   chains_per_classified_pair=[2 * min(sizes), 2 * max(sizes)])
    elif workload == "sequence-octagon":
        out.update(cauchy_share=share("cauchy"), K_range=[inputs[0]["K"], inputs[0]["K"]],
                   chains_per_pair=inputs[0]["chains"], eps=inputs[0]["eps"])
    else:
        out.update(n_range=[min(i["n"] for i in inputs), max(i["n"] for i in inputs)],
                   fan_alpha_max=0.81)
    return out
