"""Independent reference for chain-simplex spectra, built from face barycentres.

Nothing here imports polycomp.  Face lattices come from the combinatorics the
generator built (cube sub-faces, polygon vertices and edges), barycentres are
one incidence-matrix product, and the spectrum of every chain simplex is one
batched ``solve`` plus one batched ``svd``:

    edges E_s, E_t (t, d, d)  ->  M = E_s^{-1} E_t = A^T  ->  sigma(M)

so alpha = sigma^2 and delta = ln(alpha_max / alpha_min) = 2 ln(sigma_1 / sigma_d).
polycomp takes another route (homogeneous solve, then eigvalsh of A^T A per
chain), so agreement is evidence that both are right.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

TOL = 1e-9  # polycomp's default strictness band around 1
COMPRESSION = "Compression"
WEAK_COMPRESSION = "WeakCompressionNotStrict"
NOT_WEAK_COMPRESSION = "NotWeakCompression"


class Complex:
    """Faces, barycentre matrix and maximal chains of a face lattice.

    Faces are sorted vertex tuples in lexicographic order and chains are
    face-index tuples in lexicographic order, the documented layout of
    ``polycomp.barycentric``, so per-chain arrays compare elementwise.
    """

    def __init__(self, n: int, d: int, faces_with_dims):
        ordered = sorted(faces_with_dims)
        self.faces = [f for f, _ in ordered]
        dims = [k for _, k in ordered]
        self.bary = np.zeros((len(self.faces), n))
        for i, f in enumerate(self.faces):
            self.bary[i, list(f)] = 1.0 / len(f)
        sets = [frozenset(f) for f in self.faces]
        by_dim = [[i for i, k in enumerate(dims) if k == level] for level in range(d + 1)]
        chains = [[i] for i in by_dim[0]]
        for level in range(1, d + 1):
            chains = [c + [j] for c in chains for j in by_dim[level] if sets[c[-1]] < sets[j]]
        self.chains = np.array(sorted(chains), dtype=int)

    def simplices(self, coords) -> np.ndarray:
        """Chain simplex vertices (t, d+1, d) at the face barycentres."""
        return (self.bary @ np.asarray(coords, float))[self.chains]


def cube_vertices(d: int) -> np.ndarray:
    return np.array(list(itertools.product([-1.0, 1.0], repeat=d)))


def cube_facets(d: int) -> list[list[int]]:
    verts = cube_vertices(d)
    return [[i for i, v in enumerate(verts) if v[a] == b] for a in range(d) for b in (-1.0, 1.0)]


def cube_complex(d: int) -> Complex:
    verts = cube_vertices(d)
    faces = []
    for free in itertools.product([False, True], repeat=d):
        fixed = [a for a in range(d) if not free[a]]
        for values in itertools.product([-1.0, 1.0], repeat=len(fixed)):
            face = tuple(i for i, v in enumerate(verts)
                         if all(v[a] == b for a, b in zip(fixed, values)))
            faces.append((face, sum(free)))
    return Complex(len(verts), d, faces)


def ngon_facets(n: int) -> list[list[int]]:
    return [[i, (i + 1) % n] for i in range(n)]


def ngon_complex(n: int) -> Complex:
    faces = [((i,), 0) for i in range(n)]
    faces += [(tuple(sorted(e)), 1) for e in ngon_facets(n)]
    faces.append((tuple(range(n)), 2))
    return Complex(n, 2, faces)


_COMPLEXES: dict = {}


def complex_for(kind: str, size: int) -> Complex:
    key = (kind, size)
    if key not in _COMPLEXES:
        _COMPLEXES[key] = cube_complex(size) if kind == "cube" else ngon_complex(size)
    return _COMPLEXES[key]


def spectrum(src: np.ndarray, tgt: np.ndarray) -> dict:
    """Per-simplex alpha_min, alpha_max and delta for stacks (t, d+1, d)."""
    es = src[:, 1:] - src[:, :1]
    et = tgt[:, 1:] - tgt[:, :1]
    sigma = np.linalg.svd(np.linalg.solve(es, et), compute_uv=False)
    return {
        "alpha_min": sigma[:, -1] ** 2,
        "alpha_max": sigma[:, 0] ** 2,
        "delta": 2.0 * np.log(sigma[:, 0] / sigma[:, -1]),
    }


def chain_spectrum(cx: Complex, p, q) -> dict:
    return spectrum(cx.simplices(p), cx.simplices(q))


def family_deltas(cx: Complex, members, limit) -> tuple[np.ndarray, np.ndarray]:
    """Polytope distances within a shape family: the symmetric (K, K) matrix
    and the K distances to the limit, each the maximum over chains."""
    sims = np.stack([cx.simplices(m) for m in members])
    k, t = sims.shape[:2]
    ii, jj = np.triu_indices(k, k=1)
    pair = spectrum(sims[ii].reshape(-1, *sims.shape[2:]), sims[jj].reshape(-1, *sims.shape[2:]))
    matrix = np.zeros((k, k))
    matrix[ii, jj] = matrix[jj, ii] = pair["delta"].reshape(len(ii), t).max(axis=1)
    to_limit = spectrum(sims.reshape(-1, *sims.shape[2:]),
                        np.tile(cx.simplices(limit), (k, 1, 1)))
    return matrix, to_limit["delta"].reshape(k, t).max(axis=1)


def fan_simplices(n: int, apex: int = 0) -> list[tuple[int, int, int]]:
    cycle = [(apex + k) % n for k in range(n)]
    return [tuple(sorted((apex, cycle[i], cycle[i + 1]))) for i in range(1, n - 1)]


def fan_spectrum(p, q, apex: int = 0) -> dict:
    idx = np.array(fan_simplices(len(p), apex))
    return spectrum(np.asarray(p, float)[idx], np.asarray(q, float)[idx])


def verdict(alpha_max: np.ndarray, tol: float = TOL) -> str:
    if (alpha_max < 1.0 - tol).all():
        return COMPRESSION
    if (alpha_max <= 1.0 + tol).all():
        return WEAK_COMPRESSION
    return NOT_WEAK_COMPRESSION


def edge_ratios(p, q, edges) -> np.ndarray:
    e = np.array(edges)
    p, q = np.asarray(p, float), np.asarray(q, float)
    return (np.linalg.norm(q[e[:, 0]] - q[e[:, 1]], axis=1)
            / np.linalg.norm(p[e[:, 0]] - p[e[:, 1]], axis=1))


def cube_edges(d: int) -> list[tuple[int, int]]:
    verts = cube_vertices(d)
    return [(i, j) for i, j in itertools.combinations(range(len(verts)), 2)
            if np.count_nonzero(verts[i] != verts[j]) == 1]


def close(a, b, rtol: float = 1e-8, atol: float = 1e-12) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def golden_mismatches(data_dir) -> list[str]:
    """Compare the oracle with the checked-in classify and distance goldens."""
    def load(name):
        return json.loads((Path(data_dir) / name).read_text(encoding="utf-8"))

    p = np.array(load("P.json")["vertices"], float)
    q = np.array(load("Q.json")["vertices"], float)
    spec = spectrum(p[None], q[None])
    classify = load("golden_classify.json")
    distance = load("golden_distance.json")
    wrong = []
    for key, value in (("alpha_min", spec["alpha_min"][0]), ("alpha_max", spec["alpha_max"][0])):
        if not close(value, classify[key], rtol=1e-10):
            wrong.append(f"{key}: oracle {value!r}, golden {classify[key]!r}")
    if verdict(spec["alpha_max"]) != classify["verdict"]:
        wrong.append(f"verdict: oracle {verdict(spec['alpha_max'])}, golden {classify['verdict']}")
    if not close(np.sqrt(spec["alpha_max"][0]), classify["witness"]["ratio"], rtol=1e-10):
        wrong.append("witness ratio is not sqrt(alpha_max)")
    if not close(spec["delta"][0], distance["delta"], rtol=1e-10):
        wrong.append(f"delta: oracle {spec['delta'][0]!r}, golden {distance['delta']!r}")
    return wrong
