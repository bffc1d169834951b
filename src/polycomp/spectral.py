"""Spectral classification of piecewise-linear maps between shapes.

A per-simplex affine map with reduced matrix Abar is a weak compression iff
all eigenvalues of Abar^T Abar are at most one, and a (strict) compression
iff they are below one.  The global verdict over a piecewise-linear map is
taken simplex by simplex.  This module also locates extremal point pairs,
rescales a target shape to the critical homothety, compares shapes in the
weak-compression partial order, and classifies infinitesimal perturbations
of simplex shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import degenerate, homogeneous
from .barycentric import InducedMap, induced_map
from .errors import SingularSimplex
from .polytopes import Shape

DEFAULT_TOL = 1e-9

COMPRESSION = "Compression"
WEAK_COMPRESSION = "WeakCompressionNotStrict"
NOT_WEAK_COMPRESSION = "NotWeakCompression"


@dataclass(frozen=True)
class SpectralSummary:
    """Per-simplex eigenvalues of Abar^T Abar with global extremes."""

    per_simplex: np.ndarray  # (t, d), ascending within each row
    alpha_min: float
    alpha_max: float
    argmax_simplex: int


def spectral_summary(m: InducedMap) -> SpectralSummary:
    alphas = m.maps.gram_eigenvalues()
    tops = alphas[:, -1]
    return SpectralSummary(
        per_simplex=alphas,
        alpha_min=float(alphas[:, 0].min()),
        alpha_max=float(tops.max()),
        argmax_simplex=int(tops.argmax()),
    )


@dataclass(frozen=True)
class ExtremalPair:
    """A pair realizing the maximal distance ratio of the map."""

    x: np.ndarray
    y: np.ndarray
    ratio: float
    simplex_index: int
    anchor_vertex: int | None  # local vertex index; None if interior-chord fallback


@dataclass(frozen=True)
class EdgeContractionReport:
    edges: tuple[tuple[int, ...], ...]
    source_lengths: np.ndarray
    target_lengths: np.ndarray
    ratios: np.ndarray
    all_contracting: bool


@dataclass(frozen=True)
class Classification:
    verdict: str
    edge_contracting: bool
    witness: ExtremalPair
    summary: SpectralSummary

    @property
    def is_weak_compression(self) -> bool:
        return self.verdict != NOT_WEAK_COMPRESSION


def edge_contraction_check(p: Shape, q: Shape,
                           tol: float = DEFAULT_TOL) -> EdgeContractionReport:
    """Length ratio ||q_i - q_j|| / ||p_i - p_j|| for every 1-face {i, j}."""
    edges = []
    for face in p.polytope.faces_of_dim(1):
        verts = sorted(face)
        # 1-faces of an n-gon are its 2-vertex facets; higher faces of
        # dimension 1 always have exactly two vertices in a polytope.
        edges.append((verts[0], verts[-1]))
    edges = tuple(edges)
    src = np.array([np.linalg.norm(p.coords[i] - p.coords[j]) for i, j in edges])
    tgt = np.array([np.linalg.norm(q.coords[i] - q.coords[j]) for i, j in edges])
    ratios = tgt / src
    return EdgeContractionReport(
        edges=edges,
        source_lengths=src,
        target_lengths=tgt,
        ratios=ratios,
        all_contracting=bool(len(ratios) and (ratios < 1.0 - tol).all()),
    )


def extremal_pair(m: InducedMap, summary: SpectralSummary | None = None) -> ExtremalPair:
    """Maximal-ratio pair on the simplex attaining the global alpha_max.

    The pair is anchored at a simplex vertex whenever the top right-singular
    direction (or its negative) points into the simplex from some vertex;
    the lowest-index such vertex wins.  In dimension >= 3 no vertex may
    admit the direction, in which case the full chord through the simplex
    barycentre is returned instead.  Either way the realized ratio equals
    sqrt(alpha_max).
    """
    s = summary if summary is not None else spectral_summary(m)
    corr = m.maps[s.argmax_simplex]
    d = corr.dimension
    _, _, vh = np.linalg.svd(corr.linear)
    u = vh[0]
    p = homogeneous(corr.source)

    for k in range(d + 1):
        for sign in (1.0, -1.0):
            lam_dot = np.linalg.solve(p, np.append(sign * u, 0.0))
            others = np.delete(lam_dot, k)
            if others.min() < -1e-12:
                continue
            if lam_dot[k] >= 0:
                continue  # zero direction; cannot happen for unit u
            smax = 1.0 / (-lam_dot[k])
            x = corr.source[k]
            y = x + smax * sign * u
            ratio = float(np.linalg.norm(corr.apply(x) - corr.apply(y))
                          / np.linalg.norm(x - y))
            return ExtremalPair(x=x, y=y, ratio=ratio,
                                simplex_index=s.argmax_simplex, anchor_vertex=k)

    # No vertex cone contains +-u: take the maximal chord through the centre.
    centre = corr.source.mean(axis=0)
    lam_c = np.full(d + 1, 1.0 / (d + 1))
    lam_dot = np.linalg.solve(p, np.append(u, 0.0))
    lo = max(-lam_c[i] / lam_dot[i] for i in range(d + 1) if lam_dot[i] > 0)
    hi = min(-lam_c[i] / lam_dot[i] for i in range(d + 1) if lam_dot[i] < 0)
    x = centre + lo * u
    y = centre + hi * u
    ratio = float(np.linalg.norm(corr.apply(x) - corr.apply(y))
                  / np.linalg.norm(x - y))
    return ExtremalPair(x=x, y=y, ratio=ratio,
                        simplex_index=s.argmax_simplex, anchor_vertex=None)


def classify(m: InducedMap, tol: float = DEFAULT_TOL) -> Classification:
    """Verdict from the global alpha_max over all simplices.

    Compression when alpha_max < 1 - tol on every simplex, weak (not
    strict) when every alpha_max <= 1 + tol with some simplex in the band,
    otherwise not a weak compression.
    """
    s = spectral_summary(m)
    per_simplex_max = s.per_simplex[:, -1]
    if (per_simplex_max < 1.0 - tol).all():
        verdict = COMPRESSION
    elif (per_simplex_max <= 1.0 + tol).all():
        verdict = WEAK_COMPRESSION
    else:
        verdict = NOT_WEAK_COMPRESSION
    edges = edge_contraction_check(m.source, m.target, tol)
    return Classification(
        verdict=verdict,
        edge_contracting=edges.all_contracting,
        witness=extremal_pair(m, s),
        summary=s,
    )


@dataclass(frozen=True)
class CriticalRescale:
    lam: float
    classification: Classification
    scaled_target: Shape


def scale_critical(p: Shape, q: Shape) -> CriticalRescale:
    """Homothety factor making P -> lambda*Q a critical weak compression.

    lambda = 1/sqrt(global alpha_max), after which the rescaled map has
    global alpha_max = 1 and an extremal pair of ratio 1.
    """
    s = spectral_summary(induced_map(p, q))
    lam = 1.0 / np.sqrt(s.alpha_max)
    scaled = q.scaled(lam)
    return CriticalRescale(lam=float(lam),
                           classification=classify(induced_map(p, scaled)),
                           scaled_target=scaled)


@dataclass(frozen=True)
class OrderResult:
    relation: str  # "P<=Q" | "Q<=P" | "both" | "incomparable"
    forward: Classification
    backward: Classification


def compare_order(p: Shape, q: Shape, tol: float = DEFAULT_TOL) -> OrderResult:
    """Position of two shapes in the weak-compression partial order.

    "both" means the shapes are isometric: every singular value of every
    per-simplex matrix equals 1 within tolerance.
    """
    forward = classify(induced_map(p, q), tol)
    backward = classify(induced_map(q, p), tol)
    fwd = forward.is_weak_compression
    bwd = backward.is_weak_compression
    if fwd and bwd:
        relation = "both"
    elif fwd:
        relation = "P<=Q"
    elif bwd:
        relation = "Q<=P"
    else:
        relation = "incomparable"
    return OrderResult(relation=relation, forward=forward, backward=backward)


@dataclass(frozen=True)
class Perturbation:
    """First-order analysis of a vertex-velocity field on a simplex shape."""

    base: np.ndarray       # homogeneous vertex matrix, last row ones
    direction: np.ndarray  # homogeneous velocity matrix, last row zeros
    symmetric_part: np.ndarray
    eigenvalues: np.ndarray
    infinitesimal_weak_compression: bool


def perturbation_classify(p: Shape | np.ndarray, velocities,
                          tol: float = DEFAULT_TOL) -> Perturbation:
    """Is moving the vertices along ``velocities`` an infinitesimal weak compression?

    The criterion is that the symmetric part of the reduced matrix of
    V P^{-1} is negative semidefinite.  ``velocities`` has one row per
    vertex, matching the coordinate layout of the shape.
    """
    coords = p.coords if isinstance(p, Shape) else np.asarray(p, dtype=float)
    vel = np.asarray(velocities, dtype=float)
    if vel.shape != coords.shape:
        raise ValueError("velocities must match the vertex coordinate layout")
    d = coords.shape[1]
    if coords.shape[0] != d + 1:
        raise ValueError("perturbation analysis applies to simplex shapes")
    if degenerate(coords):
        raise SingularSimplex("simplex shape is affinely degenerate")
    ph = homogeneous(coords)
    vh = np.vstack([vel.T, np.zeros(d + 1)])
    w = np.linalg.solve(ph.T, vh.T).T  # V P^{-1}
    wbar = w[:d, :d]
    sym = wbar + wbar.T
    eig = np.linalg.eigvalsh(sym)
    return Perturbation(
        base=ph,
        direction=vh,
        symmetric_part=sym,
        eigenvalues=eig,
        infinitesimal_weak_compression=bool(eig[-1] <= tol),
    )


@dataclass(frozen=True)
class PointOnShape:
    """A point tied to a face so it moves with vertex perturbations.

    ``weights`` are barycentric weights over the face's vertices; omitted
    weights mean the face barycentre.
    """

    face: tuple[int, ...]
    weights: tuple[float, ...] | None = None

    def resolve(self, coords: np.ndarray) -> np.ndarray:
        idx = list(self.face)
        if self.weights is None:
            return coords[idx].mean(axis=0)
        w = np.asarray(self.weights, dtype=float)
        if len(w) != len(idx):
            raise ValueError("weights must match the face's vertex count")
        return w @ coords[idx]


def distance_derivative(shape: Shape, velocities, x: PointOnShape, y: PointOnShape,
                        h: float = 1e-6) -> float:
    """Central finite difference of t -> ||x(t) - y(t)|| at t = 0."""
    vel = np.asarray(velocities, dtype=float)
    if vel.shape != shape.coords.shape:
        raise ValueError("velocities must match the vertex coordinate layout")

    def gap(t: float) -> float:
        coords = shape.coords + t * vel
        return float(np.linalg.norm(x.resolve(coords) - y.resolve(coords)))

    return (gap(h) - gap(-h)) / (2.0 * h)
