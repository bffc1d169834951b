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
from functools import cached_property

import numpy as np

from .affine import DET_TOL, affine_correspondence, degenerate, edges
from .barycentric import DerivedMap, InducedMap, chain_stack, induced_map, require_same_polytope
from .errors import NonFiniteResult, SingularSimplex
from .polytopes import DEFAULT_TOL, Shape

COMPRESSION = "Compression"
WEAK_COMPRESSION = "WeakCompressionNotStrict"
NOT_WEAK_COMPRESSION = "NotWeakCompression"


def _lengths(v: np.ndarray) -> np.ndarray:
    """Row norms sqrt(v . v) of rows of mantissa size, where no square over- or underflows."""
    return np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class SpectralSummary:
    """Per-simplex eigenvalues of Abar^T Abar with global extremes."""

    per_simplex: np.ndarray  # (t, d), ascending within each row
    alpha_min: float
    alpha_max: float
    argmax_simplex: int


def spectral_summary(m: InducedMap | DerivedMap) -> SpectralSummary:
    """The map's eigenvalues and their extremes; ``NonFiniteResult`` unless 0 < alpha_max < inf."""
    alphas = m.alphas
    tops = alphas[:, -1]
    alpha_max = float(tops.max())
    if not 0.0 < alpha_max < np.inf:
        raise NonFiniteResult(f"alpha_max = {alpha_max} over- or underflows")
    return SpectralSummary(
        per_simplex=alphas,
        alpha_min=float(alphas[:, 0].min()),
        alpha_max=alpha_max,
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
    summary: SpectralSummary
    map: InducedMap | DerivedMap
    tol: float  # the strictness band the verdict was taken with

    @cached_property
    def edge_contracting(self) -> bool:
        """Does every edge shrink by more than ``tol``?  Computed on first read."""
        return edge_contraction_check(self.map.source, self.map.target, self.tol).all_contracting

    @cached_property
    def witness(self) -> ExtremalPair:
        """``extremal_pair`` of the map, computed on first read; its arrays are read-only."""
        witness = extremal_pair(self.map)
        for a in (witness.x, witness.y):
            a.setflags(write=False)
        return witness

    @property
    def is_weak_compression(self) -> bool:
        return self.verdict != NOT_WEAK_COMPRESSION


def edge_contraction_check(p: Shape, q: Shape,
                           tol: float = DEFAULT_TOL) -> EdgeContractionReport:
    """Length ratio ||q_i - q_j|| / ||p_i - p_j|| for every 1-face {i, j} of the shared
    polytope, each length read on its shape's mantissas."""
    require_same_polytope(p, q)
    e0, e1 = p.polytope.edge_array.T
    src, tgt = (np.ldexp(_lengths(s.mantissas[e0] - s.mantissas[e1]), s.exponent) for s in (p, q))
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        ratios = tgt / src
    return EdgeContractionReport(
        edges=tuple(map(tuple, p.polytope.edge_array.tolist())),
        source_lengths=src,
        target_lengths=tgt,
        ratios=ratios,
        all_contracting=bool(len(ratios) and (ratios < 1.0 - tol).all()),
    )


def extremal_pair(m: InducedMap | DerivedMap) -> ExtremalPair:
    """Maximal-ratio pair on the simplex attaining the global alpha_max.

    The pair is anchored at a simplex vertex whenever the top right-singular
    direction (or its negative) points into the simplex from some vertex;
    the lowest-index such vertex wins.  In dimension >= 3 no vertex may
    admit the direction, in which case the full chord through the simplex
    barycentre is returned instead.  Either way the realized ratio equals
    sqrt(alpha_max).  It is found on the mantissa piece, then brought to the given units.
    """
    s = spectral_summary(m)
    corr = m.maps[s.argmax_simplex]
    d = corr.dimension
    _, _, vh = np.linalg.svd(corr.linear)
    u = vh[0]
    # Barycentric velocity along u; along -u it is the exact negation.  In
    # units of 1/length: an entry below DET_TOL of the largest counts as zero.
    # The entries sum to 0, so entry k is negative when no other is below -zero.
    rest = np.linalg.solve(edges(corr.source).T, u)
    lam_u = np.append(-rest.sum(), rest)
    zero = DET_TOL * np.abs(lam_u).max()

    k, sign = next(((k, sign) for k in range(d + 1) for sign in (1.0, -1.0)
                    if not np.delete(sign * lam_u, k).min() < -zero), (None, None))
    if k is not None:
        x = corr.source[k]
        y = x + (step := 1.0 / (-sign * lam_u[k]) * sign * u)
    else:  # No vertex cone contains +-u: take the maximal chord through the centre.
        centre = corr.source.mean(axis=0)
        lam_c = np.full(d + 1, 1.0 / (d + 1))
        lo = max(-lam_c[i] / lam_u[i] for i in range(d + 1) if lam_u[i] > 0)
        hi = min(-lam_c[i] / lam_u[i] for i in range(d + 1) if lam_u[i] < 0)
        x, y, step = centre + lo * u, centre + hi * u, (hi - lo) * u
    # The ratio reads the displacement as built, not y - x rounded at the offset's scale.
    kp, kq = m.source.exponent, m.target.exponent
    ratio = float(np.ldexp(_lengths(corr.linear @ step) / _lengths(step), kq - kp))
    return ExtremalPair(x=np.ldexp(x, kp), y=np.ldexp(y, kp), ratio=ratio,
                        simplex_index=s.argmax_simplex, anchor_vertex=k)


def classify(m: InducedMap | DerivedMap, tol: float = DEFAULT_TOL) -> Classification:
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
    return Classification(verdict=verdict, summary=s, map=m, tol=tol)


@dataclass(frozen=True)
class CriticalRescale:
    lam: float
    classification: Classification
    scaled_target: Shape


def scale_critical(p: Shape, q: Shape) -> CriticalRescale:
    """Homothety factor making P -> lambda*Q a critical weak compression.

    lambda = 1/sqrt(global alpha_max), after which the rescaled map has
    global alpha_max = 1 (P -> Q's spectrum divided by it) and an extremal pair
    of ratio 1.  It is 2^(k_P - k_Q) / sqrt(max ``spectrum``), so it keeps every
    digit where alpha_max is subnormal.  Raises ``NonFiniteResult`` unless
    0 < alpha_max < inf and lambda Q is finite.
    """
    s = spectral_summary(m := induced_map(p, q))
    lam = np.ldexp(1.0 / np.sqrt(m.spectrum[:, -1].max()), p.exponent - q.exponent)
    with np.errstate(over="ignore"):  # lambda Q past the float range is no shape
        if not np.isfinite(coords := q.coords * lam).all():
            raise NonFiniteResult(f"lambda Q overflows (lambda = {lam})")
    scaled = Shape(q.polytope, coords, q.mode)
    return CriticalRescale(lam=float(lam),
                           classification=classify(DerivedMap(p, scaled, m.alphas / s.alpha_max)),
                           scaled_target=scaled)


@dataclass(frozen=True)
class OrderResult:
    relation: str  # "P<=Q" | "Q<=P" | "both" | "incomparable"
    forward: Classification
    backward: Classification


def compare_order(p: Shape, q: Shape, tol: float = DEFAULT_TOL) -> OrderResult:
    """Position of two shapes in the weak-compression partial order.

    "both" means the shapes are isometric: every singular value of every
    per-simplex matrix equals 1 within tolerance.  Q -> P inverts P -> Q on
    every chain, so its spectrum is the reciprocal one, in reverse order.
    """
    forward = classify(m := induced_map(p, q), tol)
    if chain_stack(q).degenerate.any():
        induced_map(q, p)  # raises the DegenerateSimplex of a flat source
    with np.errstate(divide="ignore", over="ignore"):  # an underflowed alpha gives inf
        inverse = 1.0 / m.alphas[:, ::-1]
    backward = classify(DerivedMap(q, p, inverse), tol)
    relation = {(True, True): "both", (True, False): "P<=Q", (False, True): "Q<=P"}.get(
        (forward.is_weak_compression, backward.is_weak_compression), "incomparable")
    return OrderResult(relation=relation, forward=forward, backward=backward)


@dataclass(frozen=True)
class Perturbation:
    """First-order analysis of a vertex-velocity field on a simplex shape."""

    symmetric_part: np.ndarray
    eigenvalues: np.ndarray
    infinitesimal_weak_compression: bool


def perturbation_classify(p: Shape | np.ndarray, velocities) -> Perturbation:
    """Is moving the vertices along ``velocities`` an infinitesimal weak compression?

    The criterion is that the symmetric part of the reduced matrix of
    V P^{-1} is negative semidefinite.  ``velocities`` has one row per
    vertex, matching the coordinate layout of the shape.
    """
    coords = np.asarray(getattr(p, "coords", p), dtype=float)
    vel = np.asarray(velocities, dtype=float)
    if vel.shape != coords.shape:
        raise ValueError("velocities must match the vertex coordinate layout")
    d = coords.shape[1]
    if coords.shape[0] != d + 1:
        raise ValueError("perturbation analysis applies to simplex shapes")
    if degenerate(coords):
        raise SingularSimplex("simplex shape is affinely degenerate")
    wbar = affine_correspondence(coords, vel).linear  # the velocity field's linear part
    sym = wbar + wbar.T
    eig = np.linalg.eigvalsh(sym)
    return Perturbation(
        symmetric_part=sym,
        eigenvalues=eig,
        infinitesimal_weak_compression=bool(eig[-1] <= DEFAULT_TOL),
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


def distance_derivative(shape: Shape, velocities, x: PointOnShape, y: PointOnShape) -> float:
    """Central finite difference, step 1e-6, of t -> ||x(t) - y(t)|| at t = 0, on the
    shape's mantissas and the velocities over the same power of two."""
    vel = np.asarray(velocities, dtype=float)
    if vel.shape != shape.coords.shape:
        raise ValueError("velocities must match the vertex coordinate layout")

    def gap(t: float) -> float:
        coords = shape.mantissas + t * np.ldexp(vel, -shape.exponent)
        return _lengths(x.resolve(coords) - y.resolve(coords))

    return float(np.ldexp((gap(1e-6) - gap(-1e-6)) / 2e-6, shape.exponent))
