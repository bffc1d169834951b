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
from functools import cached_property, lru_cache

import numpy as np

from .affine import DET_TOL, degenerate, edges, gram_eigenvalues, prescaled, solve_correspondence
from .barycentric import DerivedMap, InducedMap, chain_stack, induced_map, require_same_polytope
from .errors import NonFiniteResult, SingularSimplex
from .polytopes import DEFAULT_TOL, Shape

COMPRESSION = "Compression"
WEAK_COMPRESSION = "WeakCompressionNotStrict"
NOT_WEAK_COMPRESSION = "NotWeakCompression"


def _lengths(v: np.ndarray) -> np.ndarray:
    """Row norms sqrt(v . v), to the bit wherever the squares neither over- nor
    underflow, and finite at any scale.  With every |entry| at most 2^400 and
    every sum of squares at least 2^-800 that is sqrt(v . v) itself (a square
    that underflows lies below its sum's last bit); otherwise each row is first
    divided by the power of two above its largest |entry|, which is exact."""
    if np.abs(v).max() <= 2.0 ** 400 and (s := np.vecdot(v, v)).min() >= 2.0 ** -800:
        return np.sqrt(s)
    k = np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1]
    w = np.ldexp(v, -k)
    return np.ldexp(np.sqrt(np.vecdot(w, w)), k[..., 0])


@lru_cache(maxsize=4)  # a request reads P and Q, a rescale also lambda Q
def _edge_lengths(shape: Shape) -> np.ndarray:
    """``_lengths`` of a shape's 1-faces, in ``edge_array`` order, as one read-only array
    per shape (shapes key by identity)."""
    edges = shape.polytope.edge_array
    lengths = _lengths(shape.coords[edges[:, 0]] - shape.coords[edges[:, 1]])
    lengths.setflags(write=False)
    return lengths


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
    edge_contracting: bool
    summary: SpectralSummary
    map: InducedMap | DerivedMap

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
    polytope, from each shape's cached ``_edge_lengths``."""
    require_same_polytope(p, q)
    src, tgt = _edge_lengths(p), _edge_lengths(q)
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
    sqrt(alpha_max).
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
    ratio = float(_lengths(corr.linear @ step) / _lengths(step))
    return ExtremalPair(x=x, y=y, ratio=ratio, simplex_index=s.argmax_simplex, anchor_vertex=k)


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
    edges = edge_contraction_check(m.source, m.target, tol)
    return Classification(
        verdict=verdict,
        edge_contracting=edges.all_contracting,
        summary=s,
        map=m,
    )


@dataclass(frozen=True)
class CriticalRescale:
    lam: float
    classification: Classification
    scaled_target: Shape


def scale_critical(p: Shape, q: Shape) -> CriticalRescale:
    """Homothety factor making P -> lambda*Q a critical weak compression.

    lambda = 1/sqrt(global alpha_max), after which the rescaled map has
    global alpha_max = 1 (P -> Q's spectrum divided by it) and an extremal pair
    of ratio 1.  Raises ``NonFiniteResult`` unless 0 < alpha_max < inf.
    """
    s = spectral_summary(m := induced_map(p, q))
    lam = 1.0 / np.sqrt(s.alpha_max)
    if s.alpha_max < np.finfo(float).tiny:  # subnormal, short of digits: prescale each piece
        linear, k = prescaled(m.maps.linear)
        lam = 1.0 / np.ldexp(np.sqrt(gram_eigenvalues(linear)[:, -1]), k).max()
    scaled = q.scaled(lam)
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
    coords = p.coords if isinstance(p, Shape) else np.asarray(p, dtype=float)
    vel = np.asarray(velocities, dtype=float)
    if vel.shape != coords.shape:
        raise ValueError("velocities must match the vertex coordinate layout")
    d = coords.shape[1]
    if coords.shape[0] != d + 1:
        raise ValueError("perturbation analysis applies to simplex shapes")
    if degenerate(coords):
        raise SingularSimplex("simplex shape is affinely degenerate")
    wbar = solve_correspondence(edges(coords), edges(vel))  # the velocity field's linear part
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
    """Central finite difference, step 1e-6, of t -> ||x(t) - y(t)|| at t = 0."""
    vel = np.asarray(velocities, dtype=float)
    if vel.shape != shape.coords.shape:
        raise ValueError("velocities must match the vertex coordinate layout")

    def gap(t: float) -> float:
        coords = shape.coords + t * vel
        return float(_lengths(x.resolve(coords) - y.resolve(coords)))

    return (gap(1e-6) - gap(-1e-6)) / 2e-6
