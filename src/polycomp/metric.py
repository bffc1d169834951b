"""The compression metric on projective shape space.

For simplices the distance is ln(alpha_max / alpha_min) of the eigenvalues
of Abar^T Abar; it vanishes exactly on homothety-plus-isometry classes.
For general polytopes it is the maximum of the simplex distances over
corresponding chain simplices of the barycentric subdivisions.  Cauchy and
convergence checks over shape sequences provide finite evidence for the
completion behaviour of the metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import affine_correspondence, degenerate
from .barycentric import barycentric_complex, chain_simplex_coords, require_same_polytope
from .errors import DegenerateSimplex, SingularSimplex
from .generators import random_rotation
from .polytopes import Shape


def _deltas(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Simplex distances over (t, d+1, d) stacks; ``SingularSimplex`` names
    the first simplex degenerate in the target or, failing that, the source."""
    bad_tgt = degenerate(tgt)
    if bad_tgt.any():  # else affine_correspondence names the first degenerate source
        bad = np.flatnonzero(bad_tgt | degenerate(src))
        side = "target" if bad_tgt[bad[0]] else "source"
        raise SingularSimplex(f"{side} simplex is affinely degenerate", int(bad[0]))
    alphas = affine_correspondence(src, tgt).gram_eigenvalues()
    return np.log(alphas[:, -1] / alphas[:, 0])


def delta_simplex(p: Shape, q: Shape) -> float:
    """Compression distance between two simplex shapes."""
    if not p.polytope.is_simplex or not q.polytope.is_simplex:
        raise ValueError("delta_simplex applies to simplex shapes")
    require_same_polytope(p, q)
    return float(_deltas(p.coords[None], q.coords[None])[0])


def per_chain_deltas(p: Shape, q: Shape) -> np.ndarray:
    """Simplex distances over corresponding barycentric chain simplices."""
    require_same_polytope(p, q)
    complex_ = barycentric_complex(p.polytope)
    try:
        return _deltas(chain_simplex_coords(complex_, p), chain_simplex_coords(complex_, q))
    except SingularSimplex as exc:
        raise DegenerateSimplex(f"chain {exc.index} is degenerate") from exc


def delta_polytope(p: Shape, q: Shape) -> float:
    """Compression distance between two polytope shapes.

    Simplex polytopes use the single vertex-correspondence map directly;
    the barycentric chains of a simplex all inherit that same map, so the
    two computations agree.
    """
    require_same_polytope(p, q)
    if p.polytope.is_simplex:
        try:
            return float(_deltas(p.coords[None], q.coords[None])[0])
        except SingularSimplex as exc:
            raise DegenerateSimplex(str(exc)) from exc
    return float(per_chain_deltas(p, q).max())


def is_homothetic(p: Shape, q: Shape, tol: float = 1e-9) -> bool:
    """Do the two shapes differ by an isometry and a uniform scale?

    Checked on pairwise vertex distances: all ratios equal within tol.
    """
    n = p.coords.shape[0]
    iu = np.triu_indices(n, k=1)
    dp = np.linalg.norm(p.coords[iu[0]] - p.coords[iu[1]], axis=1)
    dq = np.linalg.norm(q.coords[iu[0]] - q.coords[iu[1]], axis=1)
    ratios = dq / dp
    return bool(ratios.max() - ratios.min() <= tol * max(1.0, ratios.max()))


@dataclass(frozen=True)
class MetricAxiomReport:
    count: int
    delta_matrix: np.ndarray
    symmetry_violations: tuple
    identity_violations: tuple
    positivity_violations: tuple
    triangle_violations: tuple

    @property
    def passed(self) -> bool:
        return not (self.symmetry_violations or self.identity_violations
                    or self.positivity_violations or self.triangle_violations)


def metric_axiom_suite(shapes, *, seed: int = 0, tol_sym: float = 1e-12,
                       tol_id: float = 1e-10, tol_tri: float = 1e-9,
                       tol_pos: float = 1e-10) -> MetricAxiomReport:
    """Check symmetry, identity under homothety/isometry, positivity and the
    triangle inequality on all pairs and triples of the given shapes."""
    shapes = list(shapes)
    if len(shapes) < 3:
        raise ValueError("need at least three shapes")
    n = len(shapes)
    delta = np.zeros((n, n))
    sym_viol = []
    for i in range(n):
        for j in range(n):
            if i != j:
                delta[i, j] = delta_polytope(shapes[i], shapes[j])
    for i in range(n):
        for j in range(i + 1, n):
            if abs(delta[i, j] - delta[j, i]) > tol_sym:
                sym_viol.append((i, j, abs(delta[i, j] - delta[j, i])))

    rng = np.random.default_rng(seed)
    id_viol = []
    d = shapes[0].polytope.dimension
    for i, s in enumerate(shapes):
        lam = rng.uniform(0.1, 10.0)
        rot = random_rotation(rng, d)
        t = rng.uniform(-1.0, 1.0, d)
        moved = s.scaled(lam).transformed(rotation=rot, translation=t)
        dd = delta_polytope(s, moved)
        if dd > tol_id:
            id_viol.append((i, dd))

    pos_viol = []
    for i in range(n):
        for j in range(i + 1, n):
            homothetic = is_homothetic(shapes[i], shapes[j])
            if homothetic and delta[i, j] > tol_id:
                pos_viol.append((i, j, delta[i, j], "homothetic but delta > 0"))
            if not homothetic and delta[i, j] <= tol_pos:
                pos_viol.append((i, j, delta[i, j], "distinct classes but delta ~ 0"))

    tri_viol = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3:
                    excess = delta[i, k] - delta[i, j] - delta[j, k]
                    if excess > tol_tri:
                        tri_viol.append((i, j, k, excess))

    return MetricAxiomReport(
        count=n,
        delta_matrix=delta,
        symmetry_violations=tuple(sym_viol),
        identity_violations=tuple(id_viol),
        positivity_violations=tuple(pos_viol),
        triangle_violations=tuple(tri_viol),
    )


@dataclass(frozen=True)
class CauchyResult:
    cauchy: bool
    first_violation: tuple[int, int] | None


def _cauchy_scan(n: int, window: int, eps: float, delta) -> CauchyResult:
    """First pair i < j, both >= window, with delta(i, j) >= eps, in row order."""
    for i in range(window, n):
        for j in range(i + 1, n):
            if delta(i, j) >= eps:
                return CauchyResult(False, (i, j))
    return CauchyResult(True, None)


def is_cauchy(shapes, window: int, eps: float) -> CauchyResult:
    """All pairs with both indices >= window must satisfy delta < eps."""
    shapes = list(shapes)
    return _cauchy_scan(len(shapes), window, eps,
                        lambda i, j: delta_polytope(shapes[i], shapes[j]))


def converges_to(shapes, limit: Shape, eps: float, slack: float = 1e-9) -> bool:
    """Distances to the limit must fall below eps and trend monotonically
    down over the trailing quarter of the sequence."""
    return _tail_converges([delta_polytope(s, limit) for s in shapes], eps, slack)


def _tail_converges(dists, eps: float, slack: float = 1e-9) -> bool:
    m = max(2, len(dists) // 4)
    tail = dists[-m:]
    if any(t >= eps for t in tail):
        return False
    return all(tail[i + 1] <= tail[i] + slack for i in range(len(tail) - 1))


@dataclass(frozen=True)
class SequenceReport:
    """Pairwise distance matrix of a shape sequence with Cauchy statistics."""

    delta_matrix: np.ndarray
    window: int
    eps: float
    cauchy: bool
    first_violation: tuple[int, int] | None
    limit_deltas: np.ndarray | None = None
    converges: bool | None = None


def sequence_report(shapes, window: int, eps: float,
                    limit: Shape | None = None) -> SequenceReport:
    shapes = list(shapes)
    n = len(shapes)
    delta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            delta[i, j] = delta[j, i] = delta_polytope(shapes[i], shapes[j])
    cauchy = _cauchy_scan(n, window, eps, lambda i, j: delta[i, j])
    limit_deltas = None
    conv = None
    if limit is not None:
        limit_deltas = np.array([delta_polytope(s, limit) for s in shapes])
        conv = _tail_converges(limit_deltas, eps)
    return SequenceReport(delta_matrix=delta, window=window, eps=eps,
                          cauchy=cauchy.cauchy,
                          first_violation=cauchy.first_violation,
                          limit_deltas=limit_deltas, converges=conv)
