"""The compression metric on projective shape space.

For simplices the distance is ln(alpha_max / alpha_min) of the eigenvalues
of Abar^T Abar; it vanishes exactly on homothety-plus-isometry classes.
For general polytopes it is the maximum of the simplex distances over
corresponding chain simplices of the barycentric subdivisions.  The Cauchy and
convergence verdicts of ``sequence_report`` over shape sequences provide finite
evidence for the completion behaviour of the metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affine import degenerate, edge_inverses, edges, gram_eigenvalues, linear_parts, prescaled
from .barycentric import chain_stack, induced_map, shape_pieces
from .errors import DegenerateSimplex, NonFiniteResult, PolytopeMismatch, SingularSimplex
from .polytopes import Shape

_TINY = np.finfo(float).tiny  # an alpha below the normal range has lost digits


def _log_spread(linear: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """ln(alpha_max / alpha_min) per piece from its linear part and Gram eigenvalues.
    If an alpha leaves the normal range, they are recomputed from the ``prescaled`` linear
    parts, which keeps the ratio; ``NonFiniteResult`` if one still leaves (0, inf)."""
    if not _TINY <= alphas.min() <= alphas.max() < np.inf:
        alphas = gram_eigenvalues(prescaled(linear)[0])
        if not 0.0 < alphas.min() <= alphas.max() < np.inf:
            raise NonFiniteResult("an eigenvalue of the map over- or underflows")
    return np.log(alphas[:, -1] / alphas[:, 0])


def _deltas(inv_src: np.ndarray, e_tgt: np.ndarray, flags) -> np.ndarray:
    """Simplex distances over (t, d, d) stacks of source edge inverses and target edge
    matrices; ``SingularSimplex`` names the first simplex that the ``degenerate`` flags
    (source, target) mark, the target winning a tie."""
    bad_src, bad_tgt = flags
    bad = np.flatnonzero(bad_tgt | bad_src)
    if bad.size:
        side = "target" if bad_tgt[bad[0]] else "source"
        raise SingularSimplex(f"{side} simplex is affinely degenerate", int(bad[0]))
    linear = linear_parts(inv_src, e_tgt)
    return _log_spread(linear, gram_eigenvalues(linear))


_BLOCK = 4096  # chain simplices per _deltas call: bounds peak memory on long requests


def _pair_deltas(shapes, pairs) -> np.ndarray:
    """Per-pair deltas of shapes[i] -> shapes[j] over (i, j) in ``pairs``.  The
    ``shape_pieces`` of all shapes come from one stacked build; each shape's edges are
    tested and inverted once, and the pairs gather them in blocks of about ``_BLOCK``
    simplices.  Every shape a pair names must realize the first pair's polytope: the
    first pair naming one that does not raises ``PolytopeMismatch`` once the pairs
    before it are solved.  A degenerate piece raises as a per-pair ``delta_polytope``
    loop would."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return np.zeros(0)
    poly = shapes[pairs[0, 0]].polytope
    same = np.array([s.polytope == poly for s in shapes])
    mismatched = np.flatnonzero(~same[pairs].all(axis=1))
    rows = (np.cumsum(same) - 1)[pairs[:mismatched[0]] if mismatched.size else pairs]
    x = shape_pieces(poly, np.stack([s.coords for s, ok in zip(shapes, same) if ok]))
    bad = degenerate(x)  # (S, t): each shape's chains tested once, gathered per pair
    inv = edge_inverses(e := edges(x), bad)
    t, d = bad.shape[1], poly.dimension
    step = max(1, _BLOCK // t)
    out = []
    for block in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
        src, tgt = block[:, 0], block[:, 1]
        try:
            delta = _deltas(inv[src].reshape(-1, d, d), e[tgt].reshape(-1, d, d),
                            (bad[src].ravel(), bad[tgt].ravel()))
        except SingularSimplex as exc:
            exc.index %= t  # the chain within its pair
            raise DegenerateSimplex(str(exc) if poly.is_simplex
                                    else f"chain {exc.index} is degenerate") from exc
        out.append(delta.reshape(-1, t).max(axis=1))
    if mismatched.size:
        raise PolytopeMismatch("shapes realize different combinatorial polytopes")
    return np.concatenate(out)


def per_chain_deltas(p: Shape, q: Shape) -> np.ndarray:
    """Simplex distances over the ``shape_pieces`` of the memoised ``induced_map(p, q)``.
    A degenerate piece in either shape raises through ``_pair_deltas``, as in a request."""
    if any(chain_stack(s).degenerate.any() for s in (p, q)):
        return _pair_deltas((p, q), [(0, 1)])
    m = induced_map(p, q)
    return _log_spread(m.maps.linear, m.alphas)


def delta_polytope(p: Shape, q: Shape) -> float:
    """Compression distance between two polytope shapes: the largest delta
    over the pieces of the induced map."""
    return float(np.max(per_chain_deltas(p, q)))


@dataclass(frozen=True)
class SequenceReport:
    """Pairwise distance matrix of a shape sequence with its Cauchy and convergence verdicts.

    ``first_violation`` is the first pair (i, j) in row order with i >= window, j > i
    and delta >= eps; ``cauchy`` holds when there is none.  Given a limit, ``converges``
    holds when, over the trailing quarter (at least two) of ``limit_deltas``, every
    distance is below eps and none exceeds the one before it by more than 1e-9."""

    delta_matrix: np.ndarray
    cauchy: bool
    first_violation: tuple[int, int] | None
    limit_deltas: np.ndarray | None = None
    converges: bool | None = None


def sequence_report(shapes, window: int, eps: float,
                    limit: Shape | None = None) -> SequenceReport:
    """The ``SequenceReport`` of a sequence (and its limit) from one stacked request."""
    shapes = list(shapes)
    n = len(shapes)
    iu = np.triu_indices(n, k=1)
    pairs = np.column_stack(iu)
    if limit is not None:  # the limit pairs ride in the same stacked request
        pairs = np.concatenate([pairs, np.column_stack([np.arange(n), np.full(n, n)])])
        shapes = shapes + [limit]
    deltas = _pair_deltas(shapes, pairs)
    delta = np.zeros((n, n))
    delta[iu] = delta[iu[::-1]] = deltas[:len(iu[0])]
    first = next(((i, j) for i in range(window, n) for j in range(i + 1, n)
                  if delta[i, j] >= eps), None)
    limit_deltas = converges = None
    if limit is not None:
        limit_deltas = deltas[len(iu[0]):]
        tail = limit_deltas[-max(2, n // 4):]
        converges = not (tail >= eps).any() and bool((tail[1:] <= tail[:-1] + 1e-9).all())
    return SequenceReport(delta, first is None, first, limit_deltas, converges)
