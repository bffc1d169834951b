"""The d = 2 closed forms of ``affine`` against exact oracles.

For A = [[p, q], [r, s]] the Gram eigenvalues alpha_min <= alpha_max are the roots
of x^2 - T x + det(A)^2 with T = ||A||_F^2: alpha_min + alpha_max = ||A||_F^2 and
alpha_min alpha_max = det(A)^2 hold exactly, and both sides are exact ``Fraction``s
of the input doubles.  The oracle takes the roots and the log of their ratio in
50-digit ``decimal``, so it shares no code with the closed forms, nor with LAPACK.
The bounds are in units of eps = 2^-52 and grow with kappa = sigma_1 / sigma_2,
the condition of the smaller singular value; a Gram eigensolver's grow with kappa^2.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from polycomp.affine import (
    affine_correspondence,
    determinant,
    edge_inverses,
    edges,
    gram_eigenvalues,
    linear_parts,
)
from polycomp.metric import _log_spread

EPS = 2.0**-52


def decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def exact_spectrum(a):
    """alpha_min, alpha_max and ln(alpha_max / alpha_min) of a 2 x 2 float matrix, as
    50-digit Decimals, from its exact Frobenius norm and determinant."""
    p, q, r, s = (Fraction(float(x)) for x in np.ravel(a))
    total, product = p * p + q * q + r * r + s * s, (p * s - q * r) ** 2
    with localcontext() as ctx:
        ctx.prec = 50
        high = (decimal(total) + decimal(total * total - 4 * product).sqrt()) / 2
        low = decimal(product) / high
        return low, high, (high / low).ln()


def assert_spectrum(a, alphas=(), delta=None):
    """Each given alpha within 8 (1 + kappa) eps relative of the oracle, and a given
    delta within 16 (1 + kappa) eps absolute."""
    low, high, log = exact_spectrum(a)
    kappa = float((high / low).sqrt())
    for g, w in zip(alphas, (low, high)):
        assert abs(Decimal(float(g)) - w) <= Decimal(8 * (1 + kappa) * EPS) * w, (a, g, w)
    if delta is not None:
        assert abs(Decimal(float(delta)) - log) <= Decimal(16 * (1 + kappa) * EPS), a


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def spectra_cases():
    rng = np.random.default_rng(27)
    yield "random", rng.standard_normal((200, 2, 2))
    # c R(theta) (I + 1e-4 N): a converging sequence's chain maps, both orientations.
    near = np.array([c * rotation(t) @ (np.eye(2) + 1e-4 * rng.standard_normal((2, 2)))
                     for c, t in zip(rng.uniform(0.1, 10.0, 100), rng.uniform(0, 6.3, 100))])
    yield "near-homothety", near
    yield "near-homothety-reversing", near * [1.0, -1.0]
    reversing = rng.standard_normal((100, 2, 2))
    reversing[np.linalg.det(reversing) > 0] *= [1.0, -1.0]  # det < 0, so D > S
    yield "reversing", reversing
    yield "ill-conditioned", np.array([rotation(t) @ np.diag([1.0, 10.0**-e]) @ rotation(u)
                                       for t, u, e in rng.uniform(0, 6.3, (60, 3)) * [1, 1, 1.3]])


@pytest.mark.parametrize("name,stack", list(spectra_cases()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_gram_eigenvalues_match_the_exact_oracle(name, stack):
    alphas = gram_eigenvalues(stack)
    deltas = _log_spread(stack, alphas)
    assert (alphas[:, 0] <= alphas[:, 1]).all()
    for a, got, delta in zip(stack, alphas, deltas):
        assert_spectrum(a, got, delta)


def test_reversing_maps_take_the_other_hypot():
    # det A < 0 swaps the roles of S = hypot(p + s, r - q) and D = hypot(p - s, r + q):
    # sigma_1 = (S + D) / 2 either way, and sigma_2 = |S - D| / 2.
    a = np.array([[1.0, 2.0], [3.0, -1.0]])
    p, q, r, s = a.ravel()
    assert np.hypot(p - s, r + q) > np.hypot(p + s, r - q)
    assert_spectrum(a, gram_eigenvalues(a))
    assert gram_eigenvalues(a).tolist() == gram_eigenvalues(a[:, ::-1]).tolist()


def test_far_scales_sit_next_to_normal_maps_in_one_stack():
    rng = np.random.default_rng(28)
    normal = rng.standard_normal((5, 2, 2))
    stack = np.concatenate([normal[:2], 1e-160 * normal[2:3], 1e200 * normal[3:4],
                            np.zeros((1, 2, 2)), normal[4:]])
    alphas = gram_eigenvalues(stack)
    # Each map's alphas are its own: the same bits alone as in the stack.
    for a, got in zip(stack, alphas):
        assert gram_eigenvalues(a).tolist() == got.tolist()
    assert alphas[4].tolist() == [0.0, 0.0]
    assert np.isinf(alphas[3]).all()  # about 1e400: the inf contract
    assert 0.0 < alphas[2, 0] <= alphas[2, 1] < np.finfo(float).tiny  # subnormal
    for i in (0, 1, 5):
        assert_spectrum(stack[i], alphas[i])
    # The log spread rescales every map exactly, so the far ones keep their digits.
    keep = [0, 1, 2, 3, 5]
    for a, delta in zip(stack[keep], _log_spread(stack[keep], alphas[keep])):
        assert_spectrum(a, delta=delta)


def exact_inverse(e):
    """E^{-1} of a 2 x 2 float matrix as Fractions: its adjugate over its determinant."""
    p, q, r, s = (Fraction(float(x)) for x in np.ravel(e))
    det = p * s - q * r
    return [[s / det, -q / det], [-r / det, p / det]]


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_edge_inverses_match_the_exact_adjugate(scale):
    rng = np.random.default_rng(29)
    e = scale * rng.standard_normal((100, 2, 2))
    flat = np.zeros(len(e), dtype=bool)
    flat[7] = True
    inv = edge_inverses(e, flat)
    assert inv[7].tolist() == np.eye(2).tolist()  # a flagged matrix is not inverted
    for i in np.flatnonzero(~flat):
        want = exact_inverse(e[i])
        size = max(abs(w) for row in want for w in row)
        kappa = float(np.linalg.cond(e[i]))
        for g, w in zip(inv[i].ravel(), (w for row in want for w in row)):
            assert abs(Fraction(float(g)) - w) <= Fraction(4 * (1 + kappa) * EPS) * size


def test_per_pair_and_stacked_linear_parts_share_their_bits():
    rng = np.random.default_rng(30)
    src, tgt = rng.standard_normal((2, 50, 3, 2))
    stacked = linear_parts(edge_inverses(edges(src), np.zeros(50, dtype=bool)), edges(tgt))
    assert affine_correspondence(src, tgt).linear.tolist() == stacked.tolist()
    for i in range(3):
        assert affine_correspondence(src[i], tgt[i]).linear.tolist() == stacked[i].tolist()


def test_determinant_matches_the_exact_one():
    rng = np.random.default_rng(31)
    for e in rng.standard_normal((100, 2, 2)):
        p, q, r, s = (Fraction(float(x)) for x in e.ravel())
        size = abs(p * s) + abs(q * r)
        assert abs(Fraction(float(determinant(e))) - (p * s - q * r)) <= Fraction(2 * EPS) * size
