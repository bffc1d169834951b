"""The d = 2 and d = 4 closed forms of ``affine`` against exact oracles and LAPACK.

For A = [[p, q], [r, s]] the Gram eigenvalues alpha_min <= alpha_max are the roots
of x^2 - T x + det(A)^2 with T = ||A||_F^2: alpha_min + alpha_max = ||A||_F^2 and
alpha_min alpha_max = det(A)^2 hold exactly, and both sides are exact ``Fraction``s
of the input doubles.  The oracle takes the roots and the log of their ratio in
50-digit ``decimal``, so it shares no code with the closed forms, nor with LAPACK.
The bounds are in units of eps = 2^-52 and grow with kappa = sigma_1 / sigma_2,
the condition of the smaller singular value; a Gram eigensolver's grow with kappa^2.
The d = 4 determinant and inverse are checked against exact rational elimination.
The pleat path's own closed forms, ``lifting``'s stacked Gram-Schmidt R and 2 x 2
square root, are checked against 50-digit Cholesky factors and roots of the exact
rational input, under the bounds that LAPACK's QR and ``eigh`` meet on the same inputs.
"""

import warnings

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from polycomp import (
    Shape,
    barycentric,
    classify,
    compare_order,
    delta_polytope,
    induced_map,
    scale_critical,
)
from polycomp import NotPSD, affine, symmetric_sqrt
from polycomp.lifting import PSD_CLAMP, _gram_schmidt
from polycomp.affine import (
    DET_TOL,
    affine_correspondence,
    determinant,
    edge_inverses,
    edges,
    gram_eigenvalues,
    linear_parts,
)
from polycomp.metric import _log_spread
from polycomp.polytopes import split_scale
from test_chain_kernel import projective_cube

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
    deltas = _log_spread(alphas)
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
    # A delta reads maps between mantissas: a far map over a power of two (exact),
    # whose alphas, in the normal range, keep their digits.
    keep = [0, 1, 2, 3, 5]
    unit = np.stack([split_scale(a)[0] for a in stack[keep]])
    for a, delta in zip(stack[keep], _log_spread(gram_eigenvalues(unit))):
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


# d = 4: the determinant and the inverse as a Laplace expansion in 2 x 2 minors.
# Each cofactor and the determinant is a short sum of products of the entries, so
# their errors are a few eps times the products of the row norms they involve.
# Over H = prod |row_i| / |det| >= 1, the Hadamard ratio, the inverse is good to a
# few eps H normwise; LU's is good to a few eps kappa.  H <= kappa when one
# singular value is small, as on a nearly flat simplex, but up to about kappa^3
# when several are.


def exact_det4(m):
    """det of a 4 x 4 float matrix as a Fraction, by exact elimination."""
    return exact_solve4(m)[0]


def exact_solve4(m):
    """det and E^{-1} of a nonsingular 4 x 4 float matrix as Fractions: Gauss-Jordan."""
    a = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j)) for j in range(4)]
         for i, row in enumerate(np.asarray(m))]
    det = Fraction(1)
    for c in range(4):
        p = next((r for r in range(c, 4) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            a[c], a[p], det = a[p], a[c], -det
        det *= a[c][c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(4):
            if r != c and a[r][c] != 0:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return det, [row[4:] for row in a]


def orthogonal4(rng):
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


def conditioned_stacks(rng, count=60):
    """(name, stack) of U diag(sigma) V^T with kappa = sigma_1 / sigma_4 log-uniform up
    to 1e8: one small singular value, log-uniform ones, and geometric ones."""
    kappas = 10.0 ** rng.uniform(0, 8, count)
    spectra = {
        "one-small": [[1.0, *rng.uniform(0.3, 1.0, 2), 1 / k] for k in kappas],
        "log-uniform": [[1.0, *k ** -rng.uniform(0, 1, 2), 1 / k] for k in kappas],
        "geometric": [k ** -np.linspace(0, 1, 4) for k in kappas],
    }
    for name, sigmas in spectra.items():
        yield name, np.array([orthogonal4(rng) @ np.diag(s) @ orthogonal4(rng) for s in sigmas])


def test_4x4_determinant_and_inverse_match_the_exact_ones():
    rng = np.random.default_rng(33)
    for name, stack in conditioned_stacks(rng):
        dets, invs = determinant(stack), edge_inverses(stack, np.zeros(len(stack), dtype=bool))
        for m, det, inv in zip(stack, dets, invs):
            want_det, want_inv = exact_solve4(m)
            rows = float(np.prod(np.linalg.norm(m, axis=1)))
            assert abs(Fraction(float(det)) - want_det) <= Fraction(4 * EPS * rows), name
            want = np.array([[float(w) for w in row] for row in want_inv])
            hadamard, kappa = rows / abs(float(want_det)), float(np.linalg.cond(m))
            error = np.linalg.norm(inv - want, 2) / np.linalg.norm(want, 2)
            assert error <= 4 * EPS * hadamard, name
            if name == "one-small":
                assert error <= 4 * EPS * kappa
            # LAPACK's inverse, to the sum of both bounds.
            lapack = np.linalg.inv(m)
            bound = 4 * EPS * (hadamard + kappa) * np.linalg.norm(lapack, 2)
            assert np.linalg.norm(inv - lapack, 2) <= bound


def test_4x4_forms_keep_their_bits_alone_and_in_any_stack():
    rng = np.random.default_rng(34)
    stack = rng.standard_normal((3, 5, 4, 4))
    dets, invs = determinant(stack), edge_inverses(stack, np.zeros((3, 5), dtype=bool))
    assert invs.flags.c_contiguous and not np.shares_memory(invs, stack)
    for i, j in ((0, 0), (1, 3), (2, 4)):
        m = stack[i, j].copy()
        assert determinant(m).tobytes() == dets[i, j].tobytes()
        assert affine._inverse(m).tobytes() == invs[i, j].tobytes()
        assert m.tobytes() == stack[i, j].tobytes()  # the input is not scaled in place
        assert determinant(np.swapaxes(stack, -1, -2)[i, j]) == determinant(m.T)


def lapack_flat(e):
    """``_flat`` as it reads with LAPACK's determinant."""
    e = np.asarray(e, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        long2 = np.vecdot(e, e).max(axis=-1)
        if not 1e-40 < long2.min() <= long2.max() < 1e40:
            size = np.abs(e).reshape(e.shape[:-2] + (-1,)).max(axis=-1)[..., None, None]
            e = e / np.where(size > 0, size, 1.0)
            long2 = np.vecdot(e, e).max(axis=-1)
        return np.abs(np.linalg.det(e)) <= DET_TOL * long2 ** 2


def test_4x4_flatness_at_the_bound_matches_lapack():
    # Rows 1-3 are shorter than row 0, and row 3 is a combination of rows 0-2 moved
    # along their cofactor vector until det is +-DET_TOL (1 -+ 1e-3) |row 0|^4.  The
    # exact determinant lands within 2.5e-4 of that, so it decides each side.
    rng = np.random.default_rng(35)
    stack, want = [], []
    for ratio in np.resize([1 - 1e-3, 1 + 1e-3], 80):
        m = rng.standard_normal((4, 4))
        m *= [[1.0], [0.5], [0.5], [0.5]] / np.linalg.norm(m, axis=1, keepdims=True)
        m[3] = rng.uniform(-0.3, 0.3, 3) @ m[:3]
        normal = np.array([float(exact_det4(np.vstack([m[:3], row]))) for row in np.eye(4)])
        target = rng.choice([-1.0, 1.0]) * ratio * DET_TOL * float(m[0] @ m[0]) ** 2
        m[3] += (target - float(exact_det4(m))) * normal / (normal @ normal)
        exact = abs(exact_det4(m)) / (Fraction(DET_TOL) * sum(Fraction(x) ** 2 for x in m[0]) ** 2)
        assert abs(exact - Fraction(ratio)) <= Fraction(1, 4000)
        stack.append(m)
        want.append(exact <= 1)
    stack = np.array(stack)
    for scale in (1.0, 2.0**-600, 2.0**600, 1e-300, 1e300):
        assert affine._flat(stack * scale).tolist() == want
        assert lapack_flat(stack * scale).tolist() == want


def test_4x4_zero_nan_and_inf_rows_are_flagged_as_with_lapack():
    rng = np.random.default_rng(36)
    stack = np.repeat(rng.standard_normal((1, 4, 4)), 9, axis=0)
    stack[1, 2] = 0.0
    stack[2] = 0.0
    stack[3, 1, 2] = np.nan
    stack[4, 0] = np.nan
    stack[5, 3, 0] = np.inf
    stack[6, 2] = -np.inf
    stack[7, 1] = stack[7, 0]
    stack[8, 0, 0] = 1e300  # |det| / |row 0|^4 is about 1e-900: flat
    got = affine._flat(stack)
    assert got.tolist() == lapack_flat(stack).tolist()
    assert got.tolist() == [False, True, True, False, False, False, False, True, True]


def unit_scaled(*shapes):
    """The shapes' coordinates over the power of two above P's largest |entry|: exact."""
    k = split_scale(shapes[0].coords)[1]
    return [Shape(s.polytope, np.ldexp(s.coords, -k), s.mode) for s in shapes]


def test_4x4_kernel_alphas_keep_their_bits_at_far_scales():
    # 2^k leaves the shapes' mantissas as they were, so the chains and their solve are
    # the unscaled pair's; a scale of 1e+-300 rounds the coordinates, whose power-of-two
    # image is then the unscaled pair, and its alphas stay within 1e-12 of the unit pair's.
    rng = np.random.default_rng(37)
    for _ in range(3):
        p, q = projective_cube(rng, 4), projective_cube(rng, 4)
        want = induced_map(p, q).alphas
        for scale in (2.0**-600, 2.0**600, 1e-300, 1e300):
            far = induced_map(p.scaled(scale), q.scaled(scale)).alphas
            if scale in (1e-300, 1e300):
                unit = induced_map(*unit_scaled(p.scaled(scale), q.scaled(scale)))
                assert far.tobytes() == unit.alphas.tobytes()
                np.testing.assert_allclose(far, want, rtol=1e-12, atol=0)
            else:
                assert far.tobytes() == want.tobytes()


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def lapack_inverse(e):
    return np.linalg.inv(e)


def entry_point_values(p, q):
    """The floats that classify, compare_order, scale_critical and delta_polytope report."""
    c, order, rescale = classify(induced_map(p, q)), compare_order(p, q), scale_critical(p, q)
    return ([c.summary.alpha_min, c.summary.alpha_max, rescale.lam, delta_polytope(p, q),
             order.backward.summary.alpha_min, order.backward.summary.alpha_max,
             rescale.classification.summary.alpha_max],
            [c.verdict, order.relation, rescale.classification.verdict])


def test_4x4_entry_points_match_a_lapack_reference(monkeypatch):
    rng = np.random.default_rng(38)
    pairs = [(projective_cube(rng, 4), projective_cube(rng, 4)) for _ in range(20)]
    closed = [entry_point_values(p, q) for p, q in pairs]
    monkeypatch.setattr(affine, "determinant", np.linalg.det)
    monkeypatch.setattr(affine, "_inverse", lapack_inverse)
    barycentric.induced_map.cache_clear()
    barycentric.chain_stack.cache_clear()
    for (p, q), (values, verdicts) in zip(pairs, closed):
        want_values, want_verdicts = entry_point_values(p, q)
        assert verdicts == want_verdicts
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
    barycentric.induced_map.cache_clear()
    barycentric.chain_stack.cache_clear()


def test_an_overflowing_gram_reads_inf_and_leaves_its_neighbours_bits():
    rng = np.random.default_rng(39)
    stack = rng.standard_normal((5, 3, 3))
    alone = [gram_eigenvalues(a) for a in stack]
    stack[2, 1, 0] = 1e200  # its Gram overflows to inf
    alphas = gram_eigenvalues(stack)
    assert np.isinf(alphas[2]).all()
    for i in (0, 1, 3, 4):
        np.testing.assert_array_equal(alphas[i], alone[i])
        np.testing.assert_array_equal(alphas[i], np.linalg.eigvalsh(stack[i].T @ stack[i]))


def exact_r(a):
    """R of a = QR for a (w, k) float matrix, r_jj >= 0, as 50-digit Decimals: the
    Cholesky factor of its exact Gram, with a zero row for a zero column."""
    cols = [[Fraction(float(x)) for x in a[:, j]] for j in range(a.shape[1])]
    k = len(cols)
    with localcontext() as ctx:
        ctx.prec = 50
        gram = [[decimal(sum(x * y for x, y in zip(ci, cj))) for cj in cols] for ci in cols]
        r = [[Decimal(0)] * k for _ in range(k)]
        for j in range(k):
            rest = gram[j][j] - sum(r[i][j] ** 2 for i in range(j))
            r[j][j] = rest.sqrt() if rest > 0 else Decimal(0)
            for m in range(j + 1, k):
                if r[j][j]:
                    r[j][m] = (gram[j][m] - sum(r[i][j] * r[i][m] for i in range(j))) / r[j][j]
        return r


def frame_cases(rng, k):
    """(w, k) frames with singular values from 1 down to 1e-4 and 1e-8 of the largest,
    at several sizes and scales, then frames with a zero column."""
    for flatness in (1.0, 1e-4, 1e-8):
        for w in (k, k + 2, 12, 40):
            u = np.linalg.qr(rng.standard_normal((w, k)))[0]
            v = np.linalg.qr(rng.standard_normal((k, k)))[0]
            yield (u * np.geomspace(1.0, flatness, k)) @ v.T * 10.0 ** rng.integers(-3, 4)
    for zero in range(k):
        a = rng.standard_normal((7, k))
        a[:, zero] = 0.0
        yield a


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_schmidt_r_is_as_close_to_the_exact_one_as_lapacks(k):
    """Every entry within 4 eps ||A||_F of the exact R, the bound LAPACK's R (rows
    signed to a nonnegative diagonal) meets on the same frames; a zero column gives
    a zero row and column, and the frames come out orthogonal."""
    rng = np.random.default_rng(40 + k)
    for a in frame_cases(rng, k):
        want = exact_r(a)
        bound = Decimal(4 * EPS * float(np.linalg.norm(a)))
        frame = a.copy()
        got = _gram_schmidt(frame[None])[0]
        lapack = np.linalg.qr(a, mode="r")
        lapack *= np.where(np.diagonal(lapack) < 0, -1.0, 1.0)[:, None]
        zero = ~a.any(axis=0)
        # LAPACK's R of a frame with a zero column is another R of it, not the one here
        for r in (got,) if zero.any() else (got, lapack):
            assert max(abs(Decimal(float(r[i][j])) - want[i][j])
                       for i in range(k) for j in range(k)) <= bound, (a, r)
        assert (np.tril(got, -1) == 0.0).all() and (np.diagonal(got) >= 0.0).all()
        assert (got[zero] == 0.0).all() and (got[:, zero][zero] == 0.0).all()
        assert (frame[:, zero] == 0.0).all()
        if zero.all():
            continue
        # the columns are Q diag(r_jj): orthogonal to within the flatness of the frame
        q = frame[:, ~zero] / np.diagonal(got)[~zero]
        kappa = np.linalg.cond(a[:, ~zero])
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 64 * EPS * kappa


def test_gram_schmidt_keeps_a_frames_bits_in_any_block():
    """Frames laid out as the chain's blocks, (k, w, b) with zero rows past each
    frame's own, give each frame the bits it gets alone at its own width."""
    rng = np.random.default_rng(44)
    widths = rng.integers(2, 30, 9)
    frames = [rng.standard_normal((w, 2)) for w in widths]
    alone = [_gram_schmidt(np.ascontiguousarray(f.T)[:, :, None].T)[0] for f in frames]
    for group in (range(9), range(3, 5), range(0, 9, 4)):
        w = max(widths[i] for i in group)
        block = np.zeros((2, w, len(group)))
        for col, i in enumerate(group):
            block[:, :widths[i], col] = frames[i].T
        for col, r in enumerate(_gram_schmidt(block.T)):
            np.testing.assert_array_equal(r, alone[list(group)[col]])


def exact_sqrt2(s):
    """The PSD square root of a symmetric 2 x 2 float matrix (the mean of its two
    off-diagonal entries) as 50-digit Decimals: (S + sqrt(det S) I) / sqrt(tr S +
    2 sqrt(det S)), zero for S = 0."""
    a, c = Fraction(float(s[0, 0])), Fraction(float(s[1, 1]))
    b = (Fraction(float(s[0, 1])) + Fraction(float(s[1, 0]))) / 2
    with localcontext() as ctx:
        ctx.prec = 50
        root_det = decimal(a * c - b * b).sqrt()
        scale = (decimal(a + c) + 2 * root_det).sqrt()
        if not scale:
            return [[Decimal(0)] * 2 for _ in range(2)]
        return [[(decimal(x) + (root_det if i == j else 0)) / scale
                 for j, x in enumerate(row)] for i, row in enumerate(((a, b), (b, c)))]


def eigh_sqrt(s):
    eig, vec = np.linalg.eigh(s)
    root = vec @ np.diag(np.sqrt(np.clip(eig, 0.0, None))) @ vec.T
    return (root + root.T) / 2.0


def root_error(root, want):
    return max(abs(Decimal(float(root[i, j])) - want[i][j]) for i in range(2) for j in range(2))


def sqrt_cases(rng):
    for _ in range(60):
        g = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-3, 4)
        yield g.T @ g
    for _ in range(20):
        yield np.diag(rng.uniform(0.0, 2.0, 2) * 10.0 ** rng.integers(-3, 4))
    for v in ([3.0, 4.0], [1.0, 1.0], [0.0, 2.0], [5.0, -12.0], [0.6, 0.8]):
        yield np.outer(v, v)  # singular, with exact entries
    yield np.zeros((2, 2))


def test_2x2_square_root_is_as_close_to_the_exact_one_as_eighs():
    """Every entry within 4 eps (|sqrt S| + |S| / (sqrt lambda_min + sqrt(4 eps |S|)))
    of the exact root (|.| the largest |entry|), the bound that eigh's root meets on the
    same inputs: an error of 4 eps |S| in an eigenvalue moves its root by that much;
    a diagonal S gives the correctly rounded roots of its entries."""
    for s in sqrt_cases(np.random.default_rng(45)):
        want = exact_sqrt2(s)
        root = symmetric_sqrt(s)
        size = float(np.abs(s).max())
        lam = max(float(np.linalg.eigvalsh(s)[0]), 0.0)
        bound = 4 * EPS * (max(abs(float(x)) for row in want for x in row)
                           + (size / (np.sqrt(lam) + np.sqrt(4 * EPS * size)) if size else 0.0))
        for r in (root, eigh_sqrt(s)):
            assert root_error(r, want) <= Decimal(bound), (s, r)
        np.testing.assert_array_equal(root, root.T)
        if not s[0, 1]:
            np.testing.assert_array_equal(root, np.diag(np.sqrt(np.diagonal(s))))


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2])
def test_2x2_square_root_clamps_to_the_psd_bound_and_no_further(theta):
    rot = rotation(theta)
    for factor, raises in ((1 - 1e-3, False), (1 + 1e-3, True)):
        s = rot @ np.diag([1.0, -PSD_CLAMP * factor]) @ rot.T
        if raises:
            with pytest.raises(NotPSD):
                symmetric_sqrt(s)
        else:
            want = rot @ np.diag([1.0, 0.0]) @ rot.T
            np.testing.assert_allclose(symmetric_sqrt(s), want, rtol=0, atol=1e-7)


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_square_root_of_a_non_finite_matrix_is_a_value_error(size, bad):
    s = np.eye(size)
    s[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            symmetric_sqrt(s)
