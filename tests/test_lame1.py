import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ellip_harm

from conftest import lame_reference
from ellharm.coords import cart_to_ell, new_system
from ellharm.errors import BranchPointDerivative, DegenerateEllipsoid, OrderOutOfRange
from ellharm.harmonics import build_normalization_table
from ellharm.lame1 import (LameClass, _horner, _padded, build_tridiagonal,
                           class_dim, class_of, eval_lame, eval_lame_condition,
                           eval_lame_derivative, eval_lame_second_derivative,
                           lame_function, lame_residual)


def test_class_of_examples():
    cls = class_of(2, 3)
    assert (cls.tag, cls.p_local) == ("L", 0)
    cls = class_of(0, 1)
    assert (cls.tag, cls.p_local) == ("K", 0)
    cls = class_of(5, 11)
    assert (cls.tag, cls.p_local) == ("N", 1)


def test_class_counts_sum():
    for n in range(13):
        assert sum(class_dim(t, n) for t in "KLMN") == 2 * n + 1


def test_class_of_rejects_bad_order():
    with pytest.raises(OrderOutOfRange):
        class_of(2, 6)
    with pytest.raises(OrderOutOfRange):
        class_of(2, 0)


@pytest.mark.parametrize("tag, n, p_local, message", [
    ("Q", 2, 0, "unknown class tag 'Q'"), ("K", 2, 2, "p_local=2 out of range"),
    ("N", 1, 0, "p_local=0 out of range"), ("L", 3, -1, "p_local=-1 out of range")])
def test_lame_class_rejects_unknown_tag_or_local_index(tag, n, p_local, message):
    with pytest.raises(OrderOutOfRange, match=message):
        LameClass(tag, n, p_local)


def test_overflowing_class_eigenproblem_is_a_degenerate_ellipsoid():
    # build_tridiagonal's entries scale with h^2 and k^2, so lower * upper
    # overflows on semiaxes near 1e100
    with pytest.raises(DegenerateEllipsoid, match="degree-2 Lame eigenproblem"):
        build_normalization_table(new_system(1e100, 8e99, 6e99), 4)


def test_constant_solution(sys215):
    f = lame_function(sys215, 0, 1)
    for s in (0.0, 0.7, 2.0, 5.0):
        assert eval_lame(f, s) == pytest.approx(1.0, abs=1e-14)


def test_degree1_closed_forms(sys215):
    h, k = sys215.h, sys215.k
    f1 = lame_function(sys215, 1, 1)
    f2 = lame_function(sys215, 1, 2)
    f3 = lame_function(sys215, 1, 3)
    for s in (2.1, 2.5, 3.3):
        assert eval_lame(f1, s) == pytest.approx(s, rel=1e-13)
        assert eval_lame(f2, s) == pytest.approx(math.sqrt(s * s - h * h), rel=1e-13)
        assert eval_lame(f3, s) == pytest.approx(math.sqrt(s * s - k * k), rel=1e-13)
        assert lame_residual(f1, np.array([s])) < 1e-10


def test_degree2_closed_forms(sys215):
    h2, k2 = sys215.h2, sys215.k2
    s = 2.5
    # the two K solutions are s^2 - Lambda with 3 Lambda^2 - 2(h2+k2) Lambda
    # + h2 k2 = 0; eigenvalues ascending puts the larger Lambda first
    disc = math.sqrt((h2 + k2) ** 2 - 3 * h2 * k2)
    lam_big = ((h2 + k2) + disc) / 3.0
    lam_small = ((h2 + k2) - disc) / 3.0
    expected = {
        1: s * s - lam_big,
        2: s * s - lam_small,
        3: s * math.sqrt(s * s - h2),
        4: s * math.sqrt(s * s - k2),
        5: math.sqrt((s * s - h2) * (s * s - k2)),
    }
    for p, val in expected.items():
        f = lame_function(sys215, 2, p)
        assert eval_lame(f, s) == pytest.approx(val, rel=1e-9)


def test_tridiagonal_shapes(sys215):
    for n, dim in ((0, 1), (1, 1), (2, 2)):
        diag, lower, upper = build_tridiagonal(sys215, class_of(n, 1))
        assert (len(diag), len(lower), len(upper)) == (dim, dim - 1, dim - 1)
    # two distinct real separation constants
    f1 = lame_function(sys215, 2, 1)
    f2 = lame_function(sys215, 2, 2)
    assert f1.separation_constant < f2.separation_constant


def test_tridiagonal_off_diagonal_products_positive(sys215):
    # the bound in build_tridiagonal's docstring: solve_tridiagonal can
    # always symmetrize a Lame matrix
    for sys in (sys215, new_system(15.0, 12.0, 10.0), new_system(10.0, 3.0, 1.0)):
        for n in range(21):
            for tag in "KLMN":
                if class_dim(tag, n):
                    _, lower, upper = build_tridiagonal(sys, LameClass(tag, n, 0))
                    assert np.all(lower * upper > 0), (sys.key(), n, tag)


def test_lame_equation_residuals(sys215):
    # every class and parity, in each of the lambda, mu and nu ranges, away
    # from the branch points h and k
    for sys in (sys215, new_system(15.0, 12.0, 10.0), new_system(10.0, 3.0, 1.0)):
        h, k = sys.h, sys.k
        ranges = {"lam": np.linspace(1.001 * k, 3 * k, 20),
                  "mu": np.linspace(1.02 * h, 0.98 * k, 10),
                  "nu": np.linspace(0.0, 0.98 * h, 10)}
        for n in range(17):
            for p in range(1, 2 * n + 2):
                f = lame_function(sys, n, p)
                for name, samples in ranges.items():
                    assert lame_residual(f, samples) <= 1e-8, (sys.key(), n, p, name)


def test_class_solve_equals_per_function_solve(sys215):
    # one eigensolve per (n, class) normalizes all its columns at once; each
    # column equals a solve of the class matrix for that function alone
    for sys in (sys215, new_system(15.0, 12.0, 10.0), new_system(10.0, 3.0, 1.0)):
        for n in range(17):
            for p in range(1, 2 * n + 2):
                f = lame_function(sys, n, p)
                b, pconst = lame_reference(sys, n, p)
                assert f.cls == class_of(n, p)
                assert f.coeffs.tobytes() == b.tobytes(), (sys.key(), n, p)
                assert f.separation_constant == pconst, (sys.key(), n, p)


def test_leading_coefficient_unity(sys215):
    s = 1e6
    for n in range(9):
        for p in range(1, 2 * n + 2):
            f = lame_function(sys215, n, p)
            assert eval_lame(f, s) / s ** n == pytest.approx(1.0, rel=1e-9)


def test_dipole_sign_law(sys215):
    rng = np.random.default_rng(5)
    fns = [lame_function(sys215, 1, p) for p in (1, 2, 3)]
    for _ in range(30):
        x, y, z = rng.uniform(-1.5, 1.5, 3) * [1.0, 0.9, 0.6]
        pt = cart_to_ell(sys215, x, y, z)
        for f, cart in zip(fns, (x, y, z)):
            prod = (eval_lame(f, pt.lam, pt.s_mu, pt.s_nu)
                    * eval_lame(f, pt.mu, pt.s_mu, pt.s_nu)
                    * eval_lame(f, pt.nu, pt.s_mu, pt.s_nu))
            if cart != 0:
                assert math.copysign(1, prod) == math.copysign(1, cart)


def test_derivatives(sys215):
    f0 = lame_function(sys215, 0, 1)
    _, d0 = eval_lame_derivative(f0, 2.5)
    assert abs(d0) < 1e-14
    f1 = lame_function(sys215, 1, 1)
    _, d1 = eval_lame_derivative(f1, 2.5)
    assert d1 == pytest.approx(1.0, rel=1e-13)
    # central differences for every class at both parities, at s in each
    # coordinate range (lambda > k, h < mu < k, 0 < nu < h) and its mirror,
    # with both octant signs: E' from E, then E'' from E'
    s = np.array([2.5, 1.5, 0.7, -2.5, -1.5, -0.7])
    h = 1e-6
    for n in range(5):
        for p in range(1, 2 * n + 2):
            f = lame_function(sys215, n, p)
            for sm in (1, -1):
                for sn in (1, -1):
                    E, dE, ddE = eval_lame_second_derivative(f, s, sm, sn)
                    assert np.array_equal(E, eval_lame(f, s, sm, sn))
                    assert np.array_equal(dE, eval_lame_derivative(f, s, sm, sn)[1])
                    fd = (eval_lame(f, s + h, sm, sn)
                          - eval_lame(f, s - h, sm, sn)) / (2 * h)
                    fdd = (eval_lame_derivative(f, s + h, sm, sn)[1]
                           - eval_lame_derivative(f, s - h, sm, sn)[1]) / (2 * h)
                    scale = np.abs(E) + np.abs(dE) + np.abs(ddE)
                    assert np.all(np.abs(dE - fd) <= 1e-8 * scale), (n, p, sm, sn)
                    assert np.all(np.abs(ddE - fdd) <= 1e-8 * scale), (n, p, sm, sn)


def test_branch_point_derivative_raises(sys215):
    f = lame_function(sys215, 2, 4)  # contains sqrt(s^2 - k^2)
    with pytest.raises(BranchPointDerivative):
        eval_lame_derivative(f, sys215.k)


def test_cross_check_reference_implementation(sys215):
    h2, k2 = sys215.h2, sys215.k2
    for n in range(5):
        for p in range(1, 2 * n + 2):
            f = lame_function(sys215, n, p)
            for s in (1.9, 2.5, 4.0):
                ref = float(ellip_harm(h2, k2, n, p, s))
                assert eval_lame(f, s) == pytest.approx(ref, rel=1e-10)


def test_signed_evaluation_matches_reference(sys215):
    h2, k2 = sys215.h2, sys215.k2
    # scipy's signm/signn prefactors play the role of the octant signs
    for (n, p) in [(1, 2), (1, 3), (2, 5), (3, 4)]:
        f = lame_function(sys215, n, p)
        for sm in (1, -1):
            for sn in (1, -1):
                ref = float(ellip_harm(h2, k2, n, p, 2.5, signm=sm, signn=sn))
                assert eval_lame(f, 2.5, sm, sn) == pytest.approx(ref, rel=1e-10)


def test_eval_lame_condition(sys215):
    assert eval_lame_condition(lame_function(sys215, 0, 1), 0.7) == 1.0
    f = lame_function(sys215, 6, 2)
    s = np.array([0.0, 0.4, sys215.h, 1.6, 2.5])
    t = 1.0 - s * s / sys215.h2
    terms = f.coeffs[None, :] * t[:, None] ** np.arange(len(f.coeffs))
    expect = np.sum(np.abs(terms), axis=1) / np.abs(np.sum(terms, axis=1))
    got = eval_lame_condition(f, s)
    assert got.shape == s.shape
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    assert np.all(got >= 1.0)
    # a computed P(t) of exactly zero from summands that cancel: no digit left
    g = dataclasses.replace(f, coeffs=np.array([1.0, -1.0]))
    assert eval_lame_condition(g, 0.0) == math.inf


def test_integrand_condition_peaks_at_lower_limit(sys215):
    # the I_n^p integrand 1/E(s)^2 on [lam, inf) is least well conditioned at
    # lam, so the Coulomb-expansion diagnostic counts it there
    for lam in (1.0001 * sys215.k, 1.01 * sys215.k, sys215.a, 2.0 * sys215.a):
        s = lam * np.geomspace(1.0, 1e5, 600)
        for n in range(17):
            for p in range(1, 2 * n + 2):
                c = eval_lame_condition(lame_function(sys215, n, p), s)
                assert np.all(c <= c[0] * (1.0 + 1e-12)), (lam, n, p)


def test_horner_equals_polyval_bit_for_bit(sys_fig3):
    # the in-place Horner sum repeats polyval's operations in its order, so
    # values, signed zeros and shapes agree byte for byte
    pv = np.polynomial.polynomial
    t = np.concatenate([np.random.default_rng(5).uniform(-3.0, 3.0, 40), [0.0, -0.0]])
    b = lame_function(sys_fig3, 12, 7).coeffs
    B = _padded([lame_function(sys_fig3, n, p) for n in range(7)
                 for p in range(1, 2 * n + 2)])[1]
    cases = [(t, b, True), (np.float64(0.7), b, True),          # 1-D coefficients
             (t[:, None], B, False), (np.stack([t, -t, 2 * t])[:, :, None], B, False),
             (t, b[:1], True), (t[:, None], B[:1], False)]       # m = 1
    for coeffs in (b, B):                                        # the polyder arrays
        d1 = pv.polyder(coeffs)
        for d in (d1, pv.polyder(d1), pv.polyder(pv.polyder(d1))):
            cases.append((t if d.ndim == 1 else t[:, None], d, d.ndim == 1))
    for x, c, tensor in cases:
        got, want = np.asarray(_horner(x, c)), np.asarray(pv.polyval(x, c, tensor))
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), c.shape
