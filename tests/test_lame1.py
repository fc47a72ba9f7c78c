import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ellip_harm

from ellharm.coords import cart_to_ell, new_system
from ellharm.errors import BranchPointDerivative, OrderOutOfRange
from ellharm.lame1 import (LameClass, build_tridiagonal, class_dim, class_of,
                           eval_lame, eval_lame_condition, eval_lame_derivative,
                           eval_lame_second_derivative, lame_function,
                           lame_residual)


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
    assert build_tridiagonal(sys215, class_of(0, 1)).dim == 1
    assert build_tridiagonal(sys215, class_of(1, 1)).dim == 1
    spec = build_tridiagonal(sys215, class_of(2, 1))
    assert spec.dim == 2
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
                    spec = build_tridiagonal(sys, LameClass(tag, n, 0))
                    assert np.all(spec.lower * spec.upper > 0), (sys.key(), n, tag)


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
