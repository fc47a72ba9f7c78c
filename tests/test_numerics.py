import math

import numpy as np
import pytest

from ellharm.errors import NonSymmetrizable
from ellharm.numerics import (TridiagonalSpec, adaptive_quad, gauss_legendre,
                              solve_tridiagonal)


def test_tridiagonal_1x1():
    res = solve_tridiagonal(TridiagonalSpec(diag=[5.0], lower=[], upper=[]))
    assert res.values[0] == 5.0
    assert res.vectors[0, 0] == 1.0


def test_tridiagonal_2x2_flip():
    res = solve_tridiagonal(TridiagonalSpec(diag=[0.0, 0.0], lower=[1.0], upper=[1.0]))
    np.testing.assert_allclose(res.values, [-1.0, 1.0], atol=1e-14)


def test_tridiagonal_eigen_residual_and_ordering():
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = rng.integers(2, 13)
        diag = rng.normal(size=m) * 10
        # each (lower, upper) pair shares a sign, so every product is
        # positive and both signs of the symmetrized off-diagonal occur
        sign = rng.choice((-1.0, 1.0), size=m - 1)
        lower = sign * rng.uniform(0.5, 2.0, size=m - 1)
        upper = sign * rng.uniform(0.5, 2.0, size=m - 1)
        spec = TridiagonalSpec(diag=diag, lower=lower, upper=upper)
        res = solve_tridiagonal(spec)
        T = spec.dense()
        scale = np.max(np.abs(T))
        assert len(res.values) == m
        assert np.all(np.diff(res.values) > 0)
        for i in range(m):
            v = res.vectors[:, i]
            assert np.linalg.norm(T @ v - res.values[i] * v, np.inf) <= 1e-12 * scale
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_tridiagonal_complex_spectrum_raises():
    spec = TridiagonalSpec(diag=[0.0, 0.0], lower=[-1.0], upper=[1.0])
    with pytest.raises(NonSymmetrizable):
        solve_tridiagonal(spec)


def test_quad_constant():
    res = adaptive_quad(np.ones_like, 0.0, 1.0)
    assert abs(res.value - 1.0) < 1e-14


def test_quad_inverse_square_tail():
    res = adaptive_quad(lambda s: 1.0 / (s * s), 1.0, math.inf)
    assert abs(res.value - 1.0) < 1e-12


def test_quad_polynomials_exact():
    rng = np.random.default_rng(3)
    for deg in range(11):
        c = rng.normal(size=deg + 1)
        lo, hi = -1.3, 2.7
        exact = sum(ci / (i + 1) * (hi ** (i + 1) - lo ** (i + 1))
                    for i, ci in enumerate(c))
        res = adaptive_quad(lambda s: np.polynomial.polynomial.polyval(s, c),
                            lo, hi)
        assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))


def _elliptic_tail_integrand(s):
    return 1.0 / (s * s * np.sqrt(s * s - 3.0) * np.sqrt(s * s - 1.75))


def test_quad_elliptic_tail_vs_bruteforce():
    # brute-force oracle: composite midpoint in the u = 1/s variable, which
    # maps [2, inf) to (0, 1/2] with a smooth integrand
    n = 1_000_000
    u = (np.arange(n) + 0.5) * (0.5 / n)
    s = 1.0 / u
    f = 1.0 / (s * s * np.sqrt(s * s - 3.0) * np.sqrt(s * s - 1.75))
    brute = float(np.sum(f * s * s) * (0.5 / n))  # ds = du / u^2
    res = adaptive_quad(_elliptic_tail_integrand, 2.0, math.inf, rel_tol=1e-12)
    assert abs(res.value - brute) <= 1e-8 * abs(brute)


def test_quad_semi_infinite_matches_truncation():
    f = lambda s: 1.0 / (np.sqrt(s * s - 3.0) * np.sqrt(s * s - 1.75))
    full = adaptive_quad(f, 2.0, math.inf, rel_tol=1e-12)
    lam = 2.0
    truncated = adaptive_quad(f, lam, 1e6 * lam, rel_tol=1e-12)
    assert abs(full.value - truncated.value) <= 1e-6 * abs(full.value)


def test_quad_reports_nonconvergence_honestly():
    # |s|^-1/2 singular at an interior point: cap subdivisions very low
    res = adaptive_quad(lambda s: abs(s - 0.37) ** -0.5, 0.0, 1.0,
                        rel_tol=1e-14, max_subdiv=5)
    assert not res.converged
    assert res.error_estimate > 0


def test_quad_semi_infinite_needs_positive_lower_limit():
    f = lambda s: 1.0 / (1.0 + s * s)
    for lo in (0.0, -1.0):
        with pytest.raises(ValueError):
            adaptive_quad(f, lo, math.inf)


def test_gauss_legendre_order1():
    x, w = gauss_legendre(1)
    assert abs(x[0]) < 1e-15 and abs(w[0] - 2.0) < 1e-15


def test_gauss_legendre_order2():
    x, w = gauss_legendre(2)
    np.testing.assert_allclose(np.sort(x), [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                               atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_cubic_exact():
    x, w = gauss_legendre(2, 0.0, 1.0)
    assert abs(float(w @ x ** 3) - 0.25) < 1e-15


def test_gauss_legendre_rule_cache():
    for order in (1, 2, 64, 128, 300):
        ref_x, ref_w = np.polynomial.legendre.leggauss(order)
        for _ in range(2):
            x, w = gauss_legendre(order)
            assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
            # the caller owns what it gets: writing into it changes no later call
            x[:] = 7.0
            w *= -1.0
    lo, hi = 0.0, math.pi / 2.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * (hi - lo)
    x, w = gauss_legendre(64, lo, hi)
    assert np.array_equal(x, lo + half * (ref_x + 1.0))
    assert np.array_equal(w, half * ref_w)


def test_gauss_legendre_validates_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)
