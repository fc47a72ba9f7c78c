import math

import numpy as np
import pytest

from ellharm import new_system
from ellharm.coords import EllipsoidalPoint
from ellharm.errors import RangeViolation, RoundTripFailure
from ellharm.harmonics import HarmonicIndex
from ellharm.lame1 import (build_tridiagonal, class_of, eval_lame,
                           eval_lame_derivative, lame_function)
from ellharm.lame2 import eval_I
from ellharm.numerics import gauss_legendre, solve_tridiagonal


@pytest.fixture(scope="session")
def sys215():
    return new_system(2.0, 1.5, 1.0)


@pytest.fixture(scope="session")
def sys_fig3():
    return new_system(15.0, 12.0, 10.0)


def _polish_root_reference(w1, w2, w3, u):
    for _ in range(2):
        f = ((u + w1) * u + w2) * u + w3
        df = (3.0 * u + 2.0 * w1) * u + w2
        if df == 0.0:
            break
        step = f / df
        if not math.isfinite(step) or abs(step) > 0.1 * max(1.0, abs(u)):
            break
        u -= step
    return u


def _ell_to_cart_reference(sys, p):
    h2, k2 = sys.h2, sys.k2
    l2, m2, n2 = p.lam * p.lam, p.mu * p.mu, p.nu * p.nu
    slack = 1e-12 * max(1.0, l2)
    if l2 < k2 - slack or m2 < h2 - slack or m2 > k2 + slack or n2 > h2 + slack:
        raise RangeViolation("coordinates out of range")
    x2 = l2 * m2 * n2 / (h2 * k2)
    y2 = (l2 - h2) * (m2 - h2) * (h2 - n2) / (h2 * (k2 - h2))
    z2 = (l2 - k2) * (k2 - m2) * (k2 - n2) / (k2 * (k2 - h2))
    sx = p.s_lambda * p.s_mu * p.s_nu
    sy = p.s_lambda * p.s_nu
    sz = p.s_lambda * p.s_mu

    def root(v):
        return math.sqrt(max(v, 0.0))

    return sx * root(x2), sy * root(y2), sz * root(z2)


def cart_to_ell_reference(sys, x, y, z):
    """``coords.cart_to_ell`` written out step by step, with its own root
    polish and reverse map: the trigonometric roots of the confocal cubic,
    two Newton steps each, snapping to h^2, k^2 and 0, octant signs and the
    1e-6 round-trip check."""
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise RangeViolation("non-finite Cartesian point")
    h2, k2 = sys.h2, sys.k2
    x2, y2, z2 = x * x, y * y, z * z
    w1 = -(x2 + y2 + z2 + h2 + k2)
    w2 = x2 * (h2 + k2) + y2 * k2 + z2 * h2 + h2 * k2
    w3 = -x2 * h2 * k2
    Q = (w1 * w1 - 3.0 * w2) / 9.0
    R = (9.0 * w1 * w2 - 27.0 * w3 - 2.0 * w1 ** 3) / 54.0
    ct = min(1.0, max(-1.0, R / math.sqrt(Q ** 3)))
    theta = math.acos(ct)
    sq = 2.0 * math.sqrt(Q)
    lam2 = sq * math.cos(theta / 3.0) - w1 / 3.0
    mu2 = sq * math.cos(theta / 3.0 + 4.0 * math.pi / 3.0) - w1 / 3.0
    nu2 = sq * math.cos(theta / 3.0 + 2.0 * math.pi / 3.0) - w1 / 3.0
    lam2 = _polish_root_reference(w1, w2, w3, lam2)
    mu2 = _polish_root_reference(w1, w2, w3, mu2)
    nu2 = _polish_root_reference(w1, w2, w3, nu2)
    for c2 in (h2, k2):
        if abs(mu2 - c2) <= 1e-13 * max(1.0, c2):
            mu2 = c2
        if abs(nu2 - c2) <= 1e-13 * max(1.0, c2):
            nu2 = c2
    if abs(lam2 - k2) <= 1e-13 * max(1.0, k2):
        lam2 = k2
    if abs(nu2) <= 1e-13:
        nu2 = 0.0

    def sgn(v):
        return 1 if v >= 0 else -1

    sx, sy, sz = sgn(x), sgn(y), sgn(z)
    sl, sm, sn = sx * sy * sz, sx * sy, sx * sz
    p = EllipsoidalPoint(
        lam=sl * math.sqrt(max(lam2, 0.0)),
        mu=sm * math.sqrt(max(mu2, 0.0)),
        nu=sn * math.sqrt(max(nu2, 0.0)),
        s_lambda=sl, s_mu=sm, s_nu=sn,
    )
    xr, yr, zr = _ell_to_cart_reference(sys, p)
    if max(abs(xr - x), abs(yr - y), abs(zr - z)) > 1e-6:
        raise RoundTripFailure("round trip off by more than 1e-6")
    return p


def lame_reference(sys, n, p):
    """(coefficients, separation constant) of E_n^p from a solve of its class
    matrix of its own, with only its column normalized."""
    cls = class_of(n, p)
    values, vectors = solve_tridiagonal(*build_tridiagonal(sys, cls))
    m = len(values)
    b = vectors[:, cls.p_local].copy()
    b *= (-sys.h2) ** (m - 1) / b[m - 1]
    return b, float(values[cls.p_local])


def second_kind_reference(f, lam):
    """(E, E', F, F', I, dI/dlam) of one function at lam from its own
    evaluations: E and E' by ``eval_lame_derivative``, I by ``eval_I``,
    then dI, F and F' by the per-function formulas."""
    sys = f.system
    I = eval_I(f, lam)
    E, dE = eval_lame_derivative(f, lam)
    dI = -1.0 / (E * E * math.sqrt(lam * lam - sys.k2)
                 * math.sqrt(lam * lam - sys.h2))
    F = (2 * f.n + 1) * E * I
    dF = (2 * f.n + 1) * (dE * I + E * dI)
    return E, dE, F, dF, I, dI


def gamma_tensor_reference(sys, f):
    """(gamma, error estimate) of one function by the order x order tensor
    Gauss-Legendre rule over the octant, with ``gamma``'s order doubling."""
    def fixed(order):
        x, w = gauss_legendre(order, 0.0, math.pi / 2.0)
        mu = np.sqrt(sys.h2 + (sys.k2 - sys.h2) * np.sin(x) ** 2)
        nu = sys.h * np.sin(x)
        Emu = eval_lame(f, mu)
        Enu = eval_lame(f, nu)
        M2 = mu[:, None] ** 2
        N2 = nu[None, :] ** 2
        W = np.outer(w / mu, w / np.sqrt(sys.k2 - nu ** 2))
        core = (Emu[:, None] ** 2) * (Enu[None, :] ** 2) * (M2 - N2) * W
        return 8.0 * float(np.sum(core))

    order = 64
    val = fixed(order)
    while True:
        order *= 2
        val2 = fixed(order)
        err = abs(val2 - val) / max(abs(val2), 1e-300)
        if err <= 1e-8 or order >= 256:
            return val2, err
        val = val2


def surface_inner(sys, idx1: HarmonicIndex, idx2: HarmonicIndex, order=96):
    """Full-surface weighted inner product of two solid harmonics restricted
    to the surface, i.e. integral of E3_i E3_j times the surface weight.

    Uses the singularity-absorbing substitutions mu^2 = h^2 + (k^2-h^2)
    sin^2(phi), nu = h sin(theta) on the positive octant and sums all eight
    (s_lambda, s_mu, s_nu) octants.  The diagonal equals gamma * E(a)^2.
    """
    f1 = lame_function(sys, idx1.n, idx1.p)
    f2 = lame_function(sys, idx2.n, idx2.p)
    phi, wphi = gauss_legendre(order, 0.0, math.pi / 2.0)
    theta, wtheta = gauss_legendre(order, 0.0, math.pi / 2.0)
    mu = np.sqrt(sys.h2 + (sys.k2 - sys.h2) * np.sin(phi) ** 2)
    nu = sys.h * np.sin(theta)
    W = np.outer(wphi / mu, wtheta / np.sqrt(sys.k2 - nu ** 2))
    M2 = mu[:, None] ** 2
    N2 = nu[None, :] ** 2
    total = 0.0
    for sl in (1, -1):
        for sm in (1, -1):
            for sn in (1, -1):
                a1 = (eval_lame(f1, sl * sys.a, sm, sn)
                      * eval_lame(f1, sm * mu, sm, sn)[:, None]
                      * eval_lame(f1, sn * nu, sm, sn)[None, :])
                a2 = (eval_lame(f2, sl * sys.a, sm, sn)
                      * eval_lame(f2, sm * mu, sm, sn)[:, None]
                      * eval_lame(f2, sn * nu, sm, sn)[None, :])
                total += float(np.sum(a1 * a2 * (M2 - N2) * W))
    return total


_STENCIL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def fd_laplacian(func, point, step):
    """Five-point-per-axis finite-difference Laplacian of func(x, y, z)."""
    point = np.asarray(point, dtype=float)
    total = 0.0
    for axis in range(3):
        vals = []
        for off in (-2, -1, 0, 1, 2):
            q = point.copy()
            q[axis] += off * step
            vals.append(func(*q))
        total += float(_STENCIL @ vals) / step ** 2
    return total
