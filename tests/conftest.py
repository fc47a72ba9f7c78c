import math

import numpy as np
import pytest

from ellharm import new_system
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


def lame_reference(sys, n, p):
    """(coefficients, separation constant) of E_n^p from a solve of its class
    matrix of its own, with only its column normalized."""
    cls = class_of(n, p)
    spec = build_tridiagonal(sys, cls)
    pairs = solve_tridiagonal(spec)
    m = spec.dim
    b = pairs.vectors[:, cls.p_local].copy()
    b *= (-sys.h2) ** (m - 1) / b[m - 1]
    return b, float(pairs.values[cls.p_local])


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


def gamma_tensor_reference(sys, f, quad_order=64):
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

    order = quad_order
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
