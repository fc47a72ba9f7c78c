import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cart_to_ell_reference
from ellharm.coords import (cart_to_ell, ell_to_cart, new_system,
                            normal_derivative_factor, surface_point,
                            EllipsoidalPoint)
from ellharm.errors import DegenerateEllipsoid, RangeViolation, RoundTripFailure


def test_new_system_semifocals(sys215, sys_fig3):
    assert abs(sys215.h2 - 1.75) < 1e-12
    assert abs(sys215.k2 - 3.0) < 1e-12
    assert abs(sys_fig3.h2 - 81.0) < 1e-9
    assert abs(sys_fig3.k2 - 125.0) < 1e-9
    assert 0 < sys215.h < sys215.k
    assert abs(sys215.h2 + (sys215.b ** 2 - sys215.c ** 2) - sys215.k2) < 1e-12


@pytest.mark.parametrize("axes", [(1, 1, 1), (2, 2, 1), (2, 1.5, 1.5),
                                  (1, 1.5, 2), (2, 1.5, 0), (2, 1.5, -1),
                                  # k^2 - h^2 = b^2 - c^2 cancels against k^2
                                  (1, 3e-12, 1e-12), (1, 0.01 + 1.5e-12, 0.01),
                                  # a^2 overflows, so h and k are nan
                                  (1e200, 5e199, 1e199)])
def test_new_system_rejects_degenerate(axes):
    with pytest.raises(DegenerateEllipsoid):
        new_system(*axes)


def test_axis_point(sys215):
    p = cart_to_ell(sys215, 2.0, 0.0, 0.0)
    assert abs(abs(p.lam) - 2.0) < 1e-9
    assert abs(abs(p.mu) - math.sqrt(3.0)) < 1e-9
    assert abs(abs(p.nu) - math.sqrt(1.75)) < 1e-9


def test_source_charge_roundtrip(sys215):
    p = cart_to_ell(sys215, 0.0, 0.0, 0.5)
    x, y, z = ell_to_cart(sys215, p)
    assert max(abs(x), abs(y), abs(z - 0.5)) < 1e-6


def test_octant_sign_triples(sys215):
    seen = set()
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                p = cart_to_ell(sys215, sx * 0.3, sy * 0.4, sz * 0.5)
                x, y, z = ell_to_cart(sys215, p)
                assert max(abs(x - sx * 0.3), abs(y - sy * 0.4), abs(z - sz * 0.5)) < 1e-6
                seen.add((p.s_lambda, p.s_mu, p.s_nu))
    assert len(seen) == 8


def test_ell_to_cart_axis_case(sys215):
    p = surface_point(sys215, sys215.k, sys215.h)
    x, y, z = ell_to_cart(sys215, p)
    assert max(abs(x - 2.0), abs(y), abs(z)) < 1e-12


def test_ell_to_cart_negative_lambda_sign(sys215):
    p = EllipsoidalPoint(lam=-sys215.a, mu=sys215.k, nu=sys215.h,
                         s_lambda=-1, s_mu=1, s_nu=1)
    x, y, z = ell_to_cart(sys215, p)
    assert abs(x + 2.0) < 1e-12 and abs(y) < 1e-12 and abs(z) < 1e-12


def test_ell_to_cart_range_violation(sys215):
    bad = EllipsoidalPoint(lam=1.0, mu=sys215.k, nu=sys215.h,
                           s_lambda=1, s_mu=1, s_nu=1)  # |lam| < k
    with pytest.raises(RangeViolation):
        ell_to_cart(sys215, bad)


@pytest.mark.parametrize("xyz", [(math.nan, 1.0, 1.0), (0.5, math.inf, 0.2),
                                 (0.5, 0.2, -math.inf)])
def test_cart_to_ell_rejects_non_finite(sys215, xyz):
    with pytest.raises(RangeViolation):
        cart_to_ell(sys215, *xyz)


def test_cart_to_ell_at_lengths_near_1e_minus_100_raises_round_trip_failure():
    # Q^3 of the cubic underflows to 0 there, and so would h^2 k^2 in the
    # reverse map
    sys = new_system(1e-100, 5e-101, 1e-101)
    with pytest.raises(RoundTripFailure):
        cart_to_ell(sys, 1e-101, 1e-101, 1e-101)


def _octant_brick(sys, per_axis=4):
    base = np.linspace(0.2, 0.8, per_axis)
    pts = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                for x in base * sys.a:
                    for y in base * sys.b:
                        for z in base * sys.c:
                            pts.append((sx * x, sy * y, sz * z))
    return pts


@pytest.mark.parametrize("axes", [(2.0, 1.5, 1.0), (15.0, 12.0, 10.0)])
def test_octant_brick_roundtrip(axes):
    sys = new_system(*axes)
    pts = _octant_brick(sys)
    assert len(pts) == 8 * 64
    worst = 0.0
    for (x, y, z) in pts:
        p = cart_to_ell(sys, x, y, z)
        xr, yr, zr = ell_to_cart(sys, p)
        worst = max(worst, abs(xr - x), abs(yr - y), abs(zr - z))
        # ordering invariant
        assert abs(p.nu) <= sys.h + 1e-10
        assert sys.h - 1e-10 <= abs(p.mu) <= sys.k + 1e-10
        assert abs(p.lam) >= sys.k - 1e-10
    assert worst <= 1e-6


def test_surface_characterization(sys215):
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        # scale to the surface
        t = 1.0 / math.sqrt((v[0] / sys215.a) ** 2 + (v[1] / sys215.b) ** 2
                            + (v[2] / sys215.c) ** 2)
        p = cart_to_ell(sys215, *(t * v))
        assert abs(abs(p.lam) - sys215.a) <= 1e-8 * sys215.a


def test_sign_algebra_self_consistency():
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                sl, sm, sn = sx * sy * sz, sx * sy, sx * sz
                assert sl * sm * sn == sx
                assert sl * sn == sy
                assert sl * sm == sz


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-3, 3), y=st.floats(-3, 3), z=st.floats(-3, 3))
def test_roundtrip_property(x, y, z):
    sys = new_system(2.0, 1.5, 1.0)
    p = cart_to_ell(sys, x, y, z)
    xr, yr, zr = ell_to_cart(sys, p)
    assert max(abs(xr - x), abs(yr - y), abs(zr - z)) <= 1e-6


def test_normal_factor_identities(sys215):
    assert abs(normal_derivative_factor(sys215, sys215.h, 0.0)
               - sys215.c / sys215.a) < 1e-14
    assert abs(normal_derivative_factor(sys215, sys215.k, sys215.h) - 1.0) < 1e-14


def test_normal_factor_vs_cartesian_gradient(sys215):
    # the harmonic x = lam*mu*nu/(h*k): its outward normal derivative on the
    # surface computed as factor * d/d(lambda) must equal n . grad(x) = n_x
    mu, nu = 1.5, 0.5
    p = surface_point(sys215, mu, nu)
    x, y, z = ell_to_cart(sys215, p)
    grad_surface = np.array([2 * x / sys215.a ** 2, 2 * y / sys215.b ** 2,
                             2 * z / sys215.c ** 2])
    n_hat = grad_surface / np.linalg.norm(grad_surface)
    dx_dlam = mu * nu / (sys215.h * sys215.k)
    lhs = normal_derivative_factor(sys215, mu, nu) * dx_dlam
    assert abs(lhs - n_hat[0]) < 1e-10


def _special_points(sys):
    """The origin and the coordinate planes with signed zeros, the axes, the
    foci, and far points out to where x^2 overflows."""
    a, b, c, h, k = sys.a, sys.b, sys.c, sys.h, sys.k
    pts = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0), (1, 2, 3)]
    for t in (0.5, 1.0, 2.0):
        for s in (1.0, -1.0):
            pts += [(s * t * a, 0.0, 0.0), (0.0, s * t * b, -0.0), (-0.0, 0.0, s * t * c)]
    for f in (h, k):
        for s in (1.0, -1.0):
            pts += [(s * f, 0.0, 0.0), (s * f, -0.0, 0.0), (s * f, 0.0, -0.0)]
    for r in (1e3, 1e6, 1e12, 1e100, 1e103, 1e160):
        for d in ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (-0.3, 0.5, -0.8)):
            pts.append(tuple(r * e for e in d))
    return pts


def _outcome(transform, sys, p):
    """The fields of the transformed point, in a form that tells -0.0 from
    0.0 and keeps nan, or the type of the exception it raised."""
    try:
        return repr(dataclasses.astuple(transform(sys, *p)))
    except Exception as exc:
        return type(exc).__name__


@pytest.mark.parametrize("axes", [(15.0, 12.0, 10.0), (2.0, 1.5, 1.0), (10.0, 3.0, 1.0),
                                  (100.0, 2.0, 1.0), (1.001, 1.0002, 1.0001)])
def test_cart_to_ell_equals_reference_bit_for_bit(axes):
    sys = new_system(*axes)
    rng = np.random.default_rng(20)
    scale = 3.0 * np.array(axes)
    pts = [tuple(p) for p in (rng.uniform(-1.0, 1.0, (1500, 3)) * scale).tolist()]
    for x, y, z in (rng.uniform(-1.0, 1.0, (100, 3)) * scale).tolist():
        for zero in (0.0, -0.0):
            pts += [(zero, y, z), (x, zero, z), (x, y, zero)]
    pts += _special_points(sys)
    got = [_outcome(cart_to_ell, sys, p) for p in pts]
    want = [_outcome(cart_to_ell_reference, sys, p) for p in pts]
    # the set reaches every error the reference raises, and every octant
    assert {"OverflowError", "RangeViolation", "RoundTripFailure"} <= set(want)
    signs = {(p[0] >= 0, p[1] >= 0, p[2] >= 0) for p, w in zip(pts, want) if w[0] == "("}
    assert len(signs) == 8
    # far out the reference raises a bare OverflowError (|r| >= 1e100 here),
    # returns nan (1e160) or finds its roots out of range in the round trip
    # (the only RangeViolation here, as every point is finite); the transform
    # raises RoundTripFailure there
    want = ["RoundTripFailure" if w in ("OverflowError", "RangeViolation") or "nan" in w
            else w for w in want]
    mismatched = [(p, g, w) for p, g, w in zip(pts, got, want) if g != w]
    assert mismatched == [], mismatched[:3]
