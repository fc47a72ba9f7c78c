"""Confocal ellipsoidal coordinates for a tri-axial ellipsoid.

The ellipsoid x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 with a > b > c > 0 defines
semifocal distances h = sqrt(a^2 - b^2) and k = sqrt(a^2 - c^2).  The squared
coordinates (lambda^2, mu^2, nu^2) are the three real roots of a cubic in the
Cartesian point; octant information is carried by explicit signs so both
transform directions are single-valued.

Sign bookkeeping: with s_x = sgn(x) etc. (sgn(0) = +1),

    s_lambda = s_x s_y s_z,   s_mu = s_x s_y,   s_nu = s_x s_z

and inversely

    s_x = s_lambda s_mu s_nu,   s_y = s_lambda s_nu,   s_z = s_lambda s_mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEllipsoid, RangeViolation, RoundTripFailure

__all__ = [
    "EllipsoidSystem",
    "EllipsoidalPoint",
    "new_system",
    "cart_to_ell",
    "ell_to_cart",
    "normal_derivative_factor",
]

_ROUND_TRIP_TOL = 1e-6


@dataclass(frozen=True)
class EllipsoidSystem:
    """Semiaxes (a, b, c) with a > b > c > 0 and derived semifocal distances."""

    a: float
    b: float
    c: float
    h: float
    k: float

    @property
    def h2(self) -> float:
        return self.h * self.h

    @property
    def k2(self) -> float:
        return self.k * self.k

    def key(self):
        """Hashable identity of the geometry."""
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class EllipsoidalPoint:
    """Signed ellipsoidal coordinates: stored value = sign * magnitude."""

    lam: float
    mu: float
    nu: float
    s_lambda: int
    s_mu: int
    s_nu: int


def new_system(a: float, b: float, c: float) -> EllipsoidSystem:
    """Construct an EllipsoidSystem, validating strict ordering a > b > c > 0."""
    if not (c > 0 and b > c and a > b) or not all(map(math.isfinite, (a, b, c))):
        raise DegenerateEllipsoid(f"semiaxes must satisfy a > b > c > 0, got {(a, b, c)}")
    if (a - b) <= 1e-12 * a or (b - c) <= 1e-12 * a:
        raise DegenerateEllipsoid(
            f"near-degenerate semiaxes {(a, b, c)}: spheroid/sphere limits unsupported")
    h = math.sqrt(a * a - b * b)
    k = math.sqrt(a * a - c * c)
    return EllipsoidSystem(a=float(a), b=float(b), c=float(c), h=h, k=k)


def _sgn(v: float) -> int:
    return 1 if v >= 0 else -1


def _polish_root(w1: float, w2: float, w3: float, u: float) -> float:
    """Newton-polish a root of u^3 + w1 u^2 + w2 u + w3.

    The trigonometric solution loses relative accuracy for points far from
    the ellipsoid (the three roots then differ by many orders of magnitude);
    a step or two of Newton restores it.  Steps are skipped when the local
    slope is too small (nearly multiple roots) or the correction is large.
    """
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


def cart_to_ell(sys: EllipsoidSystem, x: float, y: float, z: float) -> EllipsoidalPoint:
    """Cartesian -> signed ellipsoidal coordinates.

    The result is round-trip verified against ``ell_to_cart`` to 1e-6
    absolute (the documented accuracy of the direct cubic-root transform);
    ``RoundTripFailure`` is raised when the verification fails, which happens
    far from the ellipsoid where the cubic becomes ill-conditioned.
    """
    h2, k2 = sys.h2, sys.k2
    x2, y2, z2 = x * x, y * y, z * z
    w1 = -(x2 + y2 + z2 + h2 + k2)
    w2 = x2 * (h2 + k2) + y2 * k2 + z2 * h2 + h2 * k2
    w3 = -x2 * h2 * k2
    Q = (w1 * w1 - 3.0 * w2) / 9.0
    R = (9.0 * w1 * w2 - 27.0 * w3 - 2.0 * w1 ** 3) / 54.0
    # roundoff can push |R|/Q^{3/2} marginally above 1 near coordinate planes
    ct = min(1.0, max(-1.0, R / math.sqrt(Q ** 3)))
    theta = math.acos(ct)
    sq = 2.0 * math.sqrt(Q)
    lam2 = sq * math.cos(theta / 3.0) - w1 / 3.0
    mu2 = sq * math.cos(theta / 3.0 + 4.0 * math.pi / 3.0) - w1 / 3.0
    nu2 = sq * math.cos(theta / 3.0 + 2.0 * math.pi / 3.0) - w1 / 3.0
    lam2 = _polish_root(w1, w2, w3, lam2)
    mu2 = _polish_root(w1, w2, w3, mu2)
    nu2 = _polish_root(w1, w2, w3, nu2)
    # snap roots that agree with a semifocal square to machine precision: the
    # reconstruction multiplies (root - h^2) etc. by lambda^2, so a one-ulp
    # residual at a coordinate plane would otherwise be amplified
    for c2 in (h2, k2):
        if abs(mu2 - c2) <= 1e-13 * max(1.0, c2):
            mu2 = c2
        if abs(nu2 - c2) <= 1e-13 * max(1.0, c2):
            nu2 = c2
    if abs(lam2 - k2) <= 1e-13 * max(1.0, k2):
        lam2 = k2
    if abs(nu2) <= 1e-13:
        nu2 = 0.0
    sx, sy, sz = _sgn(x), _sgn(y), _sgn(z)
    sl, sm, sn = sx * sy * sz, sx * sy, sx * sz
    p = EllipsoidalPoint(
        lam=sl * math.sqrt(max(lam2, 0.0)),
        mu=sm * math.sqrt(max(mu2, 0.0)),
        nu=sn * math.sqrt(max(nu2, 0.0)),
        s_lambda=sl, s_mu=sm, s_nu=sn,
    )
    xr, yr, zr = ell_to_cart(sys, p)
    if max(abs(xr - x), abs(yr - y), abs(zr - z)) > _ROUND_TRIP_TOL:
        raise RoundTripFailure(
            f"round trip of {(x, y, z)} off by "
            f"{max(abs(xr - x), abs(yr - y), abs(zr - z)):.3e} (> 1e-6)")
    return p


def ell_to_cart(sys: EllipsoidSystem, p: EllipsoidalPoint):
    """Signed ellipsoidal -> Cartesian coordinates."""
    h2, k2 = sys.h2, sys.k2
    l2, m2, n2 = p.lam * p.lam, p.mu * p.mu, p.nu * p.nu
    slack = 1e-12 * max(1.0, l2)
    if l2 < k2 - slack or m2 < h2 - slack or m2 > k2 + slack or n2 > h2 + slack:
        raise RangeViolation(
            f"coordinates out of range: lam^2={l2}, mu^2={m2}, nu^2={n2} "
            f"for h^2={h2}, k^2={k2}")
    x2 = l2 * m2 * n2 / (h2 * k2)
    y2 = (l2 - h2) * (m2 - h2) * (h2 - n2) / (h2 * (k2 - h2))
    z2 = (l2 - k2) * (k2 - m2) * (k2 - n2) / (k2 * (k2 - h2))
    sx = p.s_lambda * p.s_mu * p.s_nu
    sy = p.s_lambda * p.s_nu
    sz = p.s_lambda * p.s_mu

    def root(v):
        return math.sqrt(max(v, 0.0))

    return sx * root(x2), sy * root(y2), sz * root(z2)


def normal_derivative_factor(sys: EllipsoidSystem, mu: float, nu: float) -> float:
    """Factor converting d/d(lambda) to the outward normal derivative on the
    surface lambda = a:  b*c / (sqrt(a^2 - mu^2) * sqrt(a^2 - nu^2))."""
    am = abs(mu)
    an = abs(nu)
    if not (sys.h - 1e-12 <= am <= sys.k + 1e-12) or an > sys.h + 1e-12:
        raise RangeViolation(f"(mu, nu)=({mu}, {nu}) out of range")
    a2 = sys.a * sys.a
    return sys.b * sys.c / (math.sqrt(a2 - mu * mu) * math.sqrt(a2 - nu * nu))


def surface_point(sys: EllipsoidSystem, mu: float, nu: float,
                  s_mu: int = 1, s_nu: int = 1, s_lambda: int = 1) -> EllipsoidalPoint:
    """Convenience: the surface point (lambda = a, mu, nu) with given signs."""
    return EllipsoidalPoint(lam=s_lambda * sys.a, mu=s_mu * abs(mu), nu=s_nu * abs(nu),
                            s_lambda=s_lambda, s_mu=s_mu, s_nu=s_nu)
