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
from typing import NamedTuple

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


class EllipsoidalPoint(NamedTuple):
    """Signed ellipsoidal coordinates: stored value = sign * magnitude.  A
    point is the 6-tuple of its fields, the row that the harmonics' E3 pass
    reads."""

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
    if not (math.isfinite(h) and math.isfinite(k)):
        raise DegenerateEllipsoid(f"semiaxes {(a, b, c)}: their squares overflow")
    # the reverse map divides by k^2 - h^2, which cancels when b, c << a
    if k * k - h * h <= 1e-12 * (k * k):
        raise DegenerateEllipsoid(
            f"semiaxes {(a, b, c)}: k^2 - h^2 = {k * k - h * h:.3e} cancels against k^2")
    return EllipsoidSystem(a=float(a), b=float(b), c=float(c), h=h, k=k)


def _polish_root(w1: float, w2: float, w3: float, u: float) -> float:
    """Newton-polish a root of u^3 + w1 u^2 + w2 u + w3.

    The trigonometric solution loses relative accuracy for points far from
    the ellipsoid (the three roots then differ by many orders of magnitude);
    a step or two of Newton restores it.  Steps are skipped when the local
    slope is too small (nearly multiple roots) or the correction is large or nan.
    """
    for _ in range(2):
        df = (3.0 * u + 2.0 * w1) * u + w2
        if df == 0.0:
            break
        step = (((u + w1) * u + w2) * u + w3) / df
        if not abs(step) <= 0.1 * (abs(u) if abs(u) > 1.0 else 1.0):
            break
        u -= step
    return u


def cart_to_ell(sys: EllipsoidSystem, x: float, y: float, z: float) -> EllipsoidalPoint:
    """Cartesian -> signed ellipsoidal coordinates.

    The result is round-trip verified against ``ell_to_cart`` to 1e-6
    absolute (the documented accuracy of the direct cubic-root transform);
    ``RoundTripFailure`` is raised when the verification fails (far out the
    cubic is ill-conditioned), when the cubic leaves float range (far out,
    or at lengths below ~1e-26) or its roots the coordinate ranges.  A
    non-finite coordinate raises ``RangeViolation``.
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise RangeViolation(f"non-finite Cartesian point {(x, y, z)}")
    h2, k2 = sys.h * sys.h, sys.k * sys.k
    x2, y2, z2 = x * x, y * y, z * z
    w1 = -(x2 + y2 + z2 + h2 + k2)
    w2 = x2 * (h2 + k2) + y2 * k2 + z2 * h2 + h2 * k2
    w3 = -x2 * h2 * k2
    sx, sy, sz = (1 if x >= 0 else -1), (1 if y >= 0 else -1), (1 if z >= 0 else -1)
    sl, sm, sn = sx * sy * sz, sx * sy, sx * sz
    try:
        Q = (w1 * w1 - 3.0 * w2) / 9.0
        R = (9.0 * w1 * w2 - 27.0 * w3 - 2.0 * w1 ** 3) / 54.0
        # roundoff can push |R|/Q^{3/2} marginally above 1 near coordinate planes
        ct = min(1.0, max(-1.0, R / math.sqrt(Q ** 3)))
        third = math.acos(ct) / 3.0
        sq, shift = 2.0 * math.sqrt(Q), w1 / 3.0
        lam2 = _polish_root(w1, w2, w3, sq * math.cos(third) - shift)
        mu2 = _polish_root(w1, w2, w3, sq * math.cos(third + 4.0 * math.pi / 3.0) - shift)
        nu2 = _polish_root(w1, w2, w3, sq * math.cos(third + 2.0 * math.pi / 3.0) - shift)
        # snap roots that agree with a semifocal square to machine precision:
        # the reconstruction multiplies (root - h^2) etc. by lambda^2, so a
        # one-ulp residual at a coordinate plane would otherwise be amplified
        tol_h = 1e-13 * (h2 if h2 > 1.0 else 1.0)
        tol_k = 1e-13 * (k2 if k2 > 1.0 else 1.0)
        mu2 = h2 if abs(mu2 - h2) <= tol_h else mu2
        nu2 = h2 if abs(nu2 - h2) <= tol_h else nu2
        mu2 = k2 if abs(mu2 - k2) <= tol_k else mu2
        nu2 = k2 if abs(nu2 - k2) <= tol_k else nu2
        lam2 = k2 if abs(lam2 - k2) <= tol_k else lam2
        nu2 = 0.0 if abs(nu2) <= 1e-13 else nu2
        # a negative root from roundoff is clipped to 0; a nan root stays nan
        lam = sl * math.sqrt(0.0 if lam2 < 0.0 else lam2)
        mu = sm * math.sqrt(0.0 if mu2 < 0.0 else mu2)
        nu = sn * math.sqrt(0.0 if nu2 < 0.0 else nu2)
        xr, yr, zr = _cartesian(h2, k2, lam, mu, nu, sl, sm, sn)
    except (OverflowError, ZeroDivisionError, RangeViolation) as exc:
        # Q^3 overflows from |r| ~ 1e26 on, w1^3 from ~ 2e51; Q^3 and h^2 k^2
        # underflow to 0 below ~1e-26; far out, roots leave their ranges
        raise RoundTripFailure(f"round trip of {(x, y, z)} fails "
                               f"({type(exc).__name__}: {exc})") from None
    err = max(abs(xr - x), abs(yr - y), abs(zr - z))
    # from |r| ~ 1.4e154 on, x^2 is inf, every root nan and so is err
    if not err <= _ROUND_TRIP_TOL:
        raise RoundTripFailure(f"round trip of {(x, y, z)} off by {err:.3e} (> 1e-6)")
    return EllipsoidalPoint(lam, mu, nu, sl, sm, sn)


def _cartesian(h2, k2, lam, mu, nu, s_lambda, s_mu, s_nu):
    """Signed ellipsoidal -> Cartesian, after checking the coordinate ranges."""
    l2, m2, n2 = lam * lam, mu * mu, nu * nu
    slack = 1e-12 * (l2 if l2 > 1.0 else 1.0)
    if l2 < k2 - slack or m2 < h2 - slack or m2 > k2 + slack or n2 > h2 + slack:
        raise RangeViolation(
            f"coordinates out of range: lam^2={l2}, mu^2={m2}, nu^2={n2} "
            f"for h^2={h2}, k^2={k2}")
    x2 = l2 * m2 * n2 / (h2 * k2)
    y2 = (l2 - h2) * (m2 - h2) * (h2 - n2) / (h2 * (k2 - h2))
    z2 = (l2 - k2) * (k2 - m2) * (k2 - n2) / (k2 * (k2 - h2))
    return (s_lambda * s_mu * s_nu * math.sqrt(0.0 if x2 < 0.0 else x2),
            s_lambda * s_nu * math.sqrt(0.0 if y2 < 0.0 else y2),
            s_lambda * s_mu * math.sqrt(0.0 if z2 < 0.0 else z2))


def ell_to_cart(sys: EllipsoidSystem, p: EllipsoidalPoint):
    """Signed ellipsoidal -> Cartesian coordinates."""
    return _cartesian(sys.h2, sys.k2, *p)


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
