"""Solid and surface ellipsoidal harmonics, normalization constants, and the
ellipsoidal expansion of the Coulomb kernel.

Interior solid harmonic:  E3(r) = E(lam) E(mu) E(nu)
Exterior solid harmonic:  F3(r) = (2n+1) E3(r) I(|lam|)
Surface harmonic:         S(mu, nu) = E(mu) E(nu)

The normalization constant gamma_n^p is the squared norm of the surface
harmonic under the weight (mu^2 - nu^2) / (sqrt(mu^2 - h^2) sqrt(k^2 - mu^2)
sqrt(h^2 - nu^2) sqrt(k^2 - nu^2)) over the full surface.  With the
substitutions mu^2 = h^2 + (k^2 - h^2) sin^2(phi) and nu = h sin(theta) all
four inverse-square-root endpoint singularities are absorbed and the
integrand becomes smooth, so a tensor Gauss-Legendre rule converges fast;
the full-surface value is 8x the positive-octant integral.

With these conventions the Coulomb kernel expands as

    1/|r - r'| = sum_n sum_p [4 pi / (2n+1)] (1/gamma_n^p) E3(r') F3(r)

for field points on a larger confocal shell than the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coords import EllipsoidSystem, EllipsoidalPoint, cart_to_ell
from .errors import (NonConvergence, OrderOutOfRange, OrderingViolation,
                     ValidationError)
from .lame1 import _condition, _eval, eval_lame, lame_function, psi_exponents
from .lame2 import eval_I, surface_values
from .numerics import gauss_legendre

__all__ = [
    "HarmonicIndex",
    "NormalizationTable",
    "CoulombExpansion",
    "interior_solid",
    "interior_matrix",
    "exterior_solid",
    "surface_harmonic",
    "gamma",
    "build_normalization_table",
    "coulomb_expand",
    "CANCELLATION_THRESHOLD",
]

# a term whose Lame polynomial sums have summands this many times larger
# than their values, added over the term's factors, may have lost more than
# six of its sixteen digits to cancellation: its degree is flagged
CANCELLATION_THRESHOLD = 1e6

GAMMA_ORDER_DEFAULT = 64
GAMMA_ORDER_MAX = 256


@dataclass(frozen=True)
class HarmonicIndex:
    n: int
    p: int

    def __post_init__(self):
        if self.n < 0 or not (1 <= self.p <= 2 * self.n + 1):
            raise OrderOutOfRange(f"(n, p) = ({self.n}, {self.p}) invalid")


def _padded(functions):
    """The (3, F) psi exponents and zero-padded (m, F) coefficients of the functions."""
    b = np.zeros((max(len(f.coeffs) for f in functions), len(functions)))
    for j, f in enumerate(functions):
        b[:len(f.coeffs), j] = f.coeffs
    return np.array([psi_exponents(f.cls.tag, f.n) for f in functions]).T, b


def _interior_pass(sys: EllipsoidSystem, exps, b, points) -> np.ndarray:
    """E3 of the columns of ``b`` at the points, C-contiguous (points, columns):
    products E(lam) E(mu) E(nu), in that order, equal to the scalar ones bit for bit."""
    coords = np.array([(pt.lam, pt.mu, pt.nu, pt.s_mu, pt.s_nu) for pt in points],
                      dtype=float).reshape(-1, 5)
    E = _eval(sys, exps, b, coords.T[:3, :, None], coords[:, 3:4], coords[:, 4:], 0)
    return E[0] * E[1] * E[2]


def interior_matrix(functions, points) -> np.ndarray:
    """E3 of every function at every point, as a (points, functions) array,
    in one pass per system."""
    out = np.empty((len(points), len(functions)))
    for sys in {f.system for f in functions}:
        cols = [j for j, f in enumerate(functions) if f.system == sys]
        out[:, cols] = _interior_pass(sys, *_padded([functions[j] for j in cols]), points)
    return out


def interior_solid(sys: EllipsoidSystem, idx: HarmonicIndex,
                   point: EllipsoidalPoint) -> float:
    """E3_n^p at the point: triple product of first-kind evaluations."""
    return float(interior_matrix([lame_function(sys, idx.n, idx.p)], [point])[0, 0])


def exterior_solid(sys: EllipsoidSystem, idx: HarmonicIndex,
                   point: EllipsoidalPoint) -> float:
    """F3_n^p at an exterior point (|lambda| > k required by eval_I)."""
    f = lame_function(sys, idx.n, idx.p)
    I = eval_I(f, abs(point.lam))
    return (2 * idx.n + 1) * float(interior_matrix([f], [point])[0, 0]) * I


def surface_harmonic(sys: EllipsoidSystem, idx: HarmonicIndex,
                     mu: float, nu: float,
                     s_mu: int = 1, s_nu: int = 1) -> float:
    """Product E(mu) E(nu) of the two angular factors."""
    f = lame_function(sys, idx.n, idx.p)
    return eval_lame(f, mu, s_mu, s_nu) * eval_lame(f, nu, s_mu, s_nu)


def _gamma_fixed_order(sys: EllipsoidSystem, f, order: int) -> float:
    """Octant integral at a fixed tensor Gauss-Legendre order, times 8; one
    rule on [0, pi/2] serves both angles."""
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


def gamma(sys: EllipsoidSystem, idx: HarmonicIndex,
          quad_order: int = GAMMA_ORDER_DEFAULT,
          with_error: bool = False):
    """Normalization constant gamma_n^p with an order-doubling error check."""
    if quad_order < 16:
        raise OrderOutOfRange("quad_order must be >= 16")
    f = lame_function(sys, idx.n, idx.p)
    order = quad_order
    val = _gamma_fixed_order(sys, f, order)
    while True:
        order *= 2
        val2 = _gamma_fixed_order(sys, f, order)
        err = abs(val2 - val) / max(abs(val2), 1e-300)
        if err <= 1e-8:
            return (val2, err) if with_error else val2
        if order >= GAMMA_ORDER_MAX:
            raise NonConvergence(
                f"gamma order-doubling stalled at order {order} (rel change {err:.2e})")
        val = val2


@dataclass(frozen=True)
class NormalizationTable:
    """Everything computed once per geometry for n <= N: the Lame functions
    and gamma by (n, p), and read-only arrays with (n, p) in column n^2+p-1."""

    system: EllipsoidSystem
    gamma: dict            # (n, p) -> value
    error_estimates: dict  # (n, p) -> order-doubling relative change
    functions: dict        # (n, p) -> LameFunction
    exponents: np.ndarray  # (3, columns) psi exponents e_s, e_h, e_k
    coeffs: np.ndarray     # (m, columns) zero-padded coefficients of P
    prefactor: np.ndarray  # 4 pi / ((2n + 1) gamma) by column
    surface: np.ndarray    # (4, columns) E, E', F, F' at lambda = a


def build_normalization_table(sys: EllipsoidSystem, N: int,
                              quad_order: int = GAMMA_ORDER_DEFAULT) -> NormalizationTable:
    fns, gam, errs = {}, {}, {}
    for key in [(n, p) for n in range(N + 1) for p in range(1, 2 * n + 2)]:
        gam[key], errs[key] = gamma(sys, HarmonicIndex(*key), quad_order, with_error=True)
        fns[key] = lame_function(sys, *key)
    arrays = (*_padded(list(fns.values())),
              np.array([4.0 * math.pi / (2 * n + 1) / g for (n, _), g in gam.items()]),
              np.array([surface_values(f) for f in fns.values()]).T.copy())
    for arr in arrays:
        arr.flags.writeable = False
    return NormalizationTable(sys, gam, errs, fns, *arrays)


def _checked_table(sys: EllipsoidSystem, N: int, table: NormalizationTable | None):
    """``table`` after checking that it was built for ``sys`` and reaches
    degree N (a new table when it is None)."""
    if table is None:
        table = build_normalization_table(sys, N)
    elif table.system != sys:
        raise ValidationError(
            f"table built for semiaxes {table.system.key()}, used for {sys.key()}")
    elif (N, 1) not in table.gamma:
        raise OrderOutOfRange(f"table does not reach degree N={N}")
    return table


@dataclass
class CoulombExpansion:
    N: int
    terms: dict              # (n, p) -> term value
    partial_sums: list       # by degree, length N + 1
    diagnostics: dict        # (n, p) -> dict with absE, absF, gamma and the
                             # term's rounding amplification (see coulomb_expand)
    cancellation_degrees: list = field(default_factory=list)

    @property
    def value(self) -> float:
        return self.partial_sums[-1]


def coulomb_expand(sys: EllipsoidSystem, source, field_point, N: int,
                   table: NormalizationTable | None = None) -> CoulombExpansion:
    """Degree-truncated ellipsoidal expansion of 1/|r - r'|.

    ``source`` and ``field_point`` are Cartesian triples; the field point must
    lie on a strictly larger confocal shell than the source.  Per-term
    magnitudes are recorded together with the term's rounding amplification:
    the sum, over every Lame factor of the term, of the evaluation condition
    of its polynomial sum P(t) -- the summands of that sum against its value
    (``eval_lame_condition``).  The factors are E(lam), E(mu), E(nu) at the
    source and at the field point, and E(lam) at the field point twice more
    for the 1/E^2 in the I_n^p integrand; that quadrature sums positive
    terms, and the integrand's condition on [lam, inf) is largest at lam.
    Terms that vanish exactly because a radical factor of E is zero lose
    nothing and get amplification 0.  Any degree whose largest amplification
    exceeds CANCELLATION_THRESHOLD is listed in ``cancellation_degrees``.
    """
    src = cart_to_ell(sys, *source)
    fld = cart_to_ell(sys, *field_point)
    if abs(fld.lam) <= abs(src.lam):
        raise OrderingViolation(
            f"field |lambda|={abs(fld.lam)} must exceed source |lambda|={abs(src.lam)}")
    table = _checked_table(sys, N, table)
    H = (N + 1) ** 2
    keys = list(table.functions)[:H]
    exps, coeffs = table.exponents[:, :H], table.coeffs[:, :H]
    E3_src, E3_fld = _interior_pass(sys, exps, coeffs, [src, fld])
    I = np.array([eval_I(table.functions[key], abs(fld.lam)) for key in keys])
    width = 2 * np.arange(N + 1) + 1   # degree n has 2n + 1 columns
    F3 = np.repeat(width, width) * E3_fld * I
    terms = table.prefactor[:H] * E3_src * F3

    s = np.array([src.lam, src.mu, src.nu, fld.lam, fld.mu, fld.nu])[:, None]
    cond = _condition(sys, coeffs, s)
    # the field lambda counts twice more, for the 1/E^2 inside I_n^p
    amp = cond.sum(axis=0) + 2.0 * cond[3]
    # a radical factor of psi exactly zero at a coordinate: the term is
    # exactly zero and loses nothing
    radical_zero = np.stack([s == 0.0, s * s == sys.h2, s * s == sys.k2])
    amp[np.any(radical_zero & (exps[:, None, :] != 0), axis=(0, 1))] = 0.0

    diagnostics = {
        key: {"absE": e, "absF": f, "gamma": table.gamma[key], "amplification": a}
        for key, e, f, a in zip(keys, np.abs(E3_src).tolist(), np.abs(F3).tolist(),
                                amp.tolist())}
    return CoulombExpansion(
        N=N, terms=dict(zip(keys, terms.tolist())),
        partial_sums=np.cumsum(terms)[np.cumsum(width) - 1].tolist(),
        diagnostics=diagnostics,
        cancellation_degrees=[n for n in range(N + 1)
                              if amp[n * n:(n + 1) ** 2].max() > CANCELLATION_THRESHOLD])
