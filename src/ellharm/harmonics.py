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
the full-surface value is 8x the positive-octant integral.  The weight
mu^2 - nu^2 separates, so the tensor rule is two products of one-dimensional
sums: with a_i = w_i E(mu_i)^2 / mu_i and b_j = w_j E(nu_j)^2 / sqrt(k^2 - nu_j^2),

    gamma = 8 [(sum a_i mu_i^2)(sum b_j) - (sum a_i)(sum b_j nu_j^2)].

With these conventions the Coulomb kernel expands as

    1/|r - r'| = sum_n sum_p [4 pi / (2n+1)] (1/gamma_n^p) E3(r') F3(r)

for field points on a larger confocal shell than the source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coords import EllipsoidSystem, EllipsoidalPoint, cart_to_ell
from .errors import (DegenerateEllipsoid, NonConvergence, OrderOutOfRange,
                     OrderingViolation, ValidationError)
from .lame1 import _class_functions, _condition, _eval, _padded, eval_lame, lame_function
from .lame2 import _second_kind, eval_I
from .numerics import gauss_legendre

__all__ = [
    "HarmonicIndex",
    "NormalizationTable",
    "CoulombExpansion",
    "interior_solid",
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

GAMMA_ORDER_START = 64
GAMMA_ORDER_MAX = 256


@dataclass(frozen=True)
class HarmonicIndex:
    n: int
    p: int

    def __post_init__(self):
        if self.n < 0 or not (1 <= self.p <= 2 * self.n + 1):
            raise OrderOutOfRange(f"(n, p) = ({self.n}, {self.p}) invalid")


def _point_rows(points) -> np.ndarray:
    """The (M, 6) input of ``_interior_pass``: each point's fields lam, mu,
    nu, s_lambda, s_mu, s_nu, as ``coords._cart_to_ell`` returns them."""
    return np.array([(pt.lam, pt.mu, pt.nu, pt.s_lambda, pt.s_mu, pt.s_nu)
                     for pt in points], dtype=float).reshape(-1, 6)


def _interior_pass(sys: EllipsoidSystem, exps, b, rows: np.ndarray) -> np.ndarray:
    """E3 of the columns of ``b`` at the points of the (M, 6) array ``rows``
    (see ``_point_rows``), C-contiguous (points, columns): products E(lam)
    E(mu) E(nu), in that order, equal to the scalar ones bit for bit."""
    E = _eval(sys, exps, b, rows.T[:3, :, None], rows[:, 4:5], rows[:, 5:], 0)
    return E[0] * E[1] * E[2]


def interior_solid(sys: EllipsoidSystem, idx: HarmonicIndex,
                   point: EllipsoidalPoint) -> float:
    """E3_n^p at the point: triple product of first-kind evaluations."""
    f = lame_function(sys, idx.n, idx.p)
    return float(_interior_pass(sys, *_padded([f]), _point_rows([point]))[0, 0])


def exterior_solid(sys: EllipsoidSystem, idx: HarmonicIndex,
                   point: EllipsoidalPoint) -> float:
    """F3_n^p at an exterior point (|lambda| > k required by eval_I)."""
    f = lame_function(sys, idx.n, idx.p)
    E3 = float(_interior_pass(sys, *_padded([f]), _point_rows([point]))[0, 0])
    return (2 * idx.n + 1) * E3 * eval_I(f, abs(point.lam))


def surface_harmonic(sys: EllipsoidSystem, idx: HarmonicIndex,
                     mu: float, nu: float,
                     s_mu: int = 1, s_nu: int = 1) -> float:
    """Product E(mu) E(nu) of the two angular factors."""
    f = lame_function(sys, idx.n, idx.p)
    return eval_lame(f, mu, s_mu, s_nu) * eval_lame(f, nu, s_mu, s_nu)


def _gamma_fixed_order(sys: EllipsoidSystem, f, order: int) -> float:
    """Octant integral at a fixed tensor Gauss-Legendre order, times 8, as the
    two separable sums of the module docstring; one rule on [0, pi/2] serves
    both angles."""
    x, w = gauss_legendre(order, 0.0, math.pi / 2.0)
    mu = np.sqrt(sys.h2 + (sys.k2 - sys.h2) * np.sin(x) ** 2)
    nu = sys.h * np.sin(x)
    a = w * eval_lame(f, mu) ** 2 / mu
    b = w * eval_lame(f, nu) ** 2 / np.sqrt(sys.k2 - nu ** 2)
    return 8.0 * float(np.sum(a * mu ** 2) * np.sum(b) - np.sum(a) * np.sum(b * nu ** 2))


def gamma(sys: EllipsoidSystem, idx: HarmonicIndex, with_error: bool = False):
    """Normalization constant gamma_n^p with an order-doubling error check:
    orders 64, 128 and 256, until two agree to 1e-8 relative."""
    f = lame_function(sys, idx.n, idx.p)

    def rung(order):
        # gamma scales as length^(4n), so far from unit lengths it leaves
        # float64 range: 0 or inf is no value to converge to
        with np.errstate(all="ignore"):
            value = _gamma_fixed_order(sys, f, order)
        if value == 0.0 or not math.isfinite(value):
            raise DegenerateEllipsoid(
                f"gamma_{idx.n}^{idx.p} of semiaxes {(sys.a, sys.b, sys.c)} is {value} "
                f"at order {order}: outside float64 range")
        return value

    order = GAMMA_ORDER_START
    val = rung(order)
    while True:
        order *= 2
        val2 = rung(order)
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
    # solvation's reaction factor by column for one (eps1, eps2) (see _reaction_factors)
    _reactions: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_normalization_table(sys: EllipsoidSystem, N: int) -> NormalizationTable:
    if N < 0:
        raise OrderOutOfRange(f"truncation degree N={N} is negative")
    # one eigensolve per (n, class); classes K, L, M, N give p = 1 .. 2n + 1
    functions = [f for n in range(N + 1) for tag in "KLMN"
                 for f in _class_functions(sys, n, tag)]
    fns = dict(zip([(n, p) for n in range(N + 1) for p in range(1, 2 * n + 2)], functions))
    gam, errs = {}, {}
    for key in fns:
        gam[key], errs[key] = gamma(sys, HarmonicIndex(*key), with_error=True)
    arrays = (*_padded(functions),
              np.array([4.0 * math.pi / (2 * n + 1) / g for (n, _), g in gam.items()]),
              np.array(_second_kind(functions, sys.a)[:4]))
    for arr in arrays:
        arr.flags.writeable = False
    return NormalizationTable(sys, gam, errs, fns, *arrays)


def _checked_table(sys: EllipsoidSystem, N: int, table: NormalizationTable | None):
    """``table`` after checking that it was built for ``sys`` and holds
    degree N (a new table when it is None)."""
    if table is None:
        table = build_normalization_table(sys, N)
    elif table.system != sys:
        raise ValidationError(
            f"table built for semiaxes {table.system.key()}, used for {sys.key()}")
    elif (N, 1) not in table.gamma:
        raise OrderOutOfRange(
            f"degree N={N} outside the table's 0..{math.isqrt(len(table.gamma)) - 1}")
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
    E3_src, E3_fld = _interior_pass(sys, exps, coeffs, _point_rows([src, fld]))
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
