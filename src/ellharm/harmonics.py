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

An interior harmonic is a polynomial in x, y, z, which the solvation
energies evaluate without ellipsoidal coordinates (Hobson 1931; Dassios,
Ellipsoidal Harmonics, CUP 2012).  Write P(t) = b_(m-1) prod_i (t - t_i),
whose leading coefficient is (-h^2)^(m-1), and theta_i = h^2 (1 - t_i), so
that P = prod_i (s^2 - theta_i).  The coordinates lam^2, mu^2, nu^2 of a
point are the roots of its confocal cubic,

    (theta - lam^2)(theta - mu^2)(theta - nu^2) = q(theta)
      = theta (theta - h^2)(theta - k^2) - x^2 (theta - h^2)(theta - k^2)
        - y^2 theta (theta - k^2) - z^2 theta (theta - h^2),

and the radical factors multiply to lam mu nu = h k x, and so on for y and
z.  Hence

    E3 = kappa x^e_s y^e_h z^e_k prod_i q(theta_i),
    kappa = (-1)^(m-1) (h k)^e_s (h sqrt(k^2 - h^2))^e_h (k sqrt(k^2 - h^2))^e_k,

with one factor q(theta_i) = A_i + x^2 B_x,i + y^2 B_y,i + z^2 B_z,i per
root, linear in the squared coordinates.  The Lame roots are real and lie
in (0, k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coords import EllipsoidSystem, EllipsoidalPoint, cart_to_ell
from .errors import (DegenerateEllipsoid, NonConvergence, NumericalError, OrderOutOfRange,
                     OrderingViolation, ValidationError)
from .lame1 import (_CODE_BITS, _CODE_WEIGHTS, _class_functions, _condition, _eval, _index,
                    _order, _padded, class_of, eval_lame, lame_function)
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
GAMMA_ORDER_MAX = 1024


@dataclass(frozen=True)
class HarmonicIndex:
    n: int
    p: int

    def __post_init__(self):
        _order(self.n, self.p)


def _interior_pass(sys: EllipsoidSystem, exps, b, points) -> np.ndarray:
    """E3 of the columns of ``b`` at a sequence of ``EllipsoidalPoint``s,
    C-contiguous (points, columns): products E(lam) E(mu) E(nu), in that
    order, equal to the scalar ones bit for bit.  The points' fields are read
    as the rows of one (M, 6) array."""
    rows = np.array(points, dtype=float)
    E = _eval(sys, exps, b, rows.T[:3, :, None], rows[:, 4:5], rows[:, 5:], 0)
    return E[0] * E[1] * E[2]


def _lame_roots(b, m) -> np.ndarray:
    """The roots t_i of each column's P(t) = sum_j b_j t^j, (roots, columns),
    for the (m, F) zero-padded coefficients ``b`` whose column j has m[j]
    coefficients; rows past a column's m[j] - 1 roots hold 0.  Companion
    eigenvalues, one stacked eigensolve per root count, polished by two
    Newton steps on a compensated P, after which they are correctly rounded
    up to N = 26 on 15,12,10.  A root off the real axis raises
    NumericalError."""
    t = np.zeros((max(len(b) - 1, 1), b.shape[1]))
    for r in range(1, len(b)):
        cols = np.flatnonzero(m == r + 1)
        if not len(cols):
            continue
        companion = np.zeros((len(cols), r, r))
        companion[:, np.arange(1, r), np.arange(r - 1)] = 1.0
        companion[:, :, -1] = -(b[:r, cols] / b[r, cols]).T
        roots = np.linalg.eigvals(companion)
        if np.any(np.imag(roots) != 0.0):
            raise NumericalError(f"a Lame polynomial with {r} roots has a root off the "
                                 "real axis")
        t[:r, cols] = roots.real.T
    for _ in range(2):
        P, dP = _compensated_horner(t, b)
        with np.errstate(all="ignore"):
            step = P / dP
        t -= np.where(np.isfinite(step), step, 0.0)
    return np.where(np.arange(len(t))[:, None] < m - 1, t, 0.0)


def _compensated_horner(t, b):
    """P(t) of each column of ``b`` at the rows of t, as accurate as Horner's
    rule in twice the working precision (Graillat, Langlois and Louvet,
    2005: the rounding errors of each step, found exactly by Dekker's
    products and Knuth's sums, are summed by a second Horner pass), and P'
    by plain Horner."""
    P, err, dP = b[-1] + 0.0 * t, 0.0 * t, 0.0 * t
    split = 134217729.0 * t                 # 2^27 + 1
    t_hi = split - (split - t)
    t_lo = t - t_hi
    for j in range(len(b) - 2, -1, -1):
        dP = dP * t + P
        split = 134217729.0 * P
        P_hi = split - (split - P)
        P_lo = P - P_hi
        prod = P * t
        prod_err = ((P_hi * t_hi - prod) + P_hi * t_lo + P_lo * t_hi) + P_lo * t_lo
        P = prod + b[j]
        back = P - prod
        sum_err = (prod - (P - back)) + (b[j] - back)
        err = err * t + (prod_err + sum_err)
    return P + err, dP


def _factor_rows(sys: EllipsoidSystem, exps, b, m) -> np.ndarray:
    """The (4, roots, columns) rows A, B_x, B_y, B_z with q(theta_i) = A + x^2
    B_x + y^2 B_y + z^2 B_z at each root theta_i = h^2 (1 - t_i) of the
    columns' P, padded with the exact factor 1 (A = 1, B = 0), and each
    column's kappa folded into its first row (see the module docstring)."""
    t = _lame_roots(b, m)
    # k^2 - h^2 as the Lame coefficients and gamma were solved with
    d = sys.k2 - sys.h2
    theta, minus_h2 = sys.h2 * (1.0 - t), -sys.h2 * t  # theta, theta - h^2
    minus_k2 = minus_h2 - d                           # theta - k^2
    rows = np.stack([theta * minus_h2 * minus_k2, -minus_h2 * minus_k2,
                     -theta * minus_k2, -theta * minus_h2])
    rows[:, np.arange(len(t))[:, None] >= m - 1] = [[1.0], [0.0], [0.0], [0.0]]
    e_s, e_h, e_k = exps
    root_d = math.sqrt(d)
    kappa = (np.where(m % 2, 1.0, -1.0) * (sys.h * sys.k) ** e_s
             * (sys.h * root_d) ** e_h * (sys.k * root_d) ** e_k)
    rows[:, 0] *= kappa
    return rows


def _cartesian_pass(table: NormalizationTable, xyz, H: int) -> np.ndarray:
    """E3 of the table's first H columns at the (M, 3) Cartesian points
    ``xyz``, (points, columns), in product form: q at every root of every
    column from one matmul of x^2, y^2, z^2 against the B rows, plus A, their
    product over the roots, times the monomial x^e_s y^e_h z^e_k gathered by
    exponent code.  No ellipsoidal coordinate is computed."""
    rows = table.factors[:, :, :H]
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    q = (xyz * xyz) @ rows[1:].reshape(3, -1)
    q += rows[0].reshape(-1)
    E3 = np.multiply.reduce(q.reshape(len(xyz), rows.shape[1], H), axis=1)
    monomials = np.where(_CODE_BITS, xyz[:, :, None], 1.0).prod(axis=1)
    E3 *= monomials.take(_CODE_WEIGHTS @ table.exponents[:, :H], axis=1)
    return E3


def interior_solid(sys: EllipsoidSystem, idx: HarmonicIndex,
                   point: EllipsoidalPoint) -> float:
    """E3_n^p at the point: triple product of first-kind evaluations."""
    f = lame_function(sys, idx.n, idx.p)
    return float(_interior_pass(sys, *_padded([f]), [point])[0, 0])


def exterior_solid(sys: EllipsoidSystem, idx: HarmonicIndex,
                   point: EllipsoidalPoint) -> float:
    """F3_n^p at an exterior point (|lambda| > k required by eval_I)."""
    f = lame_function(sys, idx.n, idx.p)
    E3 = float(_interior_pass(sys, *_padded([f]), [point])[0, 0])
    return (2 * idx.n + 1) * E3 * eval_I(f, abs(point.lam))


def surface_harmonic(sys: EllipsoidSystem, idx: HarmonicIndex,
                     mu: float, nu: float,
                     s_mu: int = 1, s_nu: int = 1) -> float:
    """Product E(mu) E(nu) of the two angular factors."""
    f = lame_function(sys, idx.n, idx.p)
    return eval_lame(f, mu, s_mu, s_nu) * eval_lame(f, nu, s_mu, s_nu)


def _gamma_fixed_order(sys: EllipsoidSystem, exps, b, order: int) -> np.ndarray:
    """Octant integrals at a fixed tensor Gauss-Legendre order, times 8, as the
    two separable sums of the module docstring, for every column of the
    zero-padded coefficient matrix ``b`` with psi exponents ``exps``.  One
    rule on [0, pi/2] serves both angles, and one ``_eval`` pass gives E on
    the mu and nu nodes together.  The products are laid out C-contiguous as
    (columns, order), so each column's sums are numpy's pairwise sums of one
    contiguous row: every column keeps the bits of a one-column pass."""
    x, w = gauss_legendre(order, 0.0, math.pi / 2.0)
    mu = np.sqrt(sys.h2 + (sys.k2 - sys.h2) * np.sin(x) ** 2)
    nu = sys.h * np.sin(x)
    E = _eval(sys, exps, b, np.concatenate([mu, nu])[:, None], 1, 1, 0)
    E_mu, E_nu = np.split(np.ascontiguousarray(E.T), 2, axis=1)
    a = w * E_mu ** 2 / mu
    c = w * E_nu ** 2 / np.sqrt(sys.k2 - nu ** 2)
    return 8.0 * (np.sum(a * mu ** 2, axis=1) * np.sum(c, axis=1)
                  - np.sum(a, axis=1) * np.sum(c * nu ** 2, axis=1))


def gamma(sys: EllipsoidSystem, idx, with_error: bool = False):
    """Normalization constant gamma_n^p of one ``HarmonicIndex`` (a float), or
    of each of a sequence of them (an array, in the order given); with
    ``with_error``, also the relative change of its last order doubling.

    Each distinct (n, class) is solved once.  One order-doubling ladder,
    64, 128, ... up to 1024, serves all indices: an index is done when two
    successive orders agree to 1e-8 relative, and only the indices not yet
    done are evaluated at the next order.  Errors are raised at the lowest
    order where some index fails, and name the first failing one in (n, p)
    order: ``DegenerateEllipsoid`` for a value of 0 or not finite, and
    ``NonConvergence`` if it still changes at 1024.  An element that is not
    a ``HarmonicIndex`` raises ``ValidationError`` before any work."""
    single = isinstance(idx, HarmonicIndex)
    keys = [idx] if single or not np.iterable(idx) else list(idx)
    classes, functions = {}, []
    for key in keys:
        if not isinstance(key, HarmonicIndex):
            raise ValidationError(f"gamma takes a HarmonicIndex or a sequence of them, "
                                  f"not {key!r}")
        cls = class_of(key.n, key.p)
        if (key.n, cls.tag) not in classes:
            classes[key.n, cls.tag] = _class_functions(sys, key.n, cls.tag)
        functions.append(classes[key.n, cls.tag][cls.p_local])
    values, errors = np.empty(len(keys)), np.empty(len(keys))
    if not keys:
        return (values, errors) if with_error else values
    exps, b = _padded(functions)

    def failing(active, mask):
        # the position in ``active`` of the first index in (n, p) order
        # among those flagged by ``mask``, and the name errors give it
        j = min(np.flatnonzero(mask), key=lambda j: (keys[active[j]].n, keys[active[j]].p))
        key = keys[active[j]]
        return j, f"gamma_{key.n}^{key.p} of semiaxes {(sys.a, sys.b, sys.c)}"

    def rung(active, order):
        # gamma scales as length^(4n), so far from unit lengths it leaves
        # float64 range: 0 or inf is no value to converge to
        with np.errstate(all="ignore"):
            value = _gamma_fixed_order(sys, exps[:, active], b[:, active], order)
        bad = (value == 0.0) | ~np.isfinite(value)
        if bad.any():
            j, name = failing(active, bad)
            raise DegenerateEllipsoid(f"{name} is {float(value[j])} at order {order}: "
                                      "outside float64 range")
        return value

    active = np.arange(len(keys))
    order = GAMMA_ORDER_START
    val = rung(active, order)
    while True:
        order *= 2
        val2 = rung(active, order)
        err = abs(val2 - val) / np.maximum(abs(val2), 1e-300)
        done = err <= 1e-8
        values[active[done]], errors[active[done]] = val2[done], err[done]
        if done.all():
            break
        if order >= GAMMA_ORDER_MAX:
            j, name = failing(active, ~done)
            raise NonConvergence(f"{name}: order-doubling stalled at order {order} "
                                 f"(rel change {float(err[j]):.2e})")
        active, val = active[~done], val2[~done]
    if single:
        values, errors = float(values[0]), float(errors[0])
    return (values, errors) if with_error else values


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
    factors: np.ndarray    # (4, roots, columns) rows A, B_x, B_y, B_z of q (see _factor_rows)
    # solvation's reaction factor by column for one (eps1, eps2) (see _reaction_factors)
    _reactions: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def build_normalization_table(sys: EllipsoidSystem, N: int) -> NormalizationTable:
    N = _index(N, "truncation degree N")
    if N < 0:
        raise OrderOutOfRange(f"truncation degree N={N} is negative")
    # one eigensolve per (n, class); classes K, L, M, N give p = 1 .. 2n + 1
    functions = [f for n in range(N + 1) for tag in "KLMN"
                 for f in _class_functions(sys, n, tag)]
    fns = dict(zip([(n, p) for n in range(N + 1) for p in range(1, 2 * n + 2)], functions))
    gam, errs = (dict(zip(fns, x.tolist()))
                 for x in gamma(sys, [HarmonicIndex(*key) for key in fns], with_error=True))
    exps, b = _padded(functions)
    arrays = (exps, b,
              np.array([4.0 * math.pi / (2 * n + 1) / g for (n, _), g in gam.items()]),
              np.array(_second_kind(functions, sys.a)[:4]),
              _factor_rows(sys, exps, b, np.array([len(f.coeffs) for f in functions])))
    for arr in arrays:
        arr.flags.writeable = False
    return NormalizationTable(sys, gam, errs, fns, *arrays)


def _checked_table(sys: EllipsoidSystem, N: int, table: NormalizationTable | None):
    """``table`` after checking that it was built for ``sys`` and holds
    degree N (a new table when it is None)."""
    N = _index(N, "truncation degree N")
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
