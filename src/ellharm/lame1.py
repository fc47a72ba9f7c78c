"""First-kind Lame functions E_n^p.

Each solution of the Lame equation

    (s^2 - h^2)(s^2 - k^2) E'' + s (2 s^2 - h^2 - k^2) E' + (p - n(n+1) s^2) E = 0

used here factors as E(s) = psi(s) * P(t) with t = 1 - s^2/h^2, where psi is
one of four radical prefactors labelling the solution class:

    K: s^(n mod 2)                      (r + 1 solutions, r = n // 2)
    L: s^(1 - n mod 2) * sqrt(s^2-h^2)  (n - r solutions)
    M: s^(1 - n mod 2) * sqrt(s^2-k^2)  (n - r solutions)
    N: s^(n mod 2) * sqrt(s^2-h^2) * sqrt(s^2-k^2)   (r solutions)

and P is a polynomial whose coefficients solve a tridiagonal eigenproblem;
the eigenvalue is the separation constant.  The global order p = 1..2n+1
enumerates classes K, L, M, N in that order, with ascending separation
constants inside each class.

Square-root factors are evaluated with explicit signs: each takes the sign
of the argument times a supplied octant sign (s_mu for the h-root, s_nu for
the k-root), so the same function object serves for the lambda, mu and nu
coordinate roles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import EllipsoidSystem
from .errors import BranchPointDerivative, DegenerateEllipsoid, OrderOutOfRange
from .numerics import solve_tridiagonal

__all__ = [
    "LameClass",
    "LameFunction",
    "class_of",
    "class_dim",
    "build_tridiagonal",
    "lame_function",
    "eval_lame",
    "eval_lame_derivative",
    "eval_lame_second_derivative",
    "eval_lame_condition",
    "lame_residual",
    "N_MAX_DEFAULT",
]

N_MAX_DEFAULT = 12

_TAGS = "KLMN"


@dataclass(frozen=True)
class LameClass:
    tag: str          # one of K, L, M, N
    n: int            # degree
    p_local: int      # 0-based index within the class

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise OrderOutOfRange(f"unknown class tag {self.tag!r}")
        if not (0 <= self.p_local < class_dim(self.tag, self.n)):
            raise OrderOutOfRange(
                f"p_local={self.p_local} out of range for class {self.tag}, n={self.n}")


def class_dim(tag: str, n: int) -> int:
    """Number of solutions of degree n in the given class."""
    r = n // 2
    return {"K": r + 1, "L": n - r, "M": n - r, "N": r}[tag]


def class_of(n: int, p: int) -> LameClass:
    """Map the global order p in 1..2n+1 to (class, local index)."""
    if n < 0 or not (1 <= p <= 2 * n + 1):
        raise OrderOutOfRange(f"order p={p} invalid for degree n={n}")
    q = p - 1
    for tag in _TAGS:
        cnt = class_dim(tag, n)
        if q < cnt:
            return LameClass(tag=tag, n=n, p_local=q)
        q -= cnt


def psi_exponents(tag: str, n: int):
    """Exponents (e_s, e_h, e_k) of the radical prefactor psi; e_s gives
    e_s + e_h + e_k the parity of n."""
    e_h, e_k = int(tag in "LN"), int(tag in "MN")
    return (n + e_h + e_k) % 2, e_h, e_k


def build_tridiagonal(sys: EllipsoidSystem, cls: LameClass):
    """The (diag, lower, upper) arrays of the tridiagonal matrix whose
    eigenvalues are the admissible separation constants of degree ``cls.n``
    in class ``cls.tag``.

    Acting on the basis psi * t^j, the Lame operator maps basis element j to
    A_j t^(j-1) + B_j t^j + C_j t^(j+1); the matrix below is the negative of
    that operator's matrix so its eigenvalues are the separation constants
    directly.  Substituting psi * t^j into the Lame equation and collecting
    powers of t gives, with (e_s, e_h, e_k) the exponents of psi,
    q = n(n+1), sigma = e_s + e_h + e_k, u_j = 2j + e_s + e_h and
    w_j = 2j + e_h + e_k,

        A_j = 2j (2j - 1 + 2 e_h) (k^2 - h^2)
        B_j = h^2 (u_j^2 + w_j^2 - q) - k^2 u_j^2
        C_j = h^2 (q - (2j + sigma)(2j + sigma + 1))

    for j = 0 .. class_dim - 1.

    Every off-diagonal product lower[j] upper[j] = C_j A_(j+1), j <= m - 2
    with m = class_dim, is positive, so ``solve_tridiagonal`` can always
    symmetrize the matrix: A_(j+1) = 2(j+1)(2j+1+2e_h)(k^2 - h^2) > 0 since
    k > h, and in every class 2m + sigma = n + 2, so v = 2j + sigma <= n - 2
    and C_j = h^2 (n(n+1) - v(v+1)) >= h^2 (4n - 2) > 0.
    """
    h2, k2 = sys.h2, sys.k2
    e_s, e_h, e_k = psi_exponents(cls.tag, cls.n)
    q = cls.n * (cls.n + 1)
    j = np.arange(class_dim(cls.tag, cls.n))
    u, w, v = 2 * j + e_s + e_h, 2 * j + e_h + e_k, 2 * j + e_s + e_h + e_k
    A = 2 * j * (2 * j - 1 + 2 * e_h) * (k2 - h2)
    B = h2 * (u * u + w * w - q) - k2 * u * u
    C = h2 * (q - v * (v + 1))
    return -B, -C[:-1], -A[1:]


@dataclass(frozen=True)
class LameFunction:
    system: EllipsoidSystem
    cls: LameClass
    coeffs: np.ndarray          # b_j of P(t) = sum b_j t^j
    separation_constant: float

    @property
    def n(self) -> int:
        return self.cls.n


def _class_functions(sys: EllipsoidSystem, n: int, tag: str) -> list:
    """Every function of degree n in one class, in ascending separation
    constant, from one solve of the class eigenproblem ([] for an empty class)."""
    m = class_dim(tag, n)
    if m == 0:
        return []
    diag, lower, upper = build_tridiagonal(sys, LameClass(tag, n, 0))
    # normalize so the coefficient of s^n in psi * P equals 1: the top basis
    # element contributes b_{m-1} * (-1/h^2)^{m-1} * s^{2(m-1)} * psi
    try:
        values, vectors = solve_tridiagonal(diag, lower, upper)
        top = (-sys.h2) ** (m - 1)
    except (ValueError, OverflowError) as exc:
        # the entries scale with h^2 and k^2, and top with h^(2(m-1)), so huge
        # semiaxes overflow them
        raise DegenerateEllipsoid(f"semiaxes {(sys.a, sys.b, sys.c)}: the degree-{n} Lame "
                                  f"eigenproblem or its normalization overflows ({exc})"
                                  ) from exc
    with np.errstate(all="ignore"):
        b = vectors * (top / vectors[m - 1])
    if not np.isfinite(b).all():
        raise DegenerateEllipsoid(f"semiaxes {(sys.a, sys.b, sys.c)}: the degree-{n} "
                                  "Lame normalization overflows")
    return [LameFunction(system=sys, cls=LameClass(tag, n, j), coeffs=b[:, j].copy(),
                         separation_constant=float(values[j])) for j in range(m)]


def lame_function(sys: EllipsoidSystem, n: int, p: int) -> LameFunction:
    """The function E_n^p: one column of its class's eigensolve."""
    cls = class_of(n, p)
    return _class_functions(sys, n, cls.tag)[cls.p_local]


def _padded(functions):
    """The (3, F) psi exponents and zero-padded (m, F) coefficients of the functions."""
    b = np.zeros((max(len(f.coeffs) for f in functions), len(functions)))
    for j, f in enumerate(functions):
        b[:len(f.coeffs), j] = f.coeffs
    return np.array([psi_exponents(f.cls.tag, f.n) for f in functions]).T, b


def _leibniz(x, y):
    """Product of two (value, d/ds, d2/ds2) lists, truncated to x's length."""
    out = [x[0] * y[0]]
    if len(x) > 1:
        out.append(x[1] * y[0] + x[0] * y[1])
    if len(x) > 2:
        out.append(x[2] * y[0] + 2.0 * x[1] * y[1] + x[0] * y[2])
    return out


def _horner(t, b):
    """P(t) = sum_j b_j t^j, or P of each column of b, by numpy ``polyval``'s
    operations in its order, in place: equal to ``polyval`` bit for bit.  For
    a matrix b, t is first copied out to the output shape: the steps then run
    on contiguous arrays of one shape, not on a t broadcast along each row."""
    acc = b[-1] + t * 0
    if b.ndim > 1:
        t, t_points = np.empty_like(acc), t
        np.copyto(t, t_points)
    for j in range(len(b) - 2, -1, -1):
        acc *= t
        acc += b[j]
    return acc


def _where(present, factor):
    """A psi factor (value, derivatives) where ``present`` is set, and the
    exact factor 1 elsewhere."""
    return [np.where(present, x, one) for x, one in zip(factor, (1.0, 0.0, 0.0))]


# the eight exponent codes e_s + 2 e_h + 4 e_k, and which of them hold each factor
_CODE_WEIGHTS = np.array([1, 2, 4])
_CODE_BITS = [(np.arange(8) & w) > 0 for w in _CODE_WEIGHTS]


def _eval(sys: EllipsoidSystem, exps, b, s, s_mu_sign, s_nu_sign, nderiv):
    """E and its first ``nderiv`` s-derivatives by one product rule over the
    factors of psi, with exponents ``exps``, then P(t(s)).  The value keeps
    the multiplication order ((1 s) sqrt) sqrt P of the value-only path, so
    E does not depend on ``nderiv``.

    ``b`` holds the coefficients of P, or an (m, F) matrix of F functions,
    zero-padded at high degree, whose values lie on a trailing axis; s and
    the signs then have a trailing axis of length 1, and the exponents are
    a (3, F) array, one column per function.  psi is then formed on a
    trailing axis of the eight exponent codes, with the exact factor 1 where
    a code lacks a factor, and gathered onto the columns by code; Horner's
    rule adds only exact zeros for the padding, so every function's E and
    E' equal its own evaluation bit for bit (E'' too, but for the sign of
    a zero at s = -0)."""
    s_arr = np.asarray(s, dtype=float)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    e_s, e_h, e_k = exps
    masked = isinstance(e_s, np.ndarray)
    out = [1.0, 0.0, 0.0][:nderiv + 1]
    if masked or e_s:
        factor = [s_arr, 1.0, 0.0][:nderiv + 1]
        out = _leibniz(out, _where(_CODE_BITS[0], factor) if masked else factor)
    s2 = s_arr * s_arr
    sgn = np.where(s_arr >= 0, 1.0, -1.0)
    for present, bits, semifocal2, octant_sign in (
            (e_h, _CODE_BITS[1], sys.h2, s_mu_sign), (e_k, _CODE_BITS[2], sys.k2, s_nu_sign)):
        if not (masked or present):
            continue
        w = s2 - semifocal2
        v = sgn * octant_sign * np.sqrt(np.abs(w))
        factor = [v]
        if nderiv:
            if np.any(v == 0) and np.any(present):
                raise BranchPointDerivative(
                    "derivative unbounded at a branch point |s| = h or k")
            factor += [s_arr * np.sign(w) / v, -semifocal2 / v ** 3]
        out = _leibniz(out, _where(bits, factor) if masked else factor)
    if masked:
        code = _CODE_WEIGHTS @ exps
        out = [x.take(code, axis=-1) for x in out]
    t = 1.0 - s2 / sys.h2
    P = [_horner(t, b)]
    if nderiv:
        tp = -2.0 * s_arr / sys.h2
        db = np.polynomial.polynomial.polyder(b)
        Pt = _horner(t, db)
        Ptt = _horner(t, np.polynomial.polynomial.polyder(db))
        P += [Pt * tp, Ptt * tp * tp + Pt * (-2.0 / sys.h2)]
    out = _leibniz(out, P)
    if scalar:
        out = [float(v[0]) for v in out]
    return out[0] if nderiv == 0 else tuple(out)


def _parts(f: LameFunction):
    """The (system, psi exponents, coefficients) that ``_eval`` reads."""
    return f.system, psi_exponents(f.cls.tag, f.n), f.coeffs


def eval_lame(f: LameFunction, s, s_mu_sign: int = 1, s_nu_sign: int = 1):
    """Evaluate E(s) = psi(s) P(t(s)) with octant-signed radical factors."""
    return _eval(*_parts(f), s, s_mu_sign, s_nu_sign, 0)


def eval_lame_derivative(f: LameFunction, s, s_mu_sign: int = 1, s_nu_sign: int = 1):
    """(E(s), E'(s)) by the product rule on psi * P."""
    return _eval(*_parts(f), s, s_mu_sign, s_nu_sign, 1)


def eval_lame_second_derivative(f: LameFunction, s, s_mu_sign: int = 1,
                                s_nu_sign: int = 1):
    """(E, E', E'') with fully analytic derivatives."""
    return _eval(*_parts(f), s, s_mu_sign, s_nu_sign, 2)


def _condition(sys: EllipsoidSystem, b, s):
    """Evaluation condition of P at t = 1 - s^2/h^2 for coefficients ``b``,
    or for the columns of an (m, F) matrix on a trailing axis that s
    broadcasts against, as in ``_eval``; the zero padding adds exact zeros."""
    t = 1.0 - s * s / sys.h2
    P = np.abs(_horner(t, b))
    S = _horner(np.abs(t), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(P > 0, S / P, np.where(S > 0, np.inf, 1.0))


def eval_lame_condition(f: LameFunction, s):
    """Evaluation condition sum_j |b_j| |t|^j / |P(t)| of P at t = 1 - s^2/h^2.

    P is summed in the monomial basis, as in ``eval_lame``.  Relative
    rounding of size u in every summand moves the computed P(t) by at most
    this many times u, relative (Higham, Accuracy and Stability of Numerical
    Algorithms, 5.1): it is 1 when the summands share a sign and large when
    they cancel.  Where the computed P(t) is 0 but the summands are not, no
    digit survives and the condition is inf.
    """
    cond = _condition(f.system, f.coeffs, np.asarray(s, dtype=float))
    return float(cond) if cond.ndim == 0 else cond


def lame_residual(f: LameFunction, s):
    """Relative residual of the Lame equation at sample points s.

    Returns max |L[E](s)| / scale where scale is the largest term magnitude,
    using analytic first and second derivatives.
    """
    sys = f.system
    s = np.asarray(s, dtype=float)
    E, dE, ddE = eval_lame_second_derivative(f, s)
    h2, k2 = sys.h2, sys.k2
    n = f.n
    t1 = (s * s - h2) * (s * s - k2) * ddE
    t2 = s * (2 * s * s - h2 - k2) * dE
    t3 = (f.separation_constant - n * (n + 1) * s * s) * E
    res = t1 + t2 + t3
    scale = np.max(np.abs(np.stack([t1, t2, t3])))
    return float(np.max(np.abs(res)) / max(scale, 1e-300))
