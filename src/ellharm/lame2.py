"""Second-kind Lame functions F_n^p.

F is built from the first-kind function E and the semi-infinite integral

    I_n^p(lam) = \\int_lam^inf ds / ( E_n^p(s)^2 sqrt(s^2 - k^2) sqrt(s^2 - h^2) )

as F_n^p(lam) = (2n + 1) E_n^p(lam) I_n^p(lam).  The integral is evaluated
by adaptive Gauss-Kronrod quadrature, one integrand call per 15-node
panel, after mapping the tail to a unit interval; very close to the branch
point lam = k the head of the integral is first regularized with the
substitution s = k cosh(t).

The derivative needs no quadrature:

    dI/dlam = -1 / ( E(lam)^2 sqrt(lam^2 - k^2) sqrt(lam^2 - h^2) ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularLowerLimit
from .lame1 import LameFunction, eval_lame, eval_lame_derivative
from .numerics import adaptive_quad

__all__ = ["SecondKindEval", "eval_I", "eval_F", "surface_I", "surface_values"]

_NEAR_SINGULAR_FACTOR = 1.01   # lam below this multiple of k gets the cosh head
_SPLIT_FACTOR = 1.05           # head/tail split point as a multiple of k


@dataclass(frozen=True)
class SecondKindEval:
    I_value: float
    F_value: float
    dI_dlambda: float
    dF_dlambda: float


def _integrand(f: LameFunction, s, root_k):
    """1 / (E(s)^2 root_k sqrt(s^2 - h^2)) at an array of nodes s: the I_n^p
    integrand with root_k = sqrt(s^2 - k^2), or the cosh head's integrand in
    t, where s = k cosh(t), with root_k = 1."""
    E = eval_lame(f, s)
    if np.any(E == 0.0):
        raise NonConvergence(
            f"first-kind function vanishes at quadrature node s={s[E == 0.0][0]}")
    return 1.0 / (E * E * root_k * np.sqrt(s * s - f.system.h2))


def eval_I(f: LameFunction, lam: float, rel_tol: float = 1e-10) -> float:
    """I_n^p(lam) for lam strictly above the branch point k."""
    sys = f.system
    k = sys.k
    if lam <= k * (1.0 + 1e-12):
        raise SingularLowerLimit(f"lambda={lam} must exceed k={k}")

    total = 0.0
    lo = lam
    if lam <= _NEAR_SINGULAR_FACTOR * k:
        # head on [lam, 1.05 k] via s = k cosh(t): ds / sqrt(s^2 - k^2) = dt
        res = adaptive_quad(lambda t: _integrand(f, k * np.cosh(t), 1.0),
                            math.acosh(lam / k), math.acosh(_SPLIT_FACTOR),
                            rel_tol=rel_tol)
        if not res.converged:
            raise NonConvergence("head quadrature did not converge")
        total += res.value
        lo = _SPLIT_FACTOR * k

    res = adaptive_quad(lambda s: _integrand(f, s, np.sqrt(s * s - sys.k2)),
                        lo, math.inf, rel_tol=rel_tol)
    if not res.converged:
        raise NonConvergence("tail quadrature did not converge")
    return total + res.value


def surface_I(f: LameFunction, rel_tol: float = 1e-10) -> float:
    """I_n^p(a), the integral on the ellipsoid's own surface."""
    return eval_I(f, f.system.a, rel_tol=rel_tol)


def surface_values(f: LameFunction):
    """E, E', F, F' at lambda = a (positive-octant signs)."""
    second = eval_F(f, f.system.a)
    return (*eval_lame_derivative(f, f.system.a), second.F_value, second.dF_dlambda)


def eval_F(f: LameFunction, lam: float, rel_tol: float = 1e-10) -> SecondKindEval:
    """F, I and their lambda-derivatives at lam > k."""
    sys = f.system
    I = eval_I(f, lam, rel_tol=rel_tol)
    E, dE = eval_lame_derivative(f, lam)
    dI = -1.0 / (E * E * math.sqrt(lam * lam - sys.k2)
                 * math.sqrt(lam * lam - sys.h2))
    F = (2 * f.n + 1) * E * I
    dF = (2 * f.n + 1) * (dE * I + E * dI)
    return SecondKindEval(I_value=I, F_value=F, dI_dlambda=dI, dF_dlambda=dF)
