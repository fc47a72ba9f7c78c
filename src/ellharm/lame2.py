"""Second-kind Lame functions F_n^p.

F is built from the first-kind function E and the semi-infinite integral

    I_n^p(lam) = \\int_lam^inf ds / ( E_n^p(s)^2 sqrt(s^2 - k^2) sqrt(s^2 - h^2) )

as F_n^p(lam) = (2n + 1) E_n^p(lam) I_n^p(lam).  The integral is evaluated
by adaptive Gauss-Kronrod quadrature, one integrand call per 15-node
panel, after mapping the tail to a unit interval; very close to the branch
point lam = k the head of the integral is first regularized with the
substitution s = k cosh(t).

The derivative needs no quadrature, so E, E', F, F', I and dI/dlam of many
functions at one lam take one ``eval_I`` each and one pass for E and E':

    dI/dlam = -1 / ( E(lam)^2 sqrt(lam^2 - k^2) sqrt(lam^2 - h^2) ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularLowerLimit
from .lame1 import LameFunction, _eval, _padded, eval_lame
from .numerics import adaptive_quad

__all__ = ["SecondKindEval", "eval_I", "eval_F", "surface_I"]

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


def eval_I(f: LameFunction, lam: float) -> float:
    """I_n^p(lam) for lam strictly above the branch point k."""
    sys = f.system
    k = sys.k
    if lam <= k * (1.0 + 1e-12):
        raise SingularLowerLimit(f"lambda={lam} must exceed k={k}")

    parts = []
    lo = lam
    if lam <= _NEAR_SINGULAR_FACTOR * k:
        # head on [lam, 1.05 k] via s = k cosh(t): ds / sqrt(s^2 - k^2) = dt
        parts.append(adaptive_quad(lambda t: _integrand(f, k * np.cosh(t), 1.0),
                                   math.acosh(lam / k), math.acosh(_SPLIT_FACTOR)))
        lo = _SPLIT_FACTOR * k
    parts.append(adaptive_quad(lambda s: _integrand(f, s, np.sqrt(s * s - sys.k2)),
                               lo, math.inf))
    if not all(res.converged for res in parts):
        raise NonConvergence(f"the quadrature of I for {f.cls} at lambda={lam} "
                             "did not converge")
    return sum(res.value for res in parts)


def surface_I(f: LameFunction) -> float:
    """I_n^p(a), the integral on the ellipsoid's own surface."""
    return eval_I(f, f.system.a)


def _second_kind(functions, lam: float):
    """E, E', F, F', I and dI/dlam at lam > k, each an array over functions
    of one system; I takes one ``eval_I`` call per function."""
    sys = functions[0].system
    I = np.array([eval_I(f, lam) for f in functions])
    E, dE = _eval(sys, *_padded(functions), np.array([lam]), 1, 1, 1)
    dI = -1.0 / (E * E * math.sqrt(lam * lam - sys.k2)
                 * math.sqrt(lam * lam - sys.h2))
    width = 2 * np.array([f.n for f in functions]) + 1
    return E, dE, width * E * I, width * (dE * I + E * dI), I, dI


def eval_F(f: LameFunction, lam: float) -> SecondKindEval:
    """F, I and their lambda-derivatives at lam > k."""
    _, _, F, dF, I, dI = (float(v[0]) for v in _second_kind([f], lam))
    return SecondKindEval(I_value=I, F_value=F, dI_dlambda=dI, dF_dlambda=dF)
