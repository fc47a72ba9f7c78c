"""Numerical primitives: tridiagonal eigensolves, adaptive quadrature,
Gauss-Legendre rules.

These are deliberately generic -- nothing in this module knows about
ellipsoids.  The tridiagonal solver handles the mildly non-symmetric
matrices produced by three-term recurrences by diagonal symmetrization,
and the adaptive integrator is a 7-15 Gauss-Kronrod pair with bisection
refinement and a global error budget, including a built-in substitution
for semi-infinite intervals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NonSymmetrizable

__all__ = [
    "TridiagonalSpec",
    "EigenPairs",
    "QuadratureResult",
    "solve_tridiagonal",
    "adaptive_quad",
    "gauss_legendre",
]


# ----------------------------------------------------------------------
# tridiagonal eigenproblem
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TridiagonalSpec:
    """A real tridiagonal matrix T with diag d, subdiagonal f, superdiagonal g.

    T[i, i] = diag[i]; T[i+1, i] = lower[i]; T[i, i+1] = upper[i].
    """

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        m = len(self.diag)
        if len(self.lower) != m - 1 or len(self.upper) != m - 1:
            raise ValueError("lower/upper must have length len(diag) - 1")
        for arr in (self.diag, self.lower, self.upper):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError("non-finite matrix entry")

    @property
    def dim(self) -> int:
        return len(self.diag)

    def dense(self) -> np.ndarray:
        T = np.diag(self.diag)
        if self.dim > 1:
            T += np.diag(self.lower, -1) + np.diag(self.upper, 1)
        return T


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues (ascending) and unit-norm right eigenvectors (columns) of
    the original, possibly non-symmetric, tridiagonal matrix."""

    values: np.ndarray
    vectors: np.ndarray  # shape (dim, dim), column i pairs with values[i]
    symmetrized: bool    # True if the diagonal-similarity path was used


def solve_tridiagonal(spec: TridiagonalSpec) -> EigenPairs:
    """Eigendecomposition of a tridiagonal matrix.

    If every product lower[i]*upper[i] is positive the matrix is similar to a
    symmetric tridiagonal one via a diagonal scaling D, and the symmetric
    problem is solved with a dedicated routine; the eigenvectors of the
    original matrix are recovered as D @ w.  Otherwise a dense general
    eigensolve is used (flagged via ``symmetrized=False``).
    """
    m = spec.dim
    if m == 1:
        return EigenPairs(values=spec.diag.copy(),
                          vectors=np.array([[1.0]]), symmetrized=True)

    prod = spec.lower * spec.upper
    if np.all(prod > 0):
        # off-diagonal of the symmetrized matrix; the sign matters for
        # eigenvector recovery, not for the spectrum
        off = np.sign(spec.lower) * np.sqrt(prod)
        vals, w = eigh_tridiagonal(spec.diag, off)
        # D[i] / D[i-1] = sqrt(lower[i-1] / upper[i-1])
        D = np.ones(m)
        for i in range(1, m):
            D[i] = D[i - 1] * math.sqrt(spec.lower[i - 1] / spec.upper[i - 1])
        vecs = D[:, None] * w
        vecs /= np.linalg.norm(vecs, axis=0)[None, :]
        return EigenPairs(values=vals, vectors=vecs, symmetrized=True)

    vals, vecs = np.linalg.eig(spec.dense())
    if np.max(np.abs(vals.imag)) > 1e-10 * max(1.0, np.max(np.abs(vals.real))):
        raise NonSymmetrizable("complex spectrum from dense fallback")
    order = np.argsort(vals.real)
    vals = vals.real[order]
    vecs = vecs.real[:, order]
    vecs /= np.linalg.norm(vecs, axis=0)[None, :]
    return EigenPairs(values=vals, vectors=vecs, symmetrized=False)


# ----------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

# 7-15 Gauss-Kronrod pair on [-1, 1] (Kronrod abscissae/weights and the
# embedded 7-point Gauss weights).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

# full node vector on [-1,1]: -x[0], ..., -x[6], 0, x[6], ..., x[0]
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK_FULL = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True
    subdivisions: int = field(default=1)


def _gk15(f, lo, hi):
    """One Gauss-Kronrod 7-15 panel on [lo, hi]; returns (value, error, neval)."""
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = c + half * _NODES
    y = np.array([f(v) for v in x], dtype=float)
    vk = half * float(_WK_FULL @ y)
    vg = half * float(_WG_FULL @ y)
    # standard QUADPACK-style rescaled error estimate
    mean = vk / (hi - lo)
    asc = half * float(_WK_FULL @ np.abs(y - mean))
    err = abs(vk - vg)
    if asc != 0.0 and err != 0.0:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    return vk, err, 15


def _adaptive_finite(f, lo, hi, rel_tol, max_subdiv):
    val, err, nev = _gk15(f, lo, hi)
    heap = [(-err, lo, hi, val, err)]
    total_val, total_err = val, err
    nsub = 1
    while True:
        tol = max(rel_tol * abs(total_val), 1e-14)
        if total_err <= tol:
            return QuadratureResult(total_val, total_err, nev, True, nsub)
        if nsub >= max_subdiv:
            return QuadratureResult(total_val, total_err, nev, False, nsub)
        _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1, n1 = _gk15(f, a, mid)
        v2, e2, n2 = _gk15(f, mid, b)
        nev += n1 + n2
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
        nsub += 1


def adaptive_quad(f, lo, hi, rel_tol=1e-10, max_subdiv=2000) -> QuadratureResult:
    """Adaptively integrate ``f`` over [lo, hi] to ``rel_tol`` relative, or
    1e-14 absolute; ``hi`` may be ``inf`` when lo > 0.

    Semi-infinite intervals are mapped to (0, 1] by the substitution
    s = lo / t.

    If the subdivision cap is reached the best available value is returned
    with ``converged=False`` and an honest error estimate, rather than
    raising; callers that need a hard failure can check the flag.
    """
    if math.isinf(hi):
        if not lo > 0:
            raise ValueError(f"a semi-infinite interval needs lo > 0, got lo={lo}")
        g = lambda t: f(lo / t) * lo / (t * t)
        return _adaptive_finite(g, 0.0, 1.0, rel_tol, max_subdiv)
    return _adaptive_finite(f, lo, hi, rel_tol, max_subdiv)


# ----------------------------------------------------------------------
# fixed-order Gauss-Legendre
# ----------------------------------------------------------------------

def gauss_legendre(order: int, lo: float = -1.0, hi: float = 1.0):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on [lo, hi].

    Exact for polynomials of degree <= 2*order - 1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w
