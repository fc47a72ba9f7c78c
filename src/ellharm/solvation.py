"""Semi-analytic two-dielectric Poisson solvation for point charges inside a
tri-axial ellipsoid.

Interior permittivity eps1, exterior eps2.  The source charges define
coefficients G, the dielectric response defines reaction coefficients B, and
the exterior potential coefficients C follow from the interface conditions:

    G_n^p = sum_k q_k [4 pi / (2n+1)] (1/gamma_n^p) E3_n^p(r_k)

    B_n^p = [(eps1 - eps2)/(eps1 eps2)] [F(a)/E(a)]
            [1 - (eps1/eps2) (E'(a)/E(a)) / (F'(a)/F(a))]^{-1} G_n^p

    C_n^p = G_n^p / eps1 + B_n^p E(a)/F(a)

The reaction potential inside is psi(r) = sum B_n^p E3_n^p(r) and the
solvation free energy is (1/2) sum_k q_k psi(r_k).

Units: lengths in Angstrom, charges in units of e, Gaussian electrostatics;
energies are reported both in e^2/Angstrom and in kcal/mol via the
configurable conversion constant KCAL_PER_E2_PER_ANGSTROM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .coords import EllipsoidSystem, _cart_to_ell, cart_to_ell
from .errors import ChargeOutsideEllipsoid, RangeViolation, ValidationError
from .harmonics import (HarmonicIndex, NormalizationTable, _checked_table,
                        _interior_pass, _point_rows)
from .lame1 import N_MAX_DEFAULT

__all__ = [
    "PointCharge",
    "DielectricModel",
    "ExpansionCoefficients",
    "EnergyReport",
    "source_coefficients",
    "reaction_coefficients",
    "exterior_coefficients",
    "expansion_coefficients",
    "reaction_potential",
    "solvation_energy",
    "born_energy",
    "KCAL_PER_E2_PER_ANGSTROM",
]

KCAL_PER_E2_PER_ANGSTROM = 332.0637


@dataclass(frozen=True)
class PointCharge:
    x: float
    y: float
    z: float
    q: float

    @property
    def position(self):
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class DielectricModel:
    eps1: float  # interior
    eps2: float  # exterior

    def __post_init__(self):
        if not (0 < self.eps1 < math.inf and 0 < self.eps2 < math.inf):
            raise ValueError("permittivities must be positive and finite")
        # the reaction factor divides by eps1 * eps2 and scales by eps1 / eps2,
        # except at eps1 == eps2, where it is exactly zero
        low, high = float_info.min, float_info.max
        if self.eps1 != self.eps2 and not (low <= self.eps1 * self.eps2 <= high
                                           and low <= self.eps1 / self.eps2 <= high):
            raise ValueError(f"permittivities {self.eps1}, {self.eps2}: their product "
                             "or ratio leaves the float64 range")


@dataclass(frozen=True)
class ExpansionCoefficients:
    N: int
    G: dict  # (n, p) -> float
    B: dict
    C: dict


@dataclass(frozen=True)
class EnergyReport:
    energy_kcal: float
    energy_gaussian: float  # e^2 / Angstrom
    N: int


def _scaled_radius2(sys: EllipsoidSystem, x: float, y: float, z: float) -> float:
    """x^2/a^2 + y^2/b^2 + z^2/c^2, or inf where a square leaves float range.

    Python's ``** 2`` raises OverflowError there.  It is kept rather than
    v * v, which rounds differently from libm's pow for about one finite
    value in 1,300, so a point on the surface keeps its verdict."""
    try:
        return (x / sys.a) ** 2 + (y / sys.b) ** 2 + (z / sys.c) ** 2
    except OverflowError:
        return math.inf


def _interior_terms(sys: EllipsoidSystem, charges, N: int,
                    table: NormalizationTable | None):
    """The table, q^T E3 (E3 the C-contiguous charges x columns matrix) and
    the source coefficients G, over the table's first (N + 1)^2 columns.  The
    table is checked first, then the charges are read once, in order."""
    table = _checked_table(sys, N, table)
    rows, q = [], []
    for ch in charges:
        if not _scaled_radius2(sys, ch.x, ch.y, ch.z) < 1.0:
            raise ChargeOutsideEllipsoid(
                f"charge at {ch.position} not strictly inside the ellipsoid")
        if not math.isfinite(ch.q):
            raise ValidationError(f"charge at {ch.position} has non-finite q={ch.q}")
        rows.append(_cart_to_ell(sys, ch.x, ch.y, ch.z))
        q.append(ch.q)
    H = (N + 1) ** 2
    qE3 = np.array(q, dtype=float) @ _interior_pass(
        sys, table.exponents[:, :H], table.coeffs[:, :H],
        np.array(rows, dtype=float).reshape(-1, 6))
    return table, qE3, table.prefactor[:H] * qE3


def source_coefficients(sys: EllipsoidSystem, charges, N: int,
                        table: NormalizationTable | None = None) -> dict:
    """G_n^p for all (n <= N, p)."""
    table, _, G = _interior_terms(sys, charges, N, table)
    return dict(zip(table.functions, G.tolist()))


def _columns(sys: EllipsoidSystem, keys, table: NormalizationTable | None):
    """The table, checked (or built when None) for the keys' largest degree,
    and the keys' columns n^2 + p - 1; a key that names no harmonic raises
    OrderOutOfRange."""
    idx = [HarmonicIndex(*key) for key in keys]
    table = _checked_table(sys, max((i.n for i in idx), default=0), table)
    return table, [i.n * i.n + i.p - 1 for i in idx]


def _reaction_factor(diel: DielectricModel, surface) -> np.ndarray:
    """R in B = R G by column of ``surface`` (rows E, E', F, F' at lambda = a);
    exact zeros when eps1 == eps2 (otherwise ``DielectricModel`` keeps
    eps1 * eps2 and eps1 / eps2 in float64 range).

    The denominator D = 1 - t (E'/E)/(F'/F), t = eps1/eps2, is at least 1:
    D = 0 at a t > 0 is the flux condition of the (n, p) mode u = E3 inside,
    (E(a)/F(a)) F3 outside, which would then solve the homogeneous transmission
    problem with energy eps1 int |grad u|^2 + eps2 int |grad u|^2 = 0 (Green's
    identity), so u = 0; it is not.  D is linear in t with D(0) = 1, so D >= 1.
    ``test_reaction_denominator_cannot_vanish`` pins the computed signs."""
    e1, e2 = diel.eps1, diel.eps2
    E, dE, F, dF = surface
    if e1 == e2:
        return np.zeros(len(E))
    return (e1 - e2) / (e1 * e2) * (F / E) / (1.0 - (e1 / e2) * (dE / E) / (dF / F))


def _reaction_factors(diel: DielectricModel, table: NormalizationTable) -> np.ndarray:
    """``_reaction_factor`` over all of the table's columns, read-only.  Built
    on first use and kept on the table for the last (eps1, eps2) it was asked
    for; R is elementwise, so any slice of it has the bits of R formed from
    that slice of ``table.surface``."""
    key = (diel.eps1, diel.eps2)
    R = table._reactions.get(key)
    if R is None:
        R = _reaction_factor(diel, table.surface)
        R.flags.writeable = False
        table._reactions.clear()
        table._reactions[key] = R
    return R


def reaction_coefficients(G: dict, sys: EllipsoidSystem, diel: DielectricModel,
                          table: NormalizationTable | None = None) -> dict:
    """B_n^p from G_n^p; zero when eps1 == eps2."""
    table, cols = _columns(sys, G, table)
    R = _reaction_factors(diel, table)[cols]
    return {key: r * g for (key, g), r in zip(G.items(), R.tolist())}


def exterior_coefficients(G: dict, B: dict, sys: EllipsoidSystem,
                          diel: DielectricModel,
                          table: NormalizationTable | None = None) -> dict:
    """C_n^p = G_n^p / eps1 + B_n^p E(a)/F(a)."""
    table, cols = _columns(sys, G, table)
    E, _, F, _ = table.surface[:, cols]
    return {key: g / diel.eps1 + B[key] * e / f
            for (key, g), e, f in zip(G.items(), E.tolist(), F.tolist())}


def expansion_coefficients(sys: EllipsoidSystem, charges, diel: DielectricModel,
                           N: int, table: NormalizationTable | None = None
                           ) -> ExpansionCoefficients:
    table = _checked_table(sys, N, table)
    G = source_coefficients(sys, charges, N, table=table)
    B = reaction_coefficients(G, sys, diel, table=table)
    C = exterior_coefficients(G, B, sys, diel, table=table)
    return ExpansionCoefficients(N=N, G=G, B=B, C=C)


def reaction_potential(sys: EllipsoidSystem, B: dict, point,
                       table: NormalizationTable | None = None) -> float:
    """psi(r) = sum B_n^p E3_n^p(r) at a Cartesian point inside the ellipsoid,
    up to a 1e-12 slack for rounded surface points (else RangeViolation)."""
    x, y, z = point
    if _scaled_radius2(sys, x, y, z) > 1.0 + 1e-12:
        raise RangeViolation(f"point {(x, y, z)} is outside the ellipsoid")
    keys = sorted(B)
    rows = _point_rows([cart_to_ell(sys, x, y, z)])
    table, cols = _columns(sys, keys, table)
    E3 = _interior_pass(sys, table.exponents[:, cols], table.coeffs[:, cols], rows)[0]
    return float(E3 @ np.array([B[key] for key in keys]))


def solvation_energy(sys: EllipsoidSystem, charges, diel: DielectricModel,
                     N: int = N_MAX_DEFAULT,
                     table: NormalizationTable | None = None) -> EnergyReport:
    """Solvation free energy (1/2) sum_k q_k psi(r_k) = (1/2) (q^T E3) B."""
    table, qE3, G = _interior_terms(sys, charges, N, table)
    B = _reaction_factors(diel, table)[:len(G)] * G
    energy = 0.5 * float(qE3 @ B)
    return EnergyReport(energy_kcal=energy * KCAL_PER_E2_PER_ANGSTROM,
                        energy_gaussian=energy, N=N)


def born_energy(R: float, q: float, diel: DielectricModel) -> float:
    """Closed-form solvation energy (kcal/mol) of a central charge in a
    dielectric sphere of radius R."""
    if R <= 0:
        raise ValueError("R must be positive")
    return (KCAL_PER_E2_PER_ANGSTROM * q * q / (2.0 * R)
            * (1.0 / diel.eps2 - 1.0 / diel.eps1))
