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

import numpy as np

from .coords import EllipsoidSystem, cart_to_ell
from .errors import ChargeOutsideEllipsoid, ResonantDenominator, ValidationError
from .harmonics import NormalizationTable, _checked_table, _interior_pass, interior_matrix
from .lame1 import N_MAX_DEFAULT, lame_function
from .lame2 import surface_values

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


def _check_interior(sys: EllipsoidSystem, charges):
    for ch in charges:
        val = (ch.x / sys.a) ** 2 + (ch.y / sys.b) ** 2 + (ch.z / sys.c) ** 2
        if not val < 1.0:
            raise ChargeOutsideEllipsoid(
                f"charge at {ch.position} not strictly inside the ellipsoid")
        if not math.isfinite(ch.q):
            raise ValidationError(f"charge at {ch.position} has non-finite q={ch.q}")


def _interior_terms(sys: EllipsoidSystem, charges, N: int,
                    table: NormalizationTable | None):
    """The table, q^T E3 (E3 the C-contiguous charges x columns matrix) and
    the source coefficients G, over the table's first (N + 1)^2 columns."""
    _check_interior(sys, charges)
    table = _checked_table(sys, N, table)
    H = (N + 1) ** 2
    qE3 = np.array([ch.q for ch in charges], dtype=float) @ _interior_pass(
        sys, table.exponents[:, :H], table.coeffs[:, :H],
        [cart_to_ell(sys, *ch.position) for ch in charges])
    return table, qE3, table.prefactor[:H] * qE3


def source_coefficients(sys: EllipsoidSystem, charges, N: int,
                        table: NormalizationTable | None = None) -> dict:
    """G_n^p for all (n <= N, p)."""
    table, _, G = _interior_terms(sys, charges, N, table)
    return dict(zip(table.functions, G.tolist()))


def _surface(sys: EllipsoidSystem, keys, table: NormalizationTable | None):
    """E, E', F, F' at lambda = a by row, from the table or for ``keys`` alone."""
    if table is None:
        return np.array([surface_values(lame_function(sys, *key))
                         for key in keys]).reshape(-1, 4).T
    table = _checked_table(sys, max((n for n, _ in keys), default=0), table)
    return table.surface[:, [n * n + p - 1 for n, p in keys]]


def _reaction_factor(diel: DielectricModel, surface, keys) -> np.ndarray:
    """R in B = R G by column of ``surface`` (rows E, E', F, F' at lambda = a,
    columns named by ``keys``); identically zero when eps1 == eps2."""
    e1, e2 = diel.eps1, diel.eps2
    E, dE, F, dF = surface
    if e1 == e2:
        return np.zeros(len(E))
    denom = 1.0 - (e1 / e2) * (dE / E) / (dF / F)
    if np.any(resonant := np.abs(denom) < 1e-12):
        raise ResonantDenominator("reaction denominator vanishes at (n, p) = "
                                  "({}, {})".format(*keys[np.argmax(resonant)]))
    return (e1 - e2) / (e1 * e2) * (F / E) / denom


def reaction_coefficients(G: dict, sys: EllipsoidSystem, diel: DielectricModel,
                          table: NormalizationTable | None = None) -> dict:
    """B_n^p from G_n^p; identically zero when eps1 == eps2."""
    if diel.eps1 == diel.eps2:
        return dict.fromkeys(G, 0.0)
    R = _reaction_factor(diel, _surface(sys, list(G), table), list(G))
    return {key: r * g for (key, g), r in zip(G.items(), R.tolist())}


def exterior_coefficients(G: dict, B: dict, sys: EllipsoidSystem,
                          diel: DielectricModel,
                          table: NormalizationTable | None = None) -> dict:
    """C_n^p = G_n^p / eps1 + B_n^p E(a)/F(a)."""
    E, _, F, _ = _surface(sys, list(G), table)
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
    """psi(r) = sum B_n^p E3_n^p(r) at an interior Cartesian point."""
    keys = sorted(B)
    pts = [cart_to_ell(sys, *point)]
    if table is None:
        E3 = interior_matrix([lame_function(sys, *key) for key in keys], pts)[0]
    else:
        table = _checked_table(sys, max((n for n, _ in keys), default=0), table)
        cols = [n * n + p - 1 for n, p in keys]
        E3 = _interior_pass(sys, table.exponents[:, cols], table.coeffs[:, cols], pts)[0]
    return float(E3 @ np.array([B[key] for key in keys]))


def solvation_energy(sys: EllipsoidSystem, charges, diel: DielectricModel,
                     N: int = N_MAX_DEFAULT,
                     table: NormalizationTable | None = None) -> EnergyReport:
    """Solvation free energy (1/2) sum_k q_k psi(r_k) = (1/2) (q^T E3) B."""
    table, qE3, G = _interior_terms(sys, charges, N, table)
    B = _reaction_factor(diel, table.surface[:, :len(G)], list(table.functions)) * G
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
