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
from .errors import ChargeOutsideEllipsoid, ResonantDenominator
from .harmonics import NormalizationTable, _checked_table, interior_matrix
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
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValueError("permittivities must be positive")


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
        if val >= 1.0:
            raise ChargeOutsideEllipsoid(
                f"charge at {ch.position} not strictly inside the ellipsoid")


def _interior_terms(sys: EllipsoidSystem, charges, N: int,
                    table: NormalizationTable | None):
    """The table, its keys, q^T E3 (E3 the charges x keys matrix) and the
    source coefficients G, both as arrays over the keys."""
    _check_interior(sys, charges)
    table, keys = _checked_table(sys, N, table)
    qE3 = np.array([ch.q for ch in charges], dtype=float) @ interior_matrix(
        [table.functions[key] for key in keys],
        [cart_to_ell(sys, *ch.position) for ch in charges])
    pref = np.array([4.0 * math.pi / (2 * n + 1) / table.gamma[(n, p)]
                     for n, p in keys])
    return table, keys, qE3, pref * qE3


def source_coefficients(sys: EllipsoidSystem, charges, N: int,
                        table: NormalizationTable | None = None) -> dict:
    """G_n^p for all (n <= N, p)."""
    _, keys, _, G = _interior_terms(sys, charges, N, table)
    return dict(zip(keys, G.tolist()))


def _surface(sys: EllipsoidSystem, keys, table: NormalizationTable | None):
    """E, E', F, F' at lambda = a by (n, p), from the table or for ``keys`` alone."""
    if table is None:
        return {key: surface_values(lame_function(sys, *key)) for key in keys}
    return _checked_table(sys, max((n for n, _ in keys), default=0), table)[0].surface


def reaction_coefficients(G: dict, sys: EllipsoidSystem, diel: DielectricModel,
                          table: NormalizationTable | None = None) -> dict:
    """B_n^p from G_n^p; identically zero when eps1 == eps2."""
    e1, e2 = diel.eps1, diel.eps2
    if e1 == e2:
        return dict.fromkeys(G, 0.0)
    surface = _surface(sys, G, table)
    B = {}
    for (n, p), g in G.items():
        E, dE, F, dF = surface[(n, p)]
        denom = 1.0 - (e1 / e2) * (dE / E) / (dF / F)
        if abs(denom) < 1e-12:
            raise ResonantDenominator(
                f"reaction denominator vanishes at (n, p) = ({n}, {p})")
        B[(n, p)] = (e1 - e2) / (e1 * e2) * (F / E) / denom * g
    return B


def exterior_coefficients(G: dict, B: dict, sys: EllipsoidSystem,
                          diel: DielectricModel,
                          table: NormalizationTable | None = None) -> dict:
    """C_n^p = G_n^p / eps1 + B_n^p E(a)/F(a)."""
    surface = _surface(sys, G, table)
    C = {}
    for (n, p), g in G.items():
        E, _, F, _ = surface[(n, p)]
        C[(n, p)] = g / diel.eps1 + B[(n, p)] * E / F
    return C


def expansion_coefficients(sys: EllipsoidSystem, charges, diel: DielectricModel,
                           N: int, table: NormalizationTable | None = None
                           ) -> ExpansionCoefficients:
    table, _ = _checked_table(sys, N, table)
    G = source_coefficients(sys, charges, N, table=table)
    B = reaction_coefficients(G, sys, diel, table=table)
    C = exterior_coefficients(G, B, sys, diel, table=table)
    return ExpansionCoefficients(N=N, G=G, B=B, C=C)


def reaction_potential(sys: EllipsoidSystem, B: dict, point) -> float:
    """psi(r) = sum B_n^p E3_n^p(r) at an interior Cartesian point."""
    keys = sorted(B)
    fns = [lame_function(sys, *key) for key in keys]
    E3 = interior_matrix(fns, [cart_to_ell(sys, *point)])[0]
    return float(E3 @ np.array([B[key] for key in keys]))


def solvation_energy(sys: EllipsoidSystem, charges, diel: DielectricModel,
                     N: int = N_MAX_DEFAULT,
                     table: NormalizationTable | None = None) -> EnergyReport:
    """Solvation free energy (1/2) sum_k q_k psi(r_k) = (1/2) (q^T E3) B."""
    table, keys, qE3, G = _interior_terms(sys, charges, N, table)
    B = reaction_coefficients(dict(zip(keys, G.tolist())), sys, diel, table=table)
    energy = 0.5 * float(qE3 @ np.array([B[key] for key in keys]))
    return EnergyReport(energy_kcal=energy * KCAL_PER_E2_PER_ANGSTROM,
                        energy_gaussian=energy, N=N)


def born_energy(R: float, q: float, diel: DielectricModel) -> float:
    """Closed-form solvation energy (kcal/mol) of a central charge in a
    dielectric sphere of radius R."""
    if R <= 0:
        raise ValueError("R must be positive")
    return (KCAL_PER_E2_PER_ANGSTROM * q * q / (2.0 * R)
            * (1.0 / diel.eps2 - 1.0 / diel.eps1))
