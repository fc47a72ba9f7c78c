"""ellharm: ellipsoidal harmonics and dielectric solvation for tri-axial
ellipsoids, cross-validated by a boundary-element oracle."""

from . import errors
from .coords import (EllipsoidSystem, EllipsoidalPoint, new_system,
                     cart_to_ell, ell_to_cart, normal_derivative_factor)
from .lame1 import (LameClass, LameFunction, class_of, lame_function,
                    eval_lame, eval_lame_derivative)
from .lame2 import SecondKindEval, eval_I, eval_F
from .harmonics import (HarmonicIndex, NormalizationTable, CoulombExpansion,
                        interior_solid, exterior_solid, surface_harmonic,
                        gamma, build_normalization_table, coulomb_expand)
from .solvation import (PointCharge, DielectricModel, ExpansionCoefficients,
                        source_coefficients, reaction_coefficients,
                        exterior_coefficients, expansion_coefficients,
                        reaction_potential, solvation_energy, born_energy)
from .bem import (TriMesh, BemSolution, mesh_ellipsoid, solve_bem,
                  convergence_study, export_mesh)

__version__ = "0.1.0"
