"""Dense boundary-element oracle for the two-dielectric solvation problem.

The ellipsoid surface is meshed with flat triangles (a subdivided icosahedron
scaled per-axis), and the induced apparent surface charge density sigma is
solved by centroid collocation of the standard integral equation

    2 pi (eps1 + eps2)/(eps2 - eps1) sigma_i
        - sum_{j != i} [d/dn_i 1/|c_i - c_j|] sigma_j A_j  =  dPhi_coul/dn_i

where Phi_coul is the bare Coulomb field of the interior charges screened by
eps1, and the flat-panel self term vanishes.  The solvation energy is the
interaction of the charges with the induced charge:

    E = (1/2) sum_k q_k sum_i sigma_i A_i / |r_k - c_i|.

Everything is deliberately simple (flat panels, centroid rule, dense direct
solve) -- this module is an independent numerical cross-check, not a
production solver, and its convergence is first order in panel count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import EllipsoidSystem
from .errors import SingularSystem
from .solvation import DielectricModel, KCAL_PER_E2_PER_ANGSTROM
from ._kernels import assemble_influence_matrix

__all__ = [
    "TriMesh",
    "BemSolution",
    "ConvergenceStudy",
    "icosphere",
    "mesh_ellipsoid",
    "solve_bem",
    "convergence_study",
    "export_mesh",
]


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray    # (V, 3)
    triangles: np.ndarray   # (T, 3) int indices
    centroids: np.ndarray   # (T, 3)
    areas: np.ndarray       # (T,)
    normals: np.ndarray     # (T, 3) outward unit normals

    @property
    def panel_count(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())


@dataclass(frozen=True)
class BemSolution:
    sigma: np.ndarray
    energy_kcal: float
    panel_count: int
    induced_charge: float  # sum sigma_i A_i


@dataclass(frozen=True)
class ConvergenceStudy:
    panel_counts: list
    energies: list
    deviations: list        # |energy - reference| by level
    fitted_slope: float     # log-log slope of deviation vs panel count
    richardson_limit: float


def icosphere(refinement: int):
    """Unit-sphere triangulation: icosahedron with ``refinement`` rounds of
    edge-midpoint subdivision and re-projection; 20 * 4^refinement faces."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    for _ in range(refinement):
        vlist = [v for v in verts]
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            idx = cache.get(key)
            if idx is None:
                m = vlist[i] + vlist[j]
                m /= np.linalg.norm(m)
                vlist.append(m)
                idx = len(vlist) - 1
                cache[key] = idx
            return idx

        new_faces = []
        for (i, j, k) in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces += [[i, a, c], [j, b, a], [k, c, b], [a, b, c]]
        verts = np.array(vlist)
        faces = np.array(new_faces, dtype=np.int64)
    return verts, faces


def _mesh_from_axes(axes, refinement: int) -> TriMesh:
    verts, faces = icosphere(refinement)
    verts = verts * np.asarray(axes, dtype=float)
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(cross, axis=1)
    areas = 0.5 * norm
    normals = cross / norm[:, None]
    centroids = (p0 + p1 + p2) / 3.0
    flip = np.einsum("ij,ij->i", normals, centroids) < 0
    normals[flip] *= -1.0
    return TriMesh(vertices=verts, triangles=faces, centroids=centroids,
                   areas=areas, normals=normals)


def mesh_ellipsoid(sys: EllipsoidSystem, refinement: int) -> TriMesh:
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    return _mesh_from_axes((sys.a, sys.b, sys.c), refinement)


def mesh_sphere(radius: float, refinement: int) -> TriMesh:
    """Sphere mesh for internal testing (the coordinate machinery rejects
    degenerate semiaxes, but the BEM itself does not care)."""
    return _mesh_from_axes((radius, radius, radius), refinement)


def solve_bem(mesh: TriMesh, charges, diel: DielectricModel) -> BemSolution:
    e1, e2 = diel.eps1, diel.eps2
    if e1 == e2:
        return BemSolution(sigma=np.zeros(mesh.panel_count), energy_kcal=0.0,
                           panel_count=mesh.panel_count, induced_charge=0.0)
    if abs(e2 - e1) < 1e-14 * max(e1, e2):
        raise SingularSystem("eps1 ~ eps2 makes the collocation system singular")
    cen, nrm, area = mesh.centroids, mesh.normals, mesh.areas
    diag = 2.0 * math.pi * (e1 + e2) / (e2 - e1)
    A = assemble_influence_matrix(cen, nrm, area, diag)
    rhs = np.zeros(mesh.panel_count)
    for ch in charges:
        d = cen - np.asarray(ch.position)
        r = np.linalg.norm(d, axis=1)
        # normal derivative of q / (eps1 |r - r_k|) at the centroids
        rhs += -ch.q / e1 * np.einsum("ij,ij->i", nrm, d) / r ** 3
    sigma = np.linalg.solve(A, rhs)
    energy = 0.0
    for ch in charges:
        r = np.linalg.norm(cen - np.asarray(ch.position), axis=1)
        energy += 0.5 * ch.q * float(np.sum(sigma * area / r))
    return BemSolution(sigma=sigma,
                       energy_kcal=energy * KCAL_PER_E2_PER_ANGSTROM,
                       panel_count=mesh.panel_count,
                       induced_charge=float(np.sum(sigma * area)))


def _richardson(counts, energies):
    """Extrapolated zero-spacing limit of a first-order-ish sequence.

    With >= 4 levels, fit E_inf + C1 N^-p + C2 N^-2p by least squares over a
    scan of p (the two-term model absorbs the pre-asymptotic curvature of the
    coarsest levels); with exactly 3, use the classical three-point geometric
    estimate from the last three levels.
    """
    N = np.asarray(counts, dtype=float)
    E = np.asarray(energies, dtype=float)
    if len(N) >= 4:
        best = None
        for p in np.linspace(0.3, 1.5, 1201):
            X = np.column_stack([np.ones(len(N)), N ** -p, N ** (-2 * p)])
            coef, res, _, _ = np.linalg.lstsq(X, E, rcond=None)
            r = float(res[0]) if len(res) else float(np.abs(X @ coef - E).max())
            if best is None or r < best[0]:
                best = (r, coef[0])
        return float(best[1])
    d1 = E[-2] - E[-3]
    d2 = E[-1] - E[-2]
    ratio = N[-1] / N[-2]
    if d2 == 0 or d1 / d2 <= 1.0:
        return float(E[-1])
    p = math.log(d1 / d2) / math.log(ratio)
    return float(E[-1] + d2 / (ratio ** p - 1.0))


def convergence_study(mesh_factory, charges, diel: DielectricModel,
                      refinements, reference: float) -> ConvergenceStudy:
    """Run solve_bem across refinement levels and summarize convergence.

    ``mesh_factory(refinement)`` must return a TriMesh, with panel counts
    that strictly increase along ``refinements``.  The fitted slope is
    the log-log slope of |energy - reference| vs panel count, where
    ``reference`` is an independent energy such as the semi-analytic one.
    """
    refinements = list(refinements)
    if len(refinements) < 3:
        raise ValueError("need at least 3 refinement levels")
    meshes = [mesh_factory(ref) for ref in refinements]
    counts = [mesh.panel_count for mesh in meshes]
    if any(m >= n for m, n in zip(counts, counts[1:])):
        raise ValueError(f"panel counts {counts} must strictly increase")
    energies = [solve_bem(mesh, charges, diel).energy_kcal for mesh in meshes]
    deviations = [abs(e - reference) for e in energies]
    logN = np.log(np.asarray(counts, dtype=float))
    logD = np.log(np.maximum(deviations, 1e-300))
    slope = -float(np.polyfit(logN, logD, 1)[0])
    return ConvergenceStudy(panel_counts=counts, energies=energies,
                            deviations=deviations, fitted_slope=slope,
                            richardson_limit=_richardson(counts, energies))


def export_mesh(mesh: TriMesh, path: str) -> None:
    """Triangle-soup text export: a vertex-count line, one ``x y z`` line per
    vertex, a triangle-count line, then one ``i j k`` index line per triangle
    (0-based)."""
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write(f"{len(mesh.triangles)}\n")
        for tri in mesh.triangles:
            fh.write(f"{tri[0]} {tri[1]} {tri[2]}\n")
