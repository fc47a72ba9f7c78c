import math

import numpy as np
import pytest

from ellharm.bem import (_richardson, convergence_study, export_mesh, icosphere,
                         mesh_ellipsoid, mesh_sphere, solve_bem)
from ellharm.numerics import gauss_legendre
from ellharm.solvation import DielectricModel, PointCharge, born_energy

WATER = DielectricModel(4.0, 80.0)


def test_icosphere_counts():
    for ref in (0, 1, 2, 3):
        verts, faces = icosphere(ref)
        assert len(faces) == 20 * 4 ** ref
        # Euler characteristic of a sphere: V - E + F = 2, E = 3F/2
        assert len(verts) - 3 * len(faces) // 2 + len(faces) == 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)


def test_sphere_mesh_geometry():
    mesh = mesh_sphere(2.0, 3)
    assert mesh.panel_count == 20 * 4 ** 3
    assert mesh.total_area == pytest.approx(4 * math.pi * 4.0, rel=5e-3)
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)
    # outward orientation
    dots = np.einsum("ij,ij->i", mesh.normals, mesh.centroids)
    assert np.all(dots > 0)
    assert np.all(mesh.areas > 0)


def _ellipsoid_area(a, b, c, order=200):
    """Surface area by direct spherical-parameterization quadrature."""
    th, wth = gauss_legendre(order, 0.0, math.pi)
    ph, wph = gauss_legendre(order, 0.0, 2.0 * math.pi)
    st, ct = np.sin(th)[:, None], np.cos(th)[:, None]
    sp, cp = np.sin(ph)[None, :], np.cos(ph)[None, :]
    integrand = st * np.sqrt((b * c * st * cp) ** 2 + (a * c * st * sp) ** 2
                             + (a * b * ct) ** 2)
    return float(wth @ integrand @ wph)


def test_ellipsoid_mesh_area(sys215):
    mesh = mesh_ellipsoid(sys215, 3)
    exact = _ellipsoid_area(2.0, 1.5, 1.0)
    assert mesh.total_area == pytest.approx(exact, rel=1e-2)
    dots = np.einsum("ij,ij->i", mesh.normals, mesh.centroids)
    assert np.all(dots > 0)


def test_mesh_refinement_rejects_negative(sys215):
    with pytest.raises(ValueError):
        mesh_ellipsoid(sys215, -1)


def test_equal_permittivities_zero_energy(sys215):
    mesh = mesh_ellipsoid(sys215, 1)
    diel = DielectricModel(4.0, 4.0)
    sol = solve_bem(mesh, [PointCharge(0, 0, 0, 1.0)], diel)
    assert sol.energy_kcal == 0.0
    assert np.all(sol.sigma == 0.0)


def test_sphere_approaches_born():
    mesh = mesh_sphere(1.0, 4)
    sol = solve_bem(mesh, [PointCharge(0, 0, 0, 1.0)], WATER)
    exact = born_energy(1.0, 1.0, WATER)
    assert abs(sol.energy_kcal - exact) <= 0.01 * abs(exact)


def test_gauss_law_induced_charge():
    # discretization error shrinks roughly linearly with panel count
    expect = 1.0 * (1.0 / WATER.eps2 - 1.0 / WATER.eps1)
    devs = []
    for ref in (2, 3, 4):
        sol = solve_bem(mesh_sphere(1.0, ref), [PointCharge(0.0, 0.1, -0.2, 1.0)], WATER)
        devs.append(abs(sol.induced_charge - expect))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] <= 0.01 * abs(expect)


def test_convergence_study_sphere():
    exact = born_energy(1.0, 1.0, WATER)
    study = convergence_study(lambda r: mesh_sphere(1.0, r),
                              [PointCharge(0, 0, 0, 1.0)], WATER,
                              refinements=[1, 2, 3, 4], reference=exact)
    assert study.panel_counts == [80, 320, 1280, 5120]
    assert all(a > b for a, b in zip(study.deviations, study.deviations[1:]))
    assert 0.5 <= study.fitted_slope <= 1.5
    assert abs(study.richardson_limit - exact) <= 0.002 * abs(exact)


def test_richardson_from_three_levels():
    # the three-point geometric estimate is exact on E = 1 + 5/N, and falls
    # back to the last energy when the differences do not shrink
    counts = [80, 320, 1280]
    assert _richardson(counts, [1.0 + 5.0 / n for n in counts]) == 1.0
    assert _richardson(counts, [3.0, 2.0, 0.5]) == 0.5
    assert _richardson(counts, [1.0, 2.0, 2.0]) == 2.0
    exact = born_energy(1.0, 1.0, WATER)
    study = convergence_study(lambda r: mesh_sphere(1.0, r),
                              [PointCharge(0, 0, 0, 1.0)], WATER,
                              refinements=[1, 2, 3], reference=exact)
    assert abs(study.richardson_limit - exact) <= 0.01 * abs(exact)


def test_convergence_study_needs_three_levels(sys215):
    with pytest.raises(ValueError):
        convergence_study(lambda r: mesh_ellipsoid(sys215, r),
                          [PointCharge(0, 0, 0, 1.0)], WATER, refinements=[1, 2],
                          reference=-1.0)


@pytest.mark.parametrize("refinements", [[1, 1, 1], [2, 1, 0], [0, 1, 1]])
def test_convergence_study_needs_increasing_panel_counts(sys215, refinements):
    with pytest.raises(ValueError, match="strictly increase"):
        convergence_study(lambda r: mesh_ellipsoid(sys215, r),
                          [PointCharge(0, 0, 0, 1.0)], WATER, refinements,
                          reference=-1.0)


def test_solution_deterministic(sys215):
    mesh = mesh_ellipsoid(sys215, 2)
    charges = [PointCharge(0.3, -0.2, 0.1, 1.0)]
    s1 = solve_bem(mesh, charges, WATER)
    s2 = solve_bem(mesh, charges, WATER)
    assert s1.energy_kcal == s2.energy_kcal
    assert np.array_equal(s1.sigma, s2.sigma)


def test_export_mesh_roundtrip(sys215, tmp_path):
    mesh = mesh_ellipsoid(sys215, 1)
    path = tmp_path / "mesh.txt"
    export_mesh(mesh, str(path))
    lines = path.read_text().strip().splitlines()
    nv = int(lines[0])
    verts = np.array([[float(v) for v in ln.split()] for ln in lines[1:1 + nv]])
    nt = int(lines[1 + nv])
    tris = np.array([[int(v) for v in ln.split()]
                     for ln in lines[2 + nv:2 + nv + nt]])
    assert len(lines) == 2 + nv + nt
    assert np.array_equal(verts, mesh.vertices)
    assert np.array_equal(tris, mesh.triangles)
    assert tris.min() >= 0 and tris.max() == nv - 1
