import math
import tracemalloc

import numpy as np
import pytest

from ellharm import _kernels, bem
from ellharm._kernels import assemble_influence_matrix
from ellharm.bem import (_BITS, _CHARACTERS, _SIGNS, TriMesh, _mirrors, _richardson,
                         _richardson_basis,
                         convergence_study, export_mesh, icosphere, mesh_ellipsoid,
                         mesh_sphere, solve_bem)
from ellharm.errors import NumericalError, SingularSystem, ValidationError
from ellharm.harmonics import build_normalization_table
from ellharm.numerics import gauss_legendre
from ellharm.solvation import (KCAL_PER_E2_PER_ANGSTROM, DielectricModel, PointCharge,
                               born_energy, solvation_energy)

WATER = DielectricModel(4.0, 80.0)


def _icosphere_reference(refinement):
    """The icosphere built one face and one edge midpoint at a time."""
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


def _solve_bem_dense(mesh, charges, diel):
    """The collocation system solved as one dense T x T matrix: (sigma,
    energy in kcal/mol)."""
    e1, e2 = diel.eps1, diel.eps2
    cen, nrm, area = mesh.centroids, mesh.normals, mesh.areas
    diag = 2.0 * math.pi * (e1 + e2) / (e2 - e1)
    A = assemble_influence_matrix(cen, nrm, area, diag, np.arange(mesh.panel_count))
    rhs = np.zeros(mesh.panel_count)
    for ch in charges:
        d = cen - np.asarray(ch.position)
        rhs += -ch.q / e1 * np.einsum("ij,ij->i", nrm, d) / np.linalg.norm(d, axis=1) ** 3
    sigma = np.linalg.solve(A, rhs)
    energy = sum(0.5 * ch.q * float(np.sum(sigma * area / np.linalg.norm(
        cen - np.asarray(ch.position), axis=1))) for ch in charges)
    return sigma, energy * KCAL_PER_E2_PER_ANGSTROM


def _solve_bem_per_charge(mesh, charges, diel):
    """The kept-operator solve with the energy summed charge by charge, each
    charge's centroid distances computed once for the right-hand side and
    again for its energy term: (sigma, energy in kcal/mol, induced charge)."""
    e1, e2 = diel.eps1, diel.eps2
    cen, nrm, area = mesh.centroids, mesh.normals, mesh.areas
    images, inverses = bem._factored(mesh, 2.0 * math.pi * (e1 + e2) / (e2 - e1))
    rhs = np.zeros(mesh.panel_count)
    for ch in charges:
        d = cen - np.asarray(ch.position)
        r = np.linalg.norm(d, axis=1)
        rhs += -ch.q / e1 * np.einsum("ij,ij->i", nrm, d) / r ** 3
    b = bem._CHARACTERS @ rhs[images] / 8.0
    y = (inverses @ b[:, :, None])[:, :, 0]
    sigma = np.bincount(images.ravel(), (bem._CHARACTERS.T @ y).ravel(), mesh.panel_count)
    energy = 0.0
    for ch in charges:
        r = np.linalg.norm(cen - np.asarray(ch.position), axis=1)
        energy += 0.5 * ch.q * float(np.sum(sigma * area / r))
    return sigma, energy * KCAL_PER_E2_PER_ANGSTROM, float(np.sum(sigma * area))


def _charges_in(axes, count, seed):
    """``count`` charges uniform in the ellipsoid scaled by 0.65, |q| in [0.2, 1]."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    v *= 0.65 * rng.random((count, 1)) ** (1.0 / 3.0) / np.linalg.norm(v, axis=1)[:, None]
    q = rng.choice((-1.0, 1.0), count) * rng.uniform(0.2, 1.0, count)
    return [PointCharge(*(x * np.asarray(axes)), w) for x, w in zip(v, q)]


def _richardson_lstsq_reference(counts, energies):
    """The >= 4-level Richardson scan with one least-squares solve per p."""
    N = np.asarray(counts, dtype=float)
    E = np.asarray(energies, dtype=float)
    best = None
    for p in np.linspace(0.3, 1.5, 1201):
        X = np.column_stack([np.ones(len(N)), N ** -p, N ** (-2 * p)])
        coef, res, _, _ = np.linalg.lstsq(X, E, rcond=None)
        if best is None or res[0] < best[0]:
            best = (res[0], coef[0])
    return float(best[1])


def test_icosphere_counts():
    for ref in (0, 1, 2, 3):
        verts, faces = icosphere(ref)
        assert len(faces) == 20 * 4 ** ref
        # Euler characteristic of a sphere: V - E + F = 2, E = 3F/2
        assert len(verts) - 3 * len(faces) // 2 + len(faces) == 2
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)


def test_icosphere_equals_loop_reference_bit_for_bit():
    for ref in range(5):
        verts, faces = icosphere(ref)
        want_verts, want_faces = _icosphere_reference(ref)
        assert np.array_equal(verts, want_verts)
        assert np.array_equal(faces, want_faces)


@pytest.mark.parametrize("refinement, orbits", [(0, 4), (2, 46), (4, 664)])
def test_mirrors_map_panels_to_their_mirror_images(sys_fig3, refinement, orbits):
    mesh = mesh_ellipsoid(sys_fig3, refinement)
    T = mesh.panel_count
    m = mesh.mirrors
    assert m.shape == (8, T)
    assert np.array_equal(m[0], np.arange(T))
    scale = np.abs(mesh.centroids).max()
    for g, s in enumerate(_SIGNS):
        assert np.array_equal(np.sort(m[g]), np.arange(T))        # a permutation
        assert np.array_equal(m[g][m[g]], np.arange(T))           # an involution
        assert np.abs(mesh.centroids[m[g]] - s * mesh.centroids).max() <= 1e-12 * scale
    assert np.count_nonzero(m.min(axis=0) == np.arange(T)) == orbits


def test_mirrors_raise_on_an_inexact_match():
    verts, faces = icosphere(1)
    moved = verts.copy()
    moved[5, 0] = np.nextafter(moved[5, 0], 2.0)
    with pytest.raises(NumericalError, match="vertices"):
        _mirrors(moved, faces)
    faces = faces.copy()
    faces[0] = [0, 1, 2]          # three vertices that bound no face
    with pytest.raises(NumericalError, match="faces"):
        _mirrors(verts, faces)


@pytest.mark.parametrize("refinement", [1, 2, 3])
@pytest.mark.parametrize("shape", ["ellipsoid", "sphere"])
def test_split_solve_matches_dense_reference(sys_fig3, shape, refinement):
    if shape == "ellipsoid":
        mesh = mesh_ellipsoid(sys_fig3, refinement)
        charges = [PointCharge(3.0, 4.0, 5.0, 1.0), PointCharge(-6.0, 2.0, -1.5, -0.7),
                   PointCharge(0.0, -3.0, 0.0, 0.4)]
    else:
        mesh = mesh_sphere(2.0, refinement)
        charges = [PointCharge(0.3, -0.5, 0.8, 1.0), PointCharge(-0.9, 0.0, 0.2, 0.5)]
    sol = solve_bem(mesh, charges, WATER)
    sigma, energy = _solve_bem_dense(mesh, charges, WATER)
    assert np.abs(sol.sigma - sigma).max() <= 1e-13 * np.abs(sigma).max()
    assert abs(sol.energy_kcal - energy) <= 1e-13 * abs(energy)


def _one_shot_stack(mesh, diag):
    """The images, the (8, R) mask of the representatives that each
    character vanishes on, and the (8, R, R) blocks B_chi of the collocation
    operator with diagonal ``diag``, built in one shot: the representatives'
    rows gathered as one (R, 8, R) array A[:, images] and contracted over its
    middle axis."""
    m = mesh.mirrors
    reps = np.flatnonzero(m.min(axis=0) == np.arange(mesh.panel_count))
    images = m[:, reps]
    A = assemble_influence_matrix(mesh.centroids, mesh.normals, mesh.areas, diag, reps)
    B = np.tensordot(_CHARACTERS, A[:, images], axes=([1], [1]))
    nontrivial = ((_CHARACTERS[:, :, None] < 0) & (images == reps)[None]).any(axis=1)
    return images, nontrivial, B


def _one_shot_blocks(mesh, diag):
    """The (keep, B_chi[keep, keep]) pairs of the one-shot stack, where keep
    lists the representatives that chi does not vanish on."""
    _, nontrivial, B = _one_shot_stack(mesh, diag)
    keeps = (np.flatnonzero(~s) for s in nontrivial)
    return [(keep, Bc[np.ix_(keep, keep)]) for Bc, keep in zip(B, keeps)]


def _np_block_tops(mesh):
    """The largest eigenvalue / 4 pi of each character's block of the
    collocation operator with diagonal 0: the Neumann-Poincare operator on
    the mesh, split by parity."""
    return np.array([np.linalg.eigvals(block).real.max() / (4 * math.pi)
                     for _, block in _one_shot_blocks(mesh, 0.0)])


@pytest.mark.parametrize("shape, refinement", [("ellipsoid", 1), ("ellipsoid", 2),
                                               ("ellipsoid", 3), ("ellipsoid", 4),
                                               ("sphere", 1), ("sphere", 2), ("sphere", 3)])
def test_factored_operator_equals_one_shot_build_bytewise(sys_fig3, monkeypatch,
                                                          shape, refinement):
    # against the one-shot build with the assembly's former 256-row blocks,
    # its vanishing rows and columns set to the identity's by np.where
    mesh = (mesh_ellipsoid(sys_fig3, refinement) if shape == "ellipsoid"
            else mesh_sphere(2.0, refinement))
    diag = 2.0 * math.pi * (WATER.eps1 + WATER.eps2) / (WATER.eps2 - WATER.eps1)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "BLOCK_ROWS", 256)
        images, skip, B = _one_shot_stack(mesh, diag)
    padded = np.where(skip[:, :, None] | skip[:, None, :], np.eye(len(skip[0])), B)
    want = np.linalg.inv(padded)
    want[skip] = 0.0
    got_images, inverses = bem._factored(mesh, diag)
    assert got_images.tobytes() == images.tobytes()
    assert inverses.shape == want.shape and inverses.tobytes() == want.tobytes()
    assert not inverses.flags.writeable
    # each character's block, restricted to its kept representatives, is the
    # inverse of B_chi[keep, keep] (measured within 7.7e-16 of its largest
    # entry), and zero outside it
    for inv, Bc, s in zip(inverses, B, skip):
        keep = np.ix_(~s, ~s)
        assert not inv[s].any() and not inv[:, s].any()
        kept = np.linalg.inv(Bc[keep])
        assert np.abs(inv[keep] - kept).max() <= 1e-14 * np.abs(kept).max()


def test_factored_peak_memory_stays_near_the_kept_inverses(sys_fig3):
    # a cold build at 5120 panels allocates at most 1.4x the bytes of the
    # inverse stack it keeps: measured 1.24, streaming 16-row blocks into
    # the kept stack and inverting it in place; 2.00 when it held the rows
    # until the blocks were formed and the blocks until their inverses were,
    # 2.20 against the eight unpadded inverses it kept before that, and 4.64
    # when it also gathered an (R, 8, R) array and assembled 256-row blocks
    mesh = mesh_ellipsoid(sys_fig3, 4)
    diag = 2.0 * math.pi * (WATER.eps1 + WATER.eps2) / (WATER.eps2 - WATER.eps1)
    tracemalloc.start()
    try:
        _, inverses = bem._factored(mesh, diag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = inverses.nbytes
    assert peak <= 1.4 * kept, peak / kept


def test_character_blocks_approach_the_np_spectrum(sys_fig3):
    # the NP eigenvalue of harmonic (n, p) is (1 + u) / (2 (1 - u)) with
    # u = (E'/E)/(F'/F) at lambda = a (1/2 for n = 0).  A harmonic odd in x,
    # y or z has psi exponent e_s, e_h or e_k set, so each character's block
    # carries the columns whose exponents equal its bits, and its top
    # eigenvalue approaches their largest, that of (n, p) = (0, 1), (1, 1),
    # (1, 2), (2, 3), (1, 3), (2, 4), (2, 5) and (3, 7) for characters 0..7
    table = build_normalization_table(sys_fig3, 4)
    E, dE, F, dF = table.surface
    u = (dE / E) / (dF / F)
    lam = (1.0 + u) / (2.0 * (1.0 - u))
    target = np.array([lam[(table.exponents.T == bits).all(axis=1)].max()
                       for bits in _BITS])
    gap320, gap1280 = (np.abs(_np_block_tops(mesh_ellipsoid(sys_fig3, r)) - target)
                       for r in (2, 3))
    # measured gap ratios 0.33-0.51 from 320 to 1280 panels, all but odd x
    converging = [0, 2, 3, 4, 5, 6, 7]
    assert np.all(gap1280[converging] <= 0.6 * gap320[converging]), gap1280 / gap320
    # the odd-x block does not approach (0, 1)'s 0.2467 monotonically: 0.2480
    # at 320 panels, 0.2485 at 1280 (gap 1.8e-3)
    assert gap1280[1] <= 2.5e-3


@pytest.mark.parametrize("refinement", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", ["ellipsoid", "sphere"])
def test_one_charge_pass_matches_per_charge_reference(sys_fig3, shape, refinement):
    # sigma is the same bit for bit; the energy sum (1/2) sum_i sigma_i A_i
    # phi_i is the per-charge sum reordered.  Over 20 seeds of every case
    # below the largest relative energy difference measured was 6.5e-16
    if shape == "ellipsoid":
        mesh, axes = mesh_ellipsoid(sys_fig3, refinement), (15.0, 12.0, 10.0)
    else:
        mesh, axes = mesh_sphere(2.0, refinement), (2.0, 2.0, 2.0)
    for count in (0, 1, 3, 30):
        charges = _charges_in(axes, count, seed=refinement)
        sol = solve_bem(mesh, charges, WATER)
        sigma, energy, induced = _solve_bem_per_charge(mesh, charges, WATER)
        assert np.array_equal(sol.sigma, sigma)
        assert sol.induced_charge == induced
        assert abs(sol.energy_kcal - energy) <= 2e-15 * abs(energy)
        if count == 0:
            assert not sol.sigma.any() and sol.energy_kcal == 0.0
            assert sol.induced_charge == 0.0


@pytest.mark.parametrize("once", [lambda ch: (c for c in ch), iter])
def test_charges_read_once_give_the_list_result(sys215, once):
    charges = [PointCharge(0.4, -0.3, 0.2, 1.0), PointCharge(-0.2, 0.5, 0.1, -0.7)]
    mesh = mesh_ellipsoid(sys215, 2)
    want = solve_bem(mesh, charges, WATER)
    got = solve_bem(mesh, once(charges), WATER)
    assert np.array_equal(got.sigma, want.sigma)
    assert (got.energy_kcal, got.induced_charge) == (want.energy_kcal, want.induced_charge)
    study = [convergence_study(lambda r: mesh_ellipsoid(sys215, r), ch, WATER,
                               refinements=[0, 1, 2], reference=-1.0)
             for ch in (charges, once(charges))]
    assert study[0] == study[1] and study[0].energies[0] != 0.0


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
    for build in (lambda: mesh_ellipsoid(sys215, -1), lambda: icosphere(-2),
                  lambda: mesh_sphere(2.0, -1)):
        with pytest.raises(ValueError, match="refinement must be >= 0"):
            build()


def test_equal_permittivities_zero_energy(sys215):
    mesh = mesh_ellipsoid(sys215, 1)
    diel = DielectricModel(4.0, 4.0)
    sol = solve_bem(mesh, [PointCharge(0, 0, 0, 1.0)], diel)
    assert sol.energy_kcal == 0.0
    assert np.all(sol.sigma == 0.0)


@pytest.mark.parametrize("bad", [PointCharge(0.1, math.nan, 0.2, 1.0),
                                 PointCharge(0.1, 0.3, 0.2, -math.inf)])
@pytest.mark.parametrize("diel", [WATER, DielectricModel(4.0, 4.0)])
def test_non_finite_charge_raises_validation_error(sys215, bad, diel):
    # a nan coordinate gave a nan energy, and an infinite q a bare
    # RuntimeWarning from the stacked product; the charges are read before
    # the operator is built, so a rejected set builds nothing
    mesh = mesh_ellipsoid(sys215, 1)
    charges = [PointCharge(0.0, 0.0, 0.0, 1.0), bad]
    with pytest.raises(ValidationError, match=r"charge at \(0\.1, .*\) with q=.* is not finite"):
        solve_bem(mesh, charges, diel)
    assert not mesh._factors


@pytest.mark.parametrize("eps2", [4.0 + 1e-14, np.nextafter(4.0, 5.0)])
def test_near_equal_permittivities_match_semi_analytic(sys_fig3, eps2):
    # the diagonal 2 pi (eps1 + eps2) / (eps2 - eps1) grows as eps2 -> eps1,
    # so the system gets more diagonally dominant, not singular.  At 320
    # panels the energy is 4.0% off the semi-analytic one (measured
    # 0.0401), the discretization error that eps2 = 4 (1 + 1e-6) shows too
    # (the two deviations differ by 2.8e-8)
    charges = [PointCharge(3.0, -2.0, 1.5, 1.0), PointCharge(-4.0, 1.0, -2.0, -0.5)]
    mesh = mesh_ellipsoid(sys_fig3, 2)

    def deviation(diel):
        energy = solve_bem(mesh, charges, diel).energy_kcal
        assert math.isfinite(energy) and energy < 0.0
        return energy / solvation_energy(sys_fig3, charges, diel).energy_kcal - 1.0

    near = deviation(DielectricModel(4.0, eps2))
    assert abs(near) <= 0.05
    assert abs(near - deviation(DielectricModel(4.0, 4.0 * (1.0 + 1e-6)))) <= 1e-7


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


def test_richardson_equals_lstsq_scan_reference():
    rng = np.random.default_rng(16)
    for levels in (4, 5):
        counts = [80 * 4 ** i for i in range(levels)]
        for _ in range(50):
            e_inf, c1, c2 = rng.uniform(-100, -1), rng.uniform(-50, 50), rng.uniform(-200, 200)
            p = rng.uniform(0.5, 1.3)
            energies = [e_inf + c1 * n ** -p + c2 * n ** (-2 * p) + 1e-3 * rng.normal()
                        for n in counts]
            want = _richardson_lstsq_reference(counts, energies)
            assert abs(_richardson(counts, energies) - want) <= 1e-13 * abs(want)


def test_richardson_basis_changes_no_bit_and_is_read_only():
    # cold, warm, and after alternating 4- and 5-level panel counts (A-B-A)
    rng = np.random.default_rng(19)
    a, b = [80, 320, 1280, 5120], [20, 80, 320, 1280, 5120]
    ea, eb = -1.0 + 0.1 * rng.random(4), -1.0 + 0.1 * rng.random(5)
    _richardson_basis.cache_clear()
    cold = _richardson(a, ea)
    assert _richardson(a, ea) == cold
    other = _richardson(b, eb)
    assert _richardson(a, ea) == cold
    assert _richardson(b, eb) == other
    assert _richardson_basis.cache_info().currsize == 1
    X, Q = _richardson_basis(tuple(a))
    assert X.shape == (1201, 4, 3) and Q.shape == (1201, 4, 3)
    for arr in (X, Q):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 0.0


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


def test_solution_deterministic(sys215, monkeypatch):
    # the factored operator kept on the mesh changes no bit: a cold solve, a
    # warm one, one on a fresh mesh and one after switching the
    # permittivities away and back all agree.  A build assembles its rows in
    # blocks, so builds are counted as multiples of the first one's calls: a
    # warm solve assembles nothing, and away and back builds twice
    calls = []
    assemble = bem.assemble_influence_matrix
    monkeypatch.setattr(bem, "assemble_influence_matrix",
                        lambda *args: calls.append(args[3]) or assemble(*args))
    mesh = mesh_ellipsoid(sys215, 2)
    charges = [PointCharge(0.3, -0.2, 0.1, 1.0), PointCharge(-0.5, 0.4, 0.2, -0.6)]
    s1 = solve_bem(mesh, charges, WATER)
    per_build = len(calls)
    s2 = solve_bem(mesh, charges, WATER)
    assert per_build >= 1 and len(calls) == per_build
    fresh = solve_bem(mesh_ellipsoid(sys215, 2), charges, WATER)
    other = solve_bem(mesh, charges, DielectricModel(2.0, 80.0))
    assert len(mesh._factors) == 1
    back = solve_bem(mesh, charges, WATER)
    assert len(mesh._factors) == 1 and len(calls) == 4 * per_build
    assert other.energy_kcal != s1.energy_kcal
    for s in (s2, fresh, back):
        assert s1.energy_kcal == s.energy_kcal
        assert s1.induced_charge == s.induced_charge
        assert np.array_equal(s1.sigma, s.sigma)


def test_mesh_built_by_hand_solves_and_compares_without_its_cache(sys215):
    mesh = mesh_ellipsoid(sys215, 1)
    twin = TriMesh(vertices=mesh.vertices, triangles=mesh.triangles,
                   centroids=mesh.centroids, areas=mesh.areas, normals=mesh.normals,
                   mirrors=mesh.mirrors)
    charges = [PointCharge(0.2, 0.1, -0.3, 1.0)]
    got = solve_bem(twin, charges, WATER)
    assert np.array_equal(got.sigma, solve_bem(mesh_ellipsoid(sys215, 1), charges,
                                               WATER).sigma)
    assert twin._factors and not mesh._factors
    assert twin == mesh and mesh == twin
    assert "_factors" not in repr(twin)


def test_library_meshes_are_read_only_and_solve_as_writable_copies(sys215):
    # solve_bem keeps the operator on the mesh, so an in-place edit would
    # leave it stale: the library's meshes and the kept inverse stack refuse
    # one, and a solve on a hand-built mesh of writable copies gives the
    # same bits
    charges = [PointCharge(0.2, 0.1, -0.3, 1.0)]
    mesh = mesh_ellipsoid(sys215, 2)
    before = solve_bem(mesh, charges, WATER)
    [(_, inverses)] = mesh._factors.values()
    with pytest.raises(ValueError):
        inverses *= 1
    arrays = (mesh.vertices, mesh.triangles, mesh.centroids, mesh.areas, mesh.normals,
              mesh.mirrors)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr *= 1
    copy = TriMesh(*(np.array(arr) for arr in arrays))
    assert copy.centroids.flags.writeable
    for got in (solve_bem(mesh, charges, WATER), solve_bem(copy, charges, WATER)):
        assert got.energy_kcal == before.energy_kcal
        assert np.array_equal(got.sigma, before.sigma)
    assert not mesh_sphere(1.0, 1).centroids.flags.writeable


def test_singular_block_raises_singular_system(sys215, monkeypatch):
    # rank-one rows make every character block singular
    monkeypatch.setattr(bem, "assemble_influence_matrix",
                        lambda cen, nrm, area, diag, rows: np.ones((len(rows), len(cen))))
    mesh = mesh_ellipsoid(sys215, 1)
    with pytest.raises(SingularSystem, match="singular at 80 panels"):
        solve_bem(mesh, [PointCharge(0.0, 0.0, 0.0, 1.0)], WATER)
    assert not mesh._factors


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
