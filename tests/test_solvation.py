import itertools
import math

import numpy as np
import pytest

from conftest import second_kind_reference
from ellharm.coords import cart_to_ell, ell_to_cart, surface_point
from ellharm.coords import normal_derivative_factor
from ellharm.coords import new_system
from ellharm.errors import (ChargeOutsideEllipsoid, OrderOutOfRange,
                            RangeViolation, ValidationError)
from ellharm.lame1 import eval_lame, lame_function
from ellharm.harmonics import (HarmonicIndex, build_normalization_table,
                               exterior_solid)
from ellharm.solvation import (DielectricModel, PointCharge,
                               KCAL_PER_E2_PER_ANGSTROM, born_energy,
                               expansion_coefficients, exterior_coefficients,
                               reaction_coefficients, reaction_potential,
                               solvation_energy, source_coefficients)

WATER = DielectricModel(4.0, 80.0)


def _fig3_setup():
    from ellharm.coords import new_system
    return new_system(15.0, 12.0, 10.0), [PointCharge(3.0, 4.0, 5.0, 1.0)]


def test_charge_outside_rejected(sys215):
    with pytest.raises(ChargeOutsideEllipsoid):
        source_coefficients(sys215, [PointCharge(2.5, 0, 0, 1.0)], 2)
    with pytest.raises(ChargeOutsideEllipsoid):
        # on the surface counts as outside
        source_coefficients(sys215, [PointCharge(2.0, 0, 0, 1.0)], 2)
    # so far out that (x / a) ** 2 overflows
    for far in [PointCharge(1e160, 0, 0, 1.0), PointCharge(0.1, -1e200, 1e200, 1.0)]:
        with pytest.raises(ChargeOutsideEllipsoid):
            solvation_energy(sys215, [PointCharge(0.2, 0.0, 0.0, 1.0), far], WATER, N=2)


@pytest.mark.parametrize("charge", [
    PointCharge(math.nan, 0.0, 0.0, 1.0), PointCharge(0.1, math.inf, 0.0, 1.0),
    PointCharge(0.1, 0.1, 0.1, math.inf), PointCharge(0.1, 0.1, 0.1, math.nan)])
def test_non_finite_charge_rejected(sys215, charge):
    with pytest.raises(ValidationError):
        solvation_energy(sys215, [PointCharge(0.2, 0.0, 0.0, 1.0), charge], WATER, N=2)


@pytest.mark.parametrize("eps1, eps2", [(math.nan, 80.0), (4.0, math.nan),
                                        (math.inf, 80.0), (4.0, math.inf),
                                        (0.0, 80.0), (4.0, -1.0)])
def test_dielectric_model_rejects_non_positive_or_non_finite(eps1, eps2):
    with pytest.raises(ValueError):
        DielectricModel(eps1, eps2)


@pytest.mark.parametrize("eps1, eps2", [(1e-200, 2e-200), (1e200, 2e200),
                                        (1e-170, 1e170), (1e170, 1e-170)])
def test_dielectric_model_rejects_products_or_ratios_outside_float64(sys215, eps1, eps2):
    # the reaction factor divides by eps1 * eps2 and scales by eps1 / eps2
    with pytest.raises(ValueError, match="float64 range"):
        DielectricModel(eps1, eps2)
    small = DielectricModel(1e-150, 2e-150)
    report = solvation_energy(sys215, [PointCharge(0.2, 0.1, 0.0, 1.0)], small, N=2)
    assert math.isfinite(report.energy_kcal) and report.energy_kcal < 0.0
    # equal permittivities never reach the division, so their product may underflow
    equal = DielectricModel(1e-160, 1e-160)
    report = solvation_energy(sys215, [PointCharge(0.2, 0.1, 0.0, 1.0)], equal, N=2)
    assert report.energy_kcal == 0.0


def test_dipole_sources_vanish_at_origin(sys215):
    G = source_coefficients(sys215, [PointCharge(0, 0, 0, 1.0)], 2)
    for p in (1, 2, 3):
        assert G[(1, p)] == pytest.approx(0.0, abs=1e-14)
    assert G[(0, 1)] == pytest.approx(1.0, rel=1e-12)  # 4pi/(1*gamma_0) = 1


def test_monopole_cancellation_for_neutral_pair(sys215):
    charges = [PointCharge(0.5, 0.2, 0.1, 1.0), PointCharge(-0.3, 0.4, -0.2, -1.0)]
    G = source_coefficients(sys215, charges, 3)
    assert G[(0, 1)] == pytest.approx(0.0, abs=1e-14)


def test_source_coefficients_reproduce_coulomb_kernel():
    sys, charges = _fig3_setup()
    G = source_coefficients(sys, charges, 12)
    field = (40.0, 15.0, 20.0)
    pt = cart_to_ell(sys, *field)
    total = sum(G[(n, p)] * exterior_solid(sys, HarmonicIndex(n, p), pt)
                for n in range(13) for p in range(1, 2 * n + 2))
    exact = 1.0 / np.linalg.norm(np.subtract(field, charges[0].position))
    assert total == pytest.approx(exact, rel=1e-8)


def test_equal_permittivities_give_vacuum_limit(sys215):
    charges = [PointCharge(0.3, -0.2, 0.4, 1.0)]
    diel = DielectricModel(4.0, 4.0)
    coeffs = expansion_coefficients(sys215, charges, diel, 6)
    for (n, p), b in coeffs.B.items():
        assert b == 0.0
        assert coeffs.C[(n, p)] == pytest.approx(coeffs.G[(n, p)] / 4.0, rel=1e-12)
    assert reaction_potential(sys215, coeffs.B, (0.1, 0.1, 0.1)) == 0.0
    report = solvation_energy(sys215, charges, diel, N=6)
    assert report.energy_kcal == 0.0


def test_reaction_ratio_independent_of_charges(sys215):
    diel = WATER
    sets = [[PointCharge(0.3, 0.1, -0.2, 1.0)],
            [PointCharge(-0.6, 0.4, 0.3, 2.5), PointCharge(0.2, -0.5, 0.1, -1.0)]]
    ratios = []
    for charges in sets:
        coeffs = expansion_coefficients(sys215, charges, diel, 4)
        ratios.append({key: coeffs.B[key] / g
                       for key, g in coeffs.G.items() if abs(g) > 1e-10})
    for key in set(ratios[0]) & set(ratios[1]):
        assert ratios[0][key] == pytest.approx(ratios[1][key], rel=1e-10)


@pytest.mark.parametrize("semiaxes, N", [((15.0, 12.0, 10.0), 12), ((2.0, 1.5, 1.0), 16),
                                         ((10.0, 3.0, 1.0), 10), ((100.0, 2.0, 1.0), 10),
                                         ((1.001, 1.0002, 1.0001), 8)])
def test_reaction_denominator_cannot_vanish(semiaxes, N):
    # at lambda = a, E'/E >= 0 (zero only for n = 0) and F'/F < 0, so the
    # denominator 1 - (eps1/eps2)(E'/E)/(F'/F) is at least 1 for any
    # permittivities; the ratios are formed as _reaction_factor forms them
    E, dE, F, dF = build_normalization_table(new_system(*semiaxes), N).surface
    assert dE[0] / E[0] == 0.0 and np.all(dE[1:] / E[1:] > 0.0)
    assert np.all(dF / F < 0.0)
    for e1, e2 in ((4.0, 80.0), (80.0, 4.0), (1.0, 1e6), (1e6, 1.0)):
        assert np.all(1.0 - (e1 / e2) * (dE / E) / (dF / F) >= 1.0)


@pytest.mark.parametrize("semiaxes, N", [((15.0, 12.0, 10.0), 20), ((10.0, 3.0, 1.0), 10),
                                         ((2.0, 1.5, 1.0), 16), ((100.0, 2.0, 1.0), 8)])
def test_every_energy_term_has_the_sign_of_eps1_minus_eps2(semiaxes, N):
    # the energy is 1/2 sum over columns of (q^T E3)^2 R prefactor; F/E =
    # (2n+1) I > 0, the denominator is at least 1 and the prefactor
    # 4 pi/((2n+1) gamma) > 0, so R prefactor has the sign of eps1 - eps2
    from ellharm.solvation import _reaction_factor
    table = build_normalization_table(new_system(*semiaxes), N)
    for e1, e2 in ((4.0, 80.0), (80.0, 4.0), (1.0, 1.0001)):
        weight = _reaction_factor(DielectricModel(e1, e2), table.surface) * table.prefactor
        assert np.all(np.sign(weight) == np.sign(e1 - e2)), (e1, e2)


def test_exterior_coefficients_dual_formula(sys215):
    # C = G/eps1 + B E/F must also satisfy C = G/eps2 + (eps1/eps2)(E'/F') B
    charges = [PointCharge(0.4, 0.3, -0.2, 1.0)]
    coeffs = expansion_coefficients(sys215, charges, WATER, 6)
    e1, e2 = WATER.eps1, WATER.eps2
    for (n, p), c in coeffs.C.items():
        E, dE, F, dF = second_kind_reference(lame_function(sys215, n, p), sys215.a)[:4]
        alt = coeffs.G[(n, p)] / e2 + (e1 / e2) * (dE / dF) * coeffs.B[(n, p)]
        assert c == pytest.approx(alt, rel=1e-9, abs=1e-15)


def test_coefficients_without_table_match_the_table(sys215):
    G = source_coefficients(sys215, [PointCharge(0.4, 0.3, -0.2, 1.0)], 4)
    table = build_normalization_table(sys215, 4)
    B = reaction_coefficients(G, sys215, WATER)
    assert B == reaction_coefficients(G, sys215, WATER, table=table)
    assert (exterior_coefficients(G, B, sys215, WATER)
            == exterior_coefficients(G, B, sys215, WATER, table=table))


def test_empty_source_coefficients_give_empty_results(sys215):
    assert reaction_coefficients({}, sys215, WATER) == {}
    assert exterior_coefficients({}, {}, sys215, WATER) == {}


def test_coefficient_key_naming_no_harmonic_rejected(sys215):
    # (1, 4) would otherwise read column 4, which holds (2, 1); equal
    # permittivities check the keys like any others
    coeffs = {(2, 1): 1.0, (1, 4): 1.0}
    table = build_normalization_table(sys215, 2)
    for t, diel in itertools.product((None, table), (WATER, DielectricModel(4.0, 4.0))):
        for call in (lambda: reaction_coefficients(coeffs, sys215, diel, table=t),
                     lambda: exterior_coefficients(coeffs, coeffs, sys215, diel, table=t),
                     lambda: reaction_potential(sys215, coeffs, (0.1, 0.2, 0.3), table=t)):
            with pytest.raises(OrderOutOfRange, match=r"\(1, 4\)"):
                call()


def test_energy_bilinearity(sys215):
    charges = [PointCharge(0.4, -0.3, 0.2, 1.0), PointCharge(-0.2, 0.5, 0.1, -0.7)]
    base = solvation_energy(sys215, charges, WATER, N=6).energy_kcal
    scaled = [PointCharge(c.x, c.y, c.z, 3.0 * c.q) for c in charges]
    assert solvation_energy(sys215, scaled, WATER, N=6).energy_kcal == \
        pytest.approx(9.0 * base, rel=1e-10)


@pytest.mark.parametrize("once", [lambda ch: (c for c in ch), iter])
def test_charges_read_once_give_the_list_result(sys215, once):
    # a generator or iterator of charges is read once, not once per pass
    charges = [PointCharge(0.4, -0.3, 0.2, 1.0), PointCharge(-0.2, 0.5, 0.1, -0.7)]
    want = solvation_energy(sys215, charges, WATER, N=4)
    assert solvation_energy(sys215, once(charges), WATER, N=4) == want
    assert source_coefficients(sys215, once(charges), 4) == \
        source_coefficients(sys215, charges, 4)


def test_charge_transforms_call_the_bound_cart_to_ell_once_per_charge(sys215,
                                                                      monkeypatch):
    # the transform a tracer patches in solvation is the one every charge takes
    from ellharm import solvation
    calls = []

    def counted(*args):
        calls.append(args)
        return cart_to_ell(*args)

    monkeypatch.setattr(solvation, "cart_to_ell", counted)
    charges = [PointCharge(0.4, -0.3, 0.2, 1.0), PointCharge(-0.2, 0.5, 0.1, -0.7),
               PointCharge(0.1, 0.1, -0.3, 0.5)]
    table = build_normalization_table(sys215, 3)
    for run in (lambda: solvation_energy(sys215, charges, WATER, N=3, table=table),
                lambda: source_coefficients(sys215, charges, 3, table=table)):
        calls.clear()
        run()
        assert calls == [(sys215, c.x, c.y, c.z) for c in charges]


def test_charges_read_once_stop_at_the_first_outside_one(sys215):
    def charges():
        yield PointCharge(0.2, 0.1, 0.0, 1.0)
        yield PointCharge(2.5, 0.0, 0.0, 1.0)
        raise AssertionError("read past the first charge outside the ellipsoid")

    with pytest.raises(ChargeOutsideEllipsoid):
        solvation_energy(sys215, charges(), WATER, N=2)
    with pytest.raises(ChargeOutsideEllipsoid):
        source_coefficients(sys215, charges(), 2)


def test_energy_sign_and_units(sys215):
    report = solvation_energy(sys215, [PointCharge(0, 0, 0, 1.0)], WATER, N=6)
    assert report.energy_kcal < 0.0
    assert report.energy_kcal == pytest.approx(
        report.energy_gaussian * KCAL_PER_E2_PER_ANGSTROM, rel=1e-14)


def test_born_energy_closed_form():
    assert born_energy(1.0, 1.0, WATER) == pytest.approx(-39.432564375, rel=1e-12)
    assert born_energy(2.0, 1.0, WATER) == pytest.approx(-39.432564375 / 2, rel=1e-12)
    with pytest.raises(ValueError):
        born_energy(0.0, 1.0, WATER)


def test_born_limit_convergence():
    from ellharm.coords import new_system
    exact = born_energy(1.0, 1.0, WATER)
    devs = []
    for d in (1.0, 0.1, 1e-3):
        sys = new_system(1.0 + d, 1.0 + d / 5.0, 1.0 + d / 10.0)
        e = solvation_energy(sys, [PointCharge(0, 0, 0, 1.0)], WATER, N=8).energy_kcal
        devs.append(abs(e - exact))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.01 * abs(exact)


def _kirkwood_energy(r, N, diel):
    """Kirkwood's reaction energy (kcal/mol) of a unit charge at distance r
    from the centre of a unit dielectric sphere (J. Chem. Phys. 2, 351, 1934),
    truncated at l <= N."""
    e1, e2 = diel.eps1, diel.eps2
    return 0.5 * KCAL_PER_E2_PER_ANGSTROM * sum(
        (e1 - e2) * (l + 1) / (e1 * (l * e1 + (l + 1) * e2)) * r ** (2 * l)
        for l in range(N + 1))


def test_near_sphere_energies_tend_to_kirkwood():
    # the degree-n ellipsoidal harmonics span the degree-n harmonic
    # polynomials, so on 1+d, 1+d/5, 1+d/10 the N-truncated energy tends to
    # Kirkwood's N-truncated series as d -> 0; measured: the relative
    # deviation is -0.408 to -0.996 times d, and each tenfold drop in d
    # divides it by 10 within 0.18%
    positions = [(0.3, 0.2, 0.1), (0.0, 0.0, 0.5), (0.4, -0.3, 0.2)]
    deltas = (1e-3, 1e-4, 1e-5, 1e-6)
    devs = {}
    for d in deltas:
        sys = new_system(1.0 + d, 1.0 + d / 5.0, 1.0 + d / 10.0)
        table = build_normalization_table(sys, 12)
        for pos in positions:
            for N in (4, 12):
                e = solvation_energy(sys, [PointCharge(*pos, 1.0)], WATER, N=N,
                                     table=table).energy_kcal
                exact = _kirkwood_energy(math.hypot(*pos), N, WATER)
                devs.setdefault((pos, N), []).append((e - exact) / exact)
    for key, dev in devs.items():
        assert all(-1.0 < x / d < -0.4 for x, d in zip(dev, deltas)), (key, dev)
        assert all(abs(a / b / 10.0 - 1.0) < 2e-3 for a, b in zip(dev, dev[1:])), (key, dev)


def test_truncation_energies_settle():
    sys, charges = _fig3_setup()
    table = build_normalization_table(sys, 10)
    energies = [solvation_energy(sys, charges, WATER, N=N, table=table).energy_kcal
                for N in range(0, 11, 2)]
    steps = [abs(a - b) for a, b in zip(energies, energies[1:])]
    assert all(a > b for a, b in zip(steps, steps[1:]))
    assert energies[-1] == pytest.approx(-5.76, abs=0.01)


def test_table_of_another_geometry_rejected():
    sys, charges = _fig3_setup()
    table = build_normalization_table(new_system(16.0, 12.0, 10.0), 2)
    with pytest.raises(ValidationError):
        solvation_energy(sys, charges, WATER, N=2, table=table)


def test_table_below_requested_degree_rejected():
    sys, charges = _fig3_setup()
    table = build_normalization_table(sys, 2)
    with pytest.raises(OrderOutOfRange):
        solvation_energy(sys, charges, WATER, N=3, table=table)


def test_negative_truncation_degree_rejected():
    sys, charges = _fig3_setup()
    table = build_normalization_table(sys, 2)
    for build in (lambda: build_normalization_table(sys, -1),
                  lambda: solvation_energy(sys, charges, WATER, N=-1),
                  lambda: solvation_energy(sys, charges, WATER, N=-1, table=table),
                  lambda: source_coefficients(sys, charges, -1, table=table)):
        with pytest.raises(OrderOutOfRange, match="N=-1"):
            build()


def test_larger_table_gives_the_same_energy(sys215):
    charges = [PointCharge(0.4, -0.3, 0.2, 1.0), PointCharge(-0.2, 0.5, 0.1, -0.7)]
    small = build_normalization_table(sys215, 12)
    large = build_normalization_table(sys215, 16)
    assert (solvation_energy(sys215, charges, WATER, N=12, table=large).energy_kcal
            == solvation_energy(sys215, charges, WATER, N=12, table=small).energy_kcal)


def _reference_energy(sys, charges, diel, N, table, surface):
    """(1/2) (q^T E3) B from per-function E3 triple products and the per-key
    B formula, with the table's functions and gamma and ``surface``, E, E',
    F, F' at lambda = a by (n, p)."""
    keys = [(n, p) for n in range(N + 1) for p in range(1, 2 * n + 2)]
    pts = [cart_to_ell(sys, *ch.position) for ch in charges]
    s_mu = np.array([pt.s_mu for pt in pts])
    s_nu = np.array([pt.s_nu for pt in pts])
    E3 = np.empty((len(pts), len(keys)))
    for j, key in enumerate(keys):
        f = table.functions[key]
        E3[:, j] = (eval_lame(f, [pt.lam for pt in pts], s_mu, s_nu)
                    * eval_lame(f, [pt.mu for pt in pts], s_mu, s_nu)
                    * eval_lame(f, [pt.nu for pt in pts], s_mu, s_nu))
    qE3 = np.array([ch.q for ch in charges]) @ E3
    e1, e2 = diel.eps1, diel.eps2
    B = []
    for j, (n, p) in enumerate(keys):
        g = 4.0 * math.pi / (2 * n + 1) / table.gamma[(n, p)] * qE3[j]
        E, dE, F, dF = surface[(n, p)]
        denom = 1.0 - (e1 / e2) * (dE / E) / (dF / F)
        B.append((e1 - e2) / (e1 * e2) * (F / E) / denom * g)
    return 0.5 * float(qE3 @ np.array(B))


def test_table_energy_equals_per_function_reference():
    # seeded charge sets of 1 to 30 charges, some of them on the x = 0,
    # y = 0 and z = 0 planes, where radical factors vanish
    sys, _ = _fig3_setup()
    table = build_normalization_table(sys, 12)
    surface = {key: second_kind_reference(f, sys.a)[:4]
               for key, f in table.functions.items()}
    rng = np.random.default_rng(17)
    axes = np.array([sys.a, sys.b, sys.c])
    for count in [1, 2, 3, 5, 8, 13, 16, 21, 30] * 4:
        xyz = rng.uniform(-0.55, 0.55, (count, 3)) * axes
        xyz[::3, 0] = 0.0
        xyz[1::4, 1] = 0.0
        xyz[2::5, 2] = 0.0
        charges = [PointCharge(*map(float, r), float(q))
                   for r, q in zip(xyz, rng.uniform(-1.0, 1.0, count))]
        got = solvation_energy(sys, charges, WATER, N=12, table=table).energy_gaussian
        assert got == _reference_energy(sys, charges, WATER, 12, table, surface), count


def _scan_charges(seed, count, axes):
    """``count`` charges uniform in the 0.65-scaled ellipsoid, |q| in [0.2, 1]."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    v *= 0.65 * rng.random((count, 1)) ** (1.0 / 3.0) / np.linalg.norm(v, axis=1, keepdims=True)
    q = rng.choice((-1.0, 1.0), count) * rng.uniform(0.2, 1.0, count)
    return [PointCharge(*(float(x) for x in r * axes), float(qi)) for r, qi in zip(v, q)]


def test_charge_scan_energies_keep_their_bits(sys_fig3):
    # kcal/mol energies recorded before the interior pass gathered psi by
    # exponent code; q^T E3 goes through BLAS, so another numpy build may
    # sum it in another order
    table = build_normalization_table(sys_fig3, 12)
    axes = (sys_fig3.a, sys_fig3.b, sys_fig3.c)
    for seed, count, energy_hex in [
            (1, 1, "-0x1.9d5afc09b8c2ap+0"), (2, 3, "-0x1.84c464bdbff0cp+1"),
            (3, 8, "-0x1.d9f1f3acb0083p+5"), (4, 16, "-0x1.19b71af54d42cp+3"),
            (5, 30, "-0x1.eaf6aa9dc8e66p+2")]:
        report = solvation_energy(sys_fig3, _scan_charges(seed, count, axes), WATER,
                                  N=12, table=table)
        assert report.energy_kcal.hex() == energy_hex, (seed, count)


def test_reaction_factor_kept_on_the_table_changes_no_bit(sys_fig3):
    # energies and B equal the ones formed from the sliced surface rows, as
    # before the factor was kept: cold, warm, and after switching the
    # permittivities away and back; the table keeps one pair
    from ellharm.solvation import _interior_terms, _reaction_factor
    table = build_normalization_table(sys_fig3, 12)
    charges = _scan_charges(7, 8, (15.0, 12.0, 10.0))
    other = DielectricModel(2.0, 80.0)
    want = {}
    for diel in (WATER, other):
        for N in (12, 5):
            _, qE3, G = _interior_terms(sys_fig3, charges, N, table)
            B = _reaction_factor(diel, table.surface[:, :len(G)]) * G
            want[diel, N] = (0.5 * float(qE3 @ B), B.tolist())
    assert not table._reactions
    for diel in (WATER, WATER, other, WATER):
        for N in (12, 5):
            energy, B = want[diel, N]
            assert solvation_energy(sys_fig3, charges, diel, N=N,
                                    table=table).energy_gaussian == energy
            G = source_coefficients(sys_fig3, charges, N, table=table)
            assert list(reaction_coefficients(G, sys_fig3, diel, table=table).values()) == B
            assert len(table._reactions) == 1
    assert "_reactions" not in repr(table)


def test_reaction_potential_with_and_without_table():
    sys, charges = _fig3_setup()
    table = build_normalization_table(sys, 12)
    B = expansion_coefficients(sys, charges, WATER, 12, table=table).B
    low = {key: b for key, b in B.items() if key[0] <= 5 and key[1] % 2}
    for xyz in [(1.0, 1.0, 1.0), (-4.0, 0.0, 2.5), (0.0, -3.0, 0.0)]:
        for coeffs in (B, low):
            assert (reaction_potential(sys, coeffs, xyz, table=table)
                    == reaction_potential(sys, coeffs, xyz))
    with pytest.raises(ValidationError):
        reaction_potential(new_system(16.0, 12.0, 10.0), B, (1.0, 1.0, 1.0),
                           table=table)


def test_reaction_potential_rejects_points_outside_the_ellipsoid():
    sys, charges = _fig3_setup()
    table = build_normalization_table(sys, 4)
    B = expansion_coefficients(sys, charges, WATER, 4, table=table).B
    for xyz in [(30.0, 4.0, 5.0), (15.0 * (1.0 + 1e-9), 0.0, 0.0), (1e160, 0.0, 0.0)]:
        with pytest.raises(RangeViolation):
            reaction_potential(sys, B, xyz, table=table)
    # surface points pushed outward by rounding, here 1e-13 relative, still count
    for mu, nu, sign in [(9.5, 3.0, 1.0), (11.0, 8.0, -1.0)]:
        r = np.array(ell_to_cart(sys, surface_point(sys, mu, nu, s_mu=-1))) * (1.0 + 1e-13)
        assert sum((r / [sys.a, sys.b, sys.c]) ** 2) > 1.0
        assert math.isfinite(reaction_potential(sys, B, sign * r, table=table))


def test_inversion_through_centre_gives_the_same_energy():
    # E3 is even or odd under inversion, so every product in 1/2 q^T E3 B
    # is unchanged and the energy is reproduced exactly
    sys, _ = _fig3_setup()
    table = build_normalization_table(sys, 12)
    charges = [PointCharge(3.0, 4.0, 5.0, 1.0), PointCharge(-2.0, 1.5, -4.0, -0.5),
               PointCharge(6.0, -3.0, 0.0, 0.8)]
    mirrored = [PointCharge(-c.x, -c.y, -c.z, c.q) for c in charges]
    assert (solvation_energy(sys, mirrored, WATER, N=12, table=table).energy_kcal
            == solvation_energy(sys, charges, WATER, N=12, table=table).energy_kcal)


def test_normal_factor_consistent_with_fd(sys215):
    # lambda-derivative of an interior solid converted by the normal factor
    # must match the Cartesian directional derivative along the normal
    from ellharm.lame1 import eval_lame_derivative, lame_function
    from ellharm.harmonics import interior_solid
    mu, nu = 1.6, 0.7
    p = surface_point(sys215, mu, nu)
    r = np.array(ell_to_cart(sys215, p))
    grad = 2.0 * r / np.array([sys215.a, sys215.b, sys215.c]) ** 2
    n_hat = grad / np.linalg.norm(grad)
    idx = HarmonicIndex(2, 3)
    f = lame_function(sys215, 2, 3)
    _, dE = eval_lame_derivative(f, sys215.a)
    from ellharm.lame1 import eval_lame
    analytic = (normal_derivative_factor(sys215, mu, nu) * dE
                * eval_lame(f, mu) * eval_lame(f, nu))
    delta = 1e-5

    def phi(xyz):
        return interior_solid(sys215, idx, cart_to_ell(sys215, *xyz))

    fd = (phi(r + delta * n_hat) - phi(r - delta * n_hat)) / (2 * delta)
    assert analytic == pytest.approx(fd, rel=1e-6)
