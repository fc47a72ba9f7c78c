"""E3 at Cartesian points in product form over the Lame roots.

An interior harmonic is a polynomial in x, y, z: with theta_i the roots of
P in s^2, E3 = kappa x^e_s y^e_h z^e_k prod_i q(theta_i), where q is the
confocal cubic of the point.  These tests check the roots, the pass against
a 40-digit evaluation of psi P at the point's ellipsoidal coordinates, and
the solvation energies that now run on the pass.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ellharm.coords import cart_to_ell, new_system
from ellharm.errors import NumericalError
from ellharm.harmonics import (_cartesian_pass, _interior_pass, _lame_roots,
                               build_normalization_table)
from ellharm.solvation import (DielectricModel, PointCharge, _interior_terms,
                               solvation_energy)

WATER = DielectricModel(4.0, 80.0)


def _points(axes, count=8, f_max=0.9, seed=5):
    """``count`` seeded points at most ``f_max`` of the way to the surface."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(count, 3))
    v *= f_max * rng.random((count, 1)) ** (1.0 / 3.0) / np.linalg.norm(v, axis=1,
                                                                        keepdims=True)
    return v * np.array(axes)


def _mp_E3(table, H, xyz):
    """E(lam) E(mu) E(nu) of the table's first H columns at the points, at 40
    digits, from the table's float coefficients and semifocal squares: the
    coordinates are the roots of the confocal cubic, signed by octant."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    h2, k2 = mp.mpf(table.system.h2), mp.mpf(table.system.k2)
    coeffs = [[mp.mpf(float(v)) for v in col] for col in table.coeffs[:, :H].T]
    out = np.empty((len(xyz), H))
    for i, (x, y, z) in enumerate(xyz.tolist()):
        x2, y2, z2 = (mp.mpf(v) ** 2 for v in (x, y, z))
        cubic = [1, -(x2 + y2 + z2 + h2 + k2), x2 * (h2 + k2) + y2 * k2 + z2 * h2 + h2 * k2,
                 -x2 * h2 * k2]
        roots = sorted((mp.re(r) for r in mp.polyroots(cubic, maxsteps=200, extraprec=80)),
                       reverse=True)
        sx, sy, sz = (math.copysign(1, v) for v in (x, y, z))
        s_mu, s_nu = sx * sy, sx * sz
        factors = []
        for sign, root in zip((sx * sy * sz, s_mu, s_nu), roots):
            s = sign * mp.sqrt(root)
            t = 1 - s * s / h2
            factors.append((s, sign * s_mu * mp.sqrt(abs(s * s - h2)),
                            sign * s_nu * mp.sqrt(abs(s * s - k2)),
                            [t ** j for j in range(len(coeffs[0]))]))
        for j, (e_s, e_h, e_k) in enumerate(table.exponents[:, :H].T.tolist()):
            value = mp.mpf(1)
            for s, root_h, root_k, powers in factors:
                value *= (s ** e_s * root_h ** e_h * root_k ** e_k
                          * mp.fsum(b * p for b, p in zip(coeffs[j], powers)))
            out[i, j] = float(value)
    return out


def _column_error(got, want):
    """The worst over columns of the largest error relative to the column's
    largest magnitude."""
    return float((np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max())


@pytest.mark.parametrize("axes, N, bound", [((15.0, 12.0, 10.0), 12, 1e-13),
                                            ((10.0, 3.0, 1.0), 10, 1e-13),
                                            ((15.0, 12.0, 10.0), 20, 1e-12),
                                            ((15.0, 12.0, 10.0), 26, 1e-12)])
def test_cartesian_pass_against_a_40_digit_evaluation(axes, N, bound):
    # measured 7.9e-15, 2.3e-15, 7.9e-14 and 7.9e-14, against 1.2e-12,
    # 2.0e-11, 2.8e-10 and 5.8e-8 for psi P at the transformed points: the
    # Newton-polished roots are correctly rounded, so only the factors round
    sys = new_system(*axes)
    table = build_normalization_table(sys, N)
    H = (N + 1) ** 2
    xyz = _points(axes)
    want = _mp_E3(table, H, xyz)
    cartesian = _column_error(_cartesian_pass(table, xyz, H), want)
    transformed = _column_error(_interior_pass(sys, table.exponents, table.coeffs,
                                               [cart_to_ell(sys, *p) for p in xyz]), want)
    assert cartesian <= bound
    assert cartesian <= transformed


@pytest.mark.parametrize("axes", [(15.0, 12.0, 10.0), (10.0, 3.0, 1.0), (2.0, 1.5, 1.0),
                                  (100.0, 2.0, 1.0), (1.5e-6, 1.2e-6, 1e-6),
                                  (15.0, 12.0, 12.0 * (1 - 1e-7)),
                                  (15.0 * (1 + 1e-7), 15.0, 10.0)],
                         ids=["15,12,10", "10,3,1", "2,1.5,1", "100,2,1", "small",
                              "prolate-1e-7", "oblate-1e-7"])
def test_lame_roots_are_real_and_inside_0_k2(axes):
    sys = new_system(*axes)
    table = build_normalization_table(sys, 12)
    m = np.array([len(f.coeffs) for f in table.functions.values()])
    t = _lame_roots(table.coeffs, m)
    roots = np.arange(len(t))[:, None] < m - 1
    theta = sys.h2 * (1.0 - t[roots])
    assert np.all((theta > 0.0) & (theta < sys.k2))
    # each column's roots are distinct, and its factor rows past them are 1
    for column, count in zip(t.T, m - 1):
        assert np.all(np.diff(np.sort(column[:count])) > 0)
    A, B = table.factors[0], table.factors[1:]
    pad = ~roots
    pad[0] = False
    assert np.all(A[pad] == 1.0) and np.all(B[:, pad] == 0.0)


def test_a_root_off_the_real_axis_raises_numerical_error():
    # P(t) = 1 + t^2 has roots +-i
    with pytest.raises(NumericalError, match="off the real axis"):
        _lame_roots(np.array([[1.0], [0.0], [1.0]]), np.array([3]))


def _scaled_energy(scale, N):
    """The energy of the charge (3, 4, 5) scale in the (15, 12, 10) scale
    ellipsoid, times scale: the unit energy at every scale."""
    sys = new_system(15.0 * scale, 12.0 * scale, 10.0 * scale)
    return scale * solvation_energy(sys, [PointCharge(3.0 * scale, 4.0 * scale,
                                                      5.0 * scale, 1.0)],
                                    WATER, N=N).energy_kcal


def test_energy_at_a_length_scale_of_1e_7_is_the_scaled_unit_energy():
    # the transform snapped nu^2 = 6.3e-14 to 0 here, and the energy came
    # out 6.85e-2 off with no error; measured 6.9e-10 since the charges are
    # no longer transformed (the rest is the second-kind integrals' floor)
    unit = _scaled_energy(1.0, 12)
    assert abs(_scaled_energy(1e-7, 12) - unit) <= 1e-8 * abs(unit)


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e12, 1e30])
def test_energy_scales_with_the_length_wherever_the_table_builds(scale):
    # the transform raised RoundTripFailure at 1e-30, 1e12 and 1e30 and was
    # 9.8% off at 1e-12 (N = 2); measured within 1.7e-12 of the unit energy
    unit = _scaled_energy(1.0, 2)
    assert abs(_scaled_energy(scale, 2) - unit) <= 1e-10 * abs(unit)


def test_a_5000_charge_set_is_summed_in_blocks_in_little_memory(sys_fig3):
    table = build_normalization_table(sys_fig3, 12)
    rng = np.random.default_rng(34)
    xyz = _points((15.0, 12.0, 10.0), count=5000, f_max=0.95, seed=34)
    charges = [PointCharge(*p, q) for p, q in zip(xyz.tolist(),
                                                  rng.uniform(-1.0, 1.0, 5000).tolist())]
    tracemalloc.start()
    try:
        _, qE3, _ = _interior_terms(sys_fig3, charges, 12, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # q^T E3 is the sum of the blocks' q^T E3, in order, bit for bit
    want = np.zeros(169)
    for start in range(0, 5000, 64):
        want += _interior_terms(sys_fig3, charges[start:start + 64], 12, table)[1]
    assert qE3.tolist() == want.tolist()
    assert peak < 2e6
    energy = solvation_energy(sys_fig3, charges, WATER, N=12, table=table).energy_gaussian
    assert math.isfinite(energy) and energy < 0.0
