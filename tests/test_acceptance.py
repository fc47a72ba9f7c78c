"""End-to-end acceptance gate.

Each test prints a single ``[ACCEPTANCE i] PASS/FAIL - description`` line
before asserting, so the suite output doubles as a checklist.
"""

import math
import time

import numpy as np
import pytest

from conftest import surface_inner
from ellharm.bem import convergence_study, mesh_ellipsoid
from ellharm.coords import cart_to_ell, ell_to_cart, new_system, surface_point
from ellharm.harmonics import (HarmonicIndex, build_normalization_table,
                               coulomb_expand, exterior_solid, gamma)
from ellharm.lame1 import eval_lame, lame_function, lame_residual
from ellharm.solvation import (DielectricModel, PointCharge, born_energy,
                               expansion_coefficients, reaction_potential,
                               solvation_energy)

WATER = DielectricModel(4.0, 80.0)


def _report(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_acceptance_1_roundtrip(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for axes in [(2.0, 1.5, 1.0), (15.0, 12.0, 10.0)]:
        sys = new_system(*axes)
        base = np.linspace(0.15, 0.85, 3)
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    for x in base * sys.a:
                        for y in base * sys.b:
                            for z in base * sys.c:
                                pt = (sx * x, sy * y, sz * z)
                                p = cart_to_ell(sys, *pt)
                                rt = ell_to_cart(sys, p)
                                worst = max(worst, max(
                                    abs(a - b) for a, b in zip(pt, rt)))
                                count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 400 and worst <= 1e-6 and elapsed < 1.0
    _report(capsys, 1,
            f"round-trip of {count} points, worst {worst:.2e}, "
            f"{elapsed:.2f}s", ok)


def test_acceptance_2_lame_residuals(capsys):
    sys = new_system(2.0, 1.5, 1.0)
    t0 = time.perf_counter()
    samples = np.linspace(1.001 * sys.k, 3 * sys.k, 20)
    worst = 0.0
    for n in range(9):
        for p in range(1, 2 * n + 2):
            worst = max(worst, lame_residual(lame_function(sys, n, p), samples))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, 2,
            f"Lame-equation residuals n<=8, worst {worst:.2e}, {elapsed:.1f}s", ok)


def test_acceptance_3_gamma_closed_forms(capsys):
    sys = new_system(2.0, 1.5, 1.0)
    t0 = time.perf_counter()
    h2, k2 = sys.h2, sys.k2
    pi = math.pi
    expected = {
        (0, 1): 4 * pi,
        (1, 1): 4 * pi * h2 * k2 / 3,
        (1, 2): 4 * pi * h2 * (k2 - h2) / 3,
        (1, 3): 4 * pi * k2 * (k2 - h2) / 3,
        (2, 3): 4 * pi * h2 ** 2 * k2 * (k2 - h2) / 15,
        (2, 4): 4 * pi * h2 * k2 ** 2 * (k2 - h2) / 15,
        (2, 5): 4 * pi * h2 * k2 * (k2 - h2) ** 2 / 15,
    }
    for p in (1, 2):
        f = lame_function(sys, 2, p)
        lam = -(f.coeffs[0] + f.coeffs[1])
        expected[(2, p)] = (-16 * pi / 135) * (
            lam * (-2 * h2 ** 3 + 3 * h2 ** 2 * k2 + 3 * h2 * k2 ** 2 - 2 * k2 ** 3)
            + h2 * k2 * (h2 ** 2 - 4 * h2 * k2 + k2 ** 2))
    worst = max(abs(gamma(sys, HarmonicIndex(n, p)) - v) / v
                for (n, p), v in expected.items())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(capsys, 3,
            f"gamma n<=2 vs closed forms, worst rel {worst:.2e}, {elapsed:.1f}s", ok)


def test_acceptance_4_orthogonality(capsys):
    sys = new_system(2.0, 1.5, 1.0)
    idxs = [(n, p) for n in range(5) for p in range(1, 2 * n + 2)]
    Ea = {ip: eval_lame(lame_function(sys, *ip), sys.a) for ip in idxs}
    diag = {ip: surface_inner(sys, HarmonicIndex(*ip), HarmonicIndex(*ip))
            / Ea[ip] ** 2 for ip in idxs}
    worst = 0.0
    for i, ip1 in enumerate(idxs):
        for ip2 in idxs[i + 1:]:
            inner = (surface_inner(sys, HarmonicIndex(*ip1), HarmonicIndex(*ip2))
                     / (Ea[ip1] * Ea[ip2]))
            worst = max(worst, abs(inner) / math.sqrt(diag[ip1] * diag[ip2]))
    ok = worst <= 1e-7
    _report(capsys, 4,
            f"surface orthogonality n,n'<=4, worst {worst:.2e} rel sqrt(gg')", ok)


def test_acceptance_5_coulomb_figure(capsys):
    sys = new_system(2.0, 1.5, 1.0)
    t0 = time.perf_counter()
    exact = 1.0 / 1.5
    exp = coulomb_expand(sys, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0), 14)
    rels = [abs(s - exact) / exact for s in exp.partial_sums]
    best = min(rels)
    elapsed = time.perf_counter() - t0
    ok = best <= 5e-4 and elapsed < 120.0
    _report(capsys, 5,
            f"Coulomb expansion best rel error {best:.2e} by N=14, "
            f"{elapsed:.1f}s", ok)


def test_acceptance_6_born_limit(capsys):
    t0 = time.perf_counter()
    exact = born_energy(1.0, 1.0, WATER)
    devs = []
    for d in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3):
        sys = new_system(1.0 + d, 1.0 + d / 5.0, 1.0 + d / 10.0)
        e = solvation_energy(sys, [PointCharge(0, 0, 0, 1.0)], WATER,
                             N=8).energy_kcal
        devs.append(abs(e - exact))
    elapsed = time.perf_counter() - t0
    ok = (devs[-1] <= 0.01 * abs(exact)
          and all(a > b for a, b in zip(devs, devs[1:]))
          and elapsed < 300.0)
    _report(capsys, 6,
            f"Born limit: final dev {devs[-1]:.3f} kcal/mol "
            f"({devs[-1] / abs(exact):.2%}), monotone over 7 deltas, "
            f"{elapsed:.0f}s", ok)


def test_acceptance_7_bem_cross_validation(capsys):
    t0 = time.perf_counter()
    sys = new_system(15.0, 12.0, 10.0)
    charges = [PointCharge(3.0, 4.0, 5.0, 1.0)]
    semi = solvation_energy(sys, charges, WATER, N=12).energy_kcal
    study = convergence_study(lambda r: mesh_ellipsoid(sys, r), charges, WATER,
                              refinements=[1, 2, 3, 4], reference=semi)
    rich_dev = abs(study.richardson_limit - semi) / abs(semi)
    elapsed = time.perf_counter() - t0
    ok = (all(a > b for a, b in zip(study.deviations, study.deviations[1:]))
          and 0.7 <= study.fitted_slope <= 1.3
          and rich_dev <= 0.01
          and elapsed < 900.0)
    _report(capsys, 7,
            f"BEM cross-check: slope {study.fitted_slope:.2f}, Richardson "
            f"dev {rich_dev:.2%}, {elapsed:.0f}s", ok)


def test_acceptance_8_interface_conditions(capsys):
    # the exterior series converges like (lambda_source / a)^n on the surface,
    # so a moderately interior charge is needed for N = 12 to resolve the
    # interface to 1e-3; deeper charges require larger N
    sys = new_system(15.0, 12.0, 10.0)
    charges = [PointCharge(1.0, 1.0, 1.0, 1.0)]
    table = build_normalization_table(sys, 12)
    coeffs = expansion_coefficients(sys, charges, WATER, 12, table=table)

    def phi_in(xyz):
        coulomb = sum(ch.q / np.linalg.norm(np.subtract(xyz, ch.position))
                      for ch in charges)
        return coulomb / WATER.eps1 + reaction_potential(sys, coeffs.B, xyz,
                                                          table=table)

    def phi_out(xyz):
        pt = cart_to_ell(sys, *xyz)
        return sum(coeffs.C[key] * exterior_solid(sys, HarmonicIndex(*key), pt)
                   for key in coeffs.C)

    rng = np.random.default_rng(7)
    delta = 1e-4 * sys.a
    axes2 = np.array([sys.a, sys.b, sys.c]) ** 2
    worst_pot, worst_flux = 0.0, 0.0
    for _ in range(20):
        mu = rng.uniform(1.05 * sys.h, 0.95 * sys.k)
        nu = rng.uniform(0.05 * sys.h, 0.95 * sys.h)
        sl, sm, sn = rng.choice([-1, 1], 3)
        p = surface_point(sys, mu, nu, s_mu=sm, s_nu=sn, s_lambda=sl)
        r = np.array(ell_to_cart(sys, p))
        n_hat = (2.0 * r / axes2)
        n_hat /= np.linalg.norm(n_hat)
        v_in, v_out = phi_in(r), phi_out(r)
        worst_pot = max(worst_pot,
                        abs(v_in - v_out) / max(abs(v_in), abs(v_out)))
        d_in = (3 * v_in - 4 * phi_in(r - delta * n_hat)
                + phi_in(r - 2 * delta * n_hat)) / (2 * delta)
        d_out = (-3 * v_out + 4 * phi_out(r + delta * n_hat)
                 - phi_out(r + 2 * delta * n_hat)) / (2 * delta)
        f_in, f_out = WATER.eps1 * d_in, WATER.eps2 * d_out
        worst_flux = max(worst_flux,
                         abs(f_in - f_out) / max(abs(f_in), abs(f_out)))
    ok = worst_pot <= 1e-3 and worst_flux <= 1e-2
    _report(capsys, 8,
            f"interface conditions at N=12: potential {worst_pot:.2e}, "
            f"flux {worst_flux:.2e}", ok)


def test_acceptance_9_cancellation_diagnostic(capsys):
    sys = new_system(2.0, 1.5, 1.0)
    exp = coulomb_expand(sys, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0), 16)
    fired = sorted(set(exp.cancellation_degrees) & set(range(10, 17)))
    peak = max((max(d["absE"] * d["absF"] * 4 * math.pi / ((2 * n + 1) * d["gamma"])
                    for (n, p), d in exp.diagnostics.items() if n == m)
                / max(abs(exp.partial_sums[m]), 1e-300))
               for m in range(10, 17))
    ok = bool(fired)
    _report(capsys, 9,
            f"cancellation diagnostic degrees {fired or 'none'} in [10,16]; "
            f"peak term/sum amplification {peak:.1e} vs 1e6 threshold", ok)
