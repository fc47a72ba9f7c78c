import math
import re

import numpy as np
import pytest
from scipy.special import ellip_normal

from conftest import (fd_laplacian, gamma_tensor_reference, lame_reference,
                      second_kind_reference, surface_inner)
from ellharm.coords import cart_to_ell, new_system
from ellharm.errors import (DegenerateEllipsoid, NonConvergence, OrderingViolation,
                            OrderOutOfRange, ValidationError)
from ellharm.harmonics import (CANCELLATION_THRESHOLD, HarmonicIndex, _interior_pass,
                               build_normalization_table,
                               coulomb_expand, exterior_solid, gamma,
                               interior_solid, surface_harmonic)
from ellharm.lame1 import (LameClass, _eval, _padded, build_tridiagonal,
                           class_of, eval_lame, eval_lame_condition, lame_function,
                           psi_exponents)
from ellharm.lame2 import eval_I
from ellharm.numerics import adaptive_quad
from ellharm.solvation import (DielectricModel, PointCharge, reaction_coefficients,
                               reaction_potential, solvation_energy)


def test_interior_monopole(sys215):
    idx = HarmonicIndex(0, 1)
    for xyz in [(0.1, 0.2, 0.3), (-1.0, 0.5, -0.2)]:
        pt = cart_to_ell(sys215, *xyz)
        assert interior_solid(sys215, idx, pt) == pytest.approx(1.0, rel=1e-12)


def test_interior_dipoles_proportional_to_cartesians(sys215):
    h, k = sys215.h, sys215.k
    consts = {1: h * k, 2: math.sqrt(k * k - h * h) * h,
              3: math.sqrt(k * k - h * h) * k}
    rng = np.random.default_rng(2)
    for _ in range(20):
        xyz = rng.uniform(-1, 1, 3) * [1.5, 1.1, 0.7]
        pt = cart_to_ell(sys215, *xyz)
        for p, cart in zip((1, 2, 3), xyz):
            v = interior_solid(sys215, HarmonicIndex(1, p), pt)
            assert v == pytest.approx(consts[p] * cart, rel=1e-9, abs=1e-12)


def test_interior_matrix_matches_scalar_triple_product(sys215):
    # every octant, and points on each coordinate plane, where nu = 0 or
    # mu = h or the radical factors change sign
    base = [(0.7, 0.5, 0.3), (0.0, 0.6, 0.4), (0.8, 0.0, 0.3), (0.6, 0.5, 0.0)]
    signs = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    pts = [cart_to_ell(sys215, sx * x, sy * y, sz * z)
           for x, y, z in base for sx, sy, sz in signs]
    fns = [lame_function(sys215, n, p) for n in range(13) for p in range(1, 2 * n + 2)]
    # a shuffled order mixes classes and degrees inside each psi group
    np.random.default_rng(4).shuffle(fns)
    for subset in (fns, fns[::7]):
        E3 = _interior_pass(sys215, *_padded(subset), pts)
        assert E3.shape == (len(pts), len(subset))
        for i, pt in enumerate(pts):
            for j, f in enumerate(subset):
                ref = (eval_lame(f, pt.lam, pt.s_mu, pt.s_nu)
                       * eval_lame(f, pt.mu, pt.s_mu, pt.s_nu)
                       * eval_lame(f, pt.nu, pt.s_mu, pt.s_nu))
                assert E3[i, j] == ref, (i, f.n, f.cls)
    assert reaction_potential(sys215, {}, (0.3, 0.2, 0.1)) == 0.0


@pytest.fixture(scope="module")
def table12_fig3(sys_fig3):
    return build_normalization_table(sys_fig3, 12)


@pytest.fixture(scope="module")
def table10_thin():
    # thin enough that I_n^p(a) takes the cosh head below 1.01 k
    return build_normalization_table(new_system(10.0, 3.0, 1.0), 10)


TABLES = ["table12_fig3", "table16", "table10_thin"]


@pytest.mark.parametrize("table_name", TABLES)
def test_table_functions_equal_per_function_solves(table_name, request):
    # (n, p) order, classes K, L, M, N within each degree, each function as
    # its own solve of the class matrix gives it
    table = request.getfixturevalue(table_name)
    N = max(n for n, _ in table.functions)
    assert list(table.functions) == [(n, p) for n in range(N + 1)
                                     for p in range(1, 2 * n + 2)]
    for (n, p), f in table.functions.items():
        b, pconst = lame_reference(table.system, n, p)
        assert f.cls == class_of(n, p)
        assert (f.coeffs.tobytes(), f.separation_constant) == (b.tobytes(), pconst), (n, p)


@pytest.mark.parametrize("table_name", TABLES)
def test_table_surface_equals_per_function_reference(table_name, request):
    table = request.getfixturevalue(table_name)
    ref = np.array([second_kind_reference(f, table.system.a)[:4]
                    for f in table.functions.values()]).T.copy()
    assert table.surface.tobytes() == ref.tobytes()


def _octant_grid(sys, branch_points):
    """s in each coordinate range and on the planes s = +-0 (and s = +-h,
    +-k if ``branch_points``, where derivatives are unbounded), with every
    octant sign pair: (s, s_mu, s_nu) arrays."""
    h, k = sys.h, sys.k
    base = [1.2 * k, 3.0 * k, h + 0.3 * (k - h), h + 0.8 * (k - h), 0.3 * h, 0.9 * h, 0.0]
    s = [f * x for x in base + ([h, k] if branch_points else []) for f in (1.0, -1.0)]
    grid = [(x, sm, sn) for x in s for sm in (1, -1) for sn in (1, -1)]
    return tuple(np.array(col, dtype=float) for col in zip(*grid))


@pytest.mark.parametrize("geometry", ["sys_fig3", "sys215"])
def test_all_column_pass_equals_per_function_eval(geometry, request,
                                                  table12_fig3, table16):
    # the table's arrays evaluate every (n, p) with n <= 12 at once, forming
    # psi once per exponent code e_s + 2 e_h + 4 e_k; each of the eight codes
    # gives each function's own bytes for E and E', also on the planes where
    # a radical factor or the s factor is a signed zero; table16 shows that
    # the first 169 columns of a larger table serve as well
    sys = request.getfixturevalue(geometry)
    table = table12_fig3 if geometry == "sys_fig3" else table16
    exps = table.exponents[:, :169]
    assert set((np.array([1, 2, 4]) @ exps).tolist()) == set(range(8))
    for nderiv in (0, 1, 2):
        s, sm, sn = _octant_grid(sys, branch_points=nderiv == 0)
        got = _eval(sys, exps, table.coeffs[:, :169],
                    s[:, None], sm[:, None], sn[:, None], nderiv)
        got = got if nderiv else (got,)
        for n in range(13):
            for p in range(1, 2 * n + 2):
                f = table.functions[(n, p)]
                ref = _eval(sys, psi_exponents(f.cls.tag, n), f.coeffs,
                            s, sm, sn, nderiv)
                ref = ref if nderiv else (ref,)
                for d in range(nderiv + 1):
                    col = got[d][:, n * n + p - 1]
                    if d < 2:
                        assert col.tobytes() == ref[d].tobytes(), (n, p, nderiv, d)
                    else:
                        # at s = -0 an E'' of -0.0 can come out as +0.0
                        # (the all-column pass runs at nderiv <= 1 only)
                        assert np.array_equal(col, ref[d]), (n, p, nderiv, d)


def test_table_arrays_are_read_only(table12_fig3):
    t = table12_fig3
    for arr in (t.exponents, t.coeffs, t.prefactor, t.surface):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_interior_harmonicity(sys215):
    rng = np.random.default_rng(9)
    for p in range(1, 6):
        idx = HarmonicIndex(2, p)

        def phi(x, y, z):
            return interior_solid(sys215, idx, cart_to_ell(sys215, x, y, z))

        for _ in range(10):
            pt = rng.uniform(0.1, 0.5, 3) * [1.0, 1.0, 1.0] * rng.choice([-1, 1], 3)
            scale = max(abs(phi(*pt)), 1.0) / sys215.a ** 2
            assert abs(fd_laplacian(phi, pt, 1e-4 * sys215.a)) <= 1e-5 * scale


def test_exterior_monopole_far_field(sys215):
    idx = HarmonicIndex(0, 1)
    pt = cart_to_ell(sys215, 100.0, 0.0, 0.0)
    v = exterior_solid(sys215, idx, pt)
    assert abs(v - 0.01) <= 0.002 * 0.01


def test_exterior_decay_rates(sys215):
    for n in (1, 2, 3):
        idx = HarmonicIndex(n, 1)
        near = exterior_solid(sys215, idx, cart_to_ell(sys215, 100.0, 0.0, 0.0))
        far = exterior_solid(sys215, idx, cart_to_ell(sys215, 200.0, 0.0, 0.0))
        target = 2.0 ** -(n + 1)
        assert abs(far / near - target) <= 0.02 * target


def test_exterior_harmonicity(sys215):
    for (n, p) in [(1, 2), (2, 3), (4, 5)]:
        idx = HarmonicIndex(n, p)

        def phi(x, y, z):
            return exterior_solid(sys215, idx, cart_to_ell(sys215, x, y, z))

        for pt in [(2.5, 0.8, 0.6), (3.0, -1.0, 0.5), (-2.8, 1.2, -0.9)]:
            scale = max(abs(phi(*pt)), 1e-6) / sys215.a ** 2
            assert abs(fd_laplacian(phi, pt, 1e-4 * sys215.a)) <= 1e-4 * scale


def test_surface_harmonic_composition(sys215):
    idx = HarmonicIndex(2, 3)
    f = lame_function(sys215, 2, 3)
    mu, nu = 1.5, 0.5
    expect = eval_lame(f, mu) * eval_lame(f, nu)
    assert surface_harmonic(sys215, idx, mu, nu) == pytest.approx(expect, rel=1e-14)
    assert surface_harmonic(sys215, HarmonicIndex(0, 1), mu, nu) == 1.0


def _lambda_k2(sys, p):
    """The constant Lambda of the degree-2 K-class function E = s^2 - Lambda."""
    f = lame_function(sys, 2, p)
    b = f.coeffs
    return -(b[0] + b[1])


def test_gamma_closed_forms(sys215):
    h2, k2 = sys215.h2, sys215.k2
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
        lam = _lambda_k2(sys215, p)
        expected[(2, p)] = (-16 * pi / 135) * (
            lam * (-2 * h2 ** 3 + 3 * h2 ** 2 * k2 + 3 * h2 * k2 ** 2 - 2 * k2 ** 3)
            + h2 * k2 * (h2 ** 2 - 4 * h2 * k2 + k2 ** 2))
    for (n, p), val in expected.items():
        got = gamma(sys215, HarmonicIndex(n, p))
        # at least five significant figures
        assert got == pytest.approx(val, rel=1e-5), (n, p)


def test_gamma_positive_and_finite(sys215):
    table = build_normalization_table(sys215, 12)
    assert len(table.gamma) == sum(2 * n + 1 for n in range(13))
    for v in table.gamma.values():
        assert v > 0 and math.isfinite(v)


@pytest.mark.parametrize("semiaxes", [(2.0, 1.5, 1.0), (15.0, 12.0, 10.0),
                                      (10.0, 3.0, 1.0), (100.0, 2.0, 1.0),
                                      (1.001, 1.0002, 1.0001)])
def test_table_gamma_equals_tensor_rule_reference(semiaxes):
    # the two separable sums against the order x order tensor rule they
    # replace, on a near-sphere, a strongly prolate shape and three others
    table = build_normalization_table(new_system(*semiaxes), 16)
    for key, f in table.functions.items():
        ref, _ = gamma_tensor_reference(table.system, f)
        assert table.gamma[key] == pytest.approx(ref, rel=1e-13, abs=0), key
        assert table.error_estimates[key] <= 1e-8, key


def test_gamma_runs_the_order_ladder(sys215, monkeypatch):
    # orders 64, 128, ..., 1024: a converged harmonic stops at the first
    # doubling, one that never settles raises after 1024, naming itself
    from ellharm import harmonics
    orders = []
    rule = harmonics.gauss_legendre
    monkeypatch.setattr(harmonics, "gauss_legendre",
                        lambda order, *args: orders.append(order) or rule(order, *args))
    gamma(sys215, HarmonicIndex(0, 1))
    assert orders == [64, 128]
    orders.clear()
    monkeypatch.setattr(harmonics, "_gamma_fixed_order",
                        lambda sys, exps, b, order: orders.append(order)
                        or np.full(b.shape[1], float(order)))
    with pytest.raises(NonConvergence, match=r"gamma_0\^1 of semiaxes \(2.0, 1.5, 1.0\): "
                                             r"order-doubling stalled at order 1024"):
        gamma(sys215, HarmonicIndex(0, 1))
    assert orders == [64, 128, 256, 512, 1024]


def test_gamma_ladder_drops_converged_columns(sys215, monkeypatch):
    # one stalled column among converged ones: every rung after the second
    # evaluates it alone, and the error names it; with two stalled, the
    # first in (n, p) order is named, whatever order they were given in
    from ellharm import harmonics
    columns = []
    fixed = harmonics._gamma_fixed_order

    def stall(e_h):
        # the columns whose psi has the h-root (exponent e_h = 1) never settle
        def rung(sys, exps, b, order):
            columns.append(b.shape[1])
            return np.where(exps[1] == e_h, float(order), fixed(sys, exps, b, order))
        return rung

    # (0, 1) is class K, (1, 1) K, (1, 2) L, (1, 3) M: only (1, 2) has e_h = 1
    keys = [HarmonicIndex(0, 1), HarmonicIndex(1, 1), HarmonicIndex(1, 2), HarmonicIndex(1, 3)]
    monkeypatch.setattr(harmonics, "_gamma_fixed_order", stall(1))
    with pytest.raises(NonConvergence, match=r"gamma_1\^2 of semiaxes .* order 1024"):
        gamma(sys215, keys)
    assert columns == [4, 4, 1, 1, 1]
    columns.clear()
    monkeypatch.setattr(harmonics, "_gamma_fixed_order", stall(0))
    with pytest.raises(NonConvergence, match=r"gamma_0\^1 of semiaxes .* order 1024"):
        gamma(sys215, keys[::-1])
    assert columns == [4, 4, 3, 3, 3]


GAMMA_GEOMETRIES = [((15.0, 12.0, 10.0), 12), ((2.0, 1.5, 1.0), 16), ((10.0, 3.0, 1.0), 10),
                    ((100.0, 2.0, 1.0), 8), ((1.001, 1.0002, 1.0001), 12),
                    ((15.0, 12.0, 12.0 * (1 - 1e-7)), 12)]


@pytest.mark.parametrize("semiaxes, N", GAMMA_GEOMETRIES)
def test_gamma_of_many_indices_has_the_bits_of_one_index_calls(semiaxes, N):
    # the prolate delta = 1e-7 shape runs its ladder to 512; every value and
    # error estimate is the one-index call's, byte for byte, also in a
    # shuffled order with a repeated index
    sys = new_system(*semiaxes)
    keys = [HarmonicIndex(n, p) for n in range(N + 1) for p in range(1, 2 * n + 2)]
    keys = [keys[i] for i in np.random.default_rng(N).permutation(len(keys))] + keys[:1]
    values, errors = gamma(sys, keys, with_error=True)
    assert values.shape == errors.shape == (len(keys),)
    for key, value, error in zip(keys, values.tolist(), errors.tolist()):
        one = gamma(sys, key, with_error=True)
        assert (value.hex(), error.hex()) == tuple(x.hex() for x in one), key
    assert gamma(sys, keys).tolist() == values.tolist()


@pytest.mark.parametrize("semiaxes, pins", [
    ((15.0, 12.0, 10.0), {
        (0, 1): ("0x1.921fb54442d19p+3", "0x1.45f306dc9c882p-51"),
        (3, 5): ("0x1.f454430b90838p+33", "0x1.4fa6aab4543b4p-48"),
        (7, 2): ("0x1.9228e782a7a77p+74", "0x1.6ea9051930b8bp-50"),
        (9, 13): ("0x1.5e7f81d8d8b3cp+94", "0x1.d372f665944cep-50"),
        (12, 1): ("0x1.2a080e623cf70p+124", "0x1.8cd81047a2ec7p-44"),
        (12, 25): ("0x1.198d5e86406aep+128", "0x1.475408fa1db12p-46")}),
    ((15.0, 12.0, 12.0 * (1 - 1e-7)), {
        (0, 1): ("0x1.921fb544432b0p+3", "0x1.d985f4366aef8p-32"),
        (3, 5): ("0x1.393937d27da8ep-29", "0x1.5f253a2fb3eaep-35"),
        (7, 2): ("0x1.bd772242abf2ap-12", "0x1.bd8b865648f4dp-33"),
        (9, 13): ("0x1.093b7cdbc4e83p-13", "0x1.4d04756c176d8p-34"),
        (12, 1): ("0x1.a49464a2b6067p-127", "0x1.33066760aa493p-28"),
        (12, 25): ("0x1.419e32c24e0bcp+77", "0x1.3bee2b5adca14p-31")})],
    ids=["15,12,10", "prolate-1e-7"])
def test_table_gamma_keeps_its_recorded_bits(semiaxes, pins):
    # gamma and its order-doubling change, recorded from the one-index
    # ladder the table ran before it made one call for every index
    table = build_normalization_table(new_system(*semiaxes), 12)
    for key, (value, error) in pins.items():
        assert (table.gamma[key].hex(), table.error_estimates[key].hex()) == (value, error), key


@pytest.mark.parametrize("scale, message", [
    (1e-10, r"gamma_9\^1 of semiaxes \(1.5e-09, 1.2e-09, 1e-09\) is 0.0 at order 64: "
            r"outside float64 range"),
    (1e6, r"gamma_12\^1 of semiaxes \(15000000.0, 12000000.0, 10000000.0\) is nan at "
          r"order 64: outside float64 range")])
def test_table_outside_float64_range_names_the_first_degenerate_gamma(scale, message):
    # the message a table build gave when it called gamma once per index
    sys = new_system(15 * scale, 12 * scale, 10 * scale)
    with pytest.raises(DegenerateEllipsoid, match=f"^{message}$"):
        build_normalization_table(sys, 12)


@pytest.mark.parametrize("idx", [[HarmonicIndex(1, 1), (2, 3)], (2, 3), [None], 5],
                         ids=["tuple-element", "tuple", "none-element", "int"])
def test_gamma_of_something_not_a_harmonic_index_is_a_validation_error(sys215, idx):
    with pytest.raises(ValidationError, match="gamma takes a HarmonicIndex"):
        gamma(sys215, idx)


def test_gamma_of_no_indices_is_empty(sys215):
    values, errors = gamma(sys215, [], with_error=True)
    assert values.shape == errors.shape == (0,)


# two charges in 15,12,10-sized near-spheroids, N = 12, eps 4/80; the
# ladder stopped at 256 stalled on each case below
NEAR_SPHEROID_CHARGES = [PointCharge(3.0, 2.0, 1.0, 1.0), PointCharge(-2.0, 1.0, -2.0, -0.5)]
NEAR_SPHEROIDS = {"prolate": lambda d: (15.0, 12.0, 12.0 * (1 - d)),
                  "oblate": lambda d: (15.0 * (1 + d), 15.0, 10.0)}


def _near_spheroid_energy(family, delta):
    return solvation_energy(new_system(*NEAR_SPHEROIDS[family](delta)),
                            NEAR_SPHEROID_CHARGES, DielectricModel(4.0, 80.0),
                            N=12).energy_kcal


@pytest.mark.parametrize("family, delta, energy", [("prolate", 1e-7, -1.1626017150022),
                                                   ("oblate", 1e-7, -1.201182636047),
                                                   ("oblate", 1e-8, -1.201182689159)])
def test_near_spheroids_solve_on_the_linear_trend(family, delta, energy):
    # the energy at delta lies on the line through delta = 1e-5 and 1e-6,
    # which solved at 256 already: measured off it by 2.9e-5, 3.0e-5 and
    # 2.0e-3 of its change from 1e-6
    got = _near_spheroid_energy(family, delta)
    assert got == pytest.approx(energy, rel=1e-10)
    e5, e6 = (_near_spheroid_energy(family, d) for d in (1e-5, 1e-6))
    line = e6 + (e5 - e6) / (1e-5 - 1e-6) * (delta - 1e-6)
    assert abs(got - line) <= 0.01 * abs(got - e6)


def test_prolate_spheroid_at_1e_8_still_stalls():
    axes = NEAR_SPHEROIDS["prolate"](1e-8)
    with pytest.raises(NonConvergence, match=rf"gamma_12\^1 of semiaxes "
                                             rf"{re.escape(str(axes))}: .* order 1024"):
        _near_spheroid_energy("prolate", 1e-8)


@pytest.mark.parametrize("call", [
    lambda sys: HarmonicIndex(1.5, 1),
    lambda sys: HarmonicIndex(1, 1.0),
    lambda sys: class_of(2.0, 1),
    lambda sys: lame_function(sys, 2, np.float64(1.0)),
    lambda sys: gamma(sys, HarmonicIndex("1", 1)),
    lambda sys: reaction_coefficients({(1.0, 1): 1.0}, sys, DielectricModel(4.0, 80.0)),
    lambda sys: build_normalization_table(sys, 2.0),
    lambda sys: solvation_energy(sys, [PointCharge(0.1, 0.0, 0.0, 1.0)],
                                 DielectricModel(4.0, 80.0), N=2.0,
                                 table=build_normalization_table(sys, 2)),
    lambda sys: LameClass("K", 2.0, 0),
    lambda sys: LameClass("K", 2, 0.0),
], ids=["n", "p", "class_of", "lame_function", "str", "G-key", "table-N", "solve-N",
        "class-n", "class-p_local"])
def test_non_integer_degree_or_order_is_order_out_of_range(sys215, call):
    with pytest.raises(OrderOutOfRange, match="is not an integer"):
        call(sys215)


def test_numpy_integer_degree_and_order_pass(sys215):
    idx = HarmonicIndex(np.int64(2), np.int32(3))
    assert gamma(sys215, idx) == gamma(sys215, HarmonicIndex(2, 3))
    table = build_normalization_table(sys215, np.int64(2))
    assert table.gamma == build_normalization_table(sys215, 2).gamma


@pytest.mark.parametrize("n, p", [(2, 6), (2, 0), (-1, 1)])
def test_harmonic_index_and_class_of_reject_an_order_alike(n, p):
    for call in (HarmonicIndex, class_of):
        with pytest.raises(OrderOutOfRange, match=re.escape(f"(n, p) = ({n}, {p}) invalid")):
            call(n, p)


@pytest.mark.parametrize("scale, n, value", [(1e-10, 9, "0.0"), (1e6, 12, "nan")])
def test_gamma_outside_float64_range_is_a_degenerate_ellipsoid(scale, n, value):
    # gamma scales as length^(4n): it underflows to 0 or overflows (inf - inf
    # in the separable sums) without a RuntimeWarning escaping
    sys = new_system(15 * scale, 12 * scale, 10 * scale)
    with pytest.raises(DegenerateEllipsoid, match=rf"gamma_{n}\^1 .* is {value} at order 64"):
        gamma(sys, HarmonicIndex(n, 1))


# scipy's reference quadrature warns about its own round-off; the
# values still agree within the tolerance asserted below
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_gamma_cross_check_reference_implementation(sys215):
    h2, k2 = sys215.h2, sys215.k2
    for n in range(5):
        for p in range(1, 2 * n + 2):
            mine = gamma(sys215, HarmonicIndex(n, p))
            ref = float(ellip_normal(h2, k2, n, p))
            assert mine == pytest.approx(ref, rel=1e-6), (n, p)


def test_orthogonality(sys215):
    idxs = [(n, p) for n in range(5) for p in range(1, 2 * n + 2)]
    # the inner product of solid-harmonic surface restrictions has diagonal
    # gamma * E(a)^2; normalize by the E(a) factors to compare against gamma
    Ea = {ip: eval_lame(lame_function(sys215, *ip), sys215.a) for ip in idxs}
    gam = {ip: surface_inner(sys215, HarmonicIndex(*ip), HarmonicIndex(*ip))
           / Ea[ip] ** 2 for ip in idxs}
    for ip in idxs:
        assert gam[ip] == pytest.approx(
            gamma(sys215, HarmonicIndex(*ip)), rel=1e-7)
    for i, ip1 in enumerate(idxs):
        for ip2 in idxs[i + 1:]:
            inner = (surface_inner(sys215, HarmonicIndex(*ip1), HarmonicIndex(*ip2))
                     / (Ea[ip1] * Ea[ip2]))
            assert abs(inner) <= 1e-7 * math.sqrt(gam[ip1] * gam[ip2]), (ip1, ip2)


def test_coulomb_expansion_truncation(sys215):
    exact = 1.0 / 1.5
    exp = coulomb_expand(sys215, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0), 12)
    rel = abs(exp.value - exact) / exact
    assert rel <= 1e-4 * 5
    # monotone degree-truncation error up to the last degree
    errs = [abs(s - exact) for s in exp.partial_sums]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


def test_coulomb_monopole_dominance(sys215):
    exp = coulomb_expand(sys215, (0.0, 0.0, 0.5), (0.0, 0.0, 50.0), 0)
    assert abs(exp.value - 1.0 / 49.5) <= 0.02 / 49.5


def test_coulomb_random_pairs(sys215):
    rng = np.random.default_rng(4)
    from ellharm.harmonics import build_normalization_table
    table = build_normalization_table(sys215, 10)
    for _ in range(5):
        src = rng.uniform(-0.4, 0.4, 3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        fld = direction * rng.uniform(4.0, 8.0)
        exact = 1.0 / np.linalg.norm(fld - src)
        exp = coulomb_expand(sys215, tuple(src), tuple(fld), 10, table=table)
        assert abs(exp.value - exact) <= 1e-2 * exact


def test_coulomb_reflection_symmetry(sys215):
    table = build_normalization_table(sys215, 6)
    src = (0.2, 0.3, 0.4)
    fld = (1.5, 2.0, 1.0)
    base = coulomb_expand(sys215, src, fld, 6, table=table).value
    for axis in range(3):
        s = list(src)
        f = list(fld)
        s[axis] *= -1
        f[axis] *= -1
        v = coulomb_expand(sys215, tuple(s), tuple(f), 6, table=table).value
        assert v == pytest.approx(base, rel=1e-12)


def test_coulomb_ordering_violation(sys215):
    with pytest.raises(OrderingViolation):
        coulomb_expand(sys215, (0.0, 0.0, 1.5), (0.0, 0.0, 0.5), 2)


# the acceptance-criterion-9 configuration on the 2, 1.5, 1 ellipsoid
C9_SOURCE, C9_FIELD = (0.0, 0.0, 0.5), (0.0, 0.0, 2.0)


@pytest.fixture(scope="module")
def table16(sys215):
    return build_normalization_table(sys215, 16)


def _mp_lame_poly(mp, sys, n, p, s_values):
    """P(t(s)) from a working-precision solution of the same tridiagonal
    eigenproblem, normalized as in ``lame_function``."""
    cls = class_of(n, p)
    diag, lower, upper = build_tridiagonal(sys, cls)
    m = len(diag)
    A = mp.matrix((np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)).tolist())
    vals, vecs = mp.eig(A)
    j = sorted(range(m), key=lambda i: mp.re(vals[i]))[cls.p_local]
    b = [mp.re(vecs[i, j]) for i in range(m)]
    scale = (-mp.mpf(sys.h2)) ** (m - 1) / b[m - 1]
    b = [c * scale for c in b]
    return [mp.polyval(b[::-1], 1 - mp.mpf(s) ** 2 / mp.mpf(sys.h2))
            for s in s_values]


def test_cancellation_amplification_matches_digit_loss(sys215, table16):
    mp = pytest.importorskip("mpmath")
    exp = coulomb_expand(sys215, C9_SOURCE, C9_FIELD, 16, table=table16)
    amp, p = max((d["amplification"], p)
                 for (n, p), d in exp.diagnostics.items() if n == 16)
    src, fld = cart_to_ell(sys215, *C9_SOURCE), cart_to_ell(sys215, *C9_FIELD)
    s = [src.lam, src.mu, src.nu, fld.lam, fld.mu, fld.nu]
    f = lame_function(sys215, 16, p)
    t = 1.0 - np.square(s) / sys215.h2
    computed = np.polynomial.polynomial.polyval(t, f.coeffs)
    with mp.workdps(50):
        rel = mp.fprod(computed) / mp.fprod(_mp_lame_poly(mp, sys215, 16, p, s))
        digit_loss = float(abs(rel - 1)) / 2.0 ** -53
    assert amp > CANCELLATION_THRESHOLD
    assert amp / 10 <= digit_loss <= 10 * amp, (amp, digit_loss)


def test_cancellation_diagnostic_silent_at_n12(sys215, table16):
    exp = coulomb_expand(sys215, C9_SOURCE, C9_FIELD, 12, table=table16)
    assert exp.cancellation_degrees == []
    peak = max(d["amplification"] for d in exp.diagnostics.values())
    # cancellation is measured and growing, but stays below the threshold
    assert 1e4 < peak < CANCELLATION_THRESHOLD


@pytest.mark.parametrize("axes", [(10.0, 3.0, 1.0), (15.0, 12.0, 10.0)])
def test_n1_neumann_poincare_eigenvalues_are_half_minus_depolarization(axes):
    # with r = (F'/F)/(E'/E) at lambda = a, the NP eigenvalue (r+1)/(2(r-1))
    # of E_1^p is 1/2 - N_i, for the axis i with E_1^p(a)^2 = axis_i^2 and
    # N_i = (abc/3) R_D(the other two squares, axis_i^2).  Measured worst
    # absolute differences: 1.2e-15 on 10,3,1 (where one eigenvalue is
    # negative, -0.226) and 1.1e-16 on 15,12,10
    mpmath = pytest.importorskip("mpmath")
    table = build_normalization_table(new_system(*axes), 1)
    E, dE, F, dF = table.surface[:, 1:4]          # columns of (1, 1), (1, 2), (1, 3)
    r = (dF / F) / (dE / E)
    squares = [x * x for x in axes]
    with mpmath.workdps(30):
        depol = [float(mpmath.fprod(axes) / 3 * mpmath.elliprd(
            *(squares[:i] + squares[i + 1:]), squares[i])) for i in range(3)]
    assert abs(sum(depol) - 1.0) <= 1e-15
    assert np.allclose(E * E, squares, rtol=1e-14)  # p = 1, 2, 3 pair with a, b, c
    assert np.abs((r + 1) / (2 * (r - 1)) - (0.5 - np.array(depol))).max() <= 2e-15


def _scalar_reference_I(f, lam):
    """I_n^p(lam) from the scalar integrands, 1 / (E^2 sqrt(s^2 - k^2)
    sqrt(s^2 - h^2)) and, below 1.01 k, the cosh head on [lam, 1.05 k] in
    t = acosh(s / k), called node by node under ``adaptive_quad``."""
    sys = f.system

    def tail(s):
        E = eval_lame(f, s)
        return 1.0 / (E * E * math.sqrt(s * s - sys.k2) * math.sqrt(s * s - sys.h2))

    def head(t):
        s = sys.k * math.cosh(t)
        E = eval_lame(f, s)
        return 1.0 / (E * E * math.sqrt(s * s - sys.h2))

    def by_node(g):
        return lambda x: np.array([g(v) for v in x])

    total, lo = 0.0, lam
    if lam <= 1.01 * sys.k:
        total += adaptive_quad(by_node(head), math.acosh(lam / sys.k),
                               math.acosh(1.05)).value
        lo = 1.05 * sys.k
    return total + adaptive_quad(by_node(tail), lo, math.inf).value


@pytest.mark.parametrize("geometry", ["sys_fig3", "sys215"])
def test_surface_integrals_equal_scalar_integrand_reference(geometry, request,
                                                            table12_fig3, table16):
    # one integrand call per panel gives every I(a), and so the table's F(a),
    # bit for bit as the node-by-node loop did
    sys = request.getfixturevalue(geometry)
    table = table12_fig3 if geometry == "sys_fig3" else table16
    for j, ((n, p), f) in enumerate(table.functions.items()):
        ref = _scalar_reference_I(f, sys.a)
        assert eval_I(f, sys.a) == ref, (n, p)
        assert table.surface[2, j] == (2 * n + 1) * table.surface[0, j] * ref, (n, p)


def test_integrals_equal_scalar_integrand_reference(sys215, table16):
    for lam in (2.5, 4.0):
        for key, f in table16.functions.items():
            assert eval_I(f, lam) == _scalar_reference_I(f, lam), (lam, key)
    # below 1.01 k the head's nodes come from np.cosh, which may differ from
    # math.cosh by an ulp; E's conditioning near the branch point and at high
    # degree turns that into at most a few thousand ulp of I, far inside the
    # quadrature's 1e-10 tolerance
    lam = 1.003 * sys215.k
    for key, f in table16.functions.items():
        ref = _scalar_reference_I(f, lam)
        assert eval_I(f, lam) == pytest.approx(ref, rel=1e-11, abs=0.0), key


def _reference_expansion(sys, source, field_point, N, table):
    """coulomb_expand's terms, partial sums, diagnostics and flagged degrees
    from a per-term loop: per-function E3 triple products, eval_I, and the
    amplification from eval_lame_condition, 0 where a radical factor of psi
    vanishes at a coordinate."""
    src, fld = cart_to_ell(sys, *source), cart_to_ell(sys, *field_point)
    coords = [src.lam, src.mu, src.nu, fld.lam, fld.mu, fld.nu]
    terms, diagnostics, partial_sums, flagged, total = {}, {}, [], [], 0.0
    for n in range(N + 1):
        peak = 0.0
        for p in range(1, 2 * n + 2):
            f = table.functions[(n, p)]
            E3, E3_fld = ((eval_lame(f, pt.lam, pt.s_mu, pt.s_nu)
                           * eval_lame(f, pt.mu, pt.s_mu, pt.s_nu)
                           * eval_lame(f, pt.nu, pt.s_mu, pt.s_nu)) for pt in (src, fld))
            F3 = (2 * n + 1) * E3_fld * eval_I(f, abs(fld.lam))
            term = 4.0 * math.pi / (2 * n + 1) / table.gamma[(n, p)] * E3 * F3
            total += term
            e_s, e_h, e_k = psi_exponents(f.cls.tag, n)
            if any((e_s and x == 0.0) or (e_h and x * x == sys.h2)
                   or (e_k and x * x == sys.k2) for x in coords):
                amp = 0.0
            else:
                cond = eval_lame_condition(f, coords)
                amp = float(cond.sum() + 2.0 * cond[3])
            peak = max(peak, amp)
            terms[(n, p)] = term
            diagnostics[(n, p)] = {"absE": abs(E3), "absF": abs(F3),
                                   "gamma": table.gamma[(n, p)], "amplification": amp}
        partial_sums.append(total)
        if peak > CANCELLATION_THRESHOLD:
            flagged.append(n)
    return terms, partial_sums, diagnostics, flagged


@pytest.mark.parametrize("source, field_point", [
    (C9_SOURCE, C9_FIELD),
    # a source on the y = 0 plane, where mu = h and the L and N radicals vanish
    ((0.5, 0.0, 0.3), (0.9, 1.1, 1.3)),
])
def test_coulomb_expand_equals_per_term_reference(sys215, table16, source, field_point):
    exp = coulomb_expand(sys215, source, field_point, 16, table=table16)
    terms, partial_sums, diagnostics, flagged = _reference_expansion(
        sys215, source, field_point, 16, table16)
    assert exp.terms == terms
    assert exp.partial_sums == partial_sums
    assert exp.diagnostics == diagnostics
    assert exp.cancellation_degrees == flagged
    # both pairs reach every branch of the amplification
    amps = [d["amplification"] for d in diagnostics.values()]
    assert 0.0 in amps and max(amps) > 1.0


def test_interior_solids_are_continuous_across_x_0_below_z_0(sys_fig3):
    # at (x, 3, -2) the transform stores nu = -0.0 for x = +0.0, where nu^2
    # snaps to 0; a zero coordinate keeps its sign, so every radical factor
    # there has the sign it has at x slightly > 0
    xs = (-1e-7, -1e-9, -0.0, 0.0, 1e-9, 1e-7)
    for n in range(5):
        for p in range(1, 2 * n + 2):
            idx = HarmonicIndex(n, p)
            scale = max(abs(interior_solid(sys_fig3, idx, cart_to_ell(sys_fig3, x, 3.0, -2.0)))
                        for x in (-1e-3, 1e-3))
            values = [interior_solid(sys_fig3, idx, cart_to_ell(sys_fig3, x, 3.0, -2.0))
                      for x in xs]
            assert max(values) - min(values) <= 1e-3 * scale, (n, p, values)


SCALE = 1e-7


@pytest.fixture(scope="module")
def sys_fig3_small():
    return new_system(15.0 * SCALE, 12.0 * SCALE, 10.0 * SCALE)


def test_interior_solids_at_a_length_scale_of_1e_7_are_the_scaled_unit_values(
        sys_fig3, sys_fig3_small):
    # E3 of degree n scales as s^(3n); while nu^2 snapped to 0 off x = 0 the
    # point's nu read 0 here and E3 was off by up to x190 (measured: 2.5e-13)
    unit = cart_to_ell(sys_fig3, 3.0, 4.0, 5.0)
    small = cart_to_ell(sys_fig3_small, 3.0 * SCALE, 4.0 * SCALE, 5.0 * SCALE)
    for n in range(9):
        for p in range(1, 2 * n + 2):
            want = interior_solid(sys_fig3, HarmonicIndex(n, p), unit)
            got = interior_solid(sys_fig3_small, HarmonicIndex(n, p), small) / SCALE ** (3 * n)
            assert abs(got - want) <= 1e-12 * abs(want), (n, p, got, want)


def test_coulomb_expansion_at_a_length_scale_of_1e_7_is_the_scaled_unit_value(
        sys_fig3, sys_fig3_small):
    # 1/|r - r'| scales as 1/s; the snapped nu put it 16.5% off, with no
    # error raised (measured: 8.3e-15)
    want = coulomb_expand(sys_fig3, (3.0, 4.0, 5.0), (20.0, 1.0, 2.0), 8).value
    got = coulomb_expand(sys_fig3_small, (3.0 * SCALE, 4.0 * SCALE, 5.0 * SCALE),
                         (20.0 * SCALE, 1.0 * SCALE, 2.0 * SCALE), 8).value * SCALE
    assert abs(got - want) <= 1e-13 * abs(want)
