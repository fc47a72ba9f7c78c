import math

import numpy as np
import pytest
from scipy.special import ellip_harm_2

from conftest import second_kind_reference
from ellharm.coords import new_system
from ellharm import lame2
from ellharm.errors import NonConvergence, SingularLowerLimit
from ellharm.lame1 import eval_lame, lame_function
from ellharm.lame2 import eval_F, eval_I, surface_I
from ellharm.numerics import adaptive_quad

# composite-midpoint brute-force value of the n=0 integral at lambda=2 on
# (a,b,c) = (2, 1.5, 1), computed at 30-digit precision
I00_AT_2 = 0.671684879430729304764719593518


def test_I00_against_bruteforce(sys215):
    f = lame_function(sys215, 0, 1)
    assert eval_I(f, 2.0) == pytest.approx(I00_AT_2, rel=1e-8)


def test_I00_large_lambda_asymptotics(sys215):
    f = lame_function(sys215, 0, 1)
    lam = 1e4
    assert 0.999 < eval_I(f, lam) * lam < 1.001


def test_I_decay_scaling(sys215):
    # I_n ~ lambda^-(2n+1): ratio between lambda=200 and lambda=100 -> 2^-3 for n=1
    for p in (1, 2, 3):
        f = lame_function(sys215, 1, p)
        ratio = eval_I(f, 200.0) / eval_I(f, 100.0)
        assert abs(ratio - 0.125) < 0.02 * 0.125


def test_I_monotone_decreasing(sys215):
    f = lame_function(sys215, 2, 3)
    lams = np.linspace(1.9, 6.0, 12)
    vals = [eval_I(f, float(l)) for l in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_singular_lower_limit(sys215):
    f = lame_function(sys215, 0, 1)
    with pytest.raises(SingularLowerLimit):
        eval_I(f, sys215.k)


@pytest.mark.parametrize("where, failing, calls", [("1.003k", 0, 2), ("1.003k", 1, 2),
                                                   ("2.5a", 0, 1)])
def test_unconverged_quadrature_raises_non_convergence(sys215, monkeypatch, where,
                                                       failing, calls):
    # near k, I is a cosh head (quadrature 0) plus a tail (quadrature 1),
    # elsewhere only a tail; either one that does not converge raises
    done = []

    def quad(*args):
        res = adaptive_quad(*args)
        res.converged = len(done) != failing
        done.append(res)
        return res

    monkeypatch.setattr(lame2, "adaptive_quad", quad)
    lam = {"1.003k": 1.003 * sys215.k, "2.5a": 2.5 * sys215.a}[where]
    with pytest.raises(NonConvergence, match=f"lambda={lam}"):
        eval_I(lame_function(sys215, 2, 3), lam)
    assert len(done) == calls


# scipy's reference quadrature warns about its own round-off; the
# values still agree within the tolerance asserted below
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_near_singular_regime_matches_reference(sys215):
    # just above the branch point the cosh-substituted head path is used
    h2, k2 = sys215.h2, sys215.k2
    lam = sys215.k * 1.003
    for (n, p) in [(0, 1), (1, 1), (2, 3)]:
        f = lame_function(sys215, n, p)
        mine = eval_F(f, lam).F_value
        ref = float(ellip_harm_2(h2, k2, n, p, lam))
        assert mine == pytest.approx(ref, rel=1e-6)


def test_F_equals_I_for_monopole(sys215):
    f = lame_function(sys215, 0, 1)
    for lam in (1.8, 2.0, 3.5):
        r = eval_F(f, lam)
        assert r.F_value == pytest.approx(r.I_value, rel=1e-14)


def test_F_identity_and_derivatives(sys215):
    f = lame_function(sys215, 2, 1)
    lam = 2.5
    r = eval_F(f, lam)
    from ellharm.lame1 import eval_lame
    E = eval_lame(f, lam)
    assert r.F_value == pytest.approx(5 * E * r.I_value, rel=1e-12)
    # dI/dlambda closed form for n=0
    f0 = lame_function(sys215, 0, 1)
    r0 = eval_F(f0, 2.5)
    expect = -1.0 / (math.sqrt(2.5 ** 2 - 3.0) * math.sqrt(2.5 ** 2 - 1.75))
    assert r0.dI_dlambda == pytest.approx(expect, rel=1e-13)
    assert r0.dI_dlambda < 0
    # finite-difference consistency
    h = 1e-6
    fd = (eval_I(f, lam + h) - eval_I(f, lam - h)) / (2 * h)
    assert r.dI_dlambda == pytest.approx(fd, rel=1e-6)
    fdF = (eval_F(f, lam + h).F_value - eval_F(f, lam - h).F_value) / (2 * h)
    assert r.dF_dlambda == pytest.approx(fdF, rel=1e-6)


def test_F_exterior_decay(sys215):
    # F_n ~ lambda^-(n+1) at large lambda
    for p in (1, 2, 3):
        f = lame_function(sys215, 1, p)
        ratio = eval_F(f, 200.0).F_value / eval_F(f, 100.0).F_value
        assert abs(ratio - 0.25) < 0.02 * 0.25


def test_surface_I_is_eval_I_at_a(sys215):
    f = lame_function(sys215, 3, 2)
    v1 = surface_I(f)
    v2 = surface_I(f)
    assert v1 == v2
    assert v1 == pytest.approx(eval_I(f, sys215.a), rel=1e-12)


# scipy's reference quadrature warns about its own round-off; the
# values still agree within the tolerance asserted below
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_cross_check_reference_implementation(sys215):
    h2, k2 = sys215.h2, sys215.k2
    for n in range(4):
        for p in range(1, 2 * n + 2):
            f = lame_function(sys215, n, p)
            mine = eval_F(f, 2.5).F_value
            ref = float(ellip_harm_2(h2, k2, n, p, 2.5))
            assert mine == pytest.approx(ref, rel=1e-8), (n, p)


def test_eval_F_equals_per_function_reference(sys215):
    # at the surface, off it, and inside 1.01 k, where I has the cosh head
    for lam in (sys215.a, 2.5, 4.0, 1.003 * sys215.k):
        for n in range(9):
            for p in range(1, 2 * n + 2):
                f = lame_function(sys215, n, p)
                r = eval_F(f, lam)
                _, _, F, dF, I, dI = second_kind_reference(f, lam)
                assert (r.F_value, r.dF_dlambda, r.I_value, r.dI_dlambda) == (F, dF, I, dI), \
                    (lam, n, p)


@pytest.mark.parametrize("axes", [(15.0, 12.0, 10.0), (2.0, 1.5, 1.0), (10.0, 3.0, 1.0)])
def test_I_for_n_up_to_1_equals_carlson_closed_forms(axes):
    # I_0^1 = R_F(x, y, z) and each n = 1 integral is R_D(., ., E(lambda)^2)/3,
    # with x, y, z = lambda^2, lambda^2 - h^2, lambda^2 - k^2.  Measured worst
    # relative errors: 5.7e-15 for lambda >= 1.003k, 9.0e-13 at 1.00003k (the
    # class-M integral); the bounds below leave a margin over those
    mpmath = pytest.importorskip("mpmath")
    sys = new_system(*axes)
    with mpmath.workdps(30):
        for lam, tol in ((sys.a, 5e-14), (1.003 * sys.k, 5e-14),
                         (1.00003 * sys.k, 2e-12), (4.0 * sys.a, 5e-14)):
            L, h, k = mpmath.mpf(lam), mpmath.mpf(sys.h), mpmath.mpf(sys.k)
            xyz = [L ** 2, L ** 2 - h ** 2, L ** 2 - k ** 2]
            want = mpmath.elliprf(*xyz)
            assert abs(eval_I(lame_function(sys, 0, 1), lam) - want) <= tol * want, lam
            for p in (1, 2, 3):
                f = lame_function(sys, 1, p)
                e2 = float(eval_lame(f, lam)) ** 2
                last = min(range(3), key=lambda i: abs(xyz[i] - e2))
                want = mpmath.elliprd(*(xyz[:last] + xyz[last + 1:] + [xyz[last]])) / 3
                assert abs(eval_I(f, lam) - want) <= tol * want, (lam, p)


@pytest.mark.parametrize("axes", [(15.0, 12.0, 10.0), (2.0, 1.5, 1.0), (10.0, 3.0, 1.0)])
def test_I_for_n_2_class_K_equals_carlson_rj(axes):
    # E_2^p = s^2 - theta for p = 1, 2, with theta the larger and the smaller
    # root of 3 theta^2 - 2 (h^2 + k^2) theta + h^2 k^2 = 0, and
    # I = -dR_J(x, y, z, q)/dq / 3 at q = lambda^2 - theta.  Measured worst
    # relative errors: 2.3e-16 for theta = h^2 (1 + b_0/b_1), 5.6e-15 for I at
    # lambda >= 1.003k and 2.3e-14 at 1.00003k
    mpmath = pytest.importorskip("mpmath")
    sys = new_system(*axes)
    with mpmath.workdps(40):
        h2, k2 = mpmath.mpf(sys.h2), mpmath.mpf(sys.k2)
        root = mpmath.sqrt((h2 + k2) ** 2 - 3 * h2 * k2)
        for p, theta in ((1, (h2 + k2 + root) / 3), (2, (h2 + k2 - root) / 3)):
            f = lame_function(sys, 2, p)
            assert f.cls.tag == "K"
            b0, b1 = f.coeffs
            assert abs(sys.h2 * (1 + b0 / b1) - theta) <= 1e-15 * theta, p
            for lam, tol in ((sys.a, 5e-14), (1.003 * sys.k, 5e-14),
                             (1.00003 * sys.k, 1e-13), (4.0 * sys.a, 5e-14)):
                x = mpmath.mpf(lam) ** 2
                want = -mpmath.diff(lambda q: mpmath.elliprj(x, x - h2, x - k2, q),
                                    x - theta) / 3
                assert abs(eval_I(f, lam) - want) <= tol * want, (lam, p)


@pytest.mark.parametrize("axes", [(15.0, 12.0, 10.0), (2.0, 1.5, 1.0), (10.0, 3.0, 1.0)])
def test_I_for_n_2_classes_L_M_N_equal_carlson_rd_derivatives(axes):
    # E_2^3 = s sqrt(s^2 - h^2), E_2^4 = s sqrt(s^2 - k^2) and
    # E_2^5 = sqrt(s^2 - h^2) sqrt(s^2 - k^2), so with x, y, z = lambda^2,
    # lambda^2 - h^2, lambda^2 - k^2 the integrals are -2/3 of dR_D(x, z, y)/dx,
    # dR_D(x, y, z)/dx and dR_D(y, x, z)/dy.  Measured worst relative errors:
    # 9.5e-15 for lambda in {a, 1.003k, 4a}, 7.2e-13 at 1.00003k (classes M, N)
    mpmath = pytest.importorskip("mpmath")
    sys = new_system(*axes)
    forms = {"L": lambda x, y, z: mpmath.diff(lambda u: mpmath.elliprd(u, z, y), x),
             "M": lambda x, y, z: mpmath.diff(lambda u: mpmath.elliprd(u, y, z), x),
             "N": lambda x, y, z: mpmath.diff(lambda u: mpmath.elliprd(u, x, z), y)}
    with mpmath.workdps(30):
        h2, k2 = mpmath.mpf(sys.h2), mpmath.mpf(sys.k2)
        for p, tag in ((3, "L"), (4, "M"), (5, "N")):
            f = lame_function(sys, 2, p)
            assert f.cls.tag == tag
            for lam, tol in ((sys.a, 5e-14), (1.003 * sys.k, 5e-14),
                             (1.00003 * sys.k, 2e-12), (4.0 * sys.a, 5e-14)):
                x = mpmath.mpf(lam) ** 2
                want = -2 * forms[tag](x, x - h2, x - k2) / 3
                assert abs(eval_I(f, lam) - want) <= tol * want, (lam, tag)
