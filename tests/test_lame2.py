import math

import numpy as np
import pytest
from scipy.special import ellip_harm_2

from ellharm.errors import SingularLowerLimit
from ellharm.lame1 import lame_function
from ellharm.lame2 import eval_F, eval_I, surface_I

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


def test_surface_I_honours_each_tolerance(sys215):
    # the first caller's tolerance must not decide what later callers get
    f = lame_function(sys215, 1, 1)
    surface_I(f, 1e-3)
    assert surface_I(f, 1e-12) == eval_I(f, sys215.a, 1e-12)


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
