"""Frustrated branch by root enumeration: hard points and a seeded fuzz."""

import math

import numpy as np
import pytest

from dicke_trimer import (
    ModelParams,
    asymptotic_fsp,
    brute_force_minimize,
    critical_couplings,
    first_order_point,
    gradient,
    hessian,
    solve_ground_state,
    solve_nsp,
)
from dicke_trimer.meanfield import _solve_fsp_branch
from dicke_trimer.model import FSP, b_tilde, c_tilde


def _check_fsp_minimum(res, params):
    x = res.representative.x
    assert res.label == FSP
    assert res.degeneracy == 6
    assert np.max(np.abs(gradient(x, params))) < 1e-10
    assert np.linalg.eigvalsh(hessian(x, params))[0] > 0.0


class TestHardPoints:
    # a small J1 makes g_L large, large g pushes x2 toward g/2, and at the
    # hopping edges the roots sit within 3e-5 of a window end.  The last two
    # points have a tiny B: 4e-10 at large g leaves about 200 floats of x1 in
    # the window, and at 3.5e-12 the scanned root polishes only to a
    # Hessian-positive point with |grad E| = 0.84, 4e-3 above the minimum
    @pytest.mark.parametrize("J1,J2,g,E", [
        (0.00516, -0.2747, 7.32, -40.2031156567422),
        (0.1, 0.1, 10.9, -96.31397939824548),
        (0.4999999, 0.4999999, 10.0, None),
        (0.4999999, -0.4999999, 10.0, None),
        (-0.002614955257493612, 0.41495581974765955, 12.580480030639563, None),
        (-0.017252759970462883, 0.20896971486746835, 3.4490677152252975, None),
    ])
    def test_matches_oracle(self, J1, J2, g, E):
        p = ModelParams(g=g, J1=J1, J2=J2)
        res = solve_ground_state(p)
        _check_fsp_minimum(res, p)
        assert res.energy == pytest.approx(brute_force_minimize(p).energy, abs=1e-9)
        if E is not None:
            assert res.energy == pytest.approx(E, abs=1e-9)

    def test_just_above_onset(self):
        # the roots sit within about 1e-6 of x1 = 0
        p = ModelParams(g=1.0, J1=0.1, J2=0.1)
        p = p.replace(g=critical_couplings(p).g_c_plus + 1e-12)
        res = solve_ground_state(p)
        _check_fsp_minimum(res, p)
        x = np.sort(res.representative.x)
        ref = np.sort(asymptotic_fsp(p).x)
        assert x[0] / x[2] == pytest.approx(-2.0, abs=1e-9)
        assert x[2] == pytest.approx(ref[2], rel=1e-4)

    def test_exact_first_order_point(self):
        # |B| ~ 1e-17: the sites decouple into (-x*, x*, x*)
        p = ModelParams(g=1.0, J1=0.1, J2=-0.1)
        p = p.replace(g=first_order_point(p))
        assert abs(b_tilde(p)) < 1e-16
        assert solve_ground_state(p).coexistent
        res = _solve_fsp_branch(p)
        _check_fsp_minimum(res, p)
        q = 1.0 / (c_tilde(p.J1) * p.g ** 2)
        xs = 0.5 * p.g * math.sqrt(1.0 - q * q)
        assert np.allclose(np.sort(res.representative.x), [-xs, xs, xs], atol=1e-12)
        assert res.energy == pytest.approx(solve_nsp(p).energy, abs=1e-12)

    def test_branch_needs_g_above_g_c_plus(self):
        p = ModelParams(g=1.0, J1=0.1, J2=0.1)
        p = p.replace(g=critical_couplings(p).g_c_plus)
        with pytest.raises(ValueError, match="requires g > g_c_plus"):
            _solve_fsp_branch(p)


def test_seeded_fuzz_against_oracle():
    rng = np.random.default_rng(2025)
    checked = 0
    while checked < 100:
        J1, J2 = rng.uniform(-0.5, 0.5, 2)
        p = ModelParams(g=rng.uniform(0.2, 6.0), J1=J1, J2=J2)
        if b_tilde(p) <= 0.0 or p.g <= critical_couplings(p).g_c:
            continue
        checked += 1
        res = solve_ground_state(p)
        assert res.label == FSP
        assert res.energy - brute_force_minimize(p).energy <= 1e-9, p
