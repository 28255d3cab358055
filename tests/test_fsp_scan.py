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
from dicke_trimer import meanfield
from dicke_trimer.meanfield import ConvergenceError, _solve_fsp_branch
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


def _frustrated_draw():
    """Seeded points for the batched frustrated pass: bulk points above
    g_c_plus, most with the turning point of h (two pieces), points just
    above g_c_plus, points with |B_tilde| between 1e-11 and 1e-9 next to
    g_L, and fixed points at g_c_plus + 1e-12, at g_c_plus, where no
    minimum is found and where the decoupled seed rounds to the edge."""
    rng = np.random.default_rng(20261018)
    points = []
    while len(points) < 100:
        J1, J2 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
        p = ModelParams(g=float(rng.uniform(0.2, 30.0)), J1=J1, J2=J2)
        if p.g > critical_couplings(p).g_c_plus:
            points.append(p)
    while len(points) < 120:
        J1, J2 = (float(v) for v in rng.uniform(0.0, 0.5, 2))
        gcp = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c_plus
        points.append(ModelParams(g=gcp * (1.0 + 10.0 ** rng.uniform(-8, -1)), J1=J1, J2=J2))
    while len(points) < 220:
        J1, J2 = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
        gL = first_order_point(ModelParams(g=1.0, J1=J1, J2=J2))
        if gL is None:
            continue
        # B_tilde(g) ~ b near g_L, with dB/dg = -2 J2/g^3
        b = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11, -9))
        p = ModelParams(g=gL - b * gL**3 / (2.0 * J2), J1=J1, J2=J2)
        if p.g > critical_couplings(p).g_c_plus:
            points.append(p)
    onset = ModelParams(g=1.0, J1=0.1, J2=0.1)
    gcp = critical_couplings(onset).g_c_plus
    points += [onset.replace(g=gcp + 1e-12), onset.replace(g=gcp),
               ModelParams(g=100.0, J1=0.3, J2=0.3), ModelParams(g=60.0, J1=0.1, J2=0.1),
               ModelParams(g=1e5, J1=0.1, J2=0.1)]
    return points


def test_batched_rows_equal_one_row_calls(monkeypatch):
    points = _frustrated_draw()
    fallback = []
    keep_lowest = meanfield._keep_lowest_minima

    def spy(rows, X, *args):
        if np.all(X[:, 0] == -X[:, 1]):  # the decoupled seeds (-x*, x*, x*)
            fallback.extend(rows)
        return keep_lowest(rows, X, *args)

    monkeypatch.setattr(meanfield, "_keep_lowest_minima", spy)
    x, errors = meanfield._fsp_minima(points)
    monkeypatch.undo()
    kinds = set()
    for p, xi, err in zip(points, x, errors, strict=True):
        try:
            want = meanfield._fsp_minimum(p)
        except (ConvergenceError, ValueError) as exc:
            kinds.add(type(exc).__name__)
            assert type(err) is type(exc) and str(err) == str(exc)
            assert np.all(np.isnan(xi))
            continue
        assert err is None
        assert np.array_equal(xi, want)
    # the draw reaches both pieces of h, the decoupled fallback and every error
    two_piece = [1.0 / (c_tilde(p.J1) * p.g**2) > -1.0 for p in points]
    assert sum(two_piece) >= 50 and len(points) - sum(two_piece) >= 20
    tiny = [1e-11 <= abs(b_tilde(p)) <= 1e-9 for p in points]
    assert sum(tiny) == 100
    assert sum(tiny[i] for i in fallback) >= 3
    assert kinds == {"ConvergenceError", "ValueError", "DomainError"}
