"""Mean-field energy functional, the two branches and the dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_trimer import (
    DomainError,
    ModelParams,
    ParameterError,
    asymptotic_fsp,
    critical_couplings,
    energy,
    excitation_spectrum,
    first_order_point,
    gradient,
    hessian,
    solve_atom_only,
    solve_ground_state,
    state_from_x,
)
from dicke_trimer import meanfield
from dicke_trimer.meanfield import (
    _PSD_TOL,
    STATIONARITY_TOL,
    ConvergenceError,
    _bracketed_roots,
    _fsp_minima,
    _orbit,
    _uniform_branch,
    nsp_alpha,
    root_structure,
)
from dicke_trimer.model import Points

def _monotone_fn(params):
    """The per-site stationarity function f of the monotonic method and f'."""
    g, J1, J2 = params.g, params.J1, params.J2
    a = (g * g + J2 - J1 * J2) / (1.0 - J1)

    def f(x):
        return a * x - x / np.sqrt(1.0 - 4.0 * x * x / (g * g))

    def fprime(x):
        u = 4.0 * x * x / (g * g)
        root = np.sqrt(1.0 - u)
        return a - (1.0 / root + u / root**3)

    return f, fprime


P6 = ModelParams(g=1.1, J1=0.1, J2=-0.1)   # region 6 point above g_L
P2 = ModelParams(g=1.1, J1=0.1, J2=0.1)    # region 2 point above g_c_plus
P5 = ModelParams(g=1.1, J1=-0.1, J2=-0.1)  # region 5 point above g_c_minus


class TestEnergyFunctional:
    def test_np_energy(self):
        assert energy(np.zeros(3), ModelParams(g=0.7)) == pytest.approx(-1.5)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            energy(np.array([0.6, 0.0, 0.0]), ModelParams(g=1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [energy, gradient, hessian, state_from_x,
                                    excitation_spectrum])
    def test_nonfinite_coordinate_is_a_domain_error(self, fn, bad):
        with pytest.raises(DomainError):
            fn(np.array([bad, 0.0, 0.0]), ModelParams(g=1.0))

    def test_points_row_with_undefined_b_tilde_raises_its_error(self):
        with pytest.raises(ParameterError, match="got g=0.0, J2=0.1"):
            energy(np.zeros((2, 3)), Points(g=[0.0, 1.0], J2=0.1))

    def test_zero_hopping_single_site_value(self):
        # uniform alpha* at J1=J2=0 reproduces three independent sites:
        # E = 3 * (-(g^2 + 1/g^2)/4)
        g = 1.2
        p = ModelParams(g=g)
        a = nsp_alpha(p)
        assert energy(np.array([a, a, a]), p) == pytest.approx(
            -3.0 * (g * g + 1.0 / (g * g)) / 4.0, abs=1e-12)

    @given(st.lists(st.floats(-0.2, 0.2), min_size=3, max_size=3),
           st.integers(0, 2), st.sampled_from([1.0, -1.0]))
    @settings(max_examples=200)
    def test_symmetry_orbit_invariance(self, x, shift, sign):
        x = np.array(x)
        assert energy(sign * np.roll(x, shift), P6) == pytest.approx(
            energy(x, P6), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-0.4, 0.4, 3) * P6.g
            grad = gradient(x, P6)
            for n in range(3):
                e = np.zeros(3)
                e[n] = h
                fd = (energy(x + e, P6) - energy(x - e, P6)) / (2 * h)
                assert grad[n] == pytest.approx(fd, abs=1e-7)

    def test_hessian_matches_finite_differences(self):
        x = np.array([0.1, -0.2, 0.3])
        h = 1e-5
        H = hessian(x, P6)
        for n in range(3):
            e = np.zeros(3)
            e[n] = h
            fd = (gradient(x + e, P6) - gradient(x - e, P6)) / (2 * h)
            assert np.allclose(H[:, n], fd, atol=1e-7)


class TestStateConstruction:
    def test_angles(self):
        st_ = state_from_x(np.array([0.2, -0.2, 0.0]), ModelParams(g=1.0))
        assert np.all(np.cos(st_.theta) < 0.0)
        assert np.allclose(np.sin(st_.theta), -2.0 * st_.x / 1.0)

    def test_orbit_counts(self):
        assert len(_orbit(np.array([0.1, 0.1, 0.1]), 1.0)) == 2
        assert len(_orbit(np.array([-0.2, 0.1, 0.1]), 1.0)) == 6
        assert len(_orbit(np.zeros(3), 1.0)) == 1


class TestNormalPhase:
    def test_energy_and_degeneracy(self):
        res = solve_ground_state(ModelParams(g=0.5, J1=0.2, J2=-0.3))
        assert res.label == "NP"
        assert res.energy == -1.5
        assert res.degeneracy == 1
        assert np.allclose(res.representative.x, 0.0)


class TestUniformPhase:
    def test_reference_point(self):
        res = solve_ground_state(P5)
        # closed form: alpha = (g/2) sqrt(1/(1+2J1)^2 - 1/(g^2-2(J2+2J1J2))^2)
        denom = P5.g**2 - 2.0 * (P5.J2 + 2.0 * P5.J1 * P5.J2)
        a = 0.5 * P5.g * math.sqrt(1.0 / 0.8**2 - 1.0 / denom**2)
        assert res.label == "NSP"
        assert res.degeneracy == 2
        assert abs(res.representative.alpha[0]) == pytest.approx(a, abs=1e-12)

    def test_stationarity(self):
        res = solve_ground_state(P5)
        assert np.max(np.abs(gradient(res.representative.x, P5))) < 1e-12

    def test_below_onset_returns_np(self):
        label, _ = _uniform_branch(Points.of(ModelParams(g=0.5, J1=-0.1, J2=-0.1)))
        assert label[0] == "NP"

    @pytest.mark.parametrize("g", [1e-200, 1e100, 1e200, 1e308])
    @pytest.mark.parametrize("J1", [-0.1, 0.1])
    def test_alpha_at_extreme_g(self, g, J1):
        # the 1/denom^2 term underflows at huge g instead of overflowing:
        # denom = 1e200 at g = 1e100 has no finite square
        a = nsp_alpha(ModelParams(g=g, J1=J1, J2=-0.1))
        if g < 1.0:
            assert a == 0.0
        else:
            assert a == pytest.approx(0.5 * g / (1.0 + 2.0 * J1), rel=1e-15)

    def test_alpha_on_the_tiny_g_draw_matches_50_digits(self):
        # the tiny-g draw of tools/compare_outputs.py: 1 + 2 J1 down to 2e-10,
        # where 1/s^2 and 1/d^2 cancel to all digits in the naive radicand
        import mpmath

        rng = np.random.default_rng(2029)
        J1, J2 = (-0.5 + 10.0 ** rng.uniform(-10.0, -3.0, 200) for _ in range(2))
        g_c = critical_couplings(Points(g=1.0, J1=J1, J2=J2)).g_c
        g = g_c * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0, 200))
        a = nsp_alpha(Points(g=g, J1=J1, J2=J2))
        with mpmath.workdps(50):
            ref = []
            for row in zip(g, J1, J2):
                gm, J1m, J2m = (mpmath.mpf(float(v)) for v in row)
                s, d = 1 + 2 * J1m, gm * gm - 2 * J2m * (1 + 2 * J1m)
                ref.append(float(gm / 2 * mpmath.sqrt(1 / s**2 - 1 / d**2)))
        assert np.all(a > 0.0)
        assert np.max(np.abs(a - ref) / np.array(ref)) <= 1e-6

    def test_two_minima_are_sign_partners(self):
        res = solve_ground_state(P5)
        a, b = res.all_minima
        assert np.allclose(a.x, -b.x)

    def test_sign_partners_stay_distinct_at_tiny_g(self):
        # g_c = 2e-8 and x ~ 5e-12: the orbit tolerance scales with g, so the
        # two members are not merged as one configuration
        res = solve_ground_state(ModelParams(g=3e-8, J1=-0.49999999, J2=-0.49999999))
        assert res.label == "NSP"
        assert res.degeneracy == 2


class TestFrustratedPhase:
    def test_reference_point(self):
        res = solve_ground_state(P2)
        x = res.representative.x
        assert res.label == "FSP"
        assert res.degeneracy == 6
        assert x[0] < 0.0 < x[1]
        assert x[1] == pytest.approx(x[2], abs=1e-12)
        assert np.max(np.abs(gradient(x, P2))) < 1e-11

    def test_hessian_positive(self):
        res = solve_ground_state(P2)
        assert np.linalg.eigvalsh(hessian(res.representative.x, P2))[0] > 0.0

    def test_orbit_energies_equal(self):
        res = solve_ground_state(P2)
        energies = [energy(s.x, P2) for s in res.all_minima]
        assert max(energies) - min(energies) < 1e-12

    def test_asymptotic_ratios_near_onset(self):
        gcp = critical_couplings(P2).g_c_plus
        res = solve_ground_state(P2.replace(g=gcp + 1e-4))
        x = np.sort(res.representative.x)
        assert x[0] / x[1] == pytest.approx(-2.0, rel=1e-2)
        alpha = res.representative.alpha
        order = np.argsort(np.abs(alpha))[::-1]
        assert alpha[order[1]] / alpha[order[0]] == pytest.approx(-0.5, rel=1e-2)

    def test_asymptotic_seed_amplitude(self):
        gcp = critical_couplings(P2).g_c_plus
        st_ = asymptotic_fsp(P2.replace(g=gcp + 1e-6))
        t = math.sqrt((1.0 - P2.J2) * gcp * 1e-6 / 3.0)
        assert st_.x[0] == pytest.approx(-2.0 * t)
        assert st_.x[1] == st_.x[2] == pytest.approx(t)

    def test_fold_born_minimum_found(self):
        # uniform phase condenses first here; the frustrated minimum is
        # disconnected from the branch emerging at g_c_plus
        p = ModelParams(g=1.05, J1=0.1, J2=-0.1)
        (x,), (error,) = _fsp_minima([p])
        assert error is None
        assert np.linalg.eigvalsh(hessian(x, p))[0] > 0.0
        assert x[0] < 0.0 < x[1]
        assert energy(x, p) == pytest.approx(-1.5103096019806, abs=1e-10)

    def test_no_minimum_below_fold(self):
        # just above g_c_plus on the same line only the saddle exists
        p = ModelParams(g=0.999, J1=0.1, J2=-0.1)
        _, (error,) = _fsp_minima([p])
        assert isinstance(error, ConvergenceError)


class TestDispatch:
    def test_region6_sequence(self):
        gs = [0.9, 1.0, 1.1]
        labels = [solve_ground_state(ModelParams(g=g, J1=0.1, J2=-0.1)).label
                  for g in gs]
        assert labels == ["NP", "NSP", "FSP"]

    def test_branch_energy_crossing_at_first_order_point(self):
        p = ModelParams(g=1.0, J1=0.1, J2=-0.1)
        gL = first_order_point(p)
        lo, hi = gL - 0.02, gL + 0.02

        def diff(g):
            q = p.replace(g=g)
            x = np.concatenate((_uniform_branch(Points.of(q))[1], _fsp_minima([q])[0]))
            nsp, fsp = energy(x, q)
            return nsp - fsp

        from scipy.optimize import brentq
        g_cross = brentq(diff, lo, hi, xtol=1e-12)
        assert g_cross == pytest.approx(gL, abs=1e-4)

    def test_coexistence_flag_at_gl(self):
        p = ModelParams(g=1.0, J1=0.1, J2=-0.1)
        gL = first_order_point(p)
        res = solve_ground_state(p.replace(g=gL))
        assert res.coexistent

    def test_np_below_gc(self):
        res = solve_ground_state(ModelParams(g=0.89, J1=0.1, J2=0.1))
        assert res.label == "NP"


class TestLockstepSolvers:
    # roots of (x - c)^3, flat to rounding around c, and each element's steps
    _CUBIC_C = np.array([0.3, -1.7, 1e-3, 2.5, 0.1])
    _CUBIC_LO = _CUBIC_C - np.array([0.2, 1e-3, 0.5, 1e-9, 1.0])
    _CUBIC_HI = _CUBIC_C + np.array([0.1, 0.5, 1e-2, 1e-6, 1e-12])

    def _cubic_roots(self, **kw):
        c, lo, hi = self._CUBIC_C, self._CUBIC_LO, self._CUBIC_HI
        steps = np.zeros(len(c), dtype=int)

        def f(x, c, k):
            np.add.at(steps, k, 1)
            return (x - c) ** 3

        roots = _bracketed_roots(f, lo, hi, (lo - c) ** 3, (hi - c) ** 3, c,
                                 np.arange(len(c)), **kw)
        return roots, steps

    def test_bracketed_roots_without_ftol_unchanged(self):
        roots, steps = self._cubic_roots()
        assert [float(r).hex() for r in roots] == [
            "0x1.3333333333332p-2", "-0x1.b333333333334p+0", "0x1.0624dd2f1a9fep-10",
            "0x1.3fffffffffffep+1", "0x1.9999999999998p-4"]
        assert steps.tolist() == [51, 56, 67, 33, 55]

    def test_bracketed_roots_stop_at_ftol(self):
        ftol = np.full(len(self._CUBIC_C), 1e-24)
        roots, steps = self._cubic_roots(ftol=ftol)
        _, full_steps = self._cubic_roots()
        assert np.all(np.abs((roots - self._CUBIC_C) ** 3) <= ftol)
        assert np.all((roots >= self._CUBIC_LO) & (roots <= self._CUBIC_HI))
        assert np.all(steps < full_steps)

    def test_bracketed_roots_return_a_zero_end_without_calling_f(self):
        def f(x):
            raise AssertionError(f"f called at {x}")

        roots = _bracketed_roots(f, np.array([0.0, -1.0, 2.0]), np.array([1.0, 3.0, 5.0]),
                                 np.array([0.0, -2.0, 0.0]), np.array([5.0, 0.0, 0.0]))
        assert roots.tolist() == [0.0, 3.0, 5.0]

    def test_bracketed_roots_from_an_infinite_end(self):
        # log(0) = -inf: the solve bisects until both ends are finite
        with np.errstate(divide="ignore"):
            f1 = np.log(np.array([0.0]))
        roots = _bracketed_roots(np.log, np.array([0.0]), np.array([3.0]), f1, np.log([3.0]))
        assert abs(roots[0] - 1.0) <= 4.0 * np.finfo(float).eps

    def test_bracketed_roots_of_a_step_between_infinite_ends(self):
        calls = []

        def step(x):
            calls.append(x)
            return np.where(x < 0.3, -1.0, 1.0)

        roots = _bracketed_roots(step, np.array([0.0]), np.array([1.0]),
                                 np.array([-np.inf]), np.array([np.inf]))
        assert abs(roots[0] - 0.3) <= 4.0 * np.finfo(float).eps * 0.3
        assert len(calls) < meanfield._ROOT_STEPS

    def test_bracketed_roots_of_a_root_far_nearer_one_end(self):
        # x1 + t (x2 - x1) rounds onto x2 = 0 here, so the step is taken from
        # x2; bisection alone would need about 170 halvings
        calls = []

        def f(x):
            calls.append(x)
            return -(x + 1e-26)

        roots = _bracketed_roots(f, np.array([-1e12]), np.array([0.0]),
                                 np.array([1e12]), np.array([-1e-26]))
        assert abs(roots[0] + 1e-26) <= 4.0 * np.finfo(float).eps * 1e-26
        assert len(calls) < 10


class TestRootStructure:
    def test_monotonic_below_onset(self):
        p = ModelParams(g=0.8, J1=0.1, J2=0.1)
        rs = root_structure(p, k=0.0)
        assert rs.monotonic
        assert rs.turning_points == ()

    def test_turning_points_above_onset(self):
        p = ModelParams(g=1.2, J1=0.1, J2=0.1)
        rs = root_structure(p, k=0.0)
        assert not rs.monotonic
        assert len(rs.turning_points) == 2
        assert rs.turning_points[0] == pytest.approx(-rs.turning_points[1])

    def test_flip_location(self):
        # monotonicity changes exactly at g_c_plus: bisect on f'(0)
        from scipy.optimize import brentq
        p = ModelParams(g=1.0, J1=0.1, J2=0.1)
        gcp = critical_couplings(p).g_c_plus

        def fprime0(g):
            q = p.replace(g=g)
            _, fp = _monotone_fn(q)
            return fp(1e-12)

        g_flip = brentq(fprime0, 0.5, 1.3, xtol=1e-10)
        assert g_flip == pytest.approx(gcp, abs=1e-8)

    @pytest.mark.parametrize("g", [0.8, 1.2, 3.0])
    @pytest.mark.parametrize("k", [0.0, 1.0, -1.0, 1e3, -1e3, 1e5, -1e5, 1e6, -1e6])
    def test_roots_and_turning_points(self, g, k):
        p = ModelParams(g=g, J1=0.1, J2=0.1)
        rs = root_structure(p, k)
        f, fprime = _monotone_fn(p)
        eps = np.finfo(float).eps
        for r in rs.roots:
            h = 4.0 * eps * abs(r)
            assert np.sign(f(r - h) - k) * np.sign(f(r + h) - k) <= 0.0
        if rs.monotonic:
            assert len(rs.roots) == 1
            assert rs.turning_points == ()
            return
        a = (g * g + p.J2 - p.J1 * p.J2) / (1.0 - p.J1)
        xt = 0.5 * g * math.sqrt(1.0 - a ** (-2.0 / 3.0))
        assert rs.turning_points == pytest.approx((-xt, xt), rel=1e-14)
        for t in rs.turning_points:
            assert fprime(t * (1.0 - 1e-9)) * fprime(t * (1.0 + 1e-9)) < 0.0
        # f falls from +inf to its minimum at -xt, rises to its maximum at xt
        # and falls to -inf
        low, high = (f(t) for t in rs.turning_points)
        assert len(rs.roots) == (3 if low < k < high else 1)

    @pytest.mark.parametrize("k", [1e7, -1e7])
    def test_root_next_to_the_edge(self, k):
        # |f| at -+(g/2)(1 - 1e-15) is only 8.7e6 here: f - k changes sign
        # closer to the pole at -+g/2, in 50-digit arithmetic
        import mpmath

        p = ModelParams(g=0.8, J1=0.1, J2=0.1)
        rs = root_structure(p, k)
        assert rs.monotonic and len(rs.roots) == 1
        r = rs.roots[0]
        assert 0.4 * (1.0 - 1e-15) < abs(r) < 0.4
        a = (p.g * p.g + p.J2 - p.J1 * p.J2) / (1.0 - p.J1)
        inside = np.nextafter(0.5 * p.g, 0.0)
        ends = [max(r - 4.0 * math.ulp(r), -inside), min(r + 4.0 * math.ulp(r), inside)]
        with mpmath.workdps(50):
            g = mpmath.mpf(p.g)
            fk = [a * x - x / mpmath.sqrt(1 - 4 * x * x / (g * g)) - k
                  for x in map(mpmath.mpf, ends)]
            assert mpmath.sign(fk[0]) * mpmath.sign(fk[1]) <= 0

    @pytest.mark.parametrize("g", [1e10, 1e11, 1e13, 1e20, 1e154])
    @pytest.mark.parametrize("k", [0.0, 1.0, -1.0])
    def test_three_roots_at_huge_g(self, g, k):
        # the outer roots lie within a few ulps of the poles at -+g/2; from
        # about g = 1e12 the turning point rounds onto -g/2 and is kept one
        # ulp inside it; the middle root, about k/g^2, is far smaller than
        # the width g/2 of its bracket
        import mpmath

        p = ModelParams(g=g, J1=0.1, J2=0.1)
        rs = root_structure(p, k)
        assert not rs.monotonic and len(rs.roots) == 3
        eps = np.finfo(float).eps
        assert abs(rs.roots[0] + 0.5 * g) <= 4.0 * eps * 0.5 * g
        assert abs(rs.roots[2] - 0.5 * g) <= 4.0 * eps * 0.5 * g
        # f - k changes sign within the solver's tolerance, 4 eps |x| + 1e-300
        r = rs.roots[1]
        d = 4.0 * eps * abs(r) + 1e-300
        with mpmath.workdps(50):
            G = mpmath.mpf(g)
            J1, J2 = mpmath.mpf(p.J1), mpmath.mpf(p.J2)
            a = (G * G + J2 - J1 * J2) / (1 - J1)
            fk = [a * x - x / mpmath.sqrt(1 - 4 * x * x / (G * G)) - k
                  for x in (mpmath.mpf(r) - d, mpmath.mpf(r) + d)]
            assert mpmath.sign(fk[0]) * mpmath.sign(fk[1]) <= 0

    @pytest.mark.parametrize("g", [1e-3, 0.8, 1e10, 1e154])
    def test_no_warning_at_extreme_g(self, g):
        # h is -inf at -g/2; the suite runs with warnings as errors, so a
        # RuntimeWarning fails this test
        p = ModelParams(g=g, J1=0.1, J2=0.1)
        for k in (0.0, 1.0, -1.0, 1e7, -1e7):
            root_structure(p, k)
        _fsp_minima([p])


class TestAtomOnly:
    # four hand-picked points, a seeded J1 = 0 draw over the whole range, and
    # the point where steps of equal energy passed the Armijo test and cycled
    # between two floats
    _RNG = np.random.default_rng(2311)
    _DRAW = [(float(J2), float(g)) for J2, g in zip(_RNG.uniform(-0.49999, 0.49999, 60),
                                                    _RNG.uniform(0.05, 30.0, 60))]

    @pytest.mark.parametrize("J2,g", [(-0.3, 0.8), (-0.1, 1.2), (0.2, 1.1), (0.3, 0.5)]
                             + _DRAW + [(-0.2491755418915539, 28.405250638639767)])
    def test_agrees_with_general_solver(self, J2, g):
        p = ModelParams(g=g, J1=0.0, J2=J2)
        a = solve_atom_only(p)
        b = solve_ground_state(p)
        assert a.label == b.label
        assert a.degeneracy == b.degeneracy
        assert a.energy == pytest.approx(b.energy, rel=1e-12, abs=0.0)
        assert np.allclose(np.sort(np.abs(a.representative.alpha)),
                           np.sort(np.abs(b.representative.alpha)), atol=1e-8)
        x = a.representative.alpha  # x == alpha at J1 = 0
        assert np.max(np.abs(gradient(x, p))) <= STATIONARITY_TOL
        assert np.linalg.eigvalsh(hessian(x, p))[0] > _PSD_TOL

    def test_rejects_nonzero_j1(self):
        with pytest.raises(ValueError):
            solve_atom_only(ModelParams(g=1.0, J1=0.1))

    def test_shares_no_solver_code_with_the_dispatch(self, monkeypatch):
        # criterion 12 is an independent check only while the atom-only route
        # reaches neither branch of the dispatch nor its descent
        points = [ModelParams(g=g, J2=J2) for J2, g in ((0.3, 0.5), (-0.1, 1.2), (0.2, 1.1))]
        want = [solve_atom_only(p) for p in points]
        assert [r.label for r in want] == ["NP", "NSP", "FSP"]

        def unreachable(*args):
            raise AssertionError("the atom-only route reached the dispatch's solver code")

        for name in ("_descend", "_fsp_minima", "_uniform_branch"):
            monkeypatch.setattr(meanfield, name, unreachable)
        with pytest.raises(AssertionError):
            solve_ground_state(points[2])
        for p, b in zip(points, want, strict=True):
            a = solve_atom_only(p)
            assert (a.label, a.degeneracy, a.energy) == (b.label, b.degeneracy, b.energy)

    @pytest.mark.parametrize("g", [0.0, 1e-200])
    def test_undefined_b_tilde_raises_parameter_error(self, g):
        # as solve_ground_state does where g * g == 0
        p = ModelParams(g=g, J2=0.1)
        with pytest.raises(ParameterError, match="B_tilde is undefined"):
            solve_ground_state(p)
        with pytest.raises(ParameterError, match="B_tilde is undefined"):
            solve_atom_only(p)

    def test_huge_g_raises_a_typed_error_or_returns_a_finite_result(self):
        # from g ~ 1.2e154 the energy and the predicted decrease overflow, and
        # from g ~ 1e155 4 alpha^2/g^2 is inf/inf, where the backtracking
        # never ended; a fresh interpreter, with warnings as errors and a
        # timeout, runs the cases
        import json
        import subprocess
        import sys
        from pathlib import Path

        import dicke_trimer

        src = str(Path(dicke_trimer.__file__).resolve().parents[1])
        code = """if True:
            import json, math, sys
            sys.path.insert(0, sys.argv[1])
            from dicke_trimer import ModelParams, solve_atom_only
            from dicke_trimer.meanfield import ConvergenceError
            out = []
            for g in (1.2e154, 1.4e154, 1e155, 1e200, 1e308):
                for J2 in (0.1, -0.1):
                    try:
                        out.append(math.isfinite(solve_atom_only(ModelParams(g=g, J2=J2)).energy))
                    except (ConvergenceError, ValueError) as err:
                        out.append(type(err).__name__)
            print(json.dumps(out))
        """
        out = subprocess.run([sys.executable, "-W", "error", "-c", code, src],
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        outcomes = json.loads(out.stdout)
        assert len(outcomes) == 10
        assert all(o is True or o in ("ConvergenceError", "DomainError", "ParameterError")
                   for o in outcomes), outcomes
