"""Mean-field energy functional and the three phase solvers."""

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
    solve_fsp,
    solve_ground_state,
    solve_np,
    solve_nsp,
    state_from_x,
)
from dicke_trimer.meanfield import (
    _PSD_TOL,
    STATIONARITY_TOL,
    ConvergenceError,
    _bisect,
    _bracketed_roots,
    _orbit,
    _solve_fsp_branch,
    nsp_alpha,
    root_structure,
)

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
        assert len(_orbit(np.array([0.1, 0.1, 0.1]))) == 2
        assert len(_orbit(np.array([-0.2, 0.1, 0.1]))) == 6
        assert len(_orbit(np.zeros(3))) == 1


class TestNormalPhase:
    def test_energy_and_degeneracy(self):
        res = solve_np(ModelParams(g=0.5, J1=0.2, J2=-0.3))
        assert res.label == "NP"
        assert res.energy == -1.5
        assert res.degeneracy == 1
        assert np.allclose(res.representative.x, 0.0)


class TestUniformPhase:
    def test_reference_point(self):
        res = solve_nsp(P5)
        # closed form: alpha = (g/2) sqrt(1/(1+2J1)^2 - 1/(g^2-2(J2+2J1J2))^2)
        denom = P5.g**2 - 2.0 * (P5.J2 + 2.0 * P5.J1 * P5.J2)
        a = 0.5 * P5.g * math.sqrt(1.0 / 0.8**2 - 1.0 / denom**2)
        assert res.label == "NSP"
        assert res.degeneracy == 2
        assert abs(res.representative.alpha[0]) == pytest.approx(a, abs=1e-12)

    def test_stationarity(self):
        res = solve_nsp(P5)
        assert np.max(np.abs(gradient(res.representative.x, P5))) < 1e-12

    def test_below_onset_returns_np(self):
        res = solve_nsp(ModelParams(g=0.5, J1=-0.1, J2=-0.1))
        assert res.label == "NP"

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

    def test_two_minima_are_sign_partners(self):
        res = solve_nsp(P5)
        a, b = res.all_minima
        assert np.allclose(a.x, -b.x)


class TestFrustratedPhase:
    def test_reference_point(self):
        res = solve_fsp(P2)
        x = res.representative.x
        assert res.label == "FSP"
        assert res.degeneracy == 6
        assert x[0] < 0.0 < x[1]
        assert x[1] == pytest.approx(x[2], abs=1e-12)
        assert np.max(np.abs(gradient(x, P2))) < 1e-11

    def test_hessian_positive(self):
        res = solve_fsp(P2)
        assert np.linalg.eigvalsh(hessian(res.representative.x, P2))[0] > 0.0

    def test_orbit_energies_equal(self):
        res = solve_fsp(P2)
        energies = [energy(s.x, P2) for s in res.all_minima]
        assert max(energies) - min(energies) < 1e-12

    def test_asymptotic_ratios_near_onset(self):
        gcp = critical_couplings(P2).g_c_plus
        res = solve_fsp(P2.replace(g=gcp + 1e-4))
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

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            solve_fsp(ModelParams(g=1.0, J1=-0.1, J2=-0.1))

    def test_fold_born_minimum_found(self):
        # uniform phase condenses first here; the frustrated minimum is
        # disconnected from the branch emerging at g_c_plus
        p = ModelParams(g=1.05, J1=0.1, J2=-0.1)
        res = _solve_fsp_branch(p)
        x = res.representative.x
        assert np.linalg.eigvalsh(hessian(x, p))[0] > 0.0
        assert x[0] < 0.0 < x[1]
        assert res.energy == pytest.approx(-1.5103096019806, abs=1e-10)

    def test_no_minimum_below_fold(self):
        # just above g_c_plus on the same line only the saddle exists
        p = ModelParams(g=0.999, J1=0.1, J2=-0.1)
        with pytest.raises(ConvergenceError):
            _solve_fsp_branch(p)


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
            return solve_nsp(q).energy - _solve_fsp_branch(q).energy

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


def _bisect_run(lo, hi, thresholds, width, levels):
    """_bisect on a monotone test per bracket: the result, the (row, mid)
    probes and the number of calls of above."""
    probes, calls = set(), [0]

    def above(mid, rows):
        calls[0] += 1
        probes.update(zip(rows.tolist(), mid.tolist()))
        return mid >= thresholds[rows]

    out = _bisect(above, lo, hi, width, levels=levels)
    return out, probes, calls[0]


# spans and widths that are powers of two put some nodes exactly width wide
_brackets = st.lists(st.tuples(
    st.one_of(st.floats(-10.0, 10.0), st.integers(-3, 3).map(float)),
    st.one_of(st.floats(0.0, 4.0), st.floats(0.0, 1e-6), st.sampled_from([0.25, 1.0, 2.0])),
    st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-0.5, 1.5))), max_size=6)
_widths = st.one_of(st.floats(1e-7, 1.0), st.integers(0, 20).map(lambda k: 2.0 ** -k),
                    st.just(0.0), st.floats(1e-30, 1e-20))


class TestLockstepSolvers:
    @given(_brackets, _widths, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_bisect_levels_equal_single_halvings(self, brackets, width, levels):
        # thresholds at, inside and beyond the bracket ends; a width of 0 or
        # 1e-30 makes the cap of 60 halvings bind
        lo = np.array([b[0] for b in brackets])
        hi = lo + np.array([b[1] for b in brackets])
        thresholds = lo + np.array([b[2] for b in brackets]) * (hi - lo)
        want, want_probes, halvings = _bisect_run(lo, hi, thresholds, width, 1)
        got, probes, calls = _bisect_run(lo, hi, thresholds, width, levels)
        assert got.tobytes() == want.tobytes()
        assert want_probes <= probes
        assert calls == -(-halvings // levels)

    def test_bisect_cap_counts_halvings(self):
        # a width of 0 never stops a bracket: 60 halvings, in 9 calls of 7;
        # the first bracket shrinks onto 0, so a 61st halving would show
        lo, hi, thresholds = np.array([0.0, 1.0]), np.array([1.0, 1.5]), np.array([0.0, 1.2])
        want, want_probes, halvings = _bisect_run(lo, hi, thresholds, 0.0, 1)
        got, probes, calls = _bisect_run(lo, hi, thresholds, 0.0, 7)
        assert halvings == 60 and calls == 9
        assert got.tobytes() == want.tobytes() and want_probes <= probes

    def test_bisect_empty(self):
        for levels in (1, 3):
            out, probes, calls = _bisect_run(np.array([]), np.array([]), np.array([]),
                                             1e-6, levels)
            assert out.shape == (0,) and not probes and calls == 0

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

    @pytest.mark.parametrize("g", [0.0, 1e-200])
    def test_undefined_b_tilde_raises_parameter_error(self, g):
        # as solve_ground_state does where g * g == 0
        p = ModelParams(g=g, J2=0.1)
        with pytest.raises(ParameterError, match="B_tilde is undefined"):
            solve_ground_state(p)
        with pytest.raises(ParameterError, match="B_tilde is undefined"):
            solve_atom_only(p)
