"""Fluctuation spectrum: quadratic form, symplectic eigenvalues, exponents."""

import math

import mpmath
import numpy as np
import pytest

from dicke_trimer import (
    ModelParams,
    analytic_np_spectrum,
    critical_couplings,
    excitation_spectrum,
    fit_critical_exponent,
    solve_ground_state,
    soft_mode_gap,
)
from dicke_trimer.meanfield import solve_ground_states
from dicke_trimer.spectrum import (
    UnstableBackgroundError,
    _assemble,
    fit_power_law,
    spectra,
)


def np_spectrum_numeric(params):
    return excitation_spectrum(np.zeros(3), params)


class TestQuadraticForm:
    def test_symmetric(self):
        p = ModelParams(g=0.8, J1=0.1, J2=-0.2)
        for M in _assemble(np.zeros((1, 3)), [p])[0][0]:
            assert np.allclose(M, M.T)

    def test_rejects_nonstationary_background(self):
        p = ModelParams(g=0.8, J1=0.1, J2=0.1)
        with pytest.raises(ValueError, match="stationary"):
            excitation_spectrum(np.array([0.1, 0.0, 0.0]), p)


class TestNormalPhaseSpectrum:
    def test_uncoupled_zero_g_limit(self):
        # at g=0 and no hopping the six energies are three omega, three Omega
        res = analytic_np_spectrum(ModelParams(g=0.0, omega=1.0, Omega=2.0))
        assert np.allclose(np.sort(res.energies), [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_matches_numeric_route(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            J1, J2 = rng.uniform(-0.45, 0.45, 2)
            p0 = ModelParams(g=1.0, J1=J1, J2=J2,
                             omega=rng.uniform(0.5, 2.0),
                             Omega=rng.uniform(0.5, 2.0))
            cc = critical_couplings(p0)
            p = p0.replace(g=rng.uniform(0.1, 0.99) * cc.g_c)
            assert np.allclose(np_spectrum_numeric(p).energies,
                               analytic_np_spectrum(p).energies, atol=1e-10)

    def test_finite_momentum_degeneracy(self):
        res = analytic_np_spectrum(ModelParams(g=0.5, J1=0.2, J2=-0.1))
        ks = [abs(k) for k, _ in res.momentum_labels]
        # +-2pi/3 labels appear in degenerate pairs
        assert ks.count(2.0 * math.pi / 3.0) == 4

    def test_gap_closes_at_critical_point(self):
        p = ModelParams(g=1.0, J1=0.1, J2=0.1)
        cc = critical_couplings(p)
        res = analytic_np_spectrum(p.replace(g=cc.g_c))
        assert res.soft_mode_gap == pytest.approx(0.0, abs=1e-7)
        assert res.critical

    def test_soft_momentum_matches_k_star(self):
        for J1, J2 in ((0.1, 0.1), (-0.1, -0.1)):
            p = ModelParams(g=1.0, J1=J1, J2=J2)
            cc = critical_couplings(p)
            res = analytic_np_spectrum(p.replace(g=0.999 * cc.g_c))
            k_soft, _ = res.momentum_labels[0]
            assert abs(k_soft) == pytest.approx(cc.k_star)

    def test_rejects_supercritical(self):
        p = ModelParams(g=1.3, J1=0.1, J2=0.1)
        with pytest.raises(ValueError, match="criticality"):
            analytic_np_spectrum(p)


class TestOrderedPhaseSpectra:
    def test_nsp_background_stable(self):
        p = ModelParams(g=1.2, J1=-0.1, J2=-0.1)
        gap = soft_mode_gap(p)
        assert gap > 0.0

    def test_fsp_background_stable(self):
        p = ModelParams(g=1.2, J1=0.1, J2=0.1)
        gap = soft_mode_gap(p)
        assert gap > 0.0

    def test_fsp_past_first_order_point_stable(self):
        # fold-born frustrated minimum: spectrum must still be positive
        p = ModelParams(g=1.05, J1=0.1, J2=-0.1)
        res = solve_ground_state(p)
        spec = excitation_spectrum(res.representative.x, p)
        assert spec.energies[0] > 0.0

    def test_wrong_phase_raises(self):
        # the normal phase is unstable above g_c
        p = ModelParams(g=1.3, J1=0.1, J2=0.1)
        with pytest.raises(UnstableBackgroundError):
            excitation_spectrum(np.zeros(3), p)


def _np_points_near_onset(delta):
    """100 normal-phase points at g_c (1 - delta), omega and Omega drawn too."""
    rng = np.random.default_rng(5)
    points = []
    for _ in range(100):
        J1, J2 = rng.uniform(-0.45, 0.45, 2)
        omega, Omega = rng.uniform(0.5, 2.0, 2)
        g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
        points.append(ModelParams(g=g_c * (1.0 - delta), J1=J1, J2=J2,
                                  omega=omega, Omega=Omega))
    return points


def _np_spectrum_50_digits(p):
    """The closed form of analytic_np_spectrum at 50 digits, from the float
    parameters."""
    mp = mpmath.mp.clone()
    mp.dps = 50
    g, J1, J2, omega, Omega = (mp.mpf(v) for v in (p.g, p.J1, p.J2, p.omega, p.Omega))
    lam = g / 2 * mp.sqrt(omega * Omega)
    energies = []
    for c in (mp.mpf(1), mp.cos(2 * mp.pi / 3), mp.cos(2 * mp.pi / 3)):
        wk, Wk = omega * (1 + 2 * J1 * c), Omega * (1 + 2 * J2 * c)
        disc = mp.sqrt((wk**2 - Wk**2) ** 2 + 16 * lam**2 * wk * Wk)
        energies += [mp.sqrt((wk**2 + Wk**2 - disc) / 2), mp.sqrt((wk**2 + Wk**2 + disc) / 2)]
    return sorted(energies)


def _symplectic_reference(Mx, Mp):
    """Williamson eigenvalues from eig(J @ M), M = diag(Mx, Mp) on (X, P)."""
    M = np.zeros((12, 12))
    M[:6, :6], M[6:, 6:] = Mx, Mp
    J = np.block([[np.zeros((6, 6)), np.eye(6)], [-np.eye(6), np.zeros((6, 6))]])
    d = np.linalg.eigvals(J @ M).imag
    return np.sort(d[d > 0.0])


class TestSpectrumAccuracy:
    # about three times the errors of the earlier 12x12 Hermitian route on this draw
    # (2.8e-14, 9.5e-13 and 2.1e-11)
    @pytest.mark.parametrize("delta, bound", [(1e-3, 1e-13), (1e-6, 3e-12), (1e-9, 7e-11)])
    def test_np_near_onset_against_50_digits(self, delta, bound):
        points = _np_points_near_onset(delta)
        energies, errors = spectra(np.zeros((len(points), 3)), points)
        assert errors == [None] * len(points)
        worst = max(float(abs(mpmath.mpf(float(e)) - r))
                    for row, p in zip(energies, points)
                    for e, r in zip(row, _np_spectrum_50_digits(p)))
        assert worst < bound

    def test_ordered_backgrounds_against_eig_of_j_m(self):
        rng = np.random.default_rng(9)
        points = []
        for _ in range(60):
            J1, J2 = rng.uniform(-0.45, 0.45, 2)
            g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
            points.append(ModelParams(g=g_c * rng.uniform(1.2, 2.0), J1=J1, J2=J2))
        states = solve_ground_states(points)
        assert states.error == [None] * len(points)
        assert {"NSP", "FSP"} <= set(states.label)
        energies, errors = spectra(states.representative, points)
        assert errors == [None] * len(points)
        forms = _assemble(states.representative, points)[0]
        for (Mx, Mp), e in zip(forms, energies):
            np.testing.assert_allclose(e, _symplectic_reference(Mx, Mp), rtol=1e-13)


class TestPowerLawFits:
    def test_fit_power_law_exact(self):
        dg = np.geomspace(1e-6, 1e-3, 11)
        fit = fit_power_law(dg, 3.0 * dg**0.75)
        assert fit.exponent == pytest.approx(0.75, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_fit_power_law_rejects_a_non_positive_value(self):
        dg = np.geomspace(1e-6, 1e-3, 4)
        with pytest.raises(ValueError, match="strictly positive"):
            fit_power_law(dg, np.array([1e-3, 2e-3, 0.0, 4e-3]))

    def test_fit_critical_exponent_rejects_an_unknown_side(self):
        with pytest.raises(ValueError, match="side must be 'below' or 'above', got 'sideways'"):
            fit_critical_exponent(ModelParams(g=1.0, J1=0.1, J2=0.1), "sideways")

    def test_np_side_exponent_half(self):
        fit = fit_critical_exponent(ModelParams(g=1.0, J1=0.1, J2=0.1), "below")
        assert fit.exponent == pytest.approx(0.5, abs=0.02)

    def test_nsp_side_exponent_half(self):
        fit = fit_critical_exponent(ModelParams(g=1.0, J1=-0.1, J2=-0.1), "above")
        assert fit.exponent == pytest.approx(0.5, abs=0.02)

    def test_fsp_side_exponent_one(self):
        fit = fit_critical_exponent(ModelParams(g=1.0, J1=0.1, J2=0.1), "above")
        assert fit.exponent == pytest.approx(1.0, abs=0.05)

    def test_window_crossing_first_order_point_rejected(self):
        # g_L - g_c = 6.7e-5 here, inside the 1e-3 window above g_c
        p = ModelParams(g=1.0, J1=0.1, J2=-1.0 / 11.0 - 1e-5)
        with pytest.raises(ValueError, match="first-order"):
            fit_critical_exponent(p, "above")
        # g_c = 2e-7 here, so the 1e-3 window below it reaches g <= 0
        p = ModelParams(g=1.0, J1=-0.4999999, J2=-0.4999999)
        with pytest.raises(ValueError, match=r"fit window \[.*\] reaches g <= 0"):
            fit_critical_exponent(p, "below")
