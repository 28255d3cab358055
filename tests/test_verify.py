"""Acceptance checks report a failure, with its detail, when the code they
check gives a wrong answer."""

import dataclasses

import numpy as np
import pytest

from dicke_trimer import verify
from dicke_trimer.meanfield import (_fsp_minima, _phase_result, energy, gradient,
                                    solve_ground_state, solve_ground_states)
from dicke_trimer.model import NP, NSP, classify_region, first_order_point
from dicke_trimer.oracle import Transition, _brute_force_minima
from dicke_trimer.spectrum import _assemble, fit_critical_exponent, spectra
from dicke_trimer.sweep import _branch_gap


def _normal_phase(params):
    """The x = 0 normal phase at every point, in place of a solver's result."""
    return _phase_result(NP, np.zeros(3), params)


def _too_few_minima(points):
    """Solver results in place of the oracle's, each with one minimum."""
    return [dataclasses.replace(solve_ground_state(p), degeneracy=1) for p in points]


def _far_point(grid, key_a, key_b):
    return (1.0, 0.0)


def _shifted_gap(points):
    """The sweep's branch gap 1e-3 too high: its roots lie below g_L, where
    the labels on both sides agree."""
    return _branch_gap(points) + 1e-3


def _gap_never_closes(x, points):
    """Mx squared plus 1/4 in place of Mx: no eigenvalue reaches zero."""
    M, errors = _assemble(x, points)
    M[:, 0] = M[:, 0] @ M[:, 0] + 0.25 * np.eye(6)
    return M, errors


def _gap_closes_late(x, points):
    """The blocks at g / (1 + 1e-5): the gap closes 1e-5 relative above g_c."""
    return _assemble(x, dataclasses.replace(points, g=points.g / (1.0 + 1e-5)))


def _swapped_orders(J1, J2, g_range, n_coarse=121):
    return [Transition(0.98, "first", 1.0, 0.0), Transition(1.04, "second", 1.0, 0.0)]


def _one_transition(J1, J2, g_range, n_coarse=121):
    return [Transition(0.98, "second", 1.0, 0.0)]


def _states_off_by_1e_3(points):
    """The ground states 1e-3 further up in g: the onset moves off g_c."""
    return solve_ground_states(dataclasses.replace(points, g=points.g + 1e-3))


def _normal_side_fit(params, side):
    """The gap exponent of the normal side, whatever side is asked for."""
    return fit_critical_exponent(params, "below")


def _uniform_pattern(params):
    """The uniform pattern of the frustrated minimum's mean |x| in place of
    the frustrated one."""
    x = solve_ground_state(params).representative.x
    return _phase_result(NSP, np.full(3, np.mean(np.abs(x))), params)


def _energy_too_low(x, params):
    """The energy less 1e-6, as from a dropped constant."""
    return energy(x, params) - 1e-6


def _spectra_too_high(x, params):
    """Excitation energies 1e-8 relative too high."""
    energies, errors = spectra(x, params)
    return energies * (1.0 + 1e-8), errors


def _gradient_too_steep(x, params):
    """The gradient 1e-3 relative too steep."""
    return gradient(x, params) * (1.0 + 1e-3)


def _g_L_too_high(params):
    """g_L 1e-9 relative too high, where B_tilde is no longer 0."""
    g_L = first_order_point(params)
    return None if g_L is None else g_L * (1.0 + 1e-9)


def _hoppings_swapped(J1, J2):
    """The region of the point with J1 and J2 swapped."""
    return classify_region(J2, J1)


def _oracle_energies_too_high(points):
    """The oracle's minima 1e-6 too high, as from a saddle above them."""
    return [dataclasses.replace(r, energy=r.energy + 1e-6) for r in _brute_force_minima(points)]


def _fsp_off_the_root(points):
    """The frustrated minima 1e-9 relative off their stationary points."""
    x, errors = _fsp_minima(points)
    return x * (1.0 + 1e-9), errors


@pytest.mark.parametrize("check,name,wrong,detail", [
    (verify.criterion_1_critical_points, "_assemble", _gap_never_closes,
     "300 of 300 rows not bracketed"),
    (verify.criterion_1_critical_points, "_assemble", _gap_closes_late,
     "max |g_root - g_c| = 9.83e-06"),
    (verify.criterion_4_transition_line, "detect_transitions", _swapped_orders,
     "second at 0.980000 (first; ref 0.979796)"),
    (verify.criterion_5_degeneracy, "_brute_force_minima", _too_few_minima,
     "failures: [('FSP', "),
    (verify.criterion_7_table_sequences, "solve_ground_state", _normal_phase,
     "(1, ('NP',), ('NP', 'FSP'))"),
    (verify.criterion_11_triple_point, "boundary_intersection", _far_point,
     "numeric (1.000000, 0.000000)"),
    (verify.criterion_11_triple_point, "dicke_trimer.sweep._branch_gap", _shifted_gap,
     "boundary polylines do not intersect"),
    (verify.criterion_12_atom_only_consistency, "solve_atom_only", _normal_phase,
     "failures: [(-0.3, 0.9, 'NP', 'NSP', "),
    (verify.criterion_2_order_parameter_exponent, "solve_ground_states", _states_off_by_1e_3,
     "NSP 0.03"),
    (verify.criterion_3_gap_exponents, "fit_critical_exponent", _normal_side_fit,
     "FSP 0.5000 (1.0 +- 0.05)"),
    (verify.criterion_4_transition_line, "detect_transitions", _one_transition,
     "expected 2 transitions, found 1"),
    (verify.criterion_6_asymptotic_ratios, "solve_ground_state", _uniform_pattern,
     "x1/x2 = 1.00000 (-2 +- 1%)"),
    (verify.criterion_8_cauchy_schwarz, "energy", _energy_too_low,
     "e-07 (must be < 1e-12)"),
    (verify.criterion_9_spectrum_equivalence, "spectra", _spectra_too_high,
     "max |numeric - analytic| = 1."),
    (verify.criterion_10_gradient_check, "gradient", _gradient_too_steep,
     "max deviation 6."),
    (verify.check_formula_identities, "first_order_point", _g_L_too_high,
     "max identity residual 6."),
    (verify.check_region_table_points, "classify_region", _hoppings_swapped,
     "bad: [(1, (0.3, -0.1)), "),
    (verify.check_oracle_agreement, "_brute_force_minima", _oracle_energies_too_high,
     "max |E_oracle - E_branch| = 1.00e-06"),
    (verify.check_frustrated_stationarity, "_fsp_minima", _fsp_off_the_root,
     "max residual 5."),
])
def test_wrong_answer_fails_the_check(monkeypatch, check, name, wrong, detail):
    # a dotted name is the import path of a function that the check reaches
    # through another module
    monkeypatch.setattr(*((name,) if "." in name else (verify, name)), wrong)
    result = check()
    assert not result.passed
    assert detail in result.detail
    # the detail prints plain floats, not numpy scalar reprs
    assert "np." not in result.detail
