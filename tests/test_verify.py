"""Acceptance checks report a failure, with its detail, when the code they
check gives a wrong answer."""

import dataclasses

import numpy as np
import pytest

from dicke_trimer import verify
from dicke_trimer.meanfield import _phase_result, solve_ground_state
from dicke_trimer.model import NP
from dicke_trimer.oracle import Transition
from dicke_trimer.spectrum import _assemble
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
