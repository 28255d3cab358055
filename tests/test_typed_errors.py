"""Sweeps record the solver's typed errors per point and let anything else
propagate."""

import math

import numpy as np
import pytest

from dicke_trimer import meanfield
from dicke_trimer.meanfield import ConvergenceError, solve_ground_states
from dicke_trimer.model import ModelParams
from dicke_trimer.sweep import sweep_g_line


def _raising(exc):
    """A batched frustrated pass that raises exc."""
    def solve(points):
        raise exc
    return solve


def _failing(exc):
    """A batched frustrated pass that reports exc for every row."""
    def solve(points):
        points = list(points)
        return np.full((len(points), 3), np.nan), [exc] * len(points)
    return solve


def test_programming_error_in_batched_pass_propagates(monkeypatch):
    monkeypatch.setattr(meanfield, "_fsp_minima", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        sweep_g_line(0.1, 0.1, [0.5, 1.1])


def test_convergence_error_is_recorded_per_row(monkeypatch):
    monkeypatch.setattr(meanfield, "_fsp_minima",
                        _failing(ConvergenceError("no minimum", residual=1.0)))
    np_rec, fsp_rec = sweep_g_line(0.1, 0.1, [0.5, 1.1])
    assert np_rec["phase"] == "NP" and np_rec["error"] == ""
    assert fsp_rec["error"] == "ConvergenceError: no minimum"
    assert fsp_rec["phase"] == ""
    assert math.isnan(fsp_rec["energy"])


def test_batched_labels_record_typed_errors(monkeypatch):
    points = [ModelParams(g=1.1, J1=0.1, J2=-0.1), ModelParams(g=1.0, J1=0.1, J2=-0.1)]
    assert list(solve_ground_states(points).label) == ["FSP", "NSP"]
    monkeypatch.setattr(meanfield, "_fsp_minima", _failing(ConvergenceError("x")))
    states = solve_ground_states(points)
    assert list(states.label) == ["", "NSP"]
    assert isinstance(states.error[0], ConvergenceError) and states.error[1] is None
    monkeypatch.setattr(meanfield, "_fsp_minima", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        solve_ground_states(points)
