"""Sweeps record the solver's typed errors per point and let anything else
propagate."""

import math

import pytest

from dicke_trimer import sweep
from dicke_trimer.meanfield import ConvergenceError
from dicke_trimer.sweep import Axis, sweep_g_line


def _raising(exc):
    def solve(params):
        raise exc
    return solve


def test_programming_error_propagates(monkeypatch):
    monkeypatch.setattr(sweep, "solve_ground_state", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        sweep_g_line(0.1, -0.1, [1.0])


def test_convergence_error_is_recorded(monkeypatch):
    monkeypatch.setattr(sweep, "solve_ground_state",
                        _raising(ConvergenceError("no minimum", residual=1.0)))
    (rec,) = sweep_g_line(0.1, -0.1, [1.0])
    assert rec["error"] == "ConvergenceError: no minimum"
    assert rec["phase"] == ""
    assert math.isnan(rec["energy"])


def test_boundary_probe_labels(monkeypatch):
    axis_g, axis_j2 = Axis("g", 0.9, 1.1, 3), Axis("J2", -0.2, -0.02, 3)
    fixed = {"J1": 0.1, "omega": 1.0, "Omega": 1.0}
    assert sweep._phase_at(axis_g, axis_j2, fixed, 1.1, -0.1) == "FSP"
    monkeypatch.setattr(sweep, "solve_ground_state", _raising(ConvergenceError("x")))
    assert sweep._phase_at(axis_g, axis_j2, fixed, 1.1, -0.1) == ""
    monkeypatch.setattr(sweep, "solve_ground_state", _raising(TypeError("bug")))
    with pytest.raises(TypeError):
        sweep._phase_at(axis_g, axis_j2, fixed, 1.1, -0.1)
