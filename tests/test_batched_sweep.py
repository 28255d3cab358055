"""The batched sweep pass against its one-point route.

Sweeps solve all their points at once (``solve_ground_states``, one stacked
``spectra`` call) and solve grid boundaries as indicator roots in lockstep.  Every row must
equal what the one-point functions give for it, bitwise, error strings
included.
"""

import math

import numpy as np
import pytest

from dicke_trimer import meanfield, sweep
from dicke_trimer.meanfield import (
    ConvergenceError,
    _fsp_minima,
    _uniform_branch,
    energy,
    solve_ground_state,
    solve_ground_states,
)
from dicke_trimer.model import (
    FSP,
    ModelParams,
    ParameterError,
    Points,
    b_tilde,
    classify_region,
    critical_couplings,
    first_order_point,
)
from dicke_trimer.spectrum import (
    _assemble,
    _williamson,
    excitation_spectrum,
    fit_critical_exponent,
    fit_power_law,
    spectra,
)
from dicke_trimer.sweep import Axis, sweep_g_line, sweep_phase_diagram


def _one_point_record(params):
    """The sweep record of one point from the one-point functions."""
    rec = {"g": params.g, "J1": params.J1, "J2": params.J2,
           "B_tilde": b_tilde(params), "error": ""}
    try:
        result = solve_ground_state(params)
        state = result.representative
        spec = excitation_spectrum(state.x, params)
        rec.update(phase=result.label, energy=result.energy, degeneracy=result.degeneracy,
                   **{f"alpha{i+1}": float(state.alpha[i]) for i in range(3)},
                   **{f"eps{i+1}": float(spec.energies[i]) for i in range(6)})
    except (ConvergenceError, ValueError) as exc:
        rec.update(phase="", energy=math.nan, degeneracy=0,
                   **{f"alpha{i+1}": math.nan for i in range(3)},
                   **{f"eps{i+1}": math.nan for i in range(6)})
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def _same(a, b):
    """Equal values of equal type, NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _hoppings(rng, n):
    return [tuple(float(v) for v in rng.uniform(-0.5, 0.5, 2)) for _ in range(n)]


def _coexistence_points(rng, n):
    """Points at g_L above g_c, where |B_tilde| < 1e-12."""
    points = []
    while len(points) < n:
        J1, J2 = (float(v) for v in rng.uniform(-0.49, 0.49, 2))
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        gL = first_order_point(p)
        if gL is not None and gL > critical_couplings(p).g_c:
            q = p.replace(g=gL)
            if abs(b_tilde(q)) < 1e-12:
                points.append(q)
    return points


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(20261018)
    pts = [ModelParams(g=float(rng.uniform(0.05, 30.0)), J1=J1, J2=J2)
           for J1, J2 in _hoppings(rng, 300)]
    for J1, J2 in _hoppings(rng, 40):
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        cc = critical_couplings(p)
        marks = [cc.g_c, cc.g_c_plus, first_order_point(p)]
        pts += [p.replace(g=m + d) for m in marks if m is not None
                for d in (-1e-9, 0.0, 1e-9)]
    pts += _coexistence_points(rng, 20)
    pts += [ModelParams(g=100.0, J1=0.3, J2=0.3), ModelParams(g=60.0, J1=0.1, J2=0.1),
            ModelParams(g=10.0, J1=-0.4999999, J2=-0.4999999)]
    return pts


def test_batched_records_equal_one_point_records(points):
    batched = list(sweep._records(points))
    reference = [_one_point_record(p) for p in points]
    for got, want in zip(batched, reference, strict=True):
        assert list(got) == list(want)
        assert all(_same(got[k], want[k]) for k in want), (got, want)
    # the draw reaches every phase and every recorded error class
    phases = {r["phase"] for r in reference}
    errors = {r["error"].split(" (")[0] for r in reference}
    assert {"NP", "NSP", "FSP", ""} <= phases
    assert any(e.startswith("ConvergenceError: no frustrated") for e in errors)
    assert "ValueError: background is not stationary" in errors
    assert any(e.startswith("DomainError:") for e in errors)


@pytest.mark.parametrize("g0", [0.0, 1e-200])
def test_undefined_b_tilde_fails_only_its_row(g0):
    # B_tilde contains J2/g^2, undefined where g * g == 0
    states = solve_ground_states([ModelParams(g=g0, J1=0.1, J2=0.1),
                                  ModelParams(g=0.5, J1=0.1, J2=0.1)])
    alone = solve_ground_states([ModelParams(g=0.5, J1=0.1, J2=0.1)])
    assert isinstance(states.error[0], ParameterError)
    assert states.label[0] == "" and states.degeneracy[0] == 0
    assert states.error[1] is None and alone.error[0] is None
    for name in ("label", "energy", "degeneracy", "coexistent", "representative"):
        assert np.array_equal(getattr(states, name)[1], getattr(alone, name)[0])
    records = sweep_g_line(0.1, 0.1, [g0, 0.5])
    assert records[0]["error"].startswith("ParameterError: B_tilde is undefined")
    assert math.isnan(records[0]["B_tilde"])
    want = sweep_g_line(0.1, 0.1, [0.5])[0]
    assert all(_same(records[1][k], want[k]) for k in want)


def test_nonfinite_b_tilde_fails_only_its_row():
    # J2/(g * g) overflows to inf at g = 1e-160, where g * g is still nonzero
    records = sweep_g_line(0.1, 0.1, [0.5, 1e-160, 1.1])
    assert records[1]["error"].startswith("ParameterError: B_tilde is undefined")
    assert records[1]["phase"] == "" and math.isnan(records[1]["B_tilde"])
    for rec, want in zip(records[::2], sweep_g_line(0.1, 0.1, [0.5, 1.1]), strict=True):
        assert rec["error"] == "" and rec["phase"] in ("NP", "FSP")
        assert all(_same(rec[k], want[k]) for k in want)


def test_ground_states_equal_one_point_results(points):
    states = solve_ground_states(points)
    coexistent = 0
    for i, p in enumerate(points):
        try:
            want = solve_ground_state(p)
        except (ConvergenceError, ValueError) as exc:
            assert states.label[i] == "" and states.degeneracy[i] == 0
            assert type(states.error[i]) is type(exc) and str(states.error[i]) == str(exc)
            continue
        assert states.error[i] is None
        assert states.label[i] == want.label
        assert states.energy[i] == want.energy
        assert states.degeneracy[i] == want.degeneracy
        assert np.array_equal(states.representative[i], want.representative.x)
        assert states.coexistent[i] == want.coexistent
        coexistent += want.coexistent
    assert coexistent >= 10


def test_coexistence_keeps_the_lower_branch():
    coexistence = _coexistence_points(np.random.default_rng(11), 30)
    states = solve_ground_states(coexistence)
    uniform, x_nsp = _uniform_branch(Points.of(coexistence))
    x_fsp, errors = _fsp_minima(coexistence)
    assert errors == [None] * len(coexistence)
    for p, label, e, u, xu, xf in zip(coexistence, states.label, states.energy, uniform,
                                      x_nsp, x_fsp, strict=True):
        nsp, fsp = energy(xu, p), energy(xf, p)
        assert (label, e) == ((u, nsp) if nsp <= fsp else (FSP, fsp))
    assert set(states.label) == {"NSP", "FSP"}
    assert states.coexistent.all()


def test_coexistence_keeps_nsp_where_the_frustrated_branch_fails(monkeypatch):
    p = _coexistence_points(np.random.default_rng(11), 1)[0]

    def failing(points):
        points = list(points)
        return np.full((len(points), 3), np.nan), [ConvergenceError("x")] * len(points)

    monkeypatch.setattr(meanfield, "_fsp_minima", failing)
    states = solve_ground_states([p])
    assert states.error[0] is None
    _, (x_nsp,) = _uniform_branch(Points.of(p))
    assert (states.label[0], states.energy[0]) == ("NSP", energy(x_nsp, p))
    assert states.coexistent[0]


def test_coexistence_without_a_frustrated_minimum_is_nsp():
    # at g_L = 44.7 the frustrated branch has no local minimum; the uniform
    # one is the ground state
    p = ModelParams(g=1.0, J1=-1e-4, J2=0.2)
    p = p.replace(g=first_order_point(p))
    assert abs(b_tilde(p)) < 1e-12 and p.g > critical_couplings(p).g_c
    _, (error,) = _fsp_minima([p])
    assert isinstance(error, ConvergenceError) and "no frustrated local minimum" in str(error)
    result = solve_ground_state(p)
    assert result.label == "NSP" and result.coexistent
    _, (x_nsp,) = _uniform_branch(Points.of(p))
    assert result.energy == energy(x_nsp, p)


def test_stacked_spectrum_equals_single_forms_bitwise(points):
    states = solve_ground_states(points)
    ok = [i for i, err in enumerate(states.error) if err is None]
    xs = [states.representative[i] for i in ok]
    params = [points[i] for i in ok]
    # x = 0 backgrounds up to twice g_c: unstable beyond it
    rng = np.random.default_rng(7)
    for J1, J2 in _hoppings(rng, 100):
        g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
        xs.append(np.zeros(3))
        params.append(ModelParams(g=float(rng.uniform(0.05, 2.0 * g_c)), J1=J1, J2=J2))
    # backgrounds outside |x_n| < g/2 fail their own row and no other
    for x in ([math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf],
              [0.5, 0.0, 0.0]):
        xs.insert(len(xs) // 2, np.array(x))
        params.insert(len(params) // 2, ModelParams(g=1.0, J1=0.1, J2=-0.1))
    energies, errors = spectra(np.array(xs), params)
    # the critical flags of the stacked eigensolver, which spectra drops
    critical = _williamson(_assemble(np.array(xs), params)[0])[1]
    kinds, flags = set(), set()
    for x, p, e, crit, err in zip(xs, params, energies, critical, errors, strict=True):
        try:
            want = excitation_spectrum(x, p)
        except ValueError as exc:
            kinds.add(type(exc).__name__)
            assert type(err) is type(exc) and str(err) == str(exc)
            assert np.all(np.isnan(e))
            continue
        assert err is None
        assert np.array_equal(e, want.energies)
        assert want.soft_mode_gap == e[0]
        assert want.critical == crit
        flags.add(want.critical)
    assert {"ValueError", "UnstableBackgroundError", "DomainError"} <= kinds
    assert flags == {False, True}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("J1, J2", [(0.1, 0.1), (-0.1, -0.1), (0.3, -0.1), (-0.3, 0.3)])
def test_exponent_fit_equals_per_point_spectra(J1, J2, side):
    params = ModelParams(g=1.0, J1=J1, J2=J2)
    g_c = critical_couplings(params).g_c
    dgs = np.geomspace(1e-6, 1e-3, 13)
    gaps = []
    for dg in dgs:
        p = params.replace(g=g_c + dg if side == "above" else g_c - dg)
        x = solve_ground_state(p).representative.x if side == "above" else np.zeros(3)
        gaps.append(excitation_spectrum(x, p).soft_mode_gap)
    # ExponentFit compares its floats exactly
    assert fit_critical_exponent(params, side) == fit_power_law(dgs, np.array(gaps))


def _closed_form_row(J1, J2, g_min, g_max):
    """The closed-form transitions of the g line at (J1, J2) inside (g_min,
    g_max), as {boundary name: g}: the onset, then g_L where it lies above."""
    p = ModelParams(g=1.0, J1=J1, J2=J2)
    couplings, g_L = critical_couplings(p), first_order_point(p)
    g_c = couplings.g_c
    want = {"g_c_plus" if g_c == couplings.g_c_plus else "g_c_minus": g_c}
    if g_L is not None and g_L > g_c:
        want["g_L"] = g_L
    return {key: g for key, g in want.items() if g_min < g < g_max}


def test_lockstep_boundaries_equal_closed_forms(monkeypatch):
    # a coarse grid, and the criterion-11 grid at J1 = 0.094; on each, one
    # row crosses an NSP phase narrower than a cell, between an NP and an
    # FSP cell, and reports both its ends
    grids = [(Axis("g", 0.9, 1.1, 11), Axis("J2", -0.2, -0.02, 16), 0.1, [176, 26, 2]),
             (Axis("g", 0.9, 1.1, 41), Axis("J2", -0.2, -0.02, 31), 0.094, [1271, 54, 2])]
    for axis_g, axis_j2, J1, want_calls in grids:
        calls = []

        def spy(points):
            calls.append(len(points))
            return solve_ground_states(points)

        monkeypatch.setattr(sweep, "solve_ground_states", spy)
        grid = sweep_phase_diagram(axis_g, axis_j2, fixed={"J1": J1})
        monkeypatch.undo()
        # the cells, then one label call per round: the probes of every
        # root, then those of the sliver's g_L
        assert calls == want_calls

        rows = {}
        for key, points in grid.boundaries.items():
            for g, J2 in points:
                rows.setdefault(J2, {}).setdefault(key, []).append(g)
        assert set(rows) <= set(axis_j2.values().tolist())
        for J2 in axis_j2.values().tolist():
            want = _closed_form_row(J1, J2, axis_g.min, axis_g.max)
            got = rows.get(J2, {})
            assert set(got) == set(want)
            for key, g in want.items():
                assert got[key] == [pytest.approx(g, rel=0.0, abs=1e-12)]


def test_j1_j2_grid_keeps_region_column():
    # either hopping may lie on either axis
    for x_name, y_name in (("J1", "J2"), ("J2", "J1")):
        grid = sweep_phase_diagram(Axis(x_name, -0.3, 0.3, 5), Axis(y_name, -0.3, 0.3, 5),
                                   fixed={"g": 1.1})
        for row in grid.cells:
            for cell in row:
                hop = {x_name: cell["x"], y_name: cell["y"]}
                region = classify_region(hop["J1"], hop["J2"])
                assert cell["region"] == (None if region.boundary else region.region)
        assert {c["region"] for row in grid.cells for c in row} - {None}


def test_empty_line():
    assert sweep_g_line(0.1, 0.1, []) == []
