"""The batched sweep pass against its one-point route.

Sweeps solve all their points at once (``solve_ground_states``, one stacked
``spectra`` call) and bisect grid boundaries in lockstep.  Every row must
equal what the one-point functions give for it, bitwise, error strings
included.
"""

import math

import numpy as np
import pytest

from dicke_trimer import sweep
from dicke_trimer.meanfield import (
    ConvergenceError,
    _solve_fsp_branch,
    solve_ground_state,
    solve_ground_states,
    solve_nsp,
)
from dicke_trimer.model import (
    ModelParams,
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
    for p, label, e in zip(coexistence, states.label, states.energy, strict=True):
        nsp, fsp = solve_nsp(p), _solve_fsp_branch(p)
        best = nsp if nsp.energy <= fsp.energy else fsp
        assert (label, e) == (best.label, best.energy)
    assert set(states.label) == {"NSP", "FSP"}
    assert states.coexistent.all()


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


def test_lockstep_boundaries_equal_sequential_bisection():
    axis_g, axis_j2 = Axis("g", 0.9, 1.1, 11), Axis("J2", -0.2, -0.02, 16)
    fixed = {"J1": 0.1}
    grid = sweep_phase_diagram(axis_g, axis_j2, fixed=fixed)

    def label(g, J2):
        try:
            return solve_ground_state(ModelParams(g=g, J1=0.1, J2=J2)).label
        except (ConvergenceError, ValueError):
            return ""

    want = {}
    gs = axis_g.values()
    for row, J2 in zip(grid.cells, axis_j2.values()):
        for ix in range(len(gs) - 1):
            a, b = row[ix]["phase"], row[ix + 1]["phase"]
            if a and b and a != b:
                lo, hi = float(gs[ix]), float(gs[ix + 1])
                while hi - lo > 1e-6:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if label(mid, float(J2)) == a else (lo, mid)
                key = sweep._BOUNDARY_FOR_PAIR[frozenset((a, b))]
                want.setdefault(key, []).append((0.5 * (lo + hi), float(J2)))
    assert grid.boundaries == want
    assert set(want) == {"g_c_minus", "g_c_plus", "g_L"}


def test_j1_j2_grid_keeps_region_column():
    grid = sweep_phase_diagram(Axis("J1", -0.3, 0.3, 5), Axis("J2", -0.3, 0.3, 5),
                               fixed={"g": 1.1})
    for row in grid.cells:
        for cell in row:
            region = classify_region(cell["x"], cell["y"])
            assert cell["region"] == (None if region.boundary else region.region)
    assert {c["region"] for row in grid.cells for c in row} - {None}


def test_empty_line():
    assert sweep_g_line(0.1, 0.1, []) == []
