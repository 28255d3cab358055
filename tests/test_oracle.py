"""Brute-force oracle: global minimization and transition detection."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_trimer import (
    ModelParams,
    OracleConfig,
    brute_force_minimize,
    critical_couplings,
    detect_transitions,
    energy,
    first_order_point,
    gradient,
    hessian,
    oracle,
    solve_ground_state,
)
from dicke_trimer.meanfield import ConvergenceError
from dicke_trimer.model import TRANSITIONS


class TestOracleConfig:
    def test_defaults(self):
        c = OracleConfig()
        assert c.grid_points_per_axis == 41
        assert c.refine_tolerance == 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_points_per_axis=1)
        with pytest.raises(ValueError):
            OracleConfig(cluster_radius=-1.0)


class TestBruteForceMinimize:
    @pytest.mark.parametrize("params,label,deg", [
        (ModelParams(g=0.5, J1=0.1, J2=-0.1), "NP", 1),
        (ModelParams(g=1.1, J1=-0.1, J2=-0.1), "NSP", 2),
        (ModelParams(g=1.1, J1=0.1, J2=0.1), "FSP", 6),
        # x ~ 5e-12 at g = 3e-8: clusters scale with g, so -x and x are two
        (ModelParams(g=3e-8, J1=-0.49999999, J2=-0.49999999), "NSP", 2),
    ])
    def test_phase_and_degeneracy(self, params, label, deg):
        res = brute_force_minimize(params)
        assert res.label == label
        assert res.degeneracy == deg

    def test_agrees_with_analytic_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            J1, J2 = rng.uniform(-0.45, 0.45, 2)
            params = ModelParams(g=rng.uniform(0.3, 2.0), J1=J1, J2=J2)
            res = brute_force_minimize(params)
            ana = solve_ground_state(params)
            assert res.energy == pytest.approx(ana.energy, abs=1e-10)

    def test_minima_are_stationary(self):
        params = ModelParams(g=1.1, J1=0.1, J2=0.1)
        res = brute_force_minimize(params)
        for state in res.all_minima:
            assert np.max(np.abs(gradient(state.x, params))) < 1e-9

    def test_minima_energy_spread(self):
        params = ModelParams(g=1.3, J1=0.2, J2=0.1)
        res = brute_force_minimize(params)
        energies = [energy(s.x, params) for s in res.all_minima]
        assert max(energies) - min(energies) < 1e-12

    def test_reports_no_saddle_just_above_onset(self):
        # a descent that stops on the saddle x = 0, or on a symmetry plane
        # through a saddle, reports a normal phase or a wrong orbit here
        rng = np.random.default_rng(2718)
        for _ in range(12):
            J1, J2 = rng.uniform(-0.45, 0.45, 2)
            params = ModelParams(g=1.0, J1=J1, J2=J2)
            g = critical_couplings(params).g_c * (1.0 + 10.0 ** rng.uniform(-4.0, -1.0))
            params = params.replace(g=g)
            res = brute_force_minimize(params)
            assert res.label != "NP"
            assert res.energy < -1.5
            for state in res.all_minima:
                assert np.linalg.eigvalsh(hessian(state.x, params))[0] > -1e-9

    def test_capped_candidates_reach_the_uncapped_minimum(self, monkeypatch):
        # this grid has 28 grid-local minima; only the 14 lowest are descended
        params = ModelParams(g=0.7328, J1=0.4849, J2=0.1003)
        uncapped = brute_force_minimize(params)
        monkeypatch.setattr(oracle, "_MAX_CANDIDATES", 14)
        capped = brute_force_minimize(params)
        assert (capped.label, capped.degeneracy) == (uncapped.label, uncapped.degeneracy)
        assert (capped.label, capped.degeneracy) == ("FSP", 6)
        assert capped.energy == uncapped.energy

    def test_raises_rather_than_report_a_saddle(self, monkeypatch):
        descend = oracle.descend

        def keeps_no_row(seeds, params):
            X, is_min = descend(seeds, params)
            return X, np.zeros_like(is_min)

        monkeypatch.setattr(oracle, "descend", keeps_no_row)
        with pytest.raises(ConvergenceError, match="no descent ended at a minimum"):
            brute_force_minimize(ModelParams(g=1.1, J1=0.1, J2=0.1))

    @pytest.mark.parametrize("J2", [0.1, -0.1])
    @pytest.mark.parametrize("g", [1e154, 1.3e154, 1e160, 1e200, 1e308])
    def test_overflowing_energy_raises_a_convergence_error(self, g, J2):
        # the energy overflows in the descent from g of about 1e154 and on
        # the whole grid from 1e160; the suite turns any warning into an error
        params = ModelParams(g=g, J1=0.1, J2=J2)
        with pytest.raises(ConvergenceError, match=re.escape(f"at {params}")):
            brute_force_minimize(params)
        with pytest.raises(ConvergenceError, match=re.escape(f"at {params}")):
            oracle._brute_force_minima([ModelParams(g=1.1, J1=0.1, J2=J2), params])


def _check_stacked_equals_one_point(points):
    """Row i of the stacked minimisation equals brute_force_minimize(points[i])
    bitwise; where a point raises, the stack raises the first point's error."""
    expected = []
    for p in points:
        try:
            expected.append(brute_force_minimize(p))
        except (ConvergenceError, ValueError) as err:
            expected.append(err)
    errors = [e for e in expected if isinstance(e, Exception)]
    if errors:
        with pytest.raises(type(errors[0])) as info:
            oracle._brute_force_minima(points)
        assert str(info.value) == str(errors[0])
        return
    stacked = oracle._brute_force_minima(points)
    assert len(stacked) == len(points)
    for got, want in zip(stacked, expected):
        assert (got.label, got.degeneracy) == (want.label, want.degeneracy)
        assert float.hex(got.energy) == float.hex(want.energy)
        assert len(got.all_minima) == len(want.all_minima)
        for a, b in zip(got.all_minima, want.all_minima):
            assert np.array_equal(a.x, b.x)


_EDGE = 0.4999999


class TestStackedMinimization:
    def test_seeded_mixed_stack(self):
        rng = np.random.default_rng(1414)
        points = []
        for J1, J2 in [(0.1, 0.1), (-0.1, -0.1), (0.1, -0.1), (_EDGE, _EDGE),
                       (-_EDGE, -_EDGE), (-_EDGE, 0.3), (_EDGE, -_EDGE),
                       tuple(rng.uniform(-0.5, 0.5, 2))]:
            g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
            points += [ModelParams(g=g, J1=J1, J2=J2)
                       for g in (0.8 * g_c, g_c * (1.0 + 10.0 ** rng.uniform(-4.0, -1.0)),
                                 rng.uniform(3.0, 100.0))]
        points = [points[i] for i in rng.permutation(len(points))]
        labels = {brute_force_minimize(p).label for p in points}
        assert labels == {"NP", "NSP", "FSP"}
        _check_stacked_equals_one_point(points)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.floats(-0.49, 0.49), st.sampled_from([-_EDGE, _EDGE])),
                              st.one_of(st.floats(-0.49, 0.49), st.sampled_from([-_EDGE, _EDGE])),
                              st.floats(0.05, 100.0)),
                    min_size=1, max_size=4))
    def test_generated_stacks(self, draws):
        _check_stacked_equals_one_point([ModelParams(g=g, J1=J1, J2=J2) for J1, J2, g in draws])

    def test_empty_stack(self):
        assert oracle._brute_force_minima([]) == []

    def test_first_failing_point_raises(self, monkeypatch):
        descend = oracle.descend

        def keeps_no_row_above_one(seeds, params):
            X, is_min = descend(seeds, params)
            return X, is_min & np.array([p.g < 1.0 for p in params])

        monkeypatch.setattr(oracle, "descend", keeps_no_row_above_one)
        points = [ModelParams(g=g, J1=0.1, J2=0.1) for g in (0.5, 1.1, 1.2)]
        with pytest.raises(ConvergenceError, match=re.escape(f"at {points[1]}")):
            oracle._brute_force_minima(points)

class TestDetectTransitions:
    def test_two_transition_line(self):
        # second order at sqrt(0.96), first order at sqrt(1.08)
        transitions = detect_transitions(0.1, -0.1, (0.9, 1.2), n_coarse=31)
        assert [t.order for t in transitions] == ["second", "first"]
        assert transitions[0].g_star == pytest.approx(math.sqrt(0.96), abs=1e-9)
        assert transitions[1].g_star == pytest.approx(math.sqrt(1.08), abs=1e-9)

    def test_single_second_order_line(self):
        transitions = detect_transitions(0.1, 0.1, (0.7, 1.1), n_coarse=21)
        assert len(transitions) == 1
        assert transitions[0].order == "second"
        assert transitions[0].g_star == pytest.approx(0.9, abs=2e-7)

    def test_uncoupled_line(self):
        transitions = detect_transitions(0.0, 0.0, (0.8, 1.2), n_coarse=21)
        assert len(transitions) == 1
        assert transitions[0].g_star == pytest.approx(1.0, rel=1e-15)

    def test_no_transition_window(self):
        transitions = detect_transitions(0.1, 0.1, (0.3, 0.6), n_coarse=11)
        assert transitions == []

    def test_first_order_jump_exceeds_noise(self):
        transitions = detect_transitions(0.1, -0.1, (1.0, 1.1), n_coarse=21)
        first = [t for t in transitions if t.order == "first"]
        assert len(first) == 1
        assert first[0].jump > 3.0 * first[0].noise_floor

    def test_each_g_minimized_once(self, monkeypatch):
        calls, minima = [], oracle._minima

        def recording(points):
            calls.append(list(points))
            return minima(calls[-1])

        monkeypatch.setattr(oracle, "_minima", recording)
        for g_range, n_coarse, orders in [((1.0, 1.1), 21, ["first"]),
                                          ((0.9, 1.2), 31, ["second", "first"])]:
            calls.clear()
            transitions = detect_transitions(0.1, -0.1, g_range, n_coarse=n_coarse)
            assert [t.order for t in transitions] == orders
            seen = [p for points in calls for p in points]
            assert len(seen) == len(set(seen))
            # the coarse scan is one stacked call
            assert len(calls[0]) == n_coarse
            # each step of the one g_L root probes one point; the onset root
            # needs no minimisation
            assert 1 <= len(calls) - 3 <= 8
            assert [len(points) for points in calls[1:-2]] == [1] * (len(calls) - 3)
            # one stacked label call of g_star -+ 5e-8 confirms every root
            assert len(calls[-2]) <= 2 * len(orders)
            assert [sum(abs(p.g - t.g_star) < 1e-7 for p in calls[-2])
                    for t in transitions] == [2] * len(orders)
            # the order tests are one stacked call of 10 distinct g per
            # transition, all within 6h = 6e-4 of it: the h and 2h stencils
            # share g_star +- 2h
            assert len(calls[-1]) == 10 * len(orders)
            assert [sum(abs(p.g - t.g_star) < 1e-3 for p in calls[-1])
                    for t in transitions] == [10] * len(orders)

    def test_branch_crossing_in_a_wide_coarse_cell(self):
        # the coarse minimum of the cell's upper end lies outside |x_n| < g/2
        # at its lower end
        J1, J2 = -0.06123383242021124, 0.09671611718137241
        transitions = detect_transitions(J1, J2, (0.5999448857161498, 1.611693721693544),
                                         n_coarse=5)
        params = ModelParams(g=1.0, J1=J1, J2=J2)
        assert [t.order for t in transitions] == ["second", "first"]
        assert transitions[0].g_star == pytest.approx(critical_couplings(params).g_c_plus,
                                                      abs=1e-9)
        assert transitions[1].g_star == pytest.approx(first_order_point(params), abs=1e-9)

    @pytest.mark.parametrize("J, above, g_min, probes", [
        *(pytest.param(J, above, None, probes, id=f"{above}-{J}")
          for above, probes in ((1e-9, 1), (1e-7, 2)) for J in (0.1, -0.1)),
        # windows that end at the node, just above g_c = 0.9
        *(pytest.param(0.1, above, 0.85, probes, id=f"0.85-{above}-0.1")
          for above, probes in ((1e-9, 1), (1e-7, 2))),
    ])
    def test_coarse_node_just_above_onset(self, monkeypatch, J, above, g_min, probes):
        # the node g_c + above, the middle one of a window of +-0.01 or the
        # top one of (g_min, g_c + above), is labelled superradiant (its
        # max|x| is at least 3e-5), so the onset cell is the one below it.
        # Its root, of the curvature at x = 0, needs no minimisation; the
        # probe 5e-8 above it is clipped to the node when that lies 1e-9
        # above g_c, and takes the node's coarse label
        g_c = critical_couplings(ModelParams(g=1.0, J1=J, J2=J)).g_c
        node = g_c + above
        calls, minima = [], oracle._minima

        def recording(points):
            calls.append(list(points))
            return minima(calls[-1])

        monkeypatch.setattr(oracle, "_minima", recording)
        g_range = (node - 0.01, node + 0.01) if g_min is None else (g_min, node)
        transitions = detect_transitions(J, J, g_range, n_coarse=3)
        assert [t.order for t in transitions] == ["second"]
        assert transitions[0].g_star == pytest.approx(g_c, abs=2e-7)
        # the coarse scan, the label confirmation and the order test
        assert [len(points) for points in calls] == [3, probes, 10]
        seen = [p for points in calls for p in points]
        assert len(seen) == len(set(seen))

    @staticmethod
    def _recorded_onset(monkeypatch, J, g_range):
        # the line's transitions, with the points of each stacked call
        calls, minima = [], oracle._minima

        def recording(points):
            calls.append(list(points))
            return minima(calls[-1])

        monkeypatch.setattr(oracle, "_minima", recording)
        return detect_transitions(J, J, g_range, n_coarse=21), calls

    def test_onset_on_a_coarse_node_takes_the_root_path(self, monkeypatch):
        # g_c = 0.9 is the lower end of the onset cell, labelled NP, where the
        # curvature at x = 0 is -2.9e-16; it counts as +0 there, so the node
        # is the zero end of its cell and the cell's root, which the labels
        # confirm: the coarse scan, the probe above and the order test
        g_c = critical_couplings(ModelParams(g=1.0, J1=0.1, J2=0.1)).g_c
        transitions, calls = self._recorded_onset(monkeypatch, 0.1, (0.7, 1.1))
        assert [t.order for t in transitions] == ["second"]
        assert transitions[0].g_star == pytest.approx(g_c, rel=1e-15)
        assert len(calls) == 3

    def test_onset_on_a_coarse_node_with_degenerate_branches_above(self, monkeypatch):
        # on J = 0, g_c = 1 is the lower end of the onset cell, where the
        # curvature at x = 0 is exactly 0, so the node is the cell's root.
        # B = 0 at every g, and the probe above reads FSP where the cell's
        # upper end reads NSP: the onset still holds, and the sub-cell above
        # it has degenerate branches at both ends, so it holds no transition
        g_c = critical_couplings(ModelParams(g=1.0, J1=0.0, J2=0.0)).g_c
        transitions, calls = self._recorded_onset(monkeypatch, 0.0, (0.8, 1.2))
        assert [t.order for t in transitions] == ["second"]
        assert transitions[0].g_star == pytest.approx(g_c, rel=1e-15)
        assert len(calls) == 3

    @pytest.mark.parametrize("g_range, n_coarse, expected", [
        ((0.9999, 1.0005), 7, [(1.0, "second")]),
        ((1.00001, 1.001), 23, []),
    ])
    def test_degenerate_branches_hold_no_transition(self, g_range, n_coarse, expected):
        # on J1 = J2 = 0, B = 0 and all 8 patterns are degenerate above
        # g_c = 1, so the labels of the coarse nodes there flip between FSP
        # and NSP; their branch gap is 0 at both ends of such a cell
        transitions = detect_transitions(0.0, 0.0, g_range, n_coarse=n_coarse)
        assert [(t.g_star, t.order) for t in transitions] == expected

    @pytest.mark.parametrize("J", [1e-8, 1e-9])
    def test_weakly_coupled_lines_keep_g_L(self, J):
        # the branch gap of the cell that holds g_L changes sign within the
        # refine tolerance of zero at both ends (-6.9e-11 and +6.3e-11 at J =
        # 1e-8), so the cell is kept; the oracle resolves g_L to about 3e-8
        J1, J2 = J, -1.2 * J
        params = ModelParams(g=1.0, J1=J1, J2=J2)
        transitions = detect_transitions(J1, J2, (0.9, 1.2), n_coarse=31)
        assert [t.g_star for t in transitions] == [
            pytest.approx(critical_couplings(params).g_c, rel=0.0, abs=1e-7),
            pytest.approx(first_order_point(params), rel=0.0, abs=1e-7)]

    def test_seeded_lines_report_their_closed_form_transitions(self):
        # lines across all six regions, from below g_c to above g_L where it
        # exists, so both kinds of indicator are met; on the first line one
        # coarse cell holds both g_c_minus and g_L, and it is split
        rng = np.random.default_rng(27)
        order_of = {name: order for name, order, _ in TRANSITIONS.values()}
        orders = set()
        for _ in range(20):
            J1, J2 = (float(v) for v in rng.uniform(-0.45, 0.45, 2))
            params = ModelParams(g=1.0, J1=J1, J2=J2)
            couplings, g_L = critical_couplings(params), first_order_point(params)
            g_c = couplings.g_c
            top = g_L if g_L is not None and g_L > g_c else g_c
            g_range = (g_c * rng.uniform(0.7, 0.98), top * rng.uniform(1.02, 1.3))
            n_coarse = int(rng.choice([5, 9]))
            transitions = detect_transitions(J1, J2, g_range, n_coarse=n_coarse)
            want = [(g_c, order_of["g_c_plus" if g_c == couplings.g_c_plus else "g_c_minus"])]
            if top == g_L:
                want.append((g_L, order_of["g_L"]))
            assert [t.order for t in transitions] == [order for _, order in want]
            for t, (g_star, _) in zip(transitions, want):
                assert t.g_star == pytest.approx(g_star, rel=0.0, abs=5e-15)
            orders.update(t.order for t in transitions)
        assert orders == {"first", "second"}

    def test_oracle_line_takes_the_root_path_in_few_stacked_calls(self, monkeypatch):
        from importlib.util import module_from_spec, spec_from_file_location
        from pathlib import Path

        spec = spec_from_file_location(
            "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
        workloads = module_from_spec(spec)
        spec.loader.exec_module(workloads)
        calls, minima = [], oracle._minima

        def recording(points):
            calls.append(len(points))
            return minima(points)

        monkeypatch.setattr(oracle, "_minima", recording)
        for seed in range(8):
            cfg = workloads.oracle_config(seed)
            calls.clear()
            transitions = detect_transitions(cfg["J1"], cfg["J2"], cfg["g"],
                                             n_coarse=cfg["n_coarse"])
            assert [t.order for t in transitions] == ["second", "first"]
            assert len(calls) <= 11

    @pytest.mark.parametrize("name, fault, g_range, g_x, message", [
        # the onset root moves below the labels' onset, where both read NP
        pytest.param("_onset_curvature", lambda f: lambda p: f(p) - 0.05, (0.9, 1.2), "g_c",
                     "the labels do not confirm the root", id="unconfirmed"),
        pytest.param("_onset_curvature", lambda f: lambda p: np.abs(f(p)) + 1.0, (0.9, 1.2),
                     "g_c", "the indicator brackets no root", id="no-sign-change"),
        # a NaN end brackets nothing
        pytest.param("_branch_gap", lambda f: lambda p, m: np.full(len(p), np.nan), (1.0, 1.1),
                     "g_L", "the indicator brackets no root", id="nan-end"),
    ])
    def test_unconfirmed_or_unbracketed_cell_raises(self, monkeypatch, name, fault, g_range,
                                                    g_x, message):
        monkeypatch.setattr(oracle, name, fault(getattr(oracle, name)))
        params = ModelParams(g=1.0, J1=0.1, J2=-0.1)
        g_x = critical_couplings(params).g_c if g_x == "g_c" else first_order_point(params)
        gs = np.linspace(*g_range, 31).tolist()
        k = np.searchsorted(gs, g_x)
        cell = f"in the cell ({gs[k - 1]!r}, {gs[k]!r})"
        with pytest.raises(ConvergenceError, match=re.escape(message) + ".* " + re.escape(cell)):
            detect_transitions(0.1, -0.1, g_range, n_coarse=31)

    def test_order_stencil_stays_above_zero_near_a_tiny_onset(self):
        # g_c = 2e-4 lies below six default derivative steps; here max|x| is
        # about 2e-4 sqrt(g - g_c), and the label's tolerance of 1e-7 g/2 =
        # 1e-11 flips it 2.5e-15 above g_c, so g_star lies within about one
        # bisection width of g_c
        J = -0.4999
        g_c = critical_couplings(ModelParams(g=1.0, J1=J, J2=J)).g_c
        transitions = detect_transitions(J, J, (1e-5, 0.01), n_coarse=11)
        assert len(transitions) == 1
        assert transitions[0].order in ("second", "inconclusive")
        assert transitions[0].g_star == pytest.approx(g_c, abs=2e-7)

    @pytest.mark.parametrize("g_range", [
        (1.2, 0.9), (1.0, 1.0), (math.nan, 1.2), (0.9, math.inf), (-math.inf, 1.2),
    ])
    def test_rejects_reversed_empty_or_nonfinite_range(self, g_range):
        with pytest.raises(ValueError, match="finite g_min < g_max"):
            detect_transitions(0.1, -0.1, g_range, n_coarse=5)


    @pytest.mark.parametrize("n_coarse", [0, 1, -3, 2.0, 21.5, "21", None])
    def test_rejects_fewer_than_two_or_non_integer_coarse_points(self, n_coarse):
        with pytest.raises(ValueError, match="n_coarse"):
            detect_transitions(0.1, -0.1, (0.9, 1.2), n_coarse=n_coarse)

    def test_two_coarse_points_and_numpy_integers_are_accepted(self):
        assert detect_transitions(0.1, 0.1, (0.3, 0.6), n_coarse=2) == []
        assert detect_transitions(0.1, 0.1, (0.3, 0.6), n_coarse=np.int64(3)) == []


def _full_grid_candidates(params, n):
    """The seeds of oracle._candidates from the whole n^3 grid: the same
    float expression, its grid-local minima by scipy's minimum filter (none
    next to a NaN), in C order, or the _MAX_CANDIDATES lowest by energy."""
    from scipy.ndimage import maximum_filter, minimum_filter

    from dicke_trimer.meanfield import _coefficients

    g, C, B = _coefficients(params)
    x = np.linspace(-0.5 * g, 0.5 * g, n + 2)[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = C * x * x - 0.5 * np.sqrt(1.0 - 4.0 * x * x / (g * g))
        o = np.multiply.outer(x, x)
        E = (((q[:, None, None] + q[None, :, None]) + q)
             + (((o[:, :, None] + o[None, :, :]) + o[:, None, :]) * (2.0 * B)))
    nan_near = maximum_filter(np.isnan(E).astype(np.int8), size=3, mode="nearest") > 0
    flat = np.flatnonzero((E <= minimum_filter(E, size=3, mode="nearest")) & ~nan_near)
    if len(flat) > oracle._MAX_CANDIDATES:
        flat = flat[np.argsort(E.reshape(-1)[flat])[:oracle._MAX_CANDIDATES]]
    return x[np.stack(np.unravel_index(flat, E.shape), axis=-1)], E


def _assert_same_seeds(params, n):
    """oracle._candidates equals the full-grid reference bitwise; returns the
    reference grid."""
    expected, E = _full_grid_candidates(params, n)
    found = oracle._candidates(params, n)
    assert found.shape == expected.shape
    assert np.array_equal(found.view(np.int64), expected.view(np.int64))
    return E


class TestGridMinima:
    def test_matches_the_full_grid_on_random_draws(self):
        rng = np.random.default_rng(300)
        for n in [3, 4, 41] + rng.integers(3, 42, 37).tolist():
            J1, J2 = rng.uniform(-0.4999999, 0.4999999, 2)
            _assert_same_seeds(ModelParams(g=10.0 ** rng.uniform(-3.0, 4.0), J1=J1, J2=J2), n)

    @pytest.mark.parametrize("name", ["g_c", "g_c_plus", "g_c_minus", "g_L"])
    def test_matches_the_full_grid_near_transitions(self, name):
        base = ModelParams(g=1.0, J1=0.3, J2=-0.3)
        g_x = first_order_point(base) if name == "g_L" else getattr(critical_couplings(base), name)
        for offset in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
            for sign in (-1.0, 1.0):
                _assert_same_seeds(base.replace(g=g_x * (1.0 + sign * offset)), 41)

    def test_matches_the_full_grid_with_exact_ties(self):
        # B = 0 makes E a sum of three q, equal at the permutations of a site;
        # the frustrated orbits tie where x_i x_j and q_i + q_j commute.  On
        # the last three grids half of the six tied minima fail a prefilter
        # without margin
        ties = 0
        for params, n in [(ModelParams(g=g, J1=0.0, J2=0.0), n)
                          for g in (0.5, 1.0, 2.0) for n in (3, 4, 6, 41)] + [
                          (ModelParams(g=1.3, J1=0.2, J2=0.1), 41),
                          (ModelParams(g=0.7328, J1=0.4849, J2=0.1003), 41),
                          (ModelParams(g=0.5300373562675477, J1=-0.09585222890882705,
                                       J2=0.30354644114054186), 4),
                          (ModelParams(g=0.8579521137773374, J1=-0.07794451338281422,
                                       J2=0.32150297218341006), 4),
                          (ModelParams(g=0.18983277944467544, J1=-0.4506069684871351,
                                       J2=0.1472927259435557), 22)]:
            E = _assert_same_seeds(params, n)
            seeds, _ = _full_grid_candidates(params, n)
            x = np.linspace(-0.5 * params.g, 0.5 * params.g, n + 2)[1:-1]
            values = [E[tuple(np.searchsorted(x, s))] for s in seeds]
            ties += len(values) - len(set(values))
        assert ties > 0

    @pytest.mark.parametrize("g", [1e153, 1e154, 1.3e154, 1.5e154, 2e154, 1e155, 1e200, 1e308])
    def test_matches_the_full_grid_where_the_energy_overflows(self, g):
        for J1, J2 in ((0.1, -0.1), (0.1, 0.1), (0.0, 0.0)):
            _assert_same_seeds(ModelParams(g=g, J1=J1, J2=J2), 41)

    @pytest.mark.parametrize("cap", [14, 3])
    def test_capped_seeds_match_the_full_grid(self, monkeypatch, cap):
        monkeypatch.setattr(oracle, "_MAX_CANDIDATES", cap)
        # 28 grid-local minima at the first point
        _assert_same_seeds(ModelParams(g=0.7328, J1=0.4849, J2=0.1003), 41)
        rng = np.random.default_rng(302)
        for _ in range(10):
            J1, J2 = rng.uniform(-0.45, 0.45, 2)
            _assert_same_seeds(ModelParams(g=rng.uniform(0.3, 3.0), J1=J1, J2=J2), 41)

    def test_builds_no_grid(self):
        import tracemalloc

        params = ModelParams(g=1.1, J1=0.1, J2=-0.1)
        oracle._candidates(params, 41)
        tracemalloc.start()
        try:
            oracle._candidates(params, 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 grid of 41^3 points is 551 kB
        assert peak < 41**3 * 8 // 2


def test_import_leaves_scipy_ndimage_and_optimize_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    import dicke_trimer

    src = str(Path(dicke_trimer.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import dicke_trimer; "
            "print([m for m in ('scipy.ndimage', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def fresh_import_run():
    """One fresh interpreter: sweep, roots and oracle calls, then the count of
    transitions found and the sorted names of the loaded scipy modules."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    import dicke_trimer

    src = str(Path(dicke_trimer.__file__).resolve().parents[1])
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import dicke_trimer as d; "
            "from dicke_trimer.sweep import Axis, boundary_intersection, sweep_phase_diagram; "
            "grid = sweep_phase_diagram(Axis('g', 0.95, 1.05, 5), "
            "Axis('J2', -0.12, -0.06, 4), fixed={'J1': 0.1}); "
            "boundary_intersection(grid, 'g_c_minus', 'g_L'); "
            "d.root_structure(d.ModelParams(g=1.2, J1=0.1, J2=0.1), 0.5); "
            "d.brute_force_minimize(d.ModelParams(g=1.1, J1=0.1, J2=0.1)); "
            "t = d.detect_transitions(0.1, 0.1, (0.85, 0.95), n_coarse=3); "
            "print(json.dumps([len(t), sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')]))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    n_transitions, scipy_modules = json.loads(out.stdout)
    return n_transitions, scipy_modules


def test_oracle_leaves_scipy_optimize_unloaded(fresh_import_run):
    n_transitions, scipy_modules = fresh_import_run
    assert n_transitions == 1
    assert "scipy.optimize" not in scipy_modules


def test_sweep_roots_and_oracle_load_no_scipy(fresh_import_run):
    assert fresh_import_run[1] == []
