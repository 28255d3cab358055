"""Line/grid sweeps, boundary extraction and file round-trips."""

import csv
import json
import math

import numpy as np
import pytest

from dicke_trimer import sweep
from dicke_trimer.sweep import (
    Axis,
    PhaseDiagramGrid,
    boundary_intersection,
    read_grid_json,
    read_line_csv,
    sweep_g_line,
    sweep_phase_diagram,
    write_grid_csv,
    write_grid_json,
    write_line_csv,
    write_line_json,
)


@pytest.fixture(scope="module")
def region6_line():
    return sweep_g_line(0.1, -0.1, np.linspace(0.9, 1.1, 21))


@pytest.fixture(scope="module")
def g_j2_grid():
    return sweep_phase_diagram(
        Axis("g", 0.9, 1.1, 21), Axis("J2", -0.2, -0.02, 16), fixed={"J1": 0.1})


class TestLineSweep:
    def test_phase_sequence(self, region6_line):
        phases = [r["phase"] for r in region6_line]
        seq = [p for i, p in enumerate(phases) if i == 0 or p != phases[i - 1]]
        assert seq == ["NP", "NSP", "FSP"]

    def test_no_failures(self, region6_line):
        assert all(not r["error"] for r in region6_line)

    def test_np_rows(self, region6_line):
        for r in region6_line:
            if r["phase"] == "NP":
                assert r["energy"] == pytest.approx(-1.5)
                assert r["alpha1"] == r["alpha2"] == r["alpha3"] == 0.0

    def test_b_tilde_column_sign(self, region6_line):
        gL = math.sqrt(1.08)
        for r in region6_line:
            assert (r["B_tilde"] > 0) == (r["g"] > gL)

    def test_spectrum_columns_sorted(self, region6_line):
        for r in region6_line:
            eps = [r[f"eps{i}"] for i in range(1, 7)]
            assert eps == sorted(eps)


class TestGridSweep:
    def test_boundaries_near_closed_forms(self, g_j2_grid):
        assert set(g_j2_grid.boundaries) == {"g_c_minus", "g_c_plus", "g_L"}
        for dev in g_j2_grid.analytic_deviation.values():
            assert dev < 1e-12

    def test_triple_point(self, g_j2_grid):
        crossing = boundary_intersection(g_j2_grid, "g_c_minus", "g_L")
        assert crossing is not None
        g_star, J2_star = crossing
        assert J2_star == pytest.approx(-1.0 / 11.0, abs=1e-3)
        assert g_star == pytest.approx(math.sqrt(1.2 * (1.0 - 2.0 / 11.0)), abs=1e-3)

    def test_cells_shape_and_metadata(self, g_j2_grid):
        assert len(g_j2_grid.cells) == 16
        assert all(len(row) == 21 for row in g_j2_grid.cells)
        assert g_j2_grid.metadata["resolution"] == [21, 16]
        assert "version" in g_j2_grid.metadata

    def test_j1_j2_grid_has_regions(self):
        grid = sweep_phase_diagram(
            Axis("J1", -0.3, 0.3, 4), Axis("J2", -0.3, 0.3, 4), fixed={"g": 1.1})
        regions = {c["region"] for row in grid.cells for c in row}
        assert regions - {None}

    def test_axes_must_differ(self):
        with pytest.raises(ValueError, match="axes must differ"):
            sweep_phase_diagram(Axis("g", 0.9, 1.1, 3), Axis("g", 0.9, 1.1, 3))

    def test_refine_tolerance_is_not_an_option(self):
        # a zero tolerance used to bisect forever; boundary points are
        # indicator roots now, with no width to set
        with pytest.raises(TypeError):
            sweep_phase_diagram(Axis("g", 0.9, 1.1, 5), Axis("J2", -0.2, -0.1, 2),
                                fixed={"J1": 0.1}, refine_tol=0.0)

    def test_parallel_boundaries_do_not_intersect(self):
        ax, ay = Axis("g", 0.9, 1.1, 3), Axis("J2", -0.2, -0.1, 3)
        grid = PhaseDiagramGrid(ax, ay, {}, [], boundaries={
            "a": [(1.0, -0.2), (1.0, -0.15), (1.0, -0.1)],
            "b": [(1.05, -0.2), (1.05, -0.1)]})
        assert boundary_intersection(grid, "a", "b") is None

    @pytest.mark.parametrize("a,b,crossing", [
        # inside a segment of both polylines
        ([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [(0.75, 0.0), (-0.25, 2.0)], (0.5, 0.5)),
        # on the extrapolated end segments, past both polylines
        ([(0.0, 0.0), (1.0, 1.0)], [(3.0, 0.0), (2.0, 1.0)], (1.5, 1.5)),
        # at a breakpoint where the polylines touch without crossing
        ([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)], [(1.0, 0.0), (0.0, 1.0), (1.0, 2.0)], (0.0, 1.0)),
    ])
    def test_exact_crossings(self, a, b, crossing):
        ax, ay = Axis("g", 0.9, 1.1, 3), Axis("J2", -0.2, -0.1, 3)
        grid = PhaseDiagramGrid(ax, ay, {}, [], boundaries={"a": a, "b": b})
        assert boundary_intersection(grid, "a", "b") == crossing

    def test_narrow_phase_inside_a_bracket_keys_the_change_found(self):
        # at J2 = -0.125 the NP and FSP cells at g = 0.8 and 1.2 bracket the
        # NSP phase; the change found from NP is its onset g_c_minus, and the
        # cell from the probe above it to g = 1.2 then holds g_L
        grid = sweep_phase_diagram(Axis("g", 0.0, 1.2, 4), Axis("J2", -0.2, -0.05, 3),
                                   fixed={"J1": 0.1})
        assert [J2 for _, J2 in grid.boundaries["g_c_minus"]] == [-0.2, -0.125]
        assert grid.boundaries["g_c_minus"][1][0] == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert grid.boundaries["g_L"] == [(pytest.approx(math.sqrt(1.35), abs=1e-12), -0.125)]
        assert grid.analytic_deviation["g_c_plus"] < 1e-12
        # on a J2 axis at g = 0.95, J1 = 0.24 the NSP and FSP cells at J2 =
        # -0.21 and -0.18 bracket an NP phase; the branch gap finds its end
        # at g_c_plus, and the cell from J2 = -0.21 to the probe below then
        # holds g_c_minus.  Within about 1e-8 of g_c_plus the gap is an
        # exact zero in floats, so that end is good to the probe width.
        grid = sweep_phase_diagram(Axis("J2", -0.21, -0.18, 2), Axis("J1", 0.24, 0.27, 2),
                                   fixed={"g": 0.95})
        row = {key: [J2 for J2, J1 in points if J1 == 0.24]
               for key, points in grid.boundaries.items()}
        assert row == {"g_c_minus": [pytest.approx(0.5 * (0.9025 / 1.48 - 1.0), abs=1e-12)],
                       "g_c_plus": [pytest.approx(1.0 - 0.9025 / 0.76, abs=1e-7)]}

    def test_failed_probe_files_no_point(self, monkeypatch):
        solve = sweep.solve_ground_states

        def failing_window(points):
            states = solve(points)
            states.label[(0.85 < points.g) & (points.g < 0.98)] = ""
            return states

        monkeypatch.setattr(sweep, "solve_ground_states", failing_window)
        grid = sweep_phase_diagram(Axis("g", 0.0, 1.2, 4), Axis("J2", -0.2, -0.05, 3),
                                   fixed={"J1": 0.1})
        # the roots at J2 = -0.125 and -0.05 fall in the failed window, and
        # a failed probe opens no cell, so the g_L above it is not sought
        assert grid.boundaries == {"g_c_minus": [(pytest.approx(math.sqrt(0.72), abs=1e-12),
                                                  -0.2)]}

    def test_labels_flipping_among_degenerate_minima_open_no_interval(self, monkeypatch):
        # on J1 = J2 = 0 (the J2 = 0 row) all 8 patterns are degenerate
        # above g_c = 1, the branch gap is exactly 0 at the NSP end and the
        # probes read NSP or FSP; a probe that reads one end's phase opens
        # nothing, so the rounds end (a probe that only differs from the end
        # on its side opened 380 rounds here, each 5e-8 narrower)
        solve, calls = sweep.solve_ground_states, []

        def spy(points):
            calls.append(len(points))
            return solve(points)

        monkeypatch.setattr(sweep, "solve_ground_states", spy)
        grid = sweep_phase_diagram(Axis("g", 0.9, 3.0, 3), Axis("J2", -0.1, 0.1, 3),
                                   fixed={"J1": 0.0})
        assert calls == [9, 4, 2]
        assert set(grid.boundaries) == {"g_c_plus"}

    def test_unknown_fixed_key_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown fixed parameter 'j1'; "
                                             "allowed: g, J1, J2, omega, Omega"):
            sweep_phase_diagram(Axis("g", 0.0, 1.2, 4), Axis("J2", -0.2, -0.05, 3),
                                fixed={"j1": 0.1})

    def test_grid_requires_g(self):
        with pytest.raises(ValueError, match="include g"):
            sweep_phase_diagram(Axis("J1", -0.3, 0.3, 3), Axis("J2", -0.3, 0.3, 3))

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis("g", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Axis("volume", 0.0, 1.0, 5)

    @pytest.mark.parametrize("steps", [5.0, 5.7, "5"])
    def test_axis_rejects_non_integer_steps(self, steps):
        with pytest.raises(ValueError, match="integer number of steps"):
            Axis("g", 0.9, 1.1, steps)

    def test_analytic_deviation_matches_closed_forms(self, g_j2_grid):
        J1 = 0.1
        closed_form = {
            "g_c_plus": lambda J2: math.sqrt((1.0 - J1) * (1.0 - J2)),
            "g_c_minus": lambda J2: math.sqrt((1.0 + 2.0 * J1) * (1.0 + 2.0 * J2)),
            "g_L": lambda J2: math.sqrt((-1.0 + J1) * (1.0 + 2.0 * J1) * J2 / J1),
        }
        want = {key: max(abs(g - closed_form[key](J2)) for g, J2 in pts)
                for key, pts in g_j2_grid.boundaries.items()}
        assert g_j2_grid.analytic_deviation == want

    @pytest.mark.parametrize("lo,hi", [
        (1.1, 0.9), (1.0, 1.0), (math.nan, 1.0), (0.9, math.inf), (-math.inf, 1.0),
    ])
    def test_axis_rejects_reversed_empty_or_nonfinite_range(self, lo, hi):
        with pytest.raises(ValueError, match="finite min < max"):
            Axis("g", lo, hi, 41)

    def test_workers_give_same_cells(self):
        kwargs = dict(axis_x=Axis("g", 0.9, 1.1, 5),
                      axis_y=Axis("J2", -0.2, -0.1, 4), fixed={"J1": 0.1})
        serial = sweep_phase_diagram(workers=1, **kwargs)
        parallel = sweep_phase_diagram(workers=2, **kwargs)
        assert serial.cells == parallel.cells


class TestSerialization:
    def test_line_csv_round_trip(self, region6_line, tmp_path):
        path = tmp_path / "line.csv"
        write_line_csv(region6_line, path)
        assert read_line_csv(path) == region6_line

    def test_line_json_metadata(self, region6_line, tmp_path):
        path = tmp_path / "line.json"
        write_line_json(region6_line, path, J1=0.1, J2=-0.1)
        doc = json.loads(path.read_text())
        assert doc["metadata"]["J1"] == 0.1
        assert "version" in doc["metadata"]
        assert len(doc["records"]) == len(region6_line)

    def test_grid_json_round_trip(self, g_j2_grid, tmp_path):
        path = tmp_path / "grid.json"
        write_grid_json(g_j2_grid, path)
        back = read_grid_json(path)
        assert back.cells == g_j2_grid.cells
        assert back.boundaries == g_j2_grid.boundaries
        assert back.axis_x == g_j2_grid.axis_x

    def test_grid_csv_row_count(self, g_j2_grid, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(g_j2_grid, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 21 * 16

    def test_grid_csv_floats_round_trip(self, g_j2_grid, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(g_j2_grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells = [c for row in g_j2_grid.cells for c in row]
        assert len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            row["x"], row["y"] = row.pop("g"), row.pop("J2")
            for col in ("x", "y", "energy", "soft_mode_gap", "B_tilde"):
                assert float(row[col]).hex() == cell[col].hex()
            assert (row["phase"], int(row["degeneracy"]), row["error"]) == \
                (cell["phase"], cell["degeneracy"], cell["error"])

    def test_grid_csv_region_column(self, tmp_path):
        grid = sweep_phase_diagram(
            Axis("J1", -0.3, 0.3, 4), Axis("J2", -0.3, 0.3, 3), fixed={"g": 1.1})
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:2] == ["J1", "J2"] and list(rows[0])[-1] == "region"
        cells = [c for row in grid.cells for c in row]
        assert [r["region"] for r in rows] == \
            ["" if c["region"] is None else str(c["region"]) for c in cells]
        assert {r["region"] for r in rows} - {""}

    def test_deterministic_output(self, region6_line, tmp_path, monkeypatch):
        monkeypatch.setenv("DICKE_TRIMER_TIMESTAMP", "fixed")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_line_json(region6_line, a, J1=0.1, J2=-0.1)
        write_line_json(region6_line, b, J1=0.1, J2=-0.1)
        assert a.read_bytes() == b.read_bytes()
