"""Command line interface: flags, exit codes, artifacts."""

import json
import warnings

import pytest

from dicke_trimer import __version__, verify
from dicke_trimer.cli import main
from dicke_trimer.meanfield import ConvergenceError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _raising(exc):
    def run_scope(scope):
        raise exc
    return run_scope


class TestSolve:
    def test_fsp_point(self, capsys):
        code, out, _ = run(capsys, "solve", "--g", "1.1", "--j1", "0.1",
                           "--j2", "0.1")
        assert code == 0
        assert "phase: FSP" in out
        assert "degeneracy 6" in out
        assert __version__ in out

    def test_np_point(self, capsys):
        code, out, _ = run(capsys, "solve", "--g", "0.5", "--j1", "0",
                           "--j2", "0")
        assert code == 0
        assert "phase: NP" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "solve", "--g", "1.1", "--j1", "0.1",
                           "--j2", "0.1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["phase"] == "FSP"
        assert doc["degeneracy"] == 6
        assert doc["version"] == __version__
        assert len(doc["spectrum"]) == 6

    def test_invalid_hopping_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--g", "1.0", "--j1", "0.6")
        assert code == 2
        payload = json.loads(err.strip().splitlines()[-1])
        assert "(-1/2, 1/2)" in payload["error"]

    @pytest.mark.parametrize("g", ["0", "1e-200"])
    def test_undefined_b_tilde_exits_2(self, capsys, g):
        # g * g == 0: the solve raises "B_tilde is undefined", an invalid parameter
        code, _, err = run(capsys, "solve", "--g", g, "--j1", "0.1", "--j2", "0.1")
        assert code == 2
        payload = json.loads(err.strip())
        assert payload["kind"] == "ParameterError" and "B_tilde" in payload["error"]

    def test_nonfinite_b_tilde_exits_2(self, capsys):
        # g * g is a tiny nonzero float, J2/(g * g) overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--g", "1e-160", "--j2", "0.1")
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["kind"] == "ParameterError"
        assert payload["error"].startswith("B_tilde is undefined")

    def test_overflowing_g_exits_1(self, capsys):
        code, out, err = run(capsys, "solve", "--g", "1e308", "--j1", "0.1", "--j2", "0.1")
        assert code == 1 and out == ""
        (line,) = err.strip().splitlines()
        assert json.loads(line)["kind"] == "DomainError"

    def test_region_in_report(self, capsys):
        _, out, _ = run(capsys, "solve", "--g", "1.0", "--j1", "0.1",
                        "--j2", "-0.1")
        assert "hopping region:   6" in out


GRID_X = {"name": "g", "min": 0.9, "max": 1.1, "steps": 5}
GRID_Y = {"name": "J2", "min": -0.2, "max": -0.05, "steps": 3}
LINE = {"mode": "line", "J1": 0.1, "J2": 0.1, "g_min": 0.9, "g_max": 1.1, "g_steps": 5}


class TestSweep:
    def test_line_from_config(self, capsys, tmp_path):
        out_file = tmp_path / "line.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "line", "J1": 0.1, "J2": -0.1,
            "g_min": 0.9, "g_max": 1.1, "g_steps": 21,
            "output": str(out_file), "format": "csv",
        }))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out_file.exists()
        assert "NP -> NSP" in out and "NSP -> FSP" in out

    def test_phase_change_skips_failed_records(self, capsys, tmp_path):
        # the g = 0 record fails (B_tilde is undefined there); the change is
        # reported at the first FSP point, g = 1.0, not at the NP point before it
        code, out, _ = run(capsys, "sweep", "--mode", "line", "--j1", "0.1", "--j2", "0.1",
                           "--g-min", "0", "--g-max", "2", "--g-steps", "21",
                           "--output", str(tmp_path / "line.csv"))
        assert code == 1 and "1 failed" in out
        assert "phase change NP -> FSP near g = 1.000000" in out

    def test_flags_override_config(self, capsys, tmp_path):
        out_file = tmp_path / "line.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "line", "J1": 0.1, "J2": 0.1,
            "g_min": 0.7, "g_max": 1.0, "g_steps": 5, "format": "csv",
        }))
        code, _, _ = run(capsys, "sweep", "--config", str(cfg),
                         "--format", "json", "--output", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["metadata"]["J1"] == 0.1
        assert len(doc["records"]) == 5

    def test_line_json_records_frequencies(self, capsys, tmp_path):
        # the eps columns depend on omega and Omega, so the metadata names them
        out_file = tmp_path / "line.json"
        code, _, _ = run(capsys, "sweep", "--mode", "line", "--j1", "0.1", "--j2", "0.1",
                         "--g-min", "0.7", "--g-max", "1.0", "--g-steps", "5",
                         "--omega", "2", "--format", "json", "--output", str(out_file))
        assert code == 0
        meta = json.loads(out_file.read_text())["metadata"]
        assert (meta["J1"], meta["J2"], meta["omega"], meta["Omega"]) == (0.1, 0.1, 2.0, 1.0)

    def test_grid_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "grid.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "grid",
            "axis_x": {"name": "g", "min": 0.9, "max": 1.1, "steps": 11},
            "axis_y": {"name": "J2", "min": -0.2, "max": -0.05, "steps": 6},
            "fixed": {"J1": 0.1},
            "output": str(out_file), "format": "json",
        }))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert "boundary" in out
        doc = json.loads(out_file.read_text())
        assert len(doc["cells"]) == 6

    def test_grid_with_failed_cells_writes_csv_and_exits_1(self, capsys, tmp_path):
        # the three g = 0 cells fail: B_tilde is undefined there
        out_file = tmp_path / "grid.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "grid",
            "axis_x": {"name": "g", "min": 0.0, "max": 1.2, "steps": 4},
            "axis_y": {"name": "J2", "min": -0.2, "max": -0.05, "steps": 3},
            "fixed": {"J1": 0.1},
            "output": str(out_file), "format": "csv",
        }))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "3 failed cells" in out
        assert len(out_file.read_text().splitlines()) == 13
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "PartialFailure"
        assert payload["error"] == "3 of 12 cells failed"

    def test_zero_step_axis_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--mode", "line", "--j1", "0.1",
                           "--j2", "0.1", "--g-min", "0.9", "--g-max", "1.0",
                           "--g-steps", "1")
        assert code == 2
        assert "g_steps" in err

    @pytest.mark.parametrize("g_min,g_max", [("0.5", "inf"), ("-inf", "1.0")])
    def test_nonfinite_line_bound_exits_2(self, capsys, g_min, g_max):
        code, out, err = run(capsys, "sweep", "--mode", "line", "--j1", "0.1",
                             "--j2", "0.1", f"--g-min={g_min}", f"--g-max={g_max}",
                             "--g-steps", "3")
        assert code == 2 and not out
        (line,) = err.strip().splitlines()
        assert "must be finite" in json.loads(line)["error"]

    def test_reversed_line_range_accepted(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--mode", "line", "--j1", "0.1",
                           "--j2", "0.1", "--g-min", "1.1", "--g-max", "0.9",
                           "--g-steps", "3", "--output", str(tmp_path / "line.csv"))
        assert code == 0 and "3 points, 0 failed" in out

    def test_reversed_axis_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "grid",
            "axis_x": {"name": "g", "min": 1.1, "max": 0.9, "steps": 41},
            "axis_y": {"name": "J2", "min": -0.2, "max": -0.05, "steps": 6},
            "fixed": {"J1": 0.1},
            "output": str(tmp_path / "grid.json"), "format": "json",
        }))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert payload["kind"] == "ValueError"
        assert "min < max" in payload["error"]
        assert not (tmp_path / "grid.json").exists()

    @pytest.mark.parametrize("config", [
        {"mode": "grid", "axis_x": dict(GRID_X, steps=5.0), "axis_y": GRID_Y},
        {"mode": "grid", "axis_x": dict(GRID_X, points=5), "axis_y": GRID_Y},
        {"mode": "grid", "axis_x": {"name": "g", "min": 0.9, "max": 1.1}, "axis_y": GRID_Y},
        {"mode": "grid", "axis_x": GRID_X, "axis_y": GRID_Y, "fixed": {"j1": 0.1}},
        [{"mode": "line"}],
        dict(LINE, J1="0.1"),
        dict(LINE, ouptut="line.csv"),
        dict(LINE, g_steps=5.7),
        dict(LINE, output=5),
    ], ids=["float-steps", "unknown-axis-key", "missing-axis-key", "unknown-fixed-key",
            "array", "string-number", "misspelt-key", "fractional-g-steps", "int-output"])
    def test_malformed_config_exits_2(self, capsys, tmp_path, monkeypatch, config):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        (line,) = err.strip().splitlines()
        assert json.loads(line)["kind"] in ("ValueError", "KeyError")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("config, kind, message", [
        ({k: v for k, v in LINE.items() if k != "J1"}, "KeyError",
         "line sweep config is missing 'J1'"),
        ({"mode": "grid", "axis_y": GRID_Y}, "KeyError", "grid sweep config is missing 'axis_x'"),
        (dict(LINE, format="xml"), "ValueError", "format must be 'csv' or 'json'"),
    ], ids=["line-without-J1", "grid-without-axis_x", "xml-format"])
    def test_missing_key_or_unknown_format_exits_2(self, capsys, tmp_path, monkeypatch, config,
                                                    kind, message):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert out == ""
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert payload["kind"] == kind
        assert message in payload["error"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_missing_mode_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2


class TestVerify:
    def test_formulas_scope(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "formulas")
        assert code == 0
        assert out.count("[PASS]") >= 5
        assert "[FAIL]" not in out

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(verify, "run_scope", _raising(TypeError("bug")))
        with pytest.raises(TypeError):
            main(["verify", "--scope", "formulas"])

    def test_convergence_error_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_scope",
                            _raising(ConvergenceError("no minimum")))
        code, out, err = run(capsys, "verify", "--scope", "formulas")
        assert code == 1
        assert out == ""
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["kind"] == "ConvergenceError"
        assert payload["error"] == "no minimum"

    def test_unknown_scope_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scope", "everything"])
        assert exc.value.code == 2

    def test_unknown_scope_raises_in_process(self):
        with pytest.raises(ValueError, match="unknown scope 'everything'"):
            verify.run_scope("everything")


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
