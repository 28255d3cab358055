"""Command line front end: solve, sweep, verify.

Exit codes: 0 success, 1 computation failure (solver did not converge, a
verification check failed, or >1% of sweep cells errored), 2 invalid
parameters or configuration.  Errors go to stderr as one JSON object per
line so scripts can parse them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .model import (
    ModelParams,
    ParameterError,
    b_tilde,
    classify_region,
    critical_couplings,
)
from .meanfield import ConvergenceError, solve_ground_state
from .spectrum import excitation_spectrum
from .sweep import (
    Axis,
    boundary_intersection,
    sweep_g_line,
    sweep_phase_diagram,
    write_grid_csv,
    write_grid_json,
    write_line_csv,
    write_line_json,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _err(message: str, **extra):
    payload = {"error": message, "version": __version__, **extra}
    print(json.dumps(payload), file=sys.stderr)


def _add_param_flags(parser):
    parser.add_argument("--g", type=float, required=True,
                        help="atom-cavity coupling (rescaled)")
    parser.add_argument("--j1", type=float, default=0.0,
                        help="photon hopping J1, |J1| < 1/2")
    parser.add_argument("--j2", type=float, default=0.0,
                        help="atom hopping J2, |J2| < 1/2")
    parser.add_argument("--omega", type=float, default=1.0,
                        help="cavity frequency (default 1.0)")
    parser.add_argument("--big-omega", type=float, default=1.0,
                        help="atomic frequency (default 1.0)")


def cmd_solve(args) -> int:
    # a ParameterError from the solve, as at g = 0 where B_tilde is
    # undefined, is an invalid parameter too
    try:
        params = ModelParams(g=args.g, J1=args.j1, J2=args.j2,
                             omega=args.omega, Omega=args.big_omega)
        result = solve_ground_state(params)
        state = result.representative
        spec = excitation_spectrum(state.x, params)
    except ParameterError as exc:
        _err(str(exc), kind="ParameterError")
        return EXIT_USAGE
    except (ConvergenceError, ValueError) as exc:
        _err(str(exc), kind=type(exc).__name__)
        return EXIT_FAILURE

    cc = critical_couplings(params)
    region = classify_region(params.J1, params.J2)
    report = {
        "version": __version__,
        "params": {"g": params.g, "J1": params.J1, "J2": params.J2,
                   "omega": params.omega, "Omega": params.Omega},
        "phase": result.label,
        "energy": result.energy,
        "degeneracy": result.degeneracy,
        "coexistent": result.coexistent,
        "alpha": [float(a) for a in state.alpha],
        "x": [float(v) for v in state.x],
        "spectrum": [float(e) for e in spec.energies],
        "soft_mode_gap": spec.soft_mode_gap,
        "B_tilde": b_tilde(params),
        "g_c": cc.g_c, "g_c_plus": cc.g_c_plus, "g_c_minus": cc.g_c_minus,
        "region": region.region if not region.boundary else None,
        "region_boundary": region.boundary,
    }
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(f"dicke-trimer {__version__}")
        print(f"g={params.g}  J1={params.J1}  J2={params.J2}  "
              f"omega={params.omega}  Omega={params.Omega}")
        print(f"phase: {report['phase']}  (degeneracy {report['degeneracy']}"
              + (", coexistent" if result.coexistent else "") + ")")
        print(f"energy per site:  {result.energy:+.12f}")
        print(f"coherences alpha: " + "  ".join(f"{a:+.9f}" for a in report["alpha"]))
        print(f"spectrum:         " + "  ".join(f"{e:.9f}" for e in report["spectrum"]))
        print(f"soft-mode gap:    {report['soft_mode_gap']:.9f}")
        print(f"B_tilde:          {report['B_tilde']:+.9f}")
        print(f"critical points:  g_c={cc.g_c:.9f}  "
              f"(g_c+={cc.g_c_plus:.9f}, g_c-={cc.g_c_minus:.9f})")
        if report["region"] is not None:
            print(f"hopping region:   {report['region']}")
        else:
            print("hopping region:   boundary between "
                  + " and ".join(map(str, region.adjacent)))
    return EXIT_OK


_AXIS = {"name": str, "min": float, "max": float, "steps": int}
#: the keys a sweep config may hold, each with the type of its value (an int
#: is a float too, a bool is neither) or, for a nested object, its own keys
_CONFIG = {
    "mode": str, "output": str, "format": str,
    "J1": float, "J2": float, "omega": float, "Omega": float,
    "g_min": float, "g_max": float, "g_steps": int,
    "axis_x": _AXIS, "axis_y": _AXIS,
    "fixed": dict.fromkeys(("g", "J1", "J2", "omega", "Omega"), float),
}


def _check_config(obj, schema=_CONFIG, where="config"):
    """Raise ValueError unless obj is a JSON object whose keys are all in
    schema and whose values have their types."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    for key, value in obj.items():
        kind = schema.get(key)
        if kind is None:
            raise ValueError(f"unknown key {key!r} in {where}")
        if isinstance(kind, dict):
            _check_config(value, kind, f"{where}.{key}")
        elif isinstance(value, bool) or not isinstance(
                value, (int, float) if kind is float else kind):
            raise ValueError(f"{where}.{key} must be of type {kind.__name__}, got {value!r}")


def _load_sweep_config(args) -> dict:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        _check_config(config)
    # flags override config-file values
    overrides = {
        "mode": args.mode, "output": args.output, "format": args.format,
        "J1": args.j1, "J2": args.j2,
        "omega": args.omega, "Omega": args.big_omega,
        "g_min": args.g_min, "g_max": args.g_max, "g_steps": args.g_steps,
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    config.setdefault("format", "csv")
    config.setdefault("omega", 1.0)
    config.setdefault("Omega", 1.0)
    return config


def _sweep_line(config) -> int:
    for key in ("J1", "J2", "g_min", "g_max", "g_steps"):
        if key not in config:
            raise KeyError(f"line sweep config is missing '{key}'")
    if config["g_steps"] < 2:
        raise ValueError("g_steps must be at least 2")
    if not (math.isfinite(config["g_min"]) and math.isfinite(config["g_max"])):
        raise ValueError(f"g_min and g_max must be finite, got "
                         f"{config['g_min']} and {config['g_max']}")
    gs = np.linspace(config["g_min"], config["g_max"], config["g_steps"])
    records = sweep_g_line(config["J1"], config["J2"], gs,
                           omega=config["omega"], Omega=config["Omega"])
    output = config.get("output", "sweep_line." + config["format"])
    if config["format"] == "csv":
        write_line_csv(records, output)
    else:
        write_line_json(records, output, J1=config["J1"], J2=config["J2"],
                        omega=config["omega"], Omega=config["Omega"])

    failed = [r for r in records if r["error"]]
    solved = [r for r in records if r["phase"]]
    switches = [(b["g"], a["phase"], b["phase"])
                for a, b in zip(solved, solved[1:]) if a["phase"] != b["phase"]]
    print(f"dicke-trimer {__version__}: line sweep, {len(records)} points, "
          f"{len(failed)} failed -> {output}")
    for g, a, b in switches:
        print(f"  phase change {a} -> {b} near g = {g:.6f}")
    if len(failed) > 0.01 * len(records):
        _err(f"{len(failed)} of {len(records)} points failed",
             kind="PartialFailure")
        return EXIT_FAILURE
    return EXIT_OK


def _sweep_grid(config) -> int:
    for key in ("axis_x", "axis_y"):
        if key not in config:
            raise KeyError(f"grid sweep config is missing '{key}'")
        for field in _AXIS:
            if field not in config[key]:
                raise KeyError(f"grid sweep config is missing '{key}.{field}'")
    axis_x = Axis(**config["axis_x"])
    axis_y = Axis(**config["axis_y"])
    fixed = dict(config.get("fixed", {}))
    fixed.setdefault("omega", config["omega"])
    fixed.setdefault("Omega", config["Omega"])
    grid = sweep_phase_diagram(axis_x, axis_y, fixed=fixed)
    output = config.get("output", "sweep_grid." + config["format"])
    if config["format"] == "csv":
        write_grid_csv(grid, output)
    else:
        write_grid_json(grid, output)

    flat = [c for row in grid.cells for c in row]
    failed = [c for c in flat if c["error"]]
    print(f"dicke-trimer {__version__}: grid sweep "
          f"{axis_x.name} x {axis_y.name} ({axis_x.steps}x{axis_y.steps}), "
          f"{len(failed)} failed cells -> {output}")
    for key, pts in grid.boundaries.items():
        line = f"  boundary {key}: {len(pts)} points"
        if key in grid.analytic_deviation:
            line += f", max deviation from closed form {grid.analytic_deviation[key]:.2e}"
        print(line)
    crossing = boundary_intersection(grid, "g_c_minus", "g_L")
    if crossing is not None:
        print(f"  triple point near ({crossing[0]:.6f}, {crossing[1]:.6f})")
    if len(failed) > 0.01 * len(flat):
        _err(f"{len(failed)} of {len(flat)} cells failed", kind="PartialFailure")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        config = _load_sweep_config(args)
        mode = config.get("mode")
        if mode not in ("line", "grid"):
            raise ValueError("config must set mode to 'line' or 'grid'")
        if config["format"] not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if mode == "line":
            return _sweep_line(config)
        return _sweep_grid(config)
    except (KeyError, ValueError, ParameterError, OSError) as exc:
        _err(str(exc), kind=type(exc).__name__)
        return EXIT_USAGE


def cmd_verify(args) -> int:
    from .verify import run_scope

    try:
        results = run_scope(args.scope)
    except (ConvergenceError, ValueError) as exc:
        _err(str(exc), kind=type(exc).__name__)
        return EXIT_FAILURE
    print(f"dicke-trimer {__version__}: verify --scope {args.scope}")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-trimer",
        description="Mean-field phases, spectra and phase diagram of a "
                    "three-site Dicke lattice with photon and atom hopping.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single parameter point")
    _add_param_flags(p_solve)
    p_solve.add_argument("--json", action="store_true",
                         help="emit the report as JSON on stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a g-line or 2-D grid sweep")
    p_sweep.add_argument("--config", help="JSON config file")
    p_sweep.add_argument("--mode", choices=("line", "grid"))
    p_sweep.add_argument("--output", help="output file path")
    p_sweep.add_argument("--format", choices=("csv", "json"))
    p_sweep.add_argument("--j1", type=float, dest="j1")
    p_sweep.add_argument("--j2", type=float, dest="j2")
    p_sweep.add_argument("--omega", type=float)
    p_sweep.add_argument("--big-omega", type=float, dest="big_omega")
    p_sweep.add_argument("--g-min", type=float)
    p_sweep.add_argument("--g-max", type=float)
    p_sweep.add_argument("--g-steps", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--scope", default="all",
                          choices=("formulas", "oracle", "spectrum", "all"))
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
