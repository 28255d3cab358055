"""Parameter sweeps, boundary extraction and CSV/JSON serialization.

Two sweep geometries are supported: a line in g at fixed hoppings, and a
two-dimensional grid in either the (g, J2) or the (J1, J2) plane.  Floats are
serialized with 17 significant digits so that write-then-read round-trips are
bit exact.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import (
    FSP,
    NP,
    NSP,
    ModelParams,
    b_tilde,
    classify_region,
    critical_couplings,
    first_order_point,
)
from .meanfield import ConvergenceError, solve_ground_state
from .spectrum import build_quadratic, symplectic_eigenvalues

CSV_COLUMNS = (
    "g", "J1", "J2", "phase", "energy",
    "alpha1", "alpha2", "alpha3",
    "eps1", "eps2", "eps3", "eps4", "eps5", "eps6",
    "B_tilde", "degeneracy", "error",
)


def _timestamp() -> str:
    # overridable for byte-identical reruns (determinism contract)
    return os.environ.get("DICKE_TRIMER_TIMESTAMP", "")


def _point_record(params: ModelParams):
    """Solve one parameter point and its spectrum into a record dict."""
    rec = {"g": params.g, "J1": params.J1, "J2": params.J2,
           "B_tilde": b_tilde(params), "error": ""}
    try:
        result = solve_ground_state(params)
        state = result.representative
        spec = symplectic_eigenvalues(build_quadratic(state, params))
        rec.update(
            phase=result.label,
            energy=result.energy,
            degeneracy=result.degeneracy,
            **{f"alpha{i+1}": float(state.alpha[i]) for i in range(3)},
            **{f"eps{i+1}": float(spec.energies[i]) for i in range(6)},
        )
    except (ConvergenceError, ValueError) as exc:  # recorded per point, not fatal
        rec.update(phase="", energy=math.nan, degeneracy=0,
                   **{f"alpha{i+1}": math.nan for i in range(3)},
                   **{f"eps{i+1}": math.nan for i in range(6)})
        rec["error"] = f"{type(exc).__name__}: {exc}"
    return rec


def sweep_g_line(J1, J2, g_values, omega=1.0, Omega=1.0):
    """Solve every g on a line; each point is solved independently."""
    return [_point_record(ModelParams(g=float(g), J1=J1, J2=J2, omega=omega, Omega=Omega))
            for g in np.atleast_1d(np.asarray(g_values, dtype=float))]


# ---------------------------------------------------------------------------
# 2-D phase diagram

@dataclass(frozen=True)
class Axis:
    name: str  # "g", "J1" or "J2"
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("axis needs at least 2 steps")
        if self.name not in ("g", "J1", "J2"):
            raise ValueError(f"unknown axis name {self.name!r}")

    def values(self):
        return np.linspace(self.min, self.max, self.steps)


@dataclass
class PhaseDiagramGrid:
    """A filled 2-D scan: per-cell phase summaries plus boundary polylines.

    boundaries maps a boundary type ("g_c_plus", "g_c_minus", "g_L" for label
    pairs NP|FSP, NP|NSP, NSP|FSP) to a list of refined (x, y) points in axis
    coordinates.  analytic_deviation reports, per boundary type, the largest
    distance between refined points and the closed-form curve (g-J2 plane
    only, where the closed forms apply).
    """

    axis_x: Axis
    axis_y: Axis
    fixed: dict
    cells: list  # row-major [iy][ix] dicts
    boundaries: dict = field(default_factory=dict)
    analytic_deviation: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


_BOUNDARY_FOR_PAIR = {
    frozenset((NP, FSP)): "g_c_plus",
    frozenset((NP, NSP)): "g_c_minus",
    frozenset((NSP, FSP)): "g_L",
}


def _cell_params(axis_x, axis_y, fixed, xv, yv):
    kw = dict(fixed)
    kw[axis_x.name] = float(xv)
    kw[axis_y.name] = float(yv)
    return ModelParams(**kw)


def _solve_cell(args):
    axis_x, axis_y, fixed, xv, yv = args
    params = _cell_params(axis_x, axis_y, fixed, xv, yv)
    rec = _point_record(params)
    cell = {
        "x": float(xv), "y": float(yv),
        "phase": rec["phase"], "energy": rec["energy"],
        "degeneracy": rec["degeneracy"], "soft_mode_gap": rec["eps1"],
        "B_tilde": rec["B_tilde"], "error": rec["error"],
    }
    if "g" not in (axis_x.name, axis_y.name):
        J1 = cell["x"] if axis_x.name == "J1" else fixed.get("J1", 0.0)
        J2 = cell["y"] if axis_y.name == "J2" else fixed.get("J2", 0.0)
        label = classify_region(J1, J2)
        cell["region"] = label.region if not label.boundary else None
    return cell


def _phase_at(axis_x, axis_y, fixed, xv, yv):
    """Ground-state label of one point, or "" where the solver raises."""
    try:
        return solve_ground_state(_cell_params(axis_x, axis_y, fixed, xv, yv)).label
    except (ConvergenceError, ValueError):
        return ""


def _refine_boundary(axis_x, axis_y, fixed, x_lo, x_hi, yv, phase_lo, tol=1e-6):
    """Bisect the label change along the x direction at fixed y."""
    lo, hi = float(x_lo), float(x_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _phase_at(axis_x, axis_y, fixed, mid, yv) == phase_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_phase_diagram(axis_x: Axis, axis_y: Axis, fixed: dict | None = None,
                        workers: int = 1, refine_tol: float = 1e-6) -> PhaseDiagramGrid:
    """Fill a 2-D grid of ground states and extract refined phase boundaries.

    Boundary points are found by bisection (to refine_tol in the x coordinate)
    between horizontally adjacent cells of differing phase; for g-J2 grids the
    deviation from the closed-form g_c and g_L curves is reported per boundary.
    """
    fixed = dict(fixed or {})
    fixed.setdefault("omega", 1.0)
    fixed.setdefault("Omega", 1.0)
    if axis_x.name == axis_y.name:
        raise ValueError("axes must differ")
    for ax in (axis_x, axis_y):
        fixed.pop(ax.name, None)
    if "g" not in (axis_x.name, axis_y.name) and "g" not in fixed:
        raise ValueError("fixed parameters must include g for a J1-J2 grid")

    xs, ys = axis_x.values(), axis_y.values()
    tasks = [(axis_x, axis_y, fixed, xv, yv) for yv in ys for xv in xs]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_solve_cell, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        flat = [_solve_cell(t) for t in tasks]
    cells = [flat[iy * len(xs):(iy + 1) * len(xs)] for iy in range(len(ys))]

    boundaries = {}
    for iy, yv in enumerate(ys):
        row = cells[iy]
        for ix in range(len(xs) - 1):
            a, b = row[ix]["phase"], row[ix + 1]["phase"]
            if a and b and a != b:
                key = _BOUNDARY_FOR_PAIR.get(frozenset((a, b)), f"{a}|{b}")
                xb = _refine_boundary(axis_x, axis_y, fixed, xs[ix], xs[ix + 1],
                                      yv, a, tol=refine_tol)
                boundaries.setdefault(key, []).append((float(xb), float(yv)))

    deviation = {}
    if axis_x.name == "g" and axis_y.name == "J2":
        J1 = fixed.get("J1", 0.0)
        for key, pts in boundaries.items():
            devs = []
            for gb, J2v in pts:
                p = ModelParams(g=1.0, J1=J1, J2=J2v)
                cc = critical_couplings(p)
                if key == "g_c_plus":
                    ref = cc.g_c_plus
                elif key == "g_c_minus":
                    ref = cc.g_c_minus
                elif key == "g_L":
                    ref = first_order_point(p)
                else:
                    continue
                if ref is not None:
                    devs.append(abs(gb - ref))
            if devs:
                deviation[key] = float(max(devs))

    meta = {
        "version": __version__,
        "timestamp": _timestamp(),
        "fixed": fixed,
        "axis_x": vars(axis_x) | {},
        "axis_y": vars(axis_y) | {},
        "resolution": [axis_x.steps, axis_y.steps],
    }
    return PhaseDiagramGrid(axis_x=axis_x, axis_y=axis_y, fixed=fixed, cells=cells,
                            boundaries=boundaries, analytic_deviation=deviation,
                            metadata=meta)


def boundary_intersection(grid: PhaseDiagramGrid, key_a: str, key_b: str):
    """Crossing point of two boundary polylines in a g-J2 grid, or None.

    Both polylines are interpolated as g(J2); the crossing is located by
    bisection on their difference.
    """
    from scipy.optimize import brentq

    pa = sorted(grid.boundaries.get(key_a, []), key=lambda p: p[1])
    pb = sorted(grid.boundaries.get(key_b, []), key=lambda p: p[1])
    if len(pa) < 2 or len(pb) < 2:
        return None
    ya, ga = np.array([p[1] for p in pa]), np.array([p[0] for p in pa])
    yb, gb = np.array([p[1] for p in pb]), np.array([p[0] for p in pb])

    def interp(y, ys, gs):
        # linear extrapolation from the end segments: the crossing usually
        # sits right where one boundary terminates into the other
        if y <= ys[0]:
            s = (gs[1] - gs[0]) / (ys[1] - ys[0])
            return gs[0] + s * (y - ys[0])
        if y >= ys[-1]:
            s = (gs[-1] - gs[-2]) / (ys[-1] - ys[-2])
            return gs[-1] + s * (y - ys[-1])
        return float(np.interp(y, ys, gs))

    # search the union of both ranges, padded by one end-segment length
    pad_a = ya[1] - ya[0]
    pad_b = yb[1] - yb[0]
    lo = min(ya.min(), yb.min()) - max(pad_a, pad_b)
    hi = max(ya.max(), yb.max()) + max(pad_a, pad_b)

    def diff(y):
        return interp(y, ya, ga) - interp(y, yb, gb)

    samples = np.linspace(lo, hi, 256)
    vals = [diff(y) for y in samples]
    for i in range(len(samples) - 1):
        if vals[i] == 0.0:
            y_star = samples[i]
            break
        if vals[i] * vals[i + 1] < 0.0:
            y_star = brentq(diff, samples[i], samples[i + 1], xtol=1e-12)
            break
    else:
        return None
    return float(interp(y_star, ya, ga)), float(y_star)


# ---------------------------------------------------------------------------
# serialization

def write_line_csv(records, path):
    """CSV with one row per g point; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([repr(rec[c]) if isinstance(rec[c], float) else rec[c]
                             for c in CSV_COLUMNS])


def read_line_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rec = {}
            for col in CSV_COLUMNS:
                if col in ("phase", "error"):
                    rec[col] = row[col]
                elif col == "degeneracy":
                    rec[col] = int(row[col])
                else:
                    rec[col] = float(row[col])
            records.append(rec)
    return records


def write_line_json(records, path, J1=None, J2=None):
    doc = {
        "metadata": {"version": __version__, "timestamp": _timestamp(),
                     "J1": J1, "J2": J2, "points": len(records)},
        "records": records,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def grid_to_json(grid: PhaseDiagramGrid) -> dict:
    return {
        "metadata": grid.metadata,
        "fixed": grid.fixed,
        "axis_x": {"name": grid.axis_x.name, "min": grid.axis_x.min,
                   "max": grid.axis_x.max, "steps": grid.axis_x.steps},
        "axis_y": {"name": grid.axis_y.name, "min": grid.axis_y.min,
                   "max": grid.axis_y.max, "steps": grid.axis_y.steps},
        "cells": grid.cells,
        "boundaries": {k: [list(p) for p in v] for k, v in grid.boundaries.items()},
        "analytic_deviation": grid.analytic_deviation,
    }


def write_grid_json(grid: PhaseDiagramGrid, path):
    with open(path, "w") as fh:
        json.dump(grid_to_json(grid), fh, indent=1)
        fh.write("\n")


def read_grid_json(path) -> PhaseDiagramGrid:
    with open(path) as fh:
        doc = json.load(fh)
    ax = Axis(**doc["axis_x"])
    ay = Axis(**doc["axis_y"])
    return PhaseDiagramGrid(
        axis_x=ax, axis_y=ay, fixed=doc["fixed"], cells=doc["cells"],
        boundaries={k: [tuple(p) for p in v] for k, v in doc["boundaries"].items()},
        analytic_deviation=doc["analytic_deviation"],
        metadata=doc["metadata"],
    )


def write_grid_csv(grid: PhaseDiagramGrid, path):
    """Flat CSV of the grid cells (one row per cell, row-major)."""
    cols = ["x", "y", "phase", "energy", "degeneracy", "soft_mode_gap",
            "B_tilde", "error"]
    if grid.cells and "region" in grid.cells[0][0]:
        cols.append("region")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([grid.axis_x.name, grid.axis_y.name] + cols[2:])
        for row in grid.cells:
            for cell in row:
                writer.writerow([repr(cell[c]) if isinstance(cell[c], float)
                                 else cell[c] for c in cols])
