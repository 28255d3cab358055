"""Parameter sweeps, boundary extraction and CSV/JSON serialization.

Two sweep geometries are supported: a line in g at fixed hoppings, and a
two-dimensional grid in either the (g, J2) or the (J1, J2) plane.  Both run
their points through one batched pass: ``solve_ground_states`` over all
points, then one stacked ``spectra`` call about the representatives; a
point that fails records its error string.  Grid boundaries are bisected
for all brackets in lockstep, three halvings per batched label call.  Floats
are serialized with 17 significant digits so that write-then-read
round-trips are bit exact.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import TRANSITIONS, ModelParams, _b_tildes, alpha_from_x, classify_region
from .meanfield import _bisect, solve_ground_states
from .spectrum import spectra

CSV_COLUMNS = (
    "g", "J1", "J2", "phase", "energy",
    "alpha1", "alpha2", "alpha3",
    "eps1", "eps2", "eps3", "eps4", "eps5", "eps6",
    "B_tilde", "degeneracy", "error",
)


def _timestamp() -> str:
    # overridable for byte-identical reruns (determinism contract)
    return os.environ.get("DICKE_TRIMER_TIMESTAMP", "")


def _records(points):
    """Ground state and spectrum of every point, yielded as record dicts.

    One batched pass; a point where the ground state or its spectrum fails
    records the error string and NaN values.
    """
    B = _b_tildes(points)[0].tolist()
    states = solve_ground_states(points)
    errors = list(states.error)
    ok = np.flatnonzero([err is None for err in errors])
    alpha = np.full((len(points), 3), np.nan)
    eps = np.full((len(points), 6), np.nan)
    if ok.size:
        solved = [points[i] for i in ok]
        alpha[ok] = alpha_from_x(states.representative[ok], solved)
        eps[ok], spec_errors = spectra(states.representative[ok], solved)
        for i, err in zip(ok, spec_errors):
            errors[i] = err
    for p, b, label, e, deg, a, ep, err in zip(
            points, B, states.label, states.energy.tolist(), states.degeneracy.tolist(),
            alpha.tolist(), eps.tolist(), errors):
        rec = {"g": p.g, "J1": p.J1, "J2": p.J2, "B_tilde": b, "error": ""}
        if err is None:
            rec.update(phase=label, energy=e, degeneracy=deg)
        else:
            rec.update(phase="", energy=math.nan, degeneracy=0)
            a, ep = [math.nan] * 3, [math.nan] * 6
            rec["error"] = f"{type(err).__name__}: {err}"
        rec.update({f"alpha{i+1}": v for i, v in enumerate(a)})
        rec.update({f"eps{i+1}": v for i, v in enumerate(ep)})
        yield rec


def sweep_g_line(J1, J2, g_values, omega=1.0, Omega=1.0):
    """Solve every g on a line, all points in one batched pass."""
    return list(_records([ModelParams(g=float(g), J1=J1, J2=J2, omega=omega, Omega=Omega)
                          for g in np.atleast_1d(np.asarray(g_values, dtype=float))]))


# ---------------------------------------------------------------------------
# 2-D phase diagram

@dataclass(frozen=True)
class Axis:
    name: str  # "g", "J1" or "J2"
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if not (isinstance(self.steps, numbers.Integral) and self.steps >= 2):
            raise ValueError(f"axis needs an integer number of steps >= 2, got {self.steps!r}")
        if self.name not in ("g", "J1", "J2"):
            raise ValueError(f"unknown axis name {self.name!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max) and self.min < self.max):
            raise ValueError(f"axis {self.name} needs finite min < max, "
                             f"got {self.min} to {self.max}")

    def values(self):
        return np.linspace(self.min, self.max, self.steps)


@dataclass
class PhaseDiagramGrid:
    """A filled 2-D scan: per-cell phase summaries plus boundary polylines.

    boundaries maps a boundary name of ``model.TRANSITIONS`` ("g_c_plus",
    "g_c_minus", "g_L" for label pairs NP|FSP, NP|NSP, NSP|FSP) to a list of
    refined (x, y) points in axis coordinates.  analytic_deviation reports,
    per boundary, the largest distance between refined points and the
    table's closed-form curve (g-J2 plane only, where the closed forms
    apply).
    """

    axis_x: Axis
    axis_y: Axis
    fixed: dict
    cells: list  # row-major [iy][ix] dicts
    boundaries: dict = field(default_factory=dict)
    analytic_deviation: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _cell_params(axis_x, axis_y, fixed, xv, yv):
    kw = dict(fixed)
    kw[axis_x.name] = float(xv)
    kw[axis_y.name] = float(yv)
    return ModelParams(**kw)


def _grid_rows(args):
    """Cells of a block of grid rows (row-major), in one batched pass."""
    axis_x, axis_y, fixed, ys = args
    xy = [(float(xv), float(yv)) for yv in ys for xv in axis_x.values()]
    records = _records([_cell_params(axis_x, axis_y, fixed, xv, yv) for xv, yv in xy])
    cells = []
    for (xv, yv), rec in zip(xy, records):
        cell = {
            "x": xv, "y": yv,
            "phase": rec["phase"], "energy": rec["energy"],
            "degeneracy": rec["degeneracy"], "soft_mode_gap": rec["eps1"],
            "B_tilde": rec["B_tilde"], "error": rec["error"],
        }
        if "g" not in (axis_x.name, axis_y.name):
            label = classify_region(rec["J1"], rec["J2"])
            cell["region"] = label.region if not label.boundary else None
        cells.append(cell)
    return cells


#: boundary points are bisected to this width in the x coordinate
_REFINE_TOL = 1e-6


def _refine_boundaries(axis_x, axis_y, fixed, brackets):
    """Bisect label changes along x, every bracket (x_lo, x_hi, y, label at
    x_lo) in lockstep: one batched solve ("" where it fails) labels the
    midpoints of the next three halvings of all unfinished brackets: a
    label call costs far more than the rows it adds, and deeper trees were
    slower on the criterion-11 grid."""
    def changed(mid, rows):
        labels = solve_ground_states([_cell_params(axis_x, axis_y, fixed, m, brackets[i][2])
                                      for m, i in zip(mid, rows)]).label
        return [label != brackets[i][3] for label, i in zip(labels, rows)]

    return _bisect(changed, [b[0] for b in brackets], [b[1] for b in brackets], _REFINE_TOL,
                   levels=3)


def sweep_phase_diagram(axis_x: Axis, axis_y: Axis, fixed: dict | None = None,
                        workers: int = 1) -> PhaseDiagramGrid:
    """Fill a 2-D grid of ground states and extract refined phase boundaries.

    Boundary points are found by bisection (to 1e-6 in the x coordinate)
    between horizontally adjacent cells of differing phase; for g-J2 grids the
    deviation from the closed-form g_c and g_L curves is reported per boundary.
    The cells are one batched pass; with workers > 1 a process pool runs it
    over blocks of rows.
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
    if workers > 1:
        blocks = np.array_split(ys, min(workers, len(ys)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_grid_rows, [(axis_x, axis_y, fixed, b) for b in blocks])
            flat = [cell for part in parts for cell in part]
    else:
        flat = _grid_rows((axis_x, axis_y, fixed, ys))
    cells = [flat[iy * len(xs):(iy + 1) * len(xs)] for iy in range(len(ys))]

    keys, brackets = [], []
    for iy, yv in enumerate(ys):
        row = cells[iy]
        for ix in range(len(xs) - 1):
            a, b = row[ix]["phase"], row[ix + 1]["phase"]
            if a and b and a != b:
                keys.append(TRANSITIONS[frozenset((a, b))][0])
                brackets.append((xs[ix], xs[ix + 1], yv, a))
    boundaries = {}
    refined = _refine_boundaries(axis_x, axis_y, fixed, brackets)
    for key, xb, bracket in zip(keys, refined, brackets):
        boundaries.setdefault(key, []).append((float(xb), float(bracket[2])))

    deviation = {}
    if axis_x.name == "g" and axis_y.name == "J2":
        J1 = fixed.get("J1", 0.0)
        closed_form = {key: g_of for key, _, g_of in TRANSITIONS.values()}
        for key, pts in boundaries.items():
            refs = [closed_form[key](ModelParams(g=1.0, J1=J1, J2=J2v)) for _, J2v in pts]
            devs = [abs(gb - ref) for (gb, _), ref in zip(pts, refs) if ref is not None]
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


def _polyline(y, ys, gs):
    """g at y on the polyline (ys, gs), extended linearly past both ends:
    the crossing usually sits right where one boundary terminates into the
    other."""
    g = np.interp(y, ys, gs)
    g = np.where(y >= ys[-1], gs[-1] + (gs[-1] - gs[-2]) / (ys[-1] - ys[-2]) * (y - ys[-1]), g)
    return np.where(y <= ys[0], gs[0] + (gs[1] - gs[0]) / (ys[1] - ys[0]) * (y - ys[0]), g)


def boundary_intersection(grid: PhaseDiagramGrid, key_a: str, key_b: str):
    """Crossing point of two boundary polylines in a g-J2 grid, or None.

    Both polylines are taken as g(J2), searched over the union of their
    ranges padded by one end-segment length.  Their difference is linear
    between the merged breakpoints, so the first exact zero or sign change
    there is the crossing, solved exactly on its segment.
    """
    pa = sorted(grid.boundaries.get(key_a, []), key=lambda p: p[1])
    pb = sorted(grid.boundaries.get(key_b, []), key=lambda p: p[1])
    if len(pa) < 2 or len(pb) < 2:
        return None
    ya, ga = np.array([p[1] for p in pa]), np.array([p[0] for p in pa])
    yb, gb = np.array([p[1] for p in pb]), np.array([p[0] for p in pb])
    pad = max(ya[1] - ya[0], yb[1] - yb[0])
    y = np.unique(np.concatenate((ya, yb, [min(ya[0], yb[0]) - pad, max(ya[-1], yb[-1]) + pad])))
    d = _polyline(y, ya, ga) - _polyline(y, yb, gb)
    s = np.sign(d)
    # the first node where d is zero or changes sign toward the next one
    hit = np.flatnonzero((s == 0.0) | np.append(s[:-1] * s[1:] < 0.0, False))
    if not hit.size:
        return None
    i = hit[0]
    y_star = y[i] if d[i] == 0.0 else y[i] + d[i] * (y[i + 1] - y[i]) / (d[i] - d[i + 1])
    return float(_polyline(y_star, ya, ga)), float(y_star)


# ---------------------------------------------------------------------------
# serialization

def _write_csv(path, header, rows, cols):
    """CSV of the dicts rows, the columns cols under the given header; floats
    as their repr, which reads back bit exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in cols])


def write_line_csv(records, path):
    """CSV with one row per g point."""
    _write_csv(path, CSV_COLUMNS, records, CSV_COLUMNS)


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
        "axis_x": vars(grid.axis_x) | {},
        "axis_y": vars(grid.axis_y) | {},
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
    _write_csv(path, [grid.axis_x.name, grid.axis_y.name] + cols[2:],
               (cell for row in grid.cells for cell in row), cols)
