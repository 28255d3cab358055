"""Parameter sweeps, boundary extraction and CSV/JSON serialization.

Two sweep geometries are supported: a line in g at fixed hoppings, and a
two-dimensional grid in either the (g, J2) or the (J1, J2) plane.  Both
build their points as one :class:`~dicke_trimer.model.Points` record of
columns (a grid's with ``np.meshgrid``) and run them through one batched
pass: ``solve_ground_states`` over all points, then one stacked ``spectra``
call about the representatives; a point that fails records its error
string.  The pass returns columns, and dicts are built only for the output
records and cells.  A grid boundary point is the root of an indicator
that does not read the dispatch, solved for all intervals in lockstep and
filed under the two labels read just below and above it, one batched
label call per round.  Floats are serialized with 17 significant digits
so that write-then-read round-trips are bit exact.
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
from .model import _FIELDS, NP, TRANSITIONS, Points, alpha_from_x, b_tilde, classify_region
from .meanfield import (_PROBE_WIDTH, _bracketed_roots, _fsp_minima, _onset_curvature,
                        _uniform_branch, energy, solve_ground_states)
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


def _solve(points):
    """The output columns of every row of Points, as lists, from one batched
    pass: the ground states, then one stacked spectrum about them.  A row
    whose ground state or spectrum fails has its error string and NaN (0,
    "") values."""
    states = solve_ground_states(points)
    errors = list(states.error)
    ok = np.flatnonzero([err is None for err in errors])
    alpha, eps = np.full((len(points), 3), np.nan), np.full((len(points), 6), np.nan)
    if ok.size:
        alpha[ok] = alpha_from_x(states.representative[ok], points[ok])
        eps[ok], spec_errors = spectra(states.representative[ok], points[ok])
        for i, err in zip(ok, spec_errors):
            errors[i] = err
    failed = np.array([err is not None for err in errors], dtype=bool)
    alpha[failed] = eps[failed] = np.nan
    columns = {"g": points.g, "J1": points.J1, "J2": points.J2, "B_tilde": b_tilde(points),
               "error": ["" if err is None else f"{type(err).__name__}: {err}" for err in errors],
               "phase": np.where(failed, "", states.label),
               "energy": np.where(failed, np.nan, states.energy),
               "degeneracy": np.where(failed, 0, states.degeneracy),
               **{f"alpha{i + 1}": a for i, a in enumerate(alpha.T)},
               **{f"eps{i + 1}": e for i, e in enumerate(eps.T)}}
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in columns.items()}


def _records(points):
    """The record dict of every row of Points (or of a sequence of
    ModelParams), from one batched pass."""
    columns = _solve(Points.of(points))
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def sweep_g_line(J1, J2, g_values, omega=1.0, Omega=1.0):
    """Solve every g on a line, all points in one batched pass."""
    return _records(Points(g=np.atleast_1d(np.asarray(g_values, dtype=float)), J1=J1, J2=J2,
                           omega=omega, Omega=Omega))


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


def _points(axis_x, axis_y, fixed, x, y):
    """The Points of the grid coordinates x and y (arrays or floats)."""
    return Points(**fixed, **{axis_x.name: x, axis_y.name: y})


def _grid_rows(args):
    """Cells of a block of grid rows (row-major), in one batched pass."""
    axis_x, axis_y, fixed, ys = args
    x, y = (u.ravel() for u in np.meshgrid(axis_x.values(), np.asarray(ys, dtype=float)))
    c = _solve(_points(axis_x, axis_y, fixed, x, y))
    cells = [{"x": xv, "y": yv, "phase": ph, "energy": e, "degeneracy": d, "soft_mode_gap": gap,
              "B_tilde": b, "error": err} for xv, yv, ph, e, d, gap, b, err in zip(
        x.tolist(), y.tolist(), c["phase"], c["energy"], c["degeneracy"], c["eps1"],
        c["B_tilde"], c["error"])]
    if "g" not in (axis_x.name, axis_y.name):
        for cell, J1, J2 in zip(cells, c["J1"], c["J2"]):
            label = classify_region(J1, J2)
            cell["region"] = label.region if not label.boundary else None
    return cells


def _branch_gap(points):
    """E of the uniform branch less E of the frustrated branch at every row
    of Points: negative where the uniform branch lies lower, -inf where the
    frustrated branch is missing."""
    gap = energy(_uniform_branch(points)[1], points)
    x, _ = _fsp_minima(points)
    ok = ~np.isnan(x[:, 0])
    gap[~ok] = -np.inf
    gap[ok] -= energy(x[ok], points[ok])
    return gap


def sweep_phase_diagram(axis_x: Axis, axis_y: Axis, fixed: dict | None = None,
                        workers: int = 1) -> PhaseDiagramGrid:
    """Fill a 2-D grid of ground states and extract refined phase boundaries.

    Each interval in x between adjacent cells of differing phase is solved,
    in lockstep rounds, for the root of ``meanfield._onset_curvature`` (at
    least +0 at an NP end) where one end is NP, else of :func:`_branch_gap`.
    One label call per round reads the phases at root -+ _PROBE_WIDTH / 2,
    clipped to the interval: two different phases make a boundary point,
    filed under their pair's name, and a probe that reads neither end's
    phase opens the interval between it and the end on its side for the
    next round.  For g-J2 grids the deviation from the closed-form g_c and
    g_L curves is reported per boundary.  fixed holds any of g, J1, J2,
    omega and Omega.  The cells are one batched pass; with workers > 1 a
    process pool runs it over blocks of rows.
    """
    fixed = dict(fixed or {})
    unknown = [key for key in fixed if key not in _FIELDS]
    if unknown:
        raise ValueError(f"unknown fixed parameter {unknown[0]!r}; allowed: {', '.join(_FIELDS)}")
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

    def at(x, y):
        return _points(axis_x, axis_y, fixed, x, y)

    # the first intervals: between horizontally adjacent cells of two phases
    phase = np.array([cell["phase"] for cell in flat], dtype=object).reshape(len(ys), len(xs))
    a, b = phase[:, :-1], phase[:, 1:]
    iy, ix = np.nonzero((a != "") & (b != "") & (a != b))
    lo, hi, y, lower, upper = xs[ix], xs[ix + 1], ys[iy], a[iy, ix], b[iy, ix]
    found = []  # (y, x, boundary name)
    while len(lo):
        roots = np.full(len(lo), np.nan)
        onset = (lower == NP) | (upper == NP)
        for kind, indicator in ((onset, _onset_curvature), (~onset, _branch_gap)):
            k = np.flatnonzero(kind)
            f = indicator(at(np.concatenate([lo[k], hi[k]]), np.tile(y[k], 2)))
            ends = np.concatenate([lower[k], upper[k]])
            f1, f2 = np.split(np.where(ends == NP, np.maximum(f, 0.0), f), 2)
            ok = np.sign(f1) * np.sign(f2) <= 0.0
            k, f1, f2 = k[ok], f1[ok], f2[ok]
            roots[k] = _bracketed_roots(lambda x, y: indicator(at(x, y)), lo[k], hi[k], f1, f2,
                                        y[k])
        live = ~np.isnan(roots)
        lo, hi, y, lower, upper, roots = (v[live] for v in (lo, hi, y, lower, upper, roots))
        below = np.maximum(roots - 0.5 * _PROBE_WIDTH, lo)
        above = np.minimum(roots + 0.5 * _PROBE_WIDTH, hi)
        # "" where a probe's solve fails
        seen_below, seen_above = np.split(
            solve_ground_states(at(np.concatenate([below, above]), np.tile(y, 2))).label, 2)
        found += [(yb, xb, TRANSITIONS[frozenset((p, q))][0]) for p, q, xb, yb in zip(
            seen_below, seen_above, roots.tolist(), y.tolist()) if p and q and p != q]
        # a probe that reads the other end's phase opens nothing, so rounds
        # end where labels flip among degenerate minima (as on J1 = J2 = 0)
        probe = np.concatenate([seen_below, seen_above])
        keep = (probe != "") & (probe != np.tile(lower, 2)) & (probe != np.tile(upper, 2))
        lo, hi, y = np.concatenate([lo, above]), np.concatenate([below, hi]), np.tile(y, 2)
        lower, upper = np.concatenate([lower, seen_above]), np.concatenate([seen_below, upper])
        lo, hi, y, lower, upper = (v[keep] for v in (lo, hi, y, lower, upper))
    boundaries = {}
    for yb, xb, key in sorted(found):
        boundaries.setdefault(key, []).append((xb, yb))

    deviation = {}
    if axis_x.name == "g" and axis_y.name == "J2":
        J1 = fixed.get("J1", 0.0)
        closed_form = {key: g_of for key, _, g_of in TRANSITIONS.values()}
        for key, pts in boundaries.items():
            gb, J2 = np.array(pts).T
            ref = closed_form[key](Points(g=1.0, J1=J1, J2=J2))
            devs = np.abs(gb - ref)[~np.isnan(ref)]
            if devs.size:
                deviation[key] = float(devs.max())

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


def write_line_json(records, path, J1=None, J2=None, omega=None, Omega=None):
    doc = {
        "metadata": {"version": __version__, "timestamp": _timestamp(),
                     "J1": J1, "J2": J2, "omega": omega, "Omega": Omega,
                     "points": len(records)},
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
