#!/usr/bin/env python3
"""Dump the outputs of a checkout, and compare two dumps field by field.

Usage, from any directory:

    python3 tools/compare_outputs.py dump TREE OUT.json
    python3 tools/compare_outputs.py diff A.json B.json

``dump`` imports ``dicke_trimer`` from ``TREE/src`` and the workload
configurations from ``TREE/bench/workloads.py`` and records, every float as
its ``float.hex``:

* ``grid-triple`` seeds 0-3: every cell column, the boundary points, the
  ``analytic_deviation`` and the triple point;
* ``triple-j1``: the same criterion-11 grid (seed 0's g columns) at the 21
  values ``J1 = 0.090 + 0.001 k``, ``k = 0 ... 20``: the boundary points,
  the ``analytic_deviation`` and the ``g_c_minus``/``g_L`` crossing, where
  the rows ``J1 = 0.094`` and ``0.101`` hold a phase narrower than a cell;
* ``j-grids``: the boundary points of two grids with a hopping on the y
  axis: ``J2`` by ``J1`` at ``g = 0.95``, both axes 31 points on
  (-0.45, 0.45), and ``g`` by ``J1`` at ``J2 = -0.2``, g 41 points on
  (0.2, 3) and ``J1`` 31 points on (-0.45, 0.45); on the ``J2`` axis the
  ``J1 = 0.24`` row holds an NP phase narrower than a cell between an NSP
  and an FSP cell, and on the g axis an NSP phase between an NP and an FSP
  cell;
* the transitions of ``oracle-line`` seeds 0-7;
* ``transition-lines``: the ``detect_transitions`` output (``g_star``,
  ``order``, ``jump`` and ``noise_floor``, and ``path`` from checkouts
  whose ``Transition`` still has it) of each transition, with the index of
  its line, and per line the error text or ``None``, on the five lines of
  ``TestDetectTransitions`` that hold a transition, the tiny-onset line
  ``J1 = J2 = -0.4999`` on (1e-5, 0.01), the first line of the seed-27
  draw of ``test_seeded_lines_report_their_closed_form_transitions`` (as a
  literal), whose coarse cell holds both ``g_c_minus`` and ``g_L`` and
  which reports both, and 120 lines of seed 5151: per line ``J1, J2`` uniform on
  (-0.495, 0.495), then around ``g_c`` a window of width ``10^U``, ``U``
  uniform on (-3, -1), on even lines and ``(U(0.6, 0.98) g_c, U(1.02, 1.8)
  g_c)`` on odd ones, then ``n_coarse`` drawn from {5, 15, 31, 61};
* ``line-regions`` seeds 0-3: every column of the ``sweep_g_line`` records
  of each of its six lines, which builds its parameter columns apart from
  the grid;
* the bulk draw: 3,000 points of seed 20261018, per point ``J1, J2``
  uniform on (-0.5, 0.5), then g uniform on (0.05, 30), every column of
  their ``sweep._records``;
* the frustrated-branch draw: 4,000 points of seed 2027, per point
  ``J1, J2`` uniform on (-0.49, 0.49), then ``g = g_c_plus (1 + 10^U)``
  with ``U`` uniform on (-9, 1.3), the x and the error text of every row of
  ``meanfield._fsp_minima``, which also solves the rows with B < 0 (2,189
  here) that a sweep never sends to the frustrated scan;
* the near-onset oracle probe: 1,250 points of seed 99, per point ``J1, J2``
  uniform on (-0.45, 0.45), then ``g = g_c (1 + 10^u)`` with ``u`` uniform
  on (-10, -1), run through ``oracle._brute_force_minima`` in stacks of 25:
  the label, degeneracy, energy and representative x of every point, where
  the minima are so flat that the descent's float-floor rules decide the
  degeneracy;
* the near-``g_L`` draw: 8,000 points of seed 2028, per point ``J1, J2``
  uniform on (-0.49, 0.49) and kept where they differ in sign and ``g_L``
  exists, then ``g = g_L (1 +- 10^U)`` with the sign even odds and ``U``
  uniform on (-15, -3), kept where ``g > g_c_plus``: the x and the error
  text of every row of ``meanfield._fsp_minima``, where a tiny ``B_tilde``
  leaves the scanned roots far from stationary;
* ``root_structure`` at ``J1 = J2 = 0.1`` for g in {0.8, 1.2, 3.0, 1e10,
  1e154} and k in {0, +-1, +-1e3, +-1e5, +-1e6, +-1e7}: the monotonic
  flags, root counts, roots and turning points, where the roots at g = 0.8,
  k = +-1e7 and the outer ones at g = 1e10 and 1e154 lie within a few ulps
  of the poles of f at +-g/2;
* ``atom-only``: the label, degeneracy, energy and sorted ``|alpha|`` of
  ``solve_atom_only`` at the 16 points of criterion 12 and on the ``J1 = 0``
  draw of 1,000 points of seed 12, per point ``J2`` uniform on (-0.5, 0.5),
  then g uniform on (0.05, 30);
* ``minima``: ``oracle._minima`` in stacks of 25 on 800 points of seed
  2030, per point ``J1, J2`` uniform on (-0.49, 0.49), then on even points
  g uniform on (0.05, 5) and on odd ones ``g = g_X (1 +- 10^U)`` near a
  transition, ``g_X`` drawn from the ``g_c``, ``g_c_plus``, ``g_c_minus``
  and ``g_L`` that exist, the sign even odds and ``U`` uniform on (-15,
  -1): per point the count of clustered local minima, every x of every
  minimum in the order found, and per stack the error text or ``None``;
* ``tiny-g``: 200 points of seed 2029 with ``g_c`` under about 1e-3, drawn
  as columns: 200 ``J1`` and then 200 ``J2``, each ``-0.5 + 10^U`` with
  ``U`` uniform on (-10, -3), then ``g = g_c (1 + 10^V)`` with ``V`` uniform
  on (-3, 1): the
  label and degeneracy of ``meanfield.solve_ground_states`` and of
  ``oracle._brute_force_minima`` (in stacks of 25), where ``x`` is so small
  that an absolute identity tolerance merges distinct minima;
* ``huge-g``: ``oracle._minima`` at g in {1e11, 3e11, 1e12, 1e150, 1e153,
  1.3e154, 2e154, 1e200, 1e308} on ``(J1, J2)`` = (0.1, -0.1), (0.1, 0.1)
  and (0, 0), each point alone and then all of them in one stack behind a
  ``g = 1.1`` point on (0.1, -0.1): per call the count and every x of the
  minima, or the error text, where the oracle's range ends (near g = 1e12)
  and where the energy overflows;
* ``output-files``: every line of the files that ``dicke-trimer sweep``
  writes, run in-process in a temporary directory with
  ``DICKE_TRIMER_TIMESTAMP=fixed``, for a g line, the criterion-11 ``g``-``J2``
  grid and a ``J1``-``J2`` grid, each as CSV and as JSON, with each run's
  exit code, and every column of the records that ``sweep.read_line_csv``
  reads back from the line's CSV: the bytes of the determinism contract;
* the text that ``verify --scope all`` prints.

``diff`` lists each field whose values differ, with the number of entries
that differ and the largest relative change of a float field (inf where a
value turns NaN or a number), and exits 1 if any field differs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

GRID_SEEDS = range(4)
TRIPLE_J1 = [round(0.090 + 0.001 * k, 3) for k in range(21)]
# name -> (x axis, y axis, fixed) of sweep_phase_diagram
J_GRIDS = {
    "J2-J1": (("J2", -0.45, 0.45, 31), ("J1", -0.45, 0.45, 31), {"g": 0.95}),
    "g-J1": (("g", 0.2, 3.0, 41), ("J1", -0.45, 0.45, 31), {"J2": -0.2}),
}
LINE_SEEDS = range(4)
ORACLE_SEEDS = range(8)
TRANSITION_SEED = 5151
TRANSITION_LINES = 120
# (J1, J2, g_range, n_coarse): the TestDetectTransitions lines, the
# tiny-onset line, and the first line of the seed-27 draw of
# test_seeded_lines_report_their_closed_form_transitions
FIXED_LINES = [
    (0.1, -0.1, (0.9, 1.2), 31),
    (0.1, 0.1, (0.7, 1.1), 21),
    (0.0, 0.0, (0.8, 1.2), 21),
    (0.1, -0.1, (1.0, 1.1), 21),
    (-0.06123383242021124, 0.09671611718137241, (0.5999448857161498, 1.611693721693544), 5),
    (-0.4999, -0.4999, (1e-5, 0.01), 11),
    (0.17796259482910676, -0.1675671549998115, (0.6968551843935954, 1.1377677166568068), 5),
]
BULK_SEED = 20261018
BULK_POINTS = 3000
FSP_SEED = 2027
FSP_POINTS = 4000
ONSET_SEED = 99
ONSET_POINTS = 1250
ONSET_STACK = 25
GL_SEED = 2028
GL_POINTS = 8000
ROOT_G = (0.8, 1.2, 3.0, 1e10, 1e154)
ROOT_K = (0.0, 1.0, -1.0, 1e3, -1e3, 1e5, -1e5, 1e6, -1e6, 1e7, -1e7)
ATOM_SEED = 12
ATOM_POINTS = 1000
MINIMA_SEED = 2030
MINIMA_POINTS = 800
TINY_SEED = 2029
TINY_POINTS = 200
HUGE_G = (1e11, 3e11, 1e12, 1e150, 1e153, 1.3e154, 2e154, 1e200, 1e308)
HUGE_J = ((0.1, -0.1), (0.1, 0.1), (0.0, 0.0))
# name -> the arguments of `dicke-trimer sweep` (before --format and
# --output), or the grid config that --config reads
OUTPUT_SWEEPS = {
    "line": ["--mode", "line", "--j1", "0.1", "--j2", "-0.1",
             "--g-min", "0.5", "--g-max", "1.5", "--g-steps", "101"],
    "g-J2": {"mode": "grid", "axis_x": {"name": "g", "min": 0.9, "max": 1.1, "steps": 41},
             "axis_y": {"name": "J2", "min": -0.2, "max": -0.02, "steps": 31},
             "fixed": {"J1": 0.1}},
    "J1-J2": {"mode": "grid", "axis_x": {"name": "J1", "min": -0.45, "max": 0.45, "steps": 21},
              "axis_y": {"name": "J2", "min": -0.45, "max": 0.45, "steps": 21},
              "fixed": {"g": 0.95}},
}


def _import_tree(tree):
    tree = Path(tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import dicke_trimer
    if not dicke_trimer.__file__.startswith(str(tree / "src")):
        sys.exit(f"dicke_trimer imported from {dicke_trimer.__file__}, not {tree / 'src'}")


def _column(values):
    """A field: its type and its values, floats as float.hex."""
    values = list(values)
    if all(isinstance(v, float) for v in values):
        return {"type": "float", "values": [float.hex(v) for v in values]}
    if all(isinstance(v, int) for v in values):
        return {"type": "int", "values": values}
    return {"type": "text", "values": [str(v) for v in values]}


def _table(prefix, rows, fields):
    """Fields ``prefix/key`` for each column of a list of dicts."""
    keys = sorted({k for row in rows for k in row})
    fields.update({f"{prefix}/{k}": _column(row.get(k) for row in rows) for k in keys})


def _boundary_fields(prefix, grid, fields):
    for key, points in sorted(grid.boundaries.items()):
        _table(f"{prefix}/boundaries/{key}", [{"x": x, "y": y} for x, y in points], fields)
    for key, dev in sorted(grid.analytic_deviation.items()):
        fields[f"{prefix}/analytic_deviation/{key}"] = _column([dev])


def _grid_fields(fields):
    from workloads import WORKLOADS

    work = WORKLOADS["grid-triple"]
    for seed in GRID_SEEDS:
        grid, crossing = work.run(work.config(seed))
        prefix = f"grid-triple/{seed}"
        _table(f"{prefix}/cells", [cell for row in grid.cells for cell in row], fields)
        _boundary_fields(prefix, grid, fields)
        fields[f"{prefix}/triple_point"] = _column(["None"] if crossing is None else crossing)


def _triple_j1_fields(fields):
    from workloads import WORKLOADS

    work = WORKLOADS["grid-triple"]
    for J1 in TRIPLE_J1:
        grid, crossing = work.run(work.config(0) | {"J1": J1})
        prefix = f"triple-j1/{J1}"
        _boundary_fields(prefix, grid, fields)
        fields[f"{prefix}/triple_point"] = _column(["None"] if crossing is None else crossing)


def _j_grid_fields(fields):
    from dicke_trimer.sweep import Axis, sweep_phase_diagram

    for name, (axis_x, axis_y, fixed) in J_GRIDS.items():
        grid = sweep_phase_diagram(Axis(*axis_x), Axis(*axis_y), fixed=fixed)
        _boundary_fields(f"j-grids/{name}", grid, fields)


def _oracle_fields(fields):
    from workloads import WORKLOADS

    work = WORKLOADS["oracle-line"]
    for seed in ORACLE_SEEDS:
        transitions = work.run(work.config(seed))
        _table(f"oracle-line/{seed}", [dataclasses.asdict(t) for t in transitions], fields)
        fields[f"oracle-line/{seed}/count"] = _column([len(transitions)])


def _transition_line_fields(fields):
    import numpy as np

    from dicke_trimer.meanfield import ConvergenceError
    from dicke_trimer.model import ModelParams, critical_couplings
    from dicke_trimer.oracle import detect_transitions

    rng = np.random.default_rng(TRANSITION_SEED)
    lines = list(FIXED_LINES)
    for k in range(TRANSITION_LINES):
        J1, J2 = (float(v) for v in rng.uniform(-0.495, 0.495, 2))
        g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
        if k % 2 == 0:
            half = 0.5 * 10.0 ** rng.uniform(-3.0, -1.0)
            g_range = (g_c - half, g_c + half)
        else:
            g_range = (g_c * rng.uniform(0.6, 0.98), g_c * rng.uniform(1.02, 1.8))
        lines.append((J1, J2, tuple(float(g) for g in g_range),
                      int(rng.choice([5, 15, 31, 61]))))
    rows, errors = [], []
    for line, (J1, J2, g_range, n_coarse) in enumerate(lines):
        try:
            transitions = detect_transitions(J1, J2, g_range, n_coarse=n_coarse)
        except (ValueError, ConvergenceError) as err:  # typed errors are outputs too
            errors.append(f"{type(err).__name__}: {err}")
            continue
        errors.append("None")
        rows += [{"line": line, **dataclasses.asdict(t)} for t in transitions]
    _table("transition-lines", rows, fields)
    fields["transition-lines/error"] = _column(errors)


def _line_fields(fields):
    from workloads import WORKLOADS

    work = WORKLOADS["line-regions"]
    for seed in LINE_SEEDS:
        for line, records in enumerate(work.run(work.config(seed))):
            _table(f"line-regions/{seed}/{line}", records, fields)


def _bulk_fields(fields):
    import numpy as np

    from dicke_trimer.model import ModelParams
    from dicke_trimer.sweep import _records

    rng = np.random.default_rng(BULK_SEED)
    points = []
    for _ in range(BULK_POINTS):
        J1, J2 = rng.uniform(-0.5, 0.5, 2)
        points.append(ModelParams(g=float(rng.uniform(0.05, 30.0)), J1=float(J1),
                                  J2=float(J2)))
    _table("bulk", list(_records(points)), fields)


def _fsp_fields(fields):
    import numpy as np

    from dicke_trimer.meanfield import _fsp_minima
    from dicke_trimer.model import ModelParams, critical_couplings

    rng = np.random.default_rng(FSP_SEED)
    points = []
    for _ in range(FSP_POINTS):
        J1, J2 = (float(v) for v in rng.uniform(-0.49, 0.49, 2))
        gcp = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c_plus
        points.append(ModelParams(g=gcp * (1.0 + 10.0 ** rng.uniform(-9.0, 1.3)),
                                  J1=J1, J2=J2))
    x, error = _fsp_minima(points)
    for n in range(3):
        fields[f"fsp/x{n}"] = _column(x[:, n].tolist())
    fields["fsp/error"] = _column(["None" if err is None else f"{type(err).__name__}: {err}"
                                   for err in error])


def _onset_fields(fields):
    import numpy as np

    from dicke_trimer.model import ModelParams, critical_couplings
    from dicke_trimer.oracle import _brute_force_minima

    rng = np.random.default_rng(ONSET_SEED)
    points = []
    for _ in range(ONSET_POINTS):
        J1, J2 = (float(v) for v in rng.uniform(-0.45, 0.45, 2))
        g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
        points.append(ModelParams(g=g_c * (1.0 + 10.0 ** rng.uniform(-10.0, -1.0)),
                                  J1=J1, J2=J2))
    results = [r for k in range(0, len(points), ONSET_STACK)
               for r in _brute_force_minima(points[k:k + ONSET_STACK])]
    fields["onset/label"] = _column([r.label for r in results])
    fields["onset/degeneracy"] = _column([r.degeneracy for r in results])
    fields["onset/energy"] = _column([r.energy for r in results])
    for n in range(3):
        fields[f"onset/x{n}"] = _column([float(r.representative.x[n]) for r in results])


def _gl_fields(fields):
    import numpy as np

    from dicke_trimer.meanfield import _fsp_minima
    from dicke_trimer.model import ModelParams, critical_couplings, first_order_point

    rng = np.random.default_rng(GL_SEED)
    points = []
    while len(points) < GL_POINTS:
        J1, J2 = (float(v) for v in rng.uniform(-0.49, 0.49, 2))
        g_L = first_order_point(ModelParams(g=1.0, J1=J1, J2=J2)) if J1 * J2 < 0.0 else None
        if g_L is None:
            continue
        sign = float(rng.choice([-1.0, 1.0]))
        p = ModelParams(g=g_L * (1.0 + sign * 10.0 ** rng.uniform(-15.0, -3.0)), J1=J1, J2=J2)
        if p.g > critical_couplings(p).g_c_plus:
            points.append(p)
    x, error = _fsp_minima(points)
    for n in range(3):
        fields[f"near-g_L/x{n}"] = _column(x[:, n].tolist())
    fields["near-g_L/error"] = _column(["None" if err is None else f"{type(err).__name__}: {err}"
                                        for err in error])


def _root_fields(fields):
    from dicke_trimer.meanfield import root_structure
    from dicke_trimer.model import ModelParams

    cases = [root_structure(ModelParams(g=g, J1=0.1, J2=0.1), k)
             for g in ROOT_G for k in ROOT_K]
    fields["root_structure/monotonic"] = _column([int(rs.monotonic) for rs in cases])
    for key in ("roots", "turning_points"):
        fields[f"root_structure/{key}/count"] = _column([len(getattr(rs, key)) for rs in cases])
        fields[f"root_structure/{key}"] = _column(
            [float(v) for rs in cases for v in getattr(rs, key)])


def _atom_only_fields(fields):
    import numpy as np

    from dicke_trimer.meanfield import solve_atom_only
    from dicke_trimer.model import ModelParams

    # criterion 12's grid, then the draw
    points = [ModelParams(g=g, J2=J2) for J2 in (-0.3, -0.1, 0.1, 0.3)
              for g in (0.5, 0.9, 1.1, 1.5)]
    rng = np.random.default_rng(ATOM_SEED)
    for _ in range(ATOM_POINTS):
        J2 = float(rng.uniform(-0.5, 0.5))
        points.append(ModelParams(g=float(rng.uniform(0.05, 30.0)), J2=J2))
    results = [solve_atom_only(p) for p in points]
    amps = np.sort(np.abs([r.representative.alpha for r in results]), axis=1)
    fields["atom-only/label"] = _column([r.label for r in results])
    fields["atom-only/degeneracy"] = _column([r.degeneracy for r in results])
    fields["atom-only/energy"] = _column([float(r.energy) for r in results])
    for n in range(3):
        fields[f"atom-only/alpha{n}"] = _column(amps[:, n].tolist())


def _minima_fields(fields):
    import numpy as np

    from dicke_trimer.meanfield import ConvergenceError
    from dicke_trimer.model import ModelParams, critical_couplings, first_order_point
    from dicke_trimer.oracle import _minima

    rng = np.random.default_rng(MINIMA_SEED)
    points = []
    for k in range(MINIMA_POINTS):
        J1, J2 = (float(v) for v in rng.uniform(-0.49, 0.49, 2))
        if k % 2 == 0:
            points.append(ModelParams(g=float(rng.uniform(0.05, 5.0)), J1=J1, J2=J2))
            continue
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        c = critical_couplings(p)
        known = [c.g_c, c.g_c_plus, c.g_c_minus, first_order_point(p)]
        g_x = rng.choice([v for v in known if v is not None and math.isfinite(v) and v > 0.0])
        sign = float(rng.choice([-1.0, 1.0]))
        points.append(p.replace(g=float(g_x * (1.0 + sign * 10.0 ** rng.uniform(-15.0, -1.0)))))
    counts, rows, errors = [], [], []
    for k in range(0, len(points), ONSET_STACK):
        try:
            found = _minima(points[k:k + ONSET_STACK])
        except ConvergenceError as err:  # typed errors are outputs too
            errors.append(f"{type(err).__name__}: {err}")
            continue
        errors.append("None")
        counts += [len(X) for X in found]
        rows += [x for X in found for x in X]
    fields["minima/count"] = _column(counts)
    for n in range(3):
        fields[f"minima/x{n}"] = _column([float(x[n]) for x in rows])
    fields["minima/error"] = _column(errors)


def _tiny_g_fields(fields):
    import numpy as np

    from dicke_trimer.meanfield import solve_ground_states
    from dicke_trimer.model import ModelParams, Points, critical_couplings
    from dicke_trimer.oracle import _brute_force_minima

    rng = np.random.default_rng(TINY_SEED)
    J1, J2 = (-0.5 + 10.0 ** rng.uniform(-10.0, -3.0, TINY_POINTS) for _ in range(2))
    g_c = critical_couplings(Points(g=1.0, J1=J1, J2=J2)).g_c
    g = g_c * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0, TINY_POINTS))
    points = [ModelParams(g=float(a), J1=float(b), J2=float(c)) for a, b, c in zip(g, J1, J2)]
    states = solve_ground_states(points)
    results = [r for k in range(0, len(points), ONSET_STACK)
               for r in _brute_force_minima(points[k:k + ONSET_STACK])]
    fields["tiny-g/solver/label"] = _column(states.label.tolist())
    fields["tiny-g/solver/degeneracy"] = _column(states.degeneracy.tolist())
    fields["tiny-g/oracle/label"] = _column([r.label for r in results])
    fields["tiny-g/oracle/degeneracy"] = _column([r.degeneracy for r in results])


def _huge_g_fields(fields):
    from dicke_trimer.meanfield import ConvergenceError
    from dicke_trimer.model import ModelParams
    from dicke_trimer.oracle import _minima

    points = [ModelParams(g=g, J1=J1, J2=J2) for J1, J2 in HUGE_J for g in HUGE_G]
    counts, rows, errors = [], [], []
    for stack in [[p] for p in points] + [[ModelParams(g=1.1, J1=0.1, J2=-0.1)] + points]:
        try:
            found = _minima(stack)
        except ConvergenceError as err:  # typed errors are outputs too
            errors.append(f"{type(err).__name__}: {err}")
            continue
        errors.append("None")
        counts += [len(X) for X in found]
        rows += [x for X in found for x in X]
    fields["huge-g/count"] = _column(counts)
    for n in range(3):
        fields[f"huge-g/x{n}"] = _column([float(x[n]) for x in rows])
    fields["huge-g/error"] = _column(errors)


def _output_file_fields(fields):
    import os
    import tempfile
    from unittest import mock

    from dicke_trimer.cli import main
    from dicke_trimer.sweep import read_line_csv

    with (mock.patch.dict(os.environ, DICKE_TRIMER_TIMESTAMP="fixed"),
          tempfile.TemporaryDirectory() as tmp):
        for name, sweep in OUTPUT_SWEEPS.items():
            if isinstance(sweep, dict):
                config = Path(tmp, f"{name}.config.json")
                config.write_text(json.dumps(sweep))
                sweep = ["--config", str(config)]
            for fmt in ("csv", "json"):
                out = Path(tmp, f"{name}.{fmt}")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(["sweep", *sweep, "--format", fmt, "--output", str(out)])
                prefix = f"output-files/{name}.{fmt}"
                fields[f"{prefix}/exit"] = _column([code])
                fields[f"{prefix}/lines"] = _column(
                    out.read_bytes().decode().splitlines(keepends=True))
        _table("output-files/line.csv/read", read_line_csv(Path(tmp, "line.csv")), fields)


def _verify_fields(fields):
    from dicke_trimer.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--scope", "all"])
    fields["verify/exit"] = _column([code])
    fields["verify/text"] = _column(out.getvalue().splitlines())


def dump(tree, path):
    _import_tree(tree)
    fields = {}
    for part in (_grid_fields, _triple_j1_fields, _j_grid_fields, _oracle_fields,
                 _transition_line_fields, _line_fields, _bulk_fields, _fsp_fields, _onset_fields,
                 _gl_fields, _root_fields, _atom_only_fields, _minima_fields, _tiny_g_fields,
                 _huge_g_fields, _output_file_fields, _verify_fields):
        part(fields)
    Path(path).write_text(json.dumps({"tree": str(Path(tree).resolve()), "fields": fields},
                                     indent=0))
    print(f"{len(fields)} fields -> {path}")


def _rel_change(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def diff(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["fields"]
    b = json.loads(Path(path_b).read_text())["fields"]
    differs = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            differs += 1
            continue
        fa, fb = a[name], b[name]
        if fa == fb:
            continue
        differs += 1
        va, vb = fa["values"], fb["values"]
        if fa["type"] != fb["type"] or len(va) != len(vb):
            print(f"{name}: {fa['type']}[{len(va)}] -> {fb['type']}[{len(vb)}]")
            continue
        changed = [(x, y) for x, y in zip(va, vb) if x != y]
        if fa["type"] == "float":
            worst = max(_rel_change(float.fromhex(x), float.fromhex(y)) for x, y in changed)
            print(f"{name}: {len(changed)} of {len(va)} differ, "
                  f"largest relative change {worst:.3g}")
        else:
            x, y = changed[0]
            print(f"{name}: {len(changed)} of {len(va)} differ, first {x!r} -> {y!r}")
    print(f"{differs} of {len(a.keys() | b.keys())} fields differ")
    return 1 if differs else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write the outputs of the checkout TREE to OUT")
    p.add_argument("tree")
    p.add_argument("out")
    p = sub.add_parser("diff", help="compare two dumps")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.tree, args.out)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
