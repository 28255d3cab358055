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
* the transitions of ``oracle-line`` seeds 0-7;
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
* ``root_structure`` at ``J1 = J2 = 0.1`` for g in {0.8, 1.2, 3.0} and k in
  {0, +-1, +-1e3, +-1e5, +-1e6, +-1e7}: the monotonic flags, root counts,
  roots and turning points;
* ``atom-only``: the label, degeneracy, energy and sorted ``|alpha|`` of
  ``solve_atom_only`` at the 16 points of criterion 12 and on the ``J1 = 0``
  draw of 1,000 points of seed 12, per point ``J2`` uniform on (-0.5, 0.5),
  then g uniform on (0.05, 30);
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
LINE_SEEDS = range(4)
ORACLE_SEEDS = range(8)
BULK_SEED = 20261018
BULK_POINTS = 3000
FSP_SEED = 2027
FSP_POINTS = 4000
ROOT_G = (0.8, 1.2, 3.0)
ROOT_K = (0.0, 1.0, -1.0, 1e3, -1e3, 1e5, -1e5, 1e6, -1e6, 1e7, -1e7)
ATOM_SEED = 12
ATOM_POINTS = 1000


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


def _grid_fields(fields):
    from workloads import WORKLOADS

    work = WORKLOADS["grid-triple"]
    for seed in GRID_SEEDS:
        grid, crossing = work.run(work.config(seed))
        prefix = f"grid-triple/{seed}"
        _table(f"{prefix}/cells", [cell for row in grid.cells for cell in row], fields)
        for key, points in sorted(grid.boundaries.items()):
            _table(f"{prefix}/boundaries/{key}",
                   [{"x": x, "y": y} for x, y in points], fields)
        for key, dev in sorted(grid.analytic_deviation.items()):
            fields[f"{prefix}/analytic_deviation/{key}"] = _column([dev])
        fields[f"{prefix}/triple_point"] = _column(
            ["None"] if crossing is None else crossing)


def _oracle_fields(fields):
    from workloads import WORKLOADS

    work = WORKLOADS["oracle-line"]
    for seed in ORACLE_SEEDS:
        transitions = work.run(work.config(seed))
        _table(f"oracle-line/{seed}", [dataclasses.asdict(t) for t in transitions], fields)
        fields[f"oracle-line/{seed}/count"] = _column([len(transitions)])


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
    for part in (_grid_fields, _oracle_fields, _line_fields, _bulk_fields, _fsp_fields,
                 _root_fields, _atom_only_fields, _verify_fields):
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
