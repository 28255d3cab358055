"""The benchmark's phase-diagram workloads: seeded inputs, one pass, checks.

Each workload draws its inputs from ``--seed``.  The default seed (0) gives
the configurations of the acceptance criteria exactly; any other seed moves
the hopping points inside the same regions of the six-region table, as
``classify_region`` reports them.  Every reference comes from the closed
forms (``critical_couplings``, ``first_order_point``), so every seed can be
checked.

A workload's ``check`` returns the number of outputs attempted and failed and
``ref_err``, the largest distance of a located transition from its closed
form.  A failed output is an error cell or record, a label or region sequence
that differs from the closed forms, or a transition that is missing,
misplaced or misordered.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import brentq

from dicke_trimer.model import (
    FSP,
    NP,
    NSP,
    REGION_SEQUENCES,
    ModelParams,
    b_tilde,
    classify_region,
    critical_couplings,
    first_order_point,
)
from dicke_trimer.oracle import detect_transitions
from dicke_trimer.sweep import (
    Axis,
    boundary_intersection,
    sweep_g_line,
    sweep_phase_diagram,
)

DEFAULT_SEED = 0

# grid boundary points are bisected to 1e-6 in g
BOUNDARY_TOL = 1e-5
TRIPLE_TOL = 1e-3
ORACLE_TOL = 1e-4


def expected_phase(g, J1, J2):
    """Ground-state label from the closed forms: NP up to g_c, then sign of B."""
    p = ModelParams(g=g, J1=J1, J2=J2)
    if g <= critical_couplings(p).g_c:
        return NP
    return NSP if b_tilde(p) < 0.0 else FSP


def transition_point(a, b, J1, J2):
    """Closed-form g of the transition between labels a and b, or None."""
    p = ModelParams(g=1.0, J1=J1, J2=J2)
    cc = critical_couplings(p)
    pair = {a, b}
    if pair == {NP, FSP}:
        return cc.g_c_plus
    if pair == {NP, NSP}:
        return cc.g_c_minus
    if pair == {NSP, FSP}:
        return first_order_point(p)
    return None


def _draw(rng, base, spread, accept):
    """Point near ``base`` within +-spread per coordinate that ``accept`` takes."""
    while True:
        point = tuple(float(v) for v in np.asarray(base) + rng.uniform(-spread, spread, len(base)))
        if accept(*point):
            return point


# ---------------------------------------------------------------------------
# grid-triple and grid-triple-w2: the criterion-11 grid around the triple point

GRID_G = (0.9, 1.1, 41)
GRID_J2 = (-0.2, -0.02, 31)
# boundary key of sweep_phase_diagram -> the two labels it separates
BOUNDARY_LABELS = {"g_c_plus": (NP, FSP), "g_c_minus": (NP, NSP), "g_L": (NSP, FSP)}


def grid_config(seed, workers):
    g = GRID_G
    if seed != DEFAULT_SEED:
        # Shift the g columns by up to half a column; J1 and the J2 rows stay.
        # Moving J1 instead moves the triple point across the rows: over
        # J1 = 0.1 +- 0.01 the multistart calls range from 45 to 57, and where
        # a row passes just below the triple point boundary_intersection finds
        # no crossing (at J1 = 0.101, for one).
        half = 0.5 * (GRID_G[1] - GRID_G[0]) / (GRID_G[2] - 1)
        shift = float(np.random.default_rng(seed).uniform(-half, half))
        g = (GRID_G[0] + shift, GRID_G[1] + shift, GRID_G[2])
    return {"J1": 0.1, "g": g, "J2": GRID_J2, "workers": workers}


def grid_size(cfg):
    return cfg["g"][2] * cfg["J2"][2]


def grid_run(cfg):
    grid = sweep_phase_diagram(Axis("g", *cfg["g"]), Axis("J2", *cfg["J2"]),
                               fixed={"J1": cfg["J1"]}, workers=cfg["workers"])
    return grid, boundary_intersection(grid, "g_c_minus", "g_L")


def triple_point(J1):
    """Analytic (g, J2) where the g_c_minus and g_L curves cross."""
    def diff(J2):
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        return critical_couplings(p).g_c_minus - first_order_point(p)

    J2 = brentq(diff, -0.3, -0.01, xtol=1e-12)
    return critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c_minus, J2


def grid_check(cfg, out):
    grid, crossing = out
    J1 = cfg["J1"]
    attempted = failed = 0
    for row in grid.cells:
        for cell in row:
            attempted += 1
            if cell["error"] or cell["phase"] != expected_phase(cell["x"], J1, cell["y"]):
                failed += 1
    errs = []
    for key, points in grid.boundaries.items():
        labels = BOUNDARY_LABELS.get(key, (None, None))
        for g, J2 in points:
            attempted += 1
            ref = transition_point(*labels, J1, J2)
            err = math.inf if ref is None else abs(g - ref)
            errs.append(err)
            failed += err > BOUNDARY_TOL
    attempted += 1
    if crossing is None:
        failed += 1
        errs.append(math.inf)
    else:
        g_star, J2_star = triple_point(J1)
        dist = math.hypot(crossing[0] - g_star, crossing[1] - J2_star)
        errs.append(dist)
        failed += dist > TRIPLE_TOL
    return attempted, failed, max(errs)


# ---------------------------------------------------------------------------
# line-regions: one g line per region of the six-region table

REGION_POINTS = {
    1: (0.3, -0.1), 2: (0.1, 0.1), 3: (-0.1, 0.3),
    4: (-0.3, 0.3), 5: (-0.1, -0.1), 6: (0.1, -0.1),
}
LINE_G = (0.05, 2.5, 401)


def _transition_marks(J1, J2):
    """Closed-form transition points met along g, in the region's order."""
    p = ModelParams(g=1.0, J1=J1, J2=J2)
    cc = critical_couplings(p)
    seq = classify_region(J1, J2).expected_sequence
    marks = [cc.g_c]
    if len(seq) == 3:
        marks.append(first_order_point(p))
    return marks


def _line_point(rng, region):
    """Hopping point within +-0.01 of the region's default point.

    Where the line starts NP -> FSP, the point moves along its own g_c_plus
    level curve.  Whether the first FSP point needs the multistart depends on
    where g_c_plus falls between two g points; a free move changes the
    multistart count of a pass from 1 to 4 and its time by up to 30%.
    """
    lo, hi, n = LINE_G
    step = (hi - lo) / (n - 1)
    J1_0, J2_0 = REGION_POINTS[region]
    gcp2 = (1.0 - J1_0) * (1.0 - J2_0)
    while True:
        J1, J2 = (float(v) for v in np.array((J1_0, J2_0)) + rng.uniform(-0.01, 0.01, 2))
        if REGION_SEQUENCES[region][1] == FSP:
            J2 = 1.0 - gcp2 / (1.0 - J1)
        if classify_region(J1, J2).region != region:
            continue
        # each phase spans at least five g points inside the line
        edges = [lo] + _transition_marks(J1, J2) + [hi]
        if all(b - a > 5 * step for a, b in zip(edges, edges[1:])):
            return J1, J2


def lines_config(seed):
    if seed == DEFAULT_SEED:
        lines = [(r, *REGION_POINTS[r]) for r in sorted(REGION_POINTS)]
    else:
        rng = np.random.default_rng(seed)
        lines = [(r, *_line_point(rng, r)) for r in sorted(REGION_POINTS)]
    return {"lines": lines, "g": LINE_G}


def lines_size(cfg):
    return len(cfg["lines"]) * cfg["g"][2]


def lines_run(cfg):
    gs = np.linspace(*cfg["g"])
    return [sweep_g_line(J1, J2, gs) for _, J1, J2 in cfg["lines"]]


def lines_check(cfg, out):
    attempted = failed = 0
    errs = [0.0]
    for (region, J1, J2), records in zip(cfg["lines"], out):
        for rec in records:
            attempted += 1
            if rec["error"] or rec["phase"] != expected_phase(rec["g"], J1, J2):
                failed += 1
        seq = []
        for prev, rec in zip([None] + records, records):
            if seq and rec["phase"] == seq[-1]:
                continue
            seq.append(rec["phase"])
            if prev is None:
                continue
            attempted += 1
            ref = transition_point(prev["phase"], rec["phase"], J1, J2)
            if ref is None or not prev["g"] <= ref <= rec["g"]:
                failed += 1
                errs.append(math.inf)
            else:
                errs.append(abs(0.5 * (prev["g"] + rec["g"]) - ref))
        attempted += 1
        failed += tuple(seq) != REGION_SEQUENCES[region]
    return attempted, failed, max(errs)


# ---------------------------------------------------------------------------
# oracle-line: brute-force transition detection on the criterion-4 line

ORACLE_POINT = (0.1, -0.1)
ORACLE_G = (0.9, 1.2)
ORACLE_COARSE = 31


def oracle_config(seed):
    J1, J2 = ORACLE_POINT
    g_range = ORACLE_G
    if seed != DEFAULT_SEED:
        def accept(j1, j2):
            p = ModelParams(g=1.0, J1=j1, J2=j2)
            return (classify_region(j1, j2).region == 6
                    and first_order_point(p) - critical_couplings(p).g_c_minus > 0.04)
        J1, J2 = _draw(np.random.default_rng(seed), ORACLE_POINT, 0.01, accept)
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        # same margins around the two transitions as the default line
        g_range = (critical_couplings(p).g_c_minus - 0.08, first_order_point(p) + 0.16)
    return {"J1": J1, "J2": J2, "g": g_range, "n_coarse": ORACLE_COARSE}


def oracle_size(cfg):
    return cfg["n_coarse"]


def oracle_run(cfg):
    return detect_transitions(cfg["J1"], cfg["J2"], cfg["g"], n_coarse=cfg["n_coarse"])


def oracle_check(cfg, out):
    p = ModelParams(g=1.0, J1=cfg["J1"], J2=cfg["J2"])
    expected = [(critical_couplings(p).g_c_minus, "second"), (first_order_point(p), "first")]
    errs = [abs(t.g_star - ref) if t.order == order else math.inf
            for t, (ref, order) in zip(out, expected)]
    matched = sum(e < ORACLE_TOL for e in errs)
    attempted = max(len(out), len(expected))
    missing = [math.inf] * (attempted - len(errs))
    return attempted, attempted - matched, max(errs + missing)


# ---------------------------------------------------------------------------

class Workload(NamedTuple):
    name: str
    config: Callable  # seed -> config dict
    size: Callable  # config -> output points per pass
    run: Callable  # config -> output of one pass
    check: Callable  # (config, output) -> (attempted, failed, ref_err)


WORKLOADS = {
    w.name: w for w in (
        Workload("grid-triple", lambda s: grid_config(s, 1), grid_size, grid_run, grid_check),
        Workload("grid-triple-w2", lambda s: grid_config(s, 2), grid_size, grid_run, grid_check),
        Workload("line-regions", lines_config, lines_size, lines_run, lines_check),
        Workload("oracle-line", oracle_config, oracle_size, oracle_run, oracle_check),
    )
}
