"""Programmatic acceptance checks.

Each criterion function returns a ``CheckResult``.  :data:`CHECKS` lists
them all with the scope exposed by the command line (formulas, oracle,
spectrum) and :func:`run_scope` runs one scope, or all of them.  The same
functions back the pytest acceptance suite, so `verify --scope all` and the
tests always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FSP,
    NSP,
    REGION_SEQUENCES,
    ModelParams,
    Points,
    alpha_from_x,
    b_tilde,
    c_tilde,
    classify_region,
    critical_couplings,
    dividing_curve,
    first_order_point,
)
from .meanfield import (
    ConvergenceError,
    _bracketed_roots,
    _fsp_minima,
    energy,
    gradient,
    solve_atom_only,
    solve_ground_state,
    solve_ground_states,
)
from .oracle import _brute_force_minima, detect_transitions
from .spectrum import (
    _CRITICAL_OFFSETS,
    _assemble,
    _raise_first,
    analytic_np_spectrum,
    fit_power_law,
    fit_critical_exponent,
    spectra,
)
from .sweep import Axis, boundary_intersection, sweep_phase_diagram


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sample_region(rng, region):
    """Random interior (J1, J2) belonging to the requested Table region."""
    while True:
        J1 = rng.uniform(-0.45, 0.45)
        J2 = rng.uniform(-0.45, 0.45)
        if abs(J1) < 0.02 or abs(J2) < 0.02:
            continue
        if abs(J1 - dividing_curve(J2)) < 0.02:
            continue
        label = classify_region(J1, J2)
        if label.region == region:
            return J1, J2


def criterion_1_critical_points():
    """The root of the soft mode, the smallest eigenvalue of the x = 0 form's
    position block Mx, reproduces g_c within 1e-6.  All roots on [g_c / 2,
    2 g_c] are solved in lockstep from both ends' values; a row whose ends
    do not bracket a root (a NaN end brackets nothing) fails the check."""
    rng = np.random.default_rng(0)
    J1, J2 = np.array([_sample_region(rng, region) for region in range(1, 7)
                       for _ in range(50)]).T
    g_c = critical_couplings(Points(g=1.0, J1=J1, J2=J2)).g_c

    def soft_mode(g, J1, J2):  # x = 0 is inside and stationary at every g
        M = _assemble(np.zeros((len(g), 3)), Points(g=g, J1=J1, J2=J2))[0]
        return np.linalg.eigvalsh(M[:, 0])[:, 0]

    lo, hi = 0.5 * g_c, 2.0 * g_c
    f1, f2 = soft_mode(lo, J1, J2), soft_mode(hi, J1, J2)
    rows = np.flatnonzero(np.sign(f1) * np.sign(f2) <= 0.0)
    roots = _bracketed_roots(soft_mode, lo[rows], hi[rows], f1[rows], f2[rows], J1[rows], J2[rows])
    worst = float(np.max(np.abs(roots - g_c[rows]), initial=0.0))
    missed = len(g_c) - len(rows)
    return CheckResult("critical-point formulas (soft-mode root vs closed form)",
                       not missed and worst < 1e-6, f"max |g_root - g_c| = {worst:.2e} "
                       f"(tol 1e-6), {missed} of {len(g_c)} rows not bracketed")


def _order_parameter_exponent(J1, J2):
    g_c = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c
    points = Points(g=g_c + _CRITICAL_OFFSETS, J1=J1, J2=J2)
    states = solve_ground_states(points)
    _raise_first(states.error)
    amps = np.max(np.abs(alpha_from_x(states.representative, points)), axis=1)
    return fit_power_law(_CRITICAL_OFFSETS, amps).exponent


def criterion_2_order_parameter_exponent():
    """|alpha| ~ (g - g_c)^1/2 on both superradiant branches."""
    e_nsp = _order_parameter_exponent(-0.1, -0.1)
    e_fsp = _order_parameter_exponent(0.1, 0.1)
    passed = abs(e_nsp - 0.5) < 0.02 and abs(e_fsp - 0.5) < 0.02
    return CheckResult("order-parameter exponent 1/2 (NSP and FSP)", passed,
                       f"NSP {e_nsp:.4f}, FSP {e_fsp:.4f} (0.5 +- 0.02)")


def criterion_3_gap_exponents():
    """Soft-mode gap exponents: 1 above g_c+ (FSP), 1/2 above g_c- (NSP)."""
    fit_fsp = fit_critical_exponent(ModelParams(g=1.0, J1=0.1, J2=0.1), "above")
    fit_nsp = fit_critical_exponent(ModelParams(g=1.0, J1=-0.1, J2=-0.1), "above")
    passed = abs(fit_fsp.exponent - 1.0) < 0.05 and abs(fit_nsp.exponent - 0.5) < 0.02
    return CheckResult("soft-mode gap exponents (FSP 1.0, NSP 0.5)", passed,
                       f"FSP {fit_fsp.exponent:.4f} (1.0 +- 0.05), "
                       f"NSP {fit_nsp.exponent:.4f} (0.5 +- 0.02)")


def criterion_4_transition_line():
    """The J1=0.1, J2=-0.1 line: second-order then first-order transition."""
    transitions = detect_transitions(0.1, -0.1, (0.9, 1.2), n_coarse=31)
    g_second = math.sqrt(0.96)
    g_first = math.sqrt(1.08)
    ok_count = len(transitions) == 2
    if not ok_count:
        return CheckResult("first/second-order transition locations", False,
                           f"expected 2 transitions, found {len(transitions)}")
    t2, t1 = transitions
    passed = (
        abs(t2.g_star - g_second) < 1e-4 and t2.order == "second"
        and abs(t1.g_star - g_first) < 1e-4 and t1.order == "first"
    )
    detail = (f"second at {t2.g_star:.6f} ({t2.order}; ref {g_second:.6f}), "
              f"first at {t1.g_star:.6f} ({t1.order}; ref {g_first:.6f}), tol 1e-4")
    return CheckResult("first/second-order transition locations", passed, detail)


def criterion_5_degeneracy():
    """Oracle enumeration: 6 equal-energy FSP minima, 2 NSP minima."""
    rng = np.random.default_rng(1)
    drawn = []  # (label, want, params): the draws never read the oracle
    for label, want in ((FSP, 6), (NSP, 2)):
        found = 0
        while found < 20:
            # floats, so that the failure detail prints plain numbers
            J1, J2 = rng.uniform(-0.45, 0.45, 2).tolist()
            params = ModelParams(g=rng.uniform(0.3, 2.0), J1=J1, J2=J2)
            cc = critical_couplings(params)
            try:
                ana = solve_ground_state(params)
            except (ConvergenceError, ValueError):
                continue
            if ana.label != label or params.g < cc.g_c + 5e-3:
                continue
            found += 1
            drawn.append((label, want, params))
    failures = []
    for (label, want, params), res in zip(drawn, _brute_force_minima(p for *_, p in drawn)):
        energies = [energy(s.x, params) for s in res.all_minima]
        spread = max(energies) - min(energies)
        if res.degeneracy != want or spread > 1e-10:
            failures.append((label, params.g, params.J1, params.J2, res.degeneracy, spread))
    passed = not failures
    detail = "all degeneracies and 1e-10 energy spreads OK" if passed else \
        f"failures: {failures[:3]}"
    return CheckResult("oracle degeneracy counts (FSP 6, NSP 2)", passed, detail)


def criterion_6_asymptotic_ratios():
    """x1/x2 -> -2 and alpha2/alpha1 -> -1/2 at g_c+ + 1e-4."""
    params = ModelParams(g=1.0, J1=0.1, J2=0.1)
    gcp = critical_couplings(params).g_c_plus
    res = solve_ground_state(params.replace(g=gcp + 1e-4))
    xs = np.sort(res.representative.x)
    ratio_x = xs[0] / xs[1]
    alpha = res.representative.alpha
    order = np.argsort(np.abs(alpha))[::-1]
    ratio_a = alpha[order[1]] / alpha[order[0]]
    passed = abs(ratio_x + 2.0) < 0.02 and abs(ratio_a + 0.5) < 0.005
    return CheckResult("asymptotic amplitude ratios at onset", passed,
                       f"x1/x2 = {ratio_x:.5f} (-2 +- 1%), "
                       f"alpha2/alpha1 = {ratio_a:.5f} (-0.5 +- 1%)")


_REGION_SAMPLES = {
    1: (0.3, -0.1), 2: (0.1, 0.1), 3: (-0.1, 0.3),
    4: (-0.3, 0.3), 5: (-0.1, -0.1), 6: (0.1, -0.1),
}


def criterion_7_table_sequences():
    """Phase sequence over a g scan matches the region table in every region."""
    failures = []
    for region, (J1, J2) in _REGION_SAMPLES.items():
        params = ModelParams(g=1.0, J1=J1, J2=J2)
        cc = critical_couplings(params)
        gL = first_order_point(params)
        marks = [cc.g_c] + ([gL] if gL is not None and gL > cc.g_c else [])
        gs = [0.5 * cc.g_c]
        for lo, hi in zip(marks, marks[1:] + [marks[-1] * 1.5]):
            gs.append(0.5 * (lo + hi) if hi > lo else lo * 1.2)
        seq = []
        for g in gs:
            label = solve_ground_state(params.replace(g=g)).label
            if not seq or seq[-1] != label:
                seq.append(label)
        if tuple(seq) != REGION_SEQUENCES[region]:
            failures.append((region, tuple(seq), REGION_SEQUENCES[region]))
    passed = not failures
    return CheckResult("region table phase sequences", passed,
                       "all six sequences match" if passed else f"{failures}")


def criterion_8_cauchy_schwarz():
    """Lower-bound inequality for B < 0 backgrounds never violated."""
    rng = np.random.default_rng(2)
    worst = -np.inf
    checked = 0
    while checked < 10:
        J1, J2 = rng.uniform(-0.45, 0.45, 2)
        g = rng.uniform(0.3, 2.0)
        params = ModelParams(g=g, J1=J1, J2=J2)
        B = b_tilde(params)
        if B >= 0.0:
            continue
        checked += 1
        x = rng.uniform(-0.5 * g, 0.5 * g, size=(100_000, 3)) * (1 - 1e-9)
        E = energy(x, params)
        s2 = np.sum(x * x, axis=1)
        bound = (c_tilde(J1) + 2.0 * B) * s2 \
            - 1.5 * np.sqrt(1.0 - 4.0 * s2 / (3.0 * g * g))
        worst = max(worst, float(np.max(bound - E)))
    passed = worst < 1e-12
    return CheckResult("Cauchy-Schwarz energy lower bound", passed,
                       f"max(bound - E) = {worst:.2e} (must be < 1e-12)")


def criterion_9_spectrum_equivalence():
    """Analytic normal-phase spectrum vs the numeric (block SVD) route, on
    100 x = 0 forms in one stacked spectrum."""
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(100):
        J1, J2 = rng.uniform(-0.45, 0.45, 2)
        cc = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2))
        rows.append((rng.uniform(0.05, 0.999 * cc.g_c), J1, J2))
    points = Points(*np.array(rows).T)
    numeric, errors = spectra(np.zeros((len(points), 3)), points)
    _raise_first(errors)
    analytic = np.array([analytic_np_spectrum(p).energies for p in points])
    worst = float(np.max(np.abs(numeric - analytic)))
    passed = worst < 1e-10
    return CheckResult("normal-phase spectrum oracle equivalence", passed,
                       f"max |numeric - analytic| = {worst:.2e} (tol 1e-10)")


def criterion_10_gradient_check():
    """Analytic gradient vs central finite differences at random points."""
    rng = np.random.default_rng(4)
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        J1, J2 = rng.uniform(-0.45, 0.45, 2)
        g = rng.uniform(0.3, 2.0)
        params = ModelParams(g=g, J1=J1, J2=J2)
        x = rng.uniform(-0.45 * g, 0.45 * g, 3)
        grad = gradient(x, params)
        for n in range(3):
            e = np.zeros(3)
            e[n] = h
            fd = (energy(x + e, params) - energy(x - e, params)) / (2.0 * h)
            worst = max(worst, abs(fd - grad[n]))
    passed = worst < 1e-6
    return CheckResult("gradient vs finite differences", passed,
                       f"max deviation {worst:.2e} (tol 1e-6)")


def criterion_11_triple_point():
    """Numeric g_c- / g_L boundary crossing matches the analytic triple point."""
    J1 = 0.1
    # g_c_minus^2 = (1 + 2 J1)(1 + 2 J2) and g_L^2 = -(1 + 2 J1)(1 - J1) J2/J1 are
    # both linear in J2, so they meet at one J2: on the dividing curve, where
    # g_c_plus = g_c_minus as well
    J2_star = -J1 / (1.0 + J1)
    g_star = math.sqrt((1.0 + 2.0 * J1) * (1.0 - J1) / (1.0 + J1))

    grid = sweep_phase_diagram(
        Axis("g", 0.9, 1.1, 41), Axis("J2", -0.2, -0.02, 31), fixed={"J1": J1})
    crossing = boundary_intersection(grid, "g_c_minus", "g_L")
    if crossing is None:
        return CheckResult("triple point location", False,
                           "boundary polylines do not intersect")
    dist = math.hypot(crossing[0] - g_star, crossing[1] - J2_star)
    passed = dist < 1e-3
    return CheckResult(
        "triple point location", passed,
        f"numeric ({crossing[0]:.6f}, {crossing[1]:.6f}) vs analytic "
        f"({g_star:.6f}, {J2_star:.6f}), distance {dist:.2e} (tol 1e-3)")


def criterion_12_atom_only_consistency():
    """J1=0 dedicated solver agrees with the general dispatch on a grid."""
    failures = []
    worst = 0.0
    for J2 in (-0.3, -0.1, 0.1, 0.3):
        for g in (0.5, 0.9, 1.1, 1.5):
            params = ModelParams(g=g, J1=0.0, J2=J2)
            a = solve_atom_only(params)
            b = solve_ground_state(params)
            amp_a = np.sort(np.abs(a.representative.alpha))
            amp_b = np.sort(np.abs(b.representative.alpha))
            dev = float(np.max(np.abs(amp_a - amp_b)))
            worst = max(worst, dev)
            if a.label != b.label or a.degeneracy != b.degeneracy or dev > 1e-8:
                failures.append((J2, g, a.label, b.label, dev))
    passed = not failures
    return CheckResult("atom-only solver consistency at J1=0", passed,
                       f"max |alpha| deviation {worst:.2e} (tol 1e-8)"
                       if passed else f"failures: {failures}")


# ---------------------------------------------------------------------------
# extra formula identities (verify --scope formulas)

def check_formula_identities():
    """Closed-form consistency: dividing curve, B(g_L)=0, on-curve degeneracy."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        J2 = rng.uniform(-0.45, 0.45)
        J1 = dividing_curve(J2)
        if not -0.5 < J1 < 0.5:
            continue
        cc = critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2))
        worst = max(worst, abs(cc.g_c_plus - cc.g_c_minus))
        params = ModelParams(g=1.0, J1=rng.uniform(-0.45, 0.45),
                             J2=rng.uniform(-0.45, 0.45))
        gL = first_order_point(params)
        if gL is not None:
            worst = max(worst, abs(b_tilde(params.replace(g=gL))))
    passed = worst < 1e-12
    return CheckResult("formula identities (dividing curve, B(g_L)=0)", passed,
                       f"max identity residual {worst:.2e} (tol 1e-12)")


def check_region_table_points():
    """The six sampled interior points classify to their table regions."""
    bad = [(r, pt) for r, pt in _REGION_SAMPLES.items()
           if classify_region(*pt).region != r]
    return CheckResult("region classification of table sample points",
                       not bad, "all match" if not bad else f"bad: {bad}")


def check_oracle_agreement():
    """Oracle global minimum equals the analytic-branch energy within 1e-9."""
    rng = np.random.default_rng(6)
    points, analytic = [], []
    for _ in range(12):
        J1, J2 = rng.uniform(-0.45, 0.45, 2)
        g = rng.uniform(0.3, 2.0)
        params = ModelParams(g=g, J1=J1, J2=J2)
        try:
            analytic.append(solve_ground_state(params).energy)
        except (ConvergenceError, ValueError):
            continue
        points.append(params)
    worst = 0.0
    for res, e in zip(_brute_force_minima(points), analytic):
        worst = max(worst, abs(res.energy - e))
    passed = worst < 1e-9
    return CheckResult("oracle vs analytic branch energies", passed,
                       f"max |E_oracle - E_branch| = {worst:.2e} (tol 1e-9)")


def check_frustrated_stationarity():
    """|grad E| of the frustrated solution near onset is below 1e-12."""
    params = ModelParams(g=1.0, J1=0.1, J2=0.1)
    gcp = critical_couplings(params).g_c_plus
    points = Points.of([params.replace(g=gcp + dg) for dg in (1e-5, 1e-3, 1e-1)])
    x, errors = _fsp_minima(points)
    _raise_first(errors)
    worst = float(np.max(np.abs(gradient(x, points))))
    passed = worst < 1e-12
    return CheckResult("frustrated stationarity residuals", passed,
                       f"max residual {worst:.2e} (tol 1e-12)")


# every check in the order `verify --scope all` runs it, with the narrower
# scope it also belongs to (None: only in "all")
CHECKS = [
    (criterion_1_critical_points, "formulas"),
    (criterion_2_order_parameter_exponent, "spectrum"),
    (criterion_3_gap_exponents, "spectrum"),
    (criterion_4_transition_line, "oracle"),
    (criterion_5_degeneracy, "oracle"),
    (criterion_6_asymptotic_ratios, "formulas"),
    (criterion_7_table_sequences, "formulas"),
    (criterion_8_cauchy_schwarz, "oracle"),
    (criterion_9_spectrum_equivalence, "spectrum"),
    (criterion_10_gradient_check, "oracle"),
    (criterion_11_triple_point, None),
    (criterion_12_atom_only_consistency, None),
    (check_formula_identities, "formulas"),
    (check_region_table_points, "formulas"),
    (check_oracle_agreement, "oracle"),
    (check_frustrated_stationarity, "spectrum"),
]


def run_scope(scope: str):
    """Run all checks for a scope; returns the list of CheckResults."""
    scopes = sorted({s for _, s in CHECKS if s}) + ["all"]
    if scope not in scopes:
        raise ValueError(f"unknown scope {scope!r}; choose from {', '.join(scopes)}")
    return [fn() for fn, s in CHECKS if scope in (s, "all")]
