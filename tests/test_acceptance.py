"""Acceptance gate: the twelve headline checks, one test per criterion.

Each test delegates to the corresponding check in ``dicke_trimer.verify``
(shared with `dicke-trimer verify`) and prints a single PASS/FAIL line with
the measured figure of merit.
"""

import pytest

from dicke_trimer import verify


def _run(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_critical_point_formulas():
    """The soft-mode root reproduces the closed-form g_c within 1e-6, 50 points/region."""
    _run(verify.criterion_1_critical_points)


def test_criterion_02_order_parameter_exponent():
    """|alpha| ~ (g-g_c)^0.5 on both ordered branches, 0.5 +- 0.02."""
    _run(verify.criterion_2_order_parameter_exponent)


def test_criterion_03_soft_mode_gap_exponents():
    """Gap exponents: 1.0 +- 0.05 on the frustrated side, 0.5 +- 0.02 uniform."""
    _run(verify.criterion_3_gap_exponents)


def test_criterion_04_transition_locations():
    """J1=0.1, J2=-0.1 line: second order at sqrt(0.96), first at sqrt(1.08), 1e-4."""
    _run(verify.criterion_4_transition_line)


def test_criterion_05_degeneracy_counts():
    """Oracle finds exactly 6 FSP / 2 NSP minima, energies equal within 1e-10."""
    _run(verify.criterion_5_degeneracy)


def test_criterion_06_asymptotic_ratios():
    """x1/x2 -> -2 and alpha2/alpha1 -> -1/2 within 1% at onset + 1e-4."""
    _run(verify.criterion_6_asymptotic_ratios)


def test_criterion_07_region_table_sequences():
    """Phase sequence over a g scan matches the region table in all six regions."""
    _run(verify.criterion_7_table_sequences)


def test_criterion_08_energy_lower_bound():
    """Cauchy-Schwarz lower bound never violated beyond 1e-12 (1e5 draws x 10)."""
    _run(verify.criterion_8_cauchy_schwarz)


def test_criterion_09_spectrum_equivalence():
    """Analytic normal-phase spectrum equals symplectic numerics to 1e-10."""
    _run(verify.criterion_9_spectrum_equivalence)


def test_criterion_10_gradient_check():
    """Analytic gradient equals central finite differences within 1e-6."""
    _run(verify.criterion_10_gradient_check)


def test_criterion_11_triple_point():
    """Numeric boundary-polyline crossing within 1e-3 of the analytic triple point."""
    _run(verify.criterion_11_triple_point)


def test_criterion_12_atom_only_consistency():
    """J1=0 dedicated solver agrees with the general dispatch within 1e-8."""
    _run(verify.criterion_12_atom_only_consistency)


# the two further checks of the spectrum and oracle scopes


def test_frustrated_stationarity():
    """|grad E| of the frustrated branch near onset below 1e-12."""
    _run(verify.check_frustrated_stationarity)


def test_oracle_agreement():
    """Oracle global minimum equals the analytic-branch energy within 1e-9."""
    _run(verify.check_oracle_agreement)


def test_runtime_needs_only_numpy():
    """With scipy blocked before the import, the atom-only solver runs in NSP
    and FSP and all 16 checks of `verify --scope all` pass."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    import dicke_trimer

    src = str(Path(dicke_trimer.__file__).resolve().parents[1])
    code = ("import json, sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
            "from dicke_trimer import ModelParams, solve_atom_only, verify; "
            "labels = [solve_atom_only(ModelParams(g=1.5, J2=J2)).label for J2 in (-0.3, 0.3)]; "
            "print(json.dumps([labels, [bool(r.passed) for r in verify.run_scope('all')]]))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    labels, passed = json.loads(out.stdout)
    assert labels == ["NSP", "FSP"]
    assert passed == [True] * 16
