"""Symplectic spectrum at and next to the critical couplings.

At g_c the quadratic form M is singular and J @ M carries a Jordan block;
the spectrum must still return, with the closed gap flagged as critical.
"""

import numpy as np
import pytest

from dicke_trimer import (
    ModelParams,
    analytic_np_spectrum,
    critical_couplings,
    excitation_spectrum,
    solve_ground_state,
)
from dicke_trimer.cli import main


def _hoppings(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        J1, J2 = rng.uniform(-0.5, 0.5, 2)
        yield J1, J2, critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2))


def _np_spectrum(params):
    return excitation_spectrum(np.zeros(3), params)


def test_np_at_exact_critical_point():
    for J1, J2, cc in _hoppings(41, 50):
        p = ModelParams(g=cc.g_c, J1=J1, J2=J2)
        res = _np_spectrum(p)
        assert res.critical
        assert res.soft_mode_gap <= 1e-7
        assert np.max(np.abs(res.energies - analytic_np_spectrum(p).energies)) <= 1e-7


def test_np_just_below_critical_point_not_flagged():
    for J1, J2, cc in _hoppings(41, 50):
        assert not _np_spectrum(ModelParams(g=cc.g_c * (1 - 1e-9), J1=J1, J2=J2)).critical


@pytest.mark.parametrize("J1, J2, dg", [(0.1, 0.1, 1e-10), (0.2, -0.05, 1e-9)])
def test_fsp_just_above_onset(J1, J2, dg):
    p = ModelParams(g=critical_couplings(ModelParams(g=1.0, J1=J1, J2=J2)).g_c_plus + dg,
                    J1=J1, J2=J2)
    res = solve_ground_state(p)
    assert res.label == "FSP"
    spec = excitation_spectrum(res.representative.x, p)
    assert spec.energies.shape == (6,)
    assert np.all(spec.energies >= 0.0)
    assert spec.critical


def test_seeded_probe_at_critical_couplings():
    # 67 hoppings over the open domain, each at g_c, g_c_plus and g_c_minus
    # offset by 0, +-1e-9, 1e-6 and 1e-3: 1005 ground states with spectra
    failures = []
    for J1, J2, cc in _hoppings(7, 67):
        for gc in (cc.g_c, cc.g_c_plus, cc.g_c_minus):
            for dg in (0.0, 1e-9, -1e-9, 1e-6, 1e-3):
                p = ModelParams(g=gc + dg, J1=J1, J2=J2)
                try:
                    res = solve_ground_state(p)
                    spec = excitation_spectrum(res.representative.x, p)
                except (ValueError, RuntimeError) as exc:
                    failures.append((J1, J2, p.g, type(exc).__name__))
                    continue
                assert np.all(spec.energies >= 0.0)
    assert failures == []


def test_cli_solve_at_exact_critical_point(capsys):
    code = main(["solve", "--g", "0.9", "--j1", "0.1", "--j2", "0.1"])
    assert code == 0
    assert "phase: NP" in capsys.readouterr().out
