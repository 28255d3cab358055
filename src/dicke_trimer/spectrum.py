"""Quadratic fluctuation Hamiltonian and its symplectic spectrum.

The form has no position-momentum terms: H = 1/2 (X^T Mx X + P^T Mp P) with
positions X = (q1..q3, Q1..Q3) and momenta P = (p1..p3, P1..P3), q, p the
cavity and Q, P the atomic quadratures.  Excitation energies are its
symplectic (Williamson) eigenvalues d_k, the singular values of
sqrt(Mx) sqrt(Mp) (Williamson, Am. J. Math. 58, 141 (1936)).  The kernels
work on stacks of forms: :func:`spectra` assembles the (N, 2, 6, 6) stack of
block pairs about N backgrounds (their parameters one Points record) and
solves it with one stacked eigensolver and one stacked SVD call per chunk,
and :func:`excitation_spectrum` is its one-row case, equal to a stacked row
bitwise.  The analytic normal-phase
spectrum (see docs/normal_phase_spectrum.md for the derivation) provides an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, Points, critical_couplings, first_order_point
from .meanfield import (
    STATIONARITY_TOL,
    _domain_error,
    _inside,
    bloch_theta,
    gradient,
    solve_ground_state,
    solve_ground_states,
)

_CRITICAL_TOL = 1e-10
#: |g - g_c| at the 13 points of a critical-exponent fit
_CRITICAL_OFFSETS = np.geomspace(1e-6, 1e-3, 13)
#: forms per stacked eigensolver call in :func:`spectra`, bounding the
#: (rows, 2, 6, 6) work arrays
_CHUNK = 64


class UnstableBackgroundError(ValueError):
    """The quadratic form is not positive semidefinite (wrong phase assignment)."""


@dataclass(frozen=True)
class SpectrumResult:
    """Excitation energies sorted ascending (same energy units as omega).

    momentum_labels is set for the analytic normal-phase route only: a tuple
    of (k, branch) per energy with branch in {"-", "+"}.
    soft_mode_gap is the smallest energy.  ``critical`` flags a closed gap:
    Mx singular to working precision on the numeric route (Mp stays
    positive definite), a gap below 1e-10 on the analytic one.
    """

    energies: np.ndarray
    soft_mode_gap: float
    momentum_labels: tuple | None = None
    critical: bool = False


def _diag(v):
    """Stack of diagonal matrices, np.diag of every row of v (N, 3)."""
    D = np.zeros(v.shape + (3,))
    D[:, range(3), range(3)] = v
    return D


def _assemble(x, points):
    """The fluctuation blocks M (N, 2, 6, 6) about a stack of backgrounds:
    M[:, 0] = Mx on (q1..q3, Q1..Q3), M[:, 1] = Mp on (p1..p3, P1..P3).

    x is (N, 3) and points holds one row per row of x; the Bloch angles
    theta_n follow from x.  Also returns, per row, the DomainError of a
    background outside |x_n| < g/2, the ValueError of one that is not
    stationary (the linear fluctuation term would not vanish), or None.
    The M of a row outside the domain is that of x = 0.
    Entries: omega/2 photon diagonal, -Omega/(2 cos theta_n) atom diagonal,
    2*lambda*cos(theta_n) q-Q cross terms (phi absorbed into signed alpha),
    Jbar1 photon hopping on both q and p, Jbar2 atom hopping on P and on Q
    weighted by cos(theta_n)*cos(theta_{n+1}).
    """
    p = points = Points.of(points)
    g, omega, Omega, lam, Jbar1, Jbar2 = (
        u[:, None] for u in (p.g, p.omega, p.Omega, p.lam, p.Jbar1, p.Jbar2))
    outside = ~_inside(x, g)
    errors = [None] * len(x)
    for k in np.flatnonzero(outside):
        errors[k] = _domain_error(x[k], g[k, 0])
    x = np.where(outside[:, None], 0.0, x)
    inside = np.flatnonzero(~outside)
    resid = (np.max(np.abs(gradient(x[inside], points[inside])), axis=-1)
             if inside.size else [])
    for k, r in zip(inside, resid):
        if r > STATIONARITY_TOL:
            errors[k] = ValueError(f"background is not stationary (|grad|={r:.3e}); "
                                   "the linear fluctuation term would not vanish")
    cth = np.cos(bloch_theta(x, g))

    A = np.ones((3, 3)) - np.eye(3)
    Mqq = omega[..., None] * np.eye(3) + Jbar1[..., None] * A
    atom = _diag(-Omega / cth)
    MQQ = atom + Jbar2[..., None] * A * (cth[:, :, None] * cth[:, None, :])
    MPP = atom + Jbar2[..., None] * A
    MqQ = _diag(2.0 * lam * cth)

    M = np.zeros((len(x), 2, 6, 6))
    M[:, :, 0:3, 0:3] = Mqq[:, None]
    M[:, 0, 0:3, 3:6] = M[:, 0, 3:6, 0:3] = MqQ
    M[:, 0, 3:6, 3:6] = MQQ
    M[:, 1, 3:6, 3:6] = MPP
    return M, errors


def _williamson(M):
    """Symplectic (Williamson) eigenvalues of a stack of block pairs M (N, 2, 6, 6).

    One stacked eigh gives the symmetric square roots Rx, Rp of Mx, Mp; the
    energies are the singular values of Rx Rp, whose squares are the
    eigenvalues of Mx Mp.  The SVD reads them without squaring and returns
    a closed gap for Mx singular at criticality.  Returns the (N, 6)
    energies sorted ascending, the ``critical`` flags and, per row, the
    UnstableBackgroundError of a form whose smallest eigenvalue over both
    blocks is negative beyond the critical tolerance (an unstable,
    mislabelled background), or None.
    """
    scale = np.maximum(np.max(np.abs(M), axis=(-3, -2, -1)), 1.0)
    w, V = np.linalg.eigh(M)
    w0 = np.min(w[..., 0], axis=-1)
    errors = [None] * len(M)
    for k in np.flatnonzero(w0 < -_CRITICAL_TOL * scale):
        errors[k] = UnstableBackgroundError(
            f"quadratic form has negative eigenvalue {w0[k]:.3e}: unstable background")
    R = (V * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ np.swapaxes(V, -1, -2)
    energies = np.linalg.svd(R[:, 0] @ R[:, 1], compute_uv=False)[:, ::-1]
    # eigh fixes the eigenvalues of a block only to about 12 eps |M|
    return energies, w0 <= 12.0 * np.finfo(float).eps * scale, errors


def excitation_spectrum(x, params: ModelParams) -> SpectrumResult:
    """Excitation energies about the stationary background x (3,): the
    one-row case of :func:`spectra`, raising the row's error."""
    M, errors = _assemble(np.asarray(x, dtype=float)[None], Points.of(params))
    _raise_first(errors)
    energies, critical, errors = _williamson(M)
    _raise_first(errors)
    return SpectrumResult(energies=energies[0], soft_mode_gap=float(energies[0, 0]),
                          critical=bool(critical[0]))


def spectra(x, params):
    """Excitation energies about a stack of backgrounds, in chunks of _CHUNK.

    x is (N, 3) and params is Points (or a sequence of ModelParams) with one
    row per row of x.  Returns the (N, 6) energies, NaN where a row fails,
    and per row the error that excitation_spectrum raises for it, or None.
    Every row equals its excitation_spectrum bitwise.
    """
    params = Points.of(params)
    energies = np.full((len(params), 6), np.nan)
    errors = [None] * len(params)
    for start in range(0, len(params), _CHUNK):
        part, xs = params[start:start + _CHUNK], x[start:start + _CHUNK]
        M, errs = _assemble(xs, part)
        ok = np.flatnonzero([err is None for err in errs])
        if ok.size:
            e, _, unstable = _williamson(M[ok])
            energies[start + ok] = e
            for k, err in zip(ok, unstable):
                errs[k] = err
        errors[start:start + len(part)] = errs
    energies[[err is not None for err in errors]] = np.nan
    return energies, errors


def analytic_np_spectrum(params: ModelParams) -> SpectrumResult:
    """Closed-form normal-phase spectrum per momentum k in {0, +-2pi/3}.

    eps_pm(k)^2 = [w_k^2 + W_k^2 +- sqrt((w_k^2 - W_k^2)^2 + 16 lam^2 w_k W_k)]/2
    with w_k = omega + 2*Jbar1*cos k and W_k = Omega + 2*Jbar2*cos k.  The
    lower branch vanishes exactly at 4*lam^2 = w_k*W_k, i.e. at g_c.
    """
    lam = params.lam
    out = []
    for k in (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0):
        wk = params.omega + 2.0 * params.Jbar1 * math.cos(k)
        Wk = params.Omega + 2.0 * params.Jbar2 * math.cos(k)
        disc = math.sqrt((wk * wk - Wk * Wk) ** 2 + 16.0 * lam * lam * wk * Wk)
        for branch, sign in (("-", -1.0), ("+", 1.0)):
            e2 = 0.5 * (wk * wk + Wk * Wk + sign * disc)
            if e2 < -1e-12:
                raise ValueError(
                    f"eps_{branch}(k={k:.4f})^2 = {e2:.3e} < 0: past criticality"
                )
            out.append((math.sqrt(max(e2, 0.0)), k, branch))
    out.sort()
    energies = np.array([e for e, _, _ in out])
    labels = tuple((k, branch) for _, k, branch in out)
    gap = float(energies[0])
    return SpectrumResult(
        energies=energies, soft_mode_gap=gap,
        momentum_labels=labels, critical=gap < _CRITICAL_TOL,
    )


def _raise_first(errors):
    for err in errors:
        if err is not None:
            raise err


def soft_mode_gap(params: ModelParams) -> float:
    """Smallest excitation energy about the ground state at these parameters."""
    return excitation_spectrum(solve_ground_state(params).representative.x,
                               params).soft_mode_gap


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit of a gap or order parameter."""

    exponent: float
    r_squared: float
    prefactor: float


def fit_power_law(dg: np.ndarray, values: np.ndarray) -> ExponentFit:
    """Slope of log(values) versus log(dg) with the coefficient of determination."""
    dg = np.asarray(dg, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("power-law fit requires strictly positive values")
    lx, ly = np.log(dg), np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return ExponentFit(exponent=float(slope), r_squared=r2, prefactor=math.exp(intercept))


def fit_critical_exponent(params: ModelParams, side: str) -> ExponentFit:
    """Power-law exponent of the soft-mode gap approaching a critical point.

    side is "below" (normal phase) or "above" (superradiant side) of the
    realised critical coupling g_c for these hoppings; the fit takes 13
    points at g_c +- dg, dg from 1e-6 to 1e-3.  Errors out if the fit
    window would reach g <= 0 or cross the first-order point g_L.
    """
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    g_crit = critical_couplings(params).g_c
    sgn = 1.0 if side == "above" else -1.0

    lo, hi = sorted((g_crit, g_crit + sgn * _CRITICAL_OFFSETS[-1]))
    if lo <= 0.0:
        raise ValueError(f"fit window [{lo}, {hi}] reaches g <= 0")
    gL = first_order_point(params)
    if gL is not None and lo - 1e-15 <= gL <= hi + 1e-15:
        raise ValueError(f"fit window [{lo}, {hi}] crosses the first-order point g_L={gL}")

    points = Points(g=g_crit + sgn * _CRITICAL_OFFSETS, J1=params.J1, J2=params.J2,
                    omega=params.omega, Omega=params.Omega)
    if side == "below":
        x = np.zeros((len(points), 3))
    else:
        states = solve_ground_states(points)
        _raise_first(states.error)
        x = states.representative
    energies, errors = spectra(x, points)
    _raise_first(errors)
    return fit_power_law(_CRITICAL_OFFSETS, energies[:, 0])
