"""Quadratic fluctuation Hamiltonian and its symplectic spectrum.

Quadrature ordering is fixed as r = (q1..q3, p1..p3, Q1..Q3, P1..P3), with
q, p the cavity and Q, P the atomic quadratures, so that H = 1/2 r^T M r.
Excitation energies are the symplectic (Williamson) eigenvalues d_k of M,
with +-i d_k the eigenvalues of J @ M and J the standard symplectic form for
this ordering.  The kernels work on stacks of forms: :func:`spectra`
assembles the (N, 12, 12) stack about N backgrounds and solves it with one
stacked eigensolver call per chunk, and :func:`excitation_spectrum` is its
one-row case, equal to a stacked row bitwise.  The analytic normal-phase
spectrum (see docs/normal_phase_spectrum.md for the derivation) provides an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, critical_couplings, first_order_point, per_row
from .meanfield import (
    STATIONARITY_TOL,
    DomainError,
    bloch_theta,
    gradient,
    solve_ground_state,
    solve_ground_states,
    state_from_x,
)

_CRITICAL_TOL = 1e-10
#: forms per stacked eigensolver call in :func:`spectra`, bounding the
#: (rows, 12, 12) work arrays
_CHUNK = 64


class UnstableBackgroundError(ValueError):
    """The quadratic form is not positive semidefinite (wrong phase assignment)."""


@dataclass(frozen=True)
class SpectrumResult:
    """Excitation energies sorted ascending (same energy units as omega).

    momentum_labels is set for the analytic normal-phase route only: a tuple
    of (k, branch) per energy with branch in {"-", "+"}.
    soft_mode_gap is the smallest energy.  ``critical`` flags a closed gap:
    M singular to working precision on the numeric route, a gap below 1e-10
    on the analytic one.
    """

    energies: np.ndarray
    soft_mode_gap: float
    momentum_labels: tuple | None = None
    critical: bool = False


def _adjacency():
    A = np.ones((3, 3)) - np.eye(3)
    return A


def _diag(v):
    """Stack of diagonal matrices, np.diag of every row of v (N, 3)."""
    D = np.zeros(v.shape + (3,))
    D[:, range(3), range(3)] = v
    return D


def _form_coefficients(params):
    return params.g, params.omega, params.Omega, params.lam, params.Jbar1, params.Jbar2


def _assemble(x, params):
    """The fluctuation matrices M (N, 12, 12) about a stack of backgrounds.

    x is (N, 3), params holds one ModelParams per row; the Bloch angles
    theta_n follow from x.  Also returns, per row, the DomainError of a
    background outside |x_n| < g/2, the ValueError of one that is not
    stationary (the linear fluctuation term would not vanish), or None.
    The M of a row outside the domain is that of x = 0.
    Blocks: omega/2 photon diagonal, -Omega/(2 cos theta_n) atom diagonal,
    2*lambda*cos(theta_n) q-Q cross terms (phi absorbed into signed alpha),
    Jbar1 photon hopping on both q and p, Jbar2 atom hopping on P and on Q
    weighted by cos(theta_n)*cos(theta_{n+1}).
    """
    g, omega, Omega, lam, Jbar1, Jbar2 = per_row(params, _form_coefficients)
    errors = [None] * len(x)
    outside = ~np.all(np.abs(x) < 0.5 * g, axis=-1)
    for k in np.flatnonzero(outside):
        try:
            state_from_x(x[k], params[k])
        except DomainError as exc:
            errors[k] = exc
    x = np.where(outside[:, None], 0.0, x)
    inside = np.flatnonzero(~outside)
    resid = (np.max(np.abs(gradient(x[inside], [params[k] for k in inside])), axis=-1)
             if inside.size else [])
    for k, r in zip(inside, resid):
        if r > STATIONARITY_TOL:
            errors[k] = ValueError(f"background is not stationary (|grad|={r:.3e}); "
                                   "the linear fluctuation term would not vanish")
    cth = np.cos(bloch_theta(x, g))

    A = _adjacency()
    Mqq = omega[..., None] * np.eye(3) + Jbar1[..., None] * A
    atom = _diag(-Omega / cth)
    MQQ = atom + Jbar2[..., None] * A * (cth[:, :, None] * cth[:, None, :])
    MPP = atom + Jbar2[..., None] * A
    MqQ = _diag(2.0 * lam * cth)

    M = np.zeros((len(x), 12, 12))
    M[:, 0:3, 0:3] = M[:, 3:6, 3:6] = Mqq
    M[:, 0:3, 6:9] = M[:, 6:9, 0:3] = MqQ
    M[:, 6:9, 6:9] = MQQ
    M[:, 9:12, 9:12] = MPP
    return M, errors


def symplectic_form() -> np.ndarray:
    """Standard symplectic form for the (q1..3, p1..3, Q1..3, P1..3) ordering."""
    J = np.zeros((12, 12))
    I3 = np.eye(3)
    J[0:3, 3:6] = I3
    J[3:6, 0:3] = -I3
    J[6:9, 9:12] = I3
    J[9:12, 6:9] = -I3
    return J


def _williamson(M):
    """Symplectic (Williamson) eigenvalues of a stack of forms M (N, 12, 12).

    J M shares its eigenvalues +-i d_k with R J R, R the symmetric square
    root of M; i R J R is Hermitian, so eigvalsh returns exact +-d_k pairs,
    also for M singular at criticality.  Returns the (N, 6) energies sorted
    ascending, the ``critical`` flags and, per row, the
    UnstableBackgroundError of a form with a negative eigenvalue beyond the
    critical tolerance (an unstable, mislabelled background), or None.
    """
    scale = np.maximum(np.max(np.abs(M), axis=(-2, -1)), 1.0)
    w, V = np.linalg.eigh(M)
    errors = [UnstableBackgroundError(
                  f"quadratic form has negative eigenvalue {w0:.3e}: unstable background")
              if w0 < -_CRITICAL_TOL * s else None for w0, s in zip(w[:, 0], scale)]
    R = (V * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ np.swapaxes(V, -1, -2)
    d = np.linalg.eigvalsh(1j * (R @ symplectic_form() @ R))
    energies = 0.5 * (d[:, 6:] - d[:, 5::-1])
    # eigh fixes the eigenvalues of the 12x12 M only to about 12 eps |M|
    return energies, w[:, 0] <= 12.0 * np.finfo(float).eps * scale, errors


def excitation_spectrum(x, params: ModelParams) -> SpectrumResult:
    """Excitation energies about the stationary background x (3,): the
    one-row case of :func:`spectra`, raising the row's error."""
    M, errors = _assemble(np.asarray(x, dtype=float)[None], [params])
    if errors[0] is not None:
        raise errors[0]
    energies, critical, errors = _williamson(M)
    if errors[0] is not None:
        raise errors[0]
    return SpectrumResult(energies=energies[0], soft_mode_gap=float(energies[0, 0]),
                          critical=bool(critical[0]))


def spectra(x, params):
    """Excitation energies about a stack of backgrounds, in chunks of _CHUNK.

    x is (N, 3) and params holds one ModelParams per row.  Returns the
    (N, 6) energies, NaN where a row fails, and per row the error that
    excitation_spectrum raises for it, or None.  Every row equals its
    excitation_spectrum bitwise.
    """
    params = list(params)
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


def fit_critical_exponent(
    params: ModelParams,
    side: str,
    g_crit: float | None = None,
    window=(1e-6, 1e-3),
) -> ExponentFit:
    """Power-law exponent of the soft-mode gap approaching a critical point.

    side is "below" (normal phase) or "above" (superradiant side); g_crit
    defaults to the realised critical coupling for these hoppings.  Errors
    out if the fit window would cross the first-order point g_L.
    """
    if side not in ("below", "above"):
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    if g_crit is None:
        g_crit = critical_couplings(params).g_c
    sgn = 1.0 if side == "above" else -1.0
    dgs = np.geomspace(window[0], window[1], 13)

    gL = first_order_point(params)
    if gL is not None:
        lo, hi = sorted((g_crit, g_crit + sgn * window[1]))
        if lo - 1e-15 <= gL <= hi + 1e-15:
            raise ValueError(
                f"fit window [{lo}, {hi}] crosses the first-order point g_L={gL}"
            )

    points = [params.replace(g=g_crit + sgn * dg) for dg in dgs]
    if side == "below":
        x = np.zeros((len(points), 3))
    else:
        states = solve_ground_states(points)
        _raise_first(states.error)
        x = states.representative
    energies, errors = spectra(x, points)
    _raise_first(errors)
    return fit_power_law(dgs, energies[:, 0])
