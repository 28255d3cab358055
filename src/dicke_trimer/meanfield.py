"""Mean-field ground states of the trimer.

The reduced ground-state energy per unit of N_a*Omega, as a function of the
transformed variables x_n on the open cube |x_n| < g/2, is

    E(x) = sum_n [ C*x_n^2 - 1/2*sqrt(1 - 4*x_n^2/g^2) + 2*B*x_n*x_{n+1} ]

with periodic indices and the coefficients from :mod:`dicke_trimer.model`.
:func:`energy`, :func:`gradient` and :func:`hessian` are its only
implementation, and :func:`newton_polish` is the one damped-Newton loop that
polishes its minima, for the frustrated solver here and for the oracle.
Three kinds of minima occur: the trivial x = 0 (normal phase, NP), a uniform
configuration (normal superradiant phase, NSP, two-fold degenerate) and a
frustrated one with one site carrying opposite sign and twice the amplitude
of the other two (FSP, six-fold degenerate).

The frustrated minima are found by enumerating the roots of one scalar
function: on the (x1, x2, x2) pattern dE/dx1 = 0 gives x2 explicitly, and
dE/dx2 = 0 becomes an equation in x1 alone, scanned on the windows where x2
stays in the domain.  Each root is polished as the 3-vector (x1, x2, x2).
See docs/frustrated_stationarity.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    FSP,
    NP,
    NSP,
    ModelParams,
    alpha_from_x,
    b_tilde,
    c_tilde,
    critical_couplings,
)


class DomainError(ValueError):
    """A coordinate left the physical domain |x_n| < g/2."""


class ConvergenceError(RuntimeError):
    """No verified minimum was found; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class MeanFieldState:
    """One candidate mean-field configuration.

    alpha : signed rescaled cavity coherences (phi absorbed as the sign)
    x     : transformed variables, x = S @ alpha
    theta : Bloch polar angles in (pi/2, 3*pi/2), cos(theta) < 0
    phi   : azimuthal angles, fixed to 0 under the signed-alpha convention
    """

    alpha: np.ndarray
    x: np.ndarray
    theta: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class PhaseResult:
    """A solved ground state: label, energy, and the full degenerate orbit."""

    label: str
    energy: float
    degeneracy: int
    representative: MeanFieldState
    all_minima: list = field(default_factory=list)
    coexistent: bool = False


def _check_domain(x, g):
    if np.any(np.abs(x) >= 0.5 * g):
        raise DomainError(f"|x_n| >= g/2 is unphysical (g={g}, x={np.asarray(x)})")


def state_from_x(x, params: ModelParams) -> MeanFieldState:
    """Build the full state (coherences and angles) from the x variables."""
    x = np.asarray(x, dtype=float)
    _check_domain(x, params.g)
    alpha = alpha_from_x(x, params)
    # sin(theta) = -2x/g with cos(theta) on the negative branch
    theta = math.pi + np.arcsin(2.0 * x / params.g)
    return MeanFieldState(alpha=alpha, x=x, theta=theta, phi=np.zeros(3))


def _terms(x, params: ModelParams):
    """Checked x, u = 4x^2/g^2, sqrt(1 - u), C_tilde and B_tilde.

    On the 3-cycle the neighbours of site n sum to sum(x) - x_n, and
    sum_n x_n x_{n+1} = ((sum x)^2 - sum x^2)/2, so the kernels below need
    no index shifts.
    """
    x = np.asarray(x, dtype=float)
    g = params.g
    _check_domain(x, g)
    u = 4.0 * x * x / (g * g)
    return x, u, np.sqrt(1.0 - u), c_tilde(params.J1), b_tilde(params)


def energy(x, params: ModelParams) -> float:
    """Reduced ground-state energy E(x); hard error outside |x_n| < g/2."""
    x, _, root, C, B = _terms(x, params)
    s = np.sum(x)
    return float(np.sum(C * x * x - 0.5 * root) + B * (s * s - np.dot(x, x)))


def gradient(x, params: ModelParams) -> np.ndarray:
    """Analytic dE/dx_n."""
    x, _, root, C, B = _terms(x, params)
    g = params.g
    return 2.0 * C * x + 2.0 * x / (g * g * root) + 2.0 * B * (np.sum(x) - x)


def hessian(x, params: ModelParams) -> np.ndarray:
    """Analytic 3x3 Hessian of E."""
    x, u, root, C, B = _terms(x, params)
    g = params.g
    H = np.full((3, 3), 2.0 * B)
    np.fill_diagonal(H, 2.0 * C + (2.0 / (g * g)) * (1.0 / root + u / root**3))
    return H


#: newton_polish stops once max |grad E| is below this
_NEWTON_TOL = 1e-13
#: at most this many Newton steps, each halved at most _NEWTON_HALVINGS times
_NEWTON_STEPS = 60
_NEWTON_HALVINGS = 40


def newton_polish(x, params: ModelParams):
    """Damped Newton on grad E = 0 over all three x_n; no pattern assumed.

    A step is halved until it stays inside the domain and lowers max |grad E|;
    the loop ends when no halving helps, or once the halved step no longer
    changes x in floating point.  Returns the polished x and its max |grad E|.
    """
    g = params.g
    x = np.array(x, dtype=float)
    grad = gradient(x, params)
    norm = float(np.max(np.abs(grad)))
    for _ in range(_NEWTON_STEPS):
        if norm < _NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(hessian(x, params), grad)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        for _ in range(_NEWTON_HALVINGS):
            trial = x - lam * step
            if np.array_equal(trial, x):
                return x, norm  # every smaller step rounds to x as well
            if np.max(np.abs(trial)) < 0.5 * g:
                tg = gradient(trial, params)
                tnorm = float(np.max(np.abs(tg)))
                if tnorm < norm:
                    x, grad, norm = trial, tg, tnorm
                    break
            lam *= 0.5
        else:
            break
    return x, norm


# ---------------------------------------------------------------------------
# degenerate orbits

def _orbit(x, tol=1e-9):
    """Distinct configurations under cyclic permutation and global sign flip."""
    x = np.asarray(x, dtype=float)
    out = []
    for sign in (1.0, -1.0):
        for shift in range(3):
            cand = sign * np.roll(x, shift)
            if not any(np.max(np.abs(cand - c)) < tol for c in out):
                out.append(cand)
    return out


def _phase_result(label, x, params, coexistent=False):
    configs = _orbit(x)
    configs.sort(key=tuple)
    if label == FSP:
        # representative: the member with the odd site first and negative
        configs.sort(key=lambda c: not c[0] < 0.0 < min(c[1], c[2]))
    states = [state_from_x(c, params) for c in configs]
    return PhaseResult(
        label=label,
        energy=energy(configs[0], params),
        degeneracy=len(configs),
        representative=states[0],
        all_minima=states,
        coexistent=coexistent,
    )


def solve_np(params: ModelParams) -> PhaseResult:
    """The trivial x = 0 solution; energy -3/2 regardless of parameters."""
    state = state_from_x(np.zeros(3), params)
    return PhaseResult(label=NP, energy=-1.5, degeneracy=1,
                       representative=state, all_minima=[state])


# ---------------------------------------------------------------------------
# uniform (NSP) branch

def nsp_alpha(params: ModelParams) -> float:
    """Closed-form uniform coherence amplitude; 0.0 at or below onset."""
    g, J1, J2 = params.g, params.J1, params.J2
    denom = g * g - 2.0 * (J2 + 2.0 * J1 * J2)
    radicand = 1.0 / (1.0 + 2.0 * J1) ** 2 - 1.0 / denom**2
    if denom <= 0.0 or radicand <= 0.0:
        return 0.0
    return 0.5 * g * math.sqrt(radicand)


def solve_nsp(params: ModelParams) -> PhaseResult:
    """Translational-symmetric superradiant solution, or NP below its onset."""
    a = nsp_alpha(params)
    if a == 0.0:
        return solve_np(params)
    x = (1.0 + 2.0 * params.J1) * a
    return _phase_result(NSP, np.array([x, x, x]), params)


# ---------------------------------------------------------------------------
# frustrated (FSP) branch

#: |B_tilde| below this is first-order coexistence: the sites decouple
_B_COEXIST_TOL = 1e-12
#: largest |grad E| of an accepted stationary state
STATIONARITY_TOL = 1e-8


def asymptotic_fsp(params: ModelParams, g: float | None = None) -> MeanFieldState:
    """Leading-order frustrated solution near the finite-momentum onset.

    x = (-2t, t, t) with t = sqrt((1-J2)*g_c_plus*(g - g_c_plus)/3); exact
    zeros at g = g_c_plus.  An acceptance reference for the |g - g_c|^(1/2)
    scaling.
    """
    if g is None:
        g = params.g
    gcp = critical_couplings(params).g_c_plus
    dg = max(g - gcp, 0.0)
    t = math.sqrt((1.0 - params.J2) * gcp * dg / 3.0)
    return state_from_x(np.array([-2.0 * t, t, t]), params.replace(g=g))


def _is_fsp_minimum(x, params, tol=1e-9):
    """True if x, with x[0] opposite in sign to x[1] and x[2], is a local
    minimum of the full energy."""
    if x[0] * x[1] >= 0.0 or x[0] * x[2] >= 0.0:
        return False
    return bool(np.linalg.eigvalsh(hessian(x, params))[0] > -tol)


def _h(x, C, g):
    """Half the on-site part of dE/dx_n: C*x + x/(g^2*sqrt(1 - 4*x^2/g^2))."""
    return C * x + x / (g * g * np.sqrt((1.0 - 2.0 * x / g) * (1.0 + 2.0 * x / g)))


# scan points as fractions of a window: cosine spacing plus geometric
# offsets toward both ends, where the roots crowd at large B, large g and
# just above g_c_plus
_SCAN_COS = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 66)[1:-1]))
_SCAN_END = np.geomspace(1e-15, 1e-2, 27)
_EDGE_OFFSETS = np.geomspace(1e-1, 1e-15, 15)


def _fsp_windows(C, B, g):
    """Intervals of x1 in (-g/2, 0) where x2 = -h(x1)/(2B) lies in (0, g/2).

    h is monotone on each piece between -g/2, its turning point (present
    when h'(0) = C + 1/g^2 < 0) and 0, so each piece holds at most one
    window, whose ends solve h = 0 or h = -B*g.
    """
    from scipy.optimize import brentq

    lo, hi = sorted((0.0, -B * g))
    # the piece starting at -g/2 needs a finite end with h(edge) <= lo
    edges = -0.5 * g * (1.0 - _EDGE_OFFSETS)
    below = np.flatnonzero(_h(edges, C, g) <= lo)
    ends = [float(edges[below[0] if below.size else -1]), 0.0]
    r3 = -1.0 / (C * g * g)  # h'(x) = 0 where sqrt(1 - 4x^2/g^2)^3 = r3
    if r3 < 1.0:
        r = r3 ** (1.0 / 3.0)
        ends.insert(1, -0.5 * g * math.sqrt((1.0 - r) * (1.0 + r)))
    windows = []
    for a, b in zip(ends, ends[1:]):
        ha, hb = _h(a, C, g), _h(b, C, g)

        def inverse(v):
            if (v - ha) * (v - hb) >= 0.0:
                return a if abs(v - ha) < abs(v - hb) else b
            return brentq(lambda x: _h(x, C, g) - v, a, b, xtol=1e-300)

        left, right = sorted((inverse(lo), inverse(hi)))
        if left < right:
            windows.append((left, right))
    return windows


def _fsp_roots(C, B, g):
    """Every x1 on the frustrated windows where G(x1) changes sign."""
    from scipy.optimize import brentq

    def G(x1):
        x2 = -_h(x1, C, g) / (2.0 * B)
        return (_h(x2, C, g) + B * (x1 + x2)) / x1

    roots = []
    for left, right in _fsp_windows(C, B, g):
        w = right - left
        x1 = np.unique(np.concatenate(
            (left + w * _SCAN_COS, left + w * _SCAN_END, right - w * _SCAN_END)))
        x1 = x1[(x1 > left) & (x1 < right)]
        x2 = -_h(x1, C, g) / (2.0 * B)
        inside = (1.0 - 2.0 * x2 / g) * (1.0 + 2.0 * x2 / g) > 0.0
        x1 = x1[inside]
        s = np.sign(G(x1))
        roots.extend(x1[s == 0.0])
        for i in np.flatnonzero(s[:-1] * s[1:] < 0.0):
            roots.append(brentq(G, x1[i], x1[i + 1], xtol=1e-300))
    return roots


def _lowest_fsp_minimum(candidates, params):
    """(energy, x) of the lowest candidate (x1, x2) that polishes, as the
    3-vector (x1, x2, x2), to a stationary frustrated local minimum, or None."""
    best = None
    for x1, x2 in candidates:
        x, resid = newton_polish([x1, x2, x2], params)
        if resid > STATIONARITY_TOL or not _is_fsp_minimum(x, params):
            continue
        e = energy(x, params)
        if best is None or e < best[0]:
            best = (e, x)
    return best


def _solve_fsp_branch(params: ModelParams) -> PhaseResult:
    """Frustrated minimum branch for g > g_c_plus, ignoring the B sign.

    Needed internally to trace the branch through the first-order point,
    where B changes sign while the branch persists.  Every stationary point
    of the (x1, x2, x2) pattern with x1 < 0 < x2 is a root of one scalar
    function of x1; all roots are enumerated and the lowest-energy local
    minimum wins (docs/frustrated_stationarity.md).
    """
    g = params.g
    gcp = critical_couplings(params).g_c_plus
    if g <= gcp:
        raise ValueError(f"frustrated branch requires g > g_c_plus={gcp}, got g={g}")
    C, B = c_tilde(params.J1), b_tilde(params)
    best = None
    if abs(B) >= _B_COEXIST_TOL:
        roots = _fsp_roots(C, B, g)
        best = _lowest_fsp_minimum([(x1, -_h(x1, C, g) / (2.0 * B)) for x1 in roots],
                                   params)
    q = 1.0 / (C * g * g)
    if best is None and abs(q) < 1.0:
        # decoupled sites at the single-site minima +-x*: exact for B = 0, and
        # the Newton seed where B is so small that x2 = -h(x1)/(2B) cannot be
        # resolved from the floats of x1 in the window
        xs = 0.5 * g * math.sqrt((1.0 - q) * (1.0 + q))
        best = _lowest_fsp_minimum([(-xs, xs)], params)
    if best is None:
        raise ConvergenceError(
            f"no frustrated local minimum at g={g} (J1={params.J1}, "
            f"J2={params.J2}); the branch may not exist yet",
            residual=math.inf)
    return _phase_result(FSP, best[1], params)


def solve_fsp(params: ModelParams) -> PhaseResult:
    """Frustrated superradiant ground state for g > g_c_plus and B_tilde > 0."""
    if b_tilde(params) <= 0.0:
        raise ValueError("frustrated phase requires B_tilde > 0")
    return _solve_fsp_branch(params)


# ---------------------------------------------------------------------------
# dispatch

def solve_ground_state(params: ModelParams) -> PhaseResult:
    """Global mean-field ground state at one parameter point.

    Dispatch: g <= g_c gives the NP; above it the sign of B_tilde selects
    the uniform (B < 0) or frustrated (B > 0) branch.  |B| below 1e-12 is
    treated as first-order coexistence: both branches are solved and the
    lower-energy one is returned with ``coexistent=True``.
    """
    cc = critical_couplings(params)
    if params.g <= cc.g_c:
        return solve_np(params)
    B = b_tilde(params)
    if abs(B) < _B_COEXIST_TOL:
        nsp = solve_nsp(params)
        fsp = _solve_fsp_branch(params)
        best = nsp if nsp.energy <= fsp.energy else fsp
        return PhaseResult(
            label=best.label, energy=best.energy, degeneracy=best.degeneracy,
            representative=best.representative, all_minima=best.all_minima,
            coexistent=True,
        )
    if B < 0.0:
        return solve_nsp(params)
    return solve_fsp(params)


# ---------------------------------------------------------------------------
# monotonic-method root analysis

@dataclass(frozen=True)
class RootStructure:
    """Roots of f(x) = k on (-g/2, g/2) and the monotonicity of f."""

    monotonic: bool
    roots: tuple
    turning_points: tuple


def _monotone_fn(params: ModelParams):
    g, J1, J2 = params.g, params.J1, params.J2
    a = (g * g + J2 - J1 * J2) / (1.0 - J1)

    def f(x):
        return a * x - x / np.sqrt(1.0 - 4.0 * x * x / (g * g))

    def fprime(x):
        u = 4.0 * x * x / (g * g)
        root = np.sqrt(1.0 - u)
        return a - (1.0 / root + u / root**3)

    return f, fprime


def root_structure(params: ModelParams, k: float, scan_points: int = 4001) -> RootStructure:
    """Classify the roots of the per-site stationarity function f(x) = k.

    f(x) = (g^2 + J2 - J1*J2)*x/(1-J1) - x/sqrt(1 - 4*x^2/g^2) is monotonic
    for g < g_c_plus and develops two symmetric turning points above it.
    Roots are located by a dense sign-change scan refined with brentq.
    """
    from scipy.optimize import brentq

    g = params.g
    f, fprime = _monotone_fn(params)
    gcp = critical_couplings(params).g_c_plus
    monotonic = params.g <= gcp

    lo, hi = -0.5 * g * (1 - 1e-12), 0.5 * g * (1 - 1e-12)
    xs = np.linspace(lo, hi, scan_points)
    vals = f(xs) - k
    roots = []
    exact = np.flatnonzero(vals == 0.0)
    for i in exact:
        roots.append(float(xs[i]))
    sign_change = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    for i in sign_change:
        roots.append(float(brentq(lambda x: f(x) - k, xs[i], xs[i + 1], xtol=1e-14)))
    roots = sorted(set(round(r, 13) for r in roots))

    turning = ()
    if not monotonic:
        # fprime(0) > 0 and fprime -> -inf at the edges: one zero on each side
        xt = brentq(fprime, 1e-16, hi, xtol=1e-14)
        turning = (-xt, xt)
    return RootStructure(monotonic=monotonic, roots=tuple(roots), turning_points=turning)


# ---------------------------------------------------------------------------
# atom-hopping-only special case (independent route)

def _atom_only_energy(alpha, g, J2):
    alpha = np.asarray(alpha, dtype=float)
    root = np.sqrt(1.0 - 4.0 * alpha * alpha / (g * g))
    return float(np.sum(-alpha * alpha - 0.5 * root
                        + (2.0 * J2 / (g * g)) * alpha * np.roll(alpha, -1)))


def _atom_only_gradient(alpha, g, J2):
    alpha = np.asarray(alpha, dtype=float)
    root = np.sqrt(1.0 - 4.0 * alpha * alpha / (g * g))
    return (-2.0 * alpha + 2.0 * alpha / (g * g * root)
            + (2.0 * J2 / (g * g)) * (np.roll(alpha, 1) + np.roll(alpha, -1)))


def solve_atom_only(params: ModelParams) -> PhaseResult:
    """Ground state of the J1 = 0 model by direct minimisation over alpha.

    With the photon hopping off the x variables coincide with alpha and the
    reduced energy per site is -a^2 - 1/2*sqrt(1 - 4a^2/g^2) plus the
    (2*J2/g^2) a_n a_{n+1} coupling.  Solved here with scipy local descent
    from pattern seeds, deliberately not reusing the general-x machinery,
    so it can serve as a cross-check of solve_ground_state at J1 = 0.
    """
    from scipy.optimize import minimize

    if params.J1 != 0.0:
        raise ValueError(f"atom-only solver requires J1 = 0, got J1={params.J1}")
    g, J2 = params.g, params.J2
    amax = 0.5 * g * (1.0 - 1e-10)
    a0 = 0.45 * g
    seeds = [np.zeros(3)]
    for base in (np.array([1.0, 1.0, 1.0]), np.array([-2.0, 1.0, 1.0]) / 2.0,
                 np.array([-1.0, 1.0, 1.0])):
        for s in (1.0, -1.0):
            seeds.append(s * a0 * base)

    best = None
    for seed in seeds:
        res = minimize(
            _atom_only_energy, np.clip(seed, -amax, amax), args=(g, J2),
            jac=_atom_only_gradient, method="L-BFGS-B",
            bounds=[(-amax, amax)] * 3,
            options={"ftol": 1e-16, "gtol": 1e-12},
        )
        if best is None or res.fun < best.fun:
            best = res
    alpha = best.x
    # polish with a few Newton steps on the analytic gradient
    for _ in range(50):
        u = 4.0 * alpha * alpha / (g * g)
        root = np.sqrt(1.0 - u)
        grad = _atom_only_gradient(alpha, g, J2)
        if np.max(np.abs(grad)) < 1e-13:
            break
        diag = -2.0 + (2.0 / (g * g)) * (1.0 / root + u / root**3)
        H = np.full((3, 3), 2.0 * J2 / (g * g))
        np.fill_diagonal(H, diag)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        trial = alpha - step
        if np.max(np.abs(trial)) >= amax:
            break
        alpha = trial

    amp = np.max(np.abs(alpha))
    if amp < 1e-8:
        return solve_np(params)
    uniform = np.max(np.abs(alpha - alpha.mean())) < 1e-8 * max(amp, 1.0)
    label = NSP if uniform else FSP
    configs = _orbit(alpha)
    configs.sort(key=tuple)
    states = [state_from_x(c, params) for c in configs]  # x == alpha at J1=0
    return PhaseResult(
        label=label,
        energy=_atom_only_energy(configs[0], g, J2),
        degeneracy=len(configs),
        representative=states[0],
        all_minima=states,
    )
