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

:func:`solve_ground_states` is the one dispatch to these branches, over a
batch of parameter points; :func:`solve_ground_state` is its one-point case.
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
    per_row,
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

    alpha : signed rescaled cavity coherences (the azimuth, 0 or pi,
            absorbed as the sign)
    x     : transformed variables, x = S @ alpha
    theta : Bloch polar angles in (pi/2, 3*pi/2), cos(theta) < 0
    """

    alpha: np.ndarray
    x: np.ndarray
    theta: np.ndarray


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
    # "not inside" rather than "outside", so that NaN fails it too
    if not (np.abs(x) < 0.5 * g).all():
        raise DomainError(f"|x_n| >= g/2 is unphysical (g={g}, x={np.asarray(x)})")


def bloch_theta(x, g):
    """Bloch polar angles of the sites: sin(theta) = -2x/g, cos(theta) < 0."""
    return math.pi + np.arcsin(2.0 * x / g)


def state_from_x(x, params: ModelParams) -> MeanFieldState:
    """Build the full state (coherences and angles) from the x variables."""
    x = np.asarray(x, dtype=float)
    _check_domain(x, params.g)
    alpha = alpha_from_x(x, params)
    return MeanFieldState(alpha=alpha, x=x, theta=bloch_theta(x, params.g))


def _g_c_b(params):
    return params.g, c_tilde(params.J1), b_tilde(params)


def _terms(x, params):
    """Checked x, g, u = 4x^2/g^2, sqrt(1 - u), C_tilde and B_tilde.

    params is one ModelParams, or a sequence of them, one per row of x; then
    g, C_tilde and B_tilde are (N, 1) columns.  On the 3-cycle the
    neighbours of site n sum to sum(x) - x_n, and
    sum_n x_n x_{n+1} = ((sum x)^2 - sum x^2)/2, so the kernels below need
    no index shifts.
    """
    x = np.asarray(x, dtype=float)
    g, C, B = per_row(params, _g_c_b)
    _check_domain(x, g)
    u = 4.0 * x * x / (g * g)
    return x, g, u, np.sqrt(1.0 - u), C, B


def energy(x, params):
    """Reduced ground-state energy E(x) over the last axis of x (a float for
    one configuration); hard error outside |x_n| < g/2.  params is one
    ModelParams, or one per row of x."""
    x, _, _, root, C, B = _terms(x, params)
    if isinstance(B, np.ndarray):  # one B per row of x, as an (N, 1) column
        B = B[:, 0]
    s = np.sum(x, axis=-1)
    e = np.sum(C * x * x - 0.5 * root, axis=-1) + B * (s * s - np.vecdot(x, x))
    return float(e) if e.ndim == 0 else e


def gradient(x, params) -> np.ndarray:
    """Analytic dE/dx_n over the last axis of x; params as for energy."""
    x, g, _, root, C, B = _terms(x, params)
    return (2.0 * C * x + 2.0 * x / (g * g * root)
            + 2.0 * B * (x.sum(axis=-1, keepdims=True) - x))


def hessian(x, params) -> np.ndarray:
    """Analytic 3x3 Hessian of E, one per row of x (shape x.shape + (3,));
    params as for energy."""
    x, g, u, root, C, B = _terms(x, params)
    if isinstance(B, np.ndarray):  # (N, 1) column -> (N, 1, 1)
        B = B[..., None]
    diag = 2.0 * C + (2.0 / (g * g)) * (1.0 / root + u / root**3)
    H = np.empty(x.shape + (3,))
    H[...] = 2.0 * B
    # the diagonal of each 3x3 block is every fourth entry of its 9
    H.reshape(-1, 9)[:, ::4] = diag.reshape(-1, 3)
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

#: orbit members closer than this (max norm) are one configuration
_ORBIT_TOL = 1e-9


def _orbits(x, frustrated):
    """Distinct configurations under cyclic permutation and global sign flip,
    for every row of an (N, 3) stack.

    The candidates sign * roll(x, shift) are taken for sign +1, -1 and shift
    0, 1, 2, and each is kept unless a kept one lies within _ORBIT_TOL.
    Returns the (N, 6, 3) candidates in order and the count kept per row:
    row n's orbit is members[n, :count[n]], sorted as tuples, and where
    ``frustrated[n]`` led by the member with the odd site first and negative
    (the representative).
    """
    cand = np.stack([sign * np.roll(x, shift, axis=-1)
                     for sign in (1.0, -1.0) for shift in range(3)], axis=1)
    keep = np.ones(cand.shape[:2], dtype=bool)
    for k in range(1, 6):
        close = np.max(np.abs(cand[:, k:k + 1] - cand[:, :k]), axis=-1) < _ORBIT_TOL
        keep[:, k] = ~np.any(keep[:, :k] & close, axis=1)
    odd_first = (cand[..., 0] < 0.0) & (np.minimum(cand[..., 1], cand[..., 2]) > 0.0)
    behind = ~odd_first & np.asarray(frustrated)[:, None]
    order = np.lexsort((cand[..., 2], cand[..., 1], cand[..., 0], behind, ~keep), axis=-1)
    return np.take_along_axis(cand, order[..., None], axis=1), keep.sum(axis=1)


def _orbit(x, frustrated=False):
    """The orbit of one configuration as a list, representative first."""
    members, count = _orbits(np.asarray(x, dtype=float)[None], [frustrated])
    return list(members[0, :count[0]])


def _phase_result(label, x, params, coexistent=False):
    configs = _orbit(x, label == FSP)
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


def _uniform_branch(points):
    """Label and x of the uniform branch at every point: NSP with
    x_n = (1 + 2 J1) nsp_alpha, or NP (x = 0) where nsp_alpha vanishes."""
    a = np.array([nsp_alpha(p) for p in points])
    x = (1.0 + 2.0 * np.array([p.J1 for p in points])) * a
    return [NP if v == 0.0 else NSP for v in a], np.repeat(x[:, None], 3, axis=1)


def solve_nsp(params: ModelParams) -> PhaseResult:
    """Translational-symmetric superradiant solution, or NP below its onset."""
    label, x = _uniform_branch([params])
    return _phase_result(label[0], x[0], params)


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


def _is_fsp_minimum(x, params):
    """True if x, with x[0] opposite in sign to x[1] and x[2], is a local
    minimum of the full energy."""
    if x[0] * x[1] >= 0.0 or x[0] * x[2] >= 0.0:
        return False
    return bool(np.linalg.eigvalsh(hessian(x, params))[0] > -1e-9)


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


def _fsp_minimum(params: ModelParams) -> np.ndarray:
    """x of the frustrated minimum branch for g > g_c_plus, ignoring the B sign.

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
    return best[1]


def _solve_fsp_branch(params: ModelParams) -> PhaseResult:
    """The frustrated minimum branch of :func:`_fsp_minimum` as a PhaseResult."""
    return _phase_result(FSP, _fsp_minimum(params), params)


def solve_fsp(params: ModelParams) -> PhaseResult:
    """Frustrated superradiant ground state for g > g_c_plus and B_tilde > 0."""
    if b_tilde(params) <= 0.0:
        raise ValueError("frustrated phase requires B_tilde > 0")
    return _solve_fsp_branch(params)


# ---------------------------------------------------------------------------
# dispatch

@dataclass(frozen=True)
class GroundStates:
    """Ground states of a sequence of parameter points, one row per point.

    x is the configuration the branch solver returned, representative the
    member of its orbit that PhaseResult.representative holds.  A row whose
    solve raised keeps the exception in ``error``, label "", NaN x,
    representative and energy and degeneracy 0.
    """

    label: np.ndarray
    x: np.ndarray
    representative: np.ndarray
    energy: np.ndarray
    degeneracy: np.ndarray
    coexistent: np.ndarray
    error: list


def solve_ground_states(points) -> GroundStates:
    """Global mean-field ground states of a sequence of parameter points.

    Dispatch: g <= g_c gives the NP; above it the sign of B_tilde selects
    the uniform (B < 0, closed form) or frustrated (B > 0, root scan)
    branch.  |B| below 1e-12 is treated as first-order coexistence: both
    branches are solved and the lower-energy one is kept, with
    ``coexistent`` set.  The orbits, energies and domain checks run over
    all rows at once.  A ConvergenceError or ValueError of a row is
    recorded for that row; any other exception propagates.
    """
    points = list(points)
    n = len(points)
    g = np.array([p.g for p in points])
    above = g > np.array([critical_couplings(p).g_c for p in points])
    B = np.array([b_tilde(p) if up else 0.0 for p, up in zip(points, above)])
    coexist = above & (np.abs(B) < _B_COEXIST_TOL)
    uniform = np.flatnonzero(above & (coexist | (B < 0.0)))
    # one candidate per row on its branch, plus the frustrated branch of
    # every coexistence row
    rows = np.concatenate((np.arange(n), np.flatnonzero(coexist)))
    frustrated = np.concatenate((np.flatnonzero(above & ~coexist & (B > 0.0)),
                                 np.arange(n, len(rows))))
    label = np.full(len(rows), NP, dtype=object)
    x = np.zeros((len(rows), 3))
    error = [None] * len(rows)
    label[uniform], x[uniform] = _uniform_branch([points[i] for i in uniform])
    label[frustrated] = FSP
    for k in frustrated:
        try:
            x[k] = _fsp_minimum(points[rows[k]])
        except (ConvergenceError, ValueError) as exc:
            x[k], error[k] = np.nan, exc

    members, count = _orbits(x, label == FSP)
    rep = members[:, 0]
    for k in np.flatnonzero(np.any(np.abs(rep) >= 0.5 * g[rows, None], axis=-1)):
        try:
            _check_domain(rep[k], points[rows[k]].g)
        except DomainError as exc:
            error[k] = exc
    e = np.full(len(rows), np.nan)
    ok = np.flatnonzero([err is None for err in error])
    if ok.size:
        e[ok] = energy(rep[ok], [points[rows[k]] for k in ok])

    pick = np.arange(n)
    for k in range(n, len(rows)):
        i = rows[k]  # the uniform candidate of row i is candidate i
        if error[i] is None and (error[k] is not None or e[k] < e[i]):
            pick[i] = k
    error = [error[k] for k in pick]
    failed = np.array([err is not None for err in error], dtype=bool)
    x, rep = x[pick], rep[pick]
    x[failed] = rep[failed] = np.nan
    label = label[pick]
    label[failed] = ""
    return GroundStates(label=label, x=x, representative=rep, energy=e[pick],
                        degeneracy=np.where(failed, 0, count[pick]),
                        coexistent=coexist & ~failed, error=error)


def solve_ground_state(params: ModelParams) -> PhaseResult:
    """Global mean-field ground state at one parameter point, with its full
    degenerate orbit: the one-point case of :func:`solve_ground_states`,
    raising the error a row would record."""
    states = solve_ground_states([params])
    if states.error[0] is not None:
        raise states.error[0]
    return _phase_result(states.label[0], states.x[0], params,
                         coexistent=bool(states.coexistent[0]))


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


def root_structure(params: ModelParams, k: float) -> RootStructure:
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
    xs = np.linspace(lo, hi, 4001)
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
    states = [state_from_x(c, params) for c in configs]  # x == alpha at J1=0
    return PhaseResult(
        label=label,
        energy=_atom_only_energy(configs[0], g, J2),
        degeneracy=len(configs),
        representative=states[0],
        all_minima=states,
    )
