"""Mean-field ground states of the trimer.

The reduced ground-state energy per unit of N_a*Omega, as a function of the
transformed variables x_n on the open cube |x_n| < g/2, is

    E(x) = sum_n [ C*x_n^2 - 1/2*sqrt(1 - 4*x_n^2/g^2) + 2*B*x_n*x_{n+1} ]

with periodic indices and the coefficients from :mod:`dicke_trimer.model`.
:func:`energy`, :func:`gradient` and :func:`hessian` are its only
implementation, and :func:`newton_polish` is the one damped-Newton loop that
polishes its minima, a stack of them at once, for the frustrated solver here
and for the oracle.
Three kinds of minima occur: the trivial x = 0 (normal phase, NP), a uniform
configuration (normal superradiant phase, NSP, two-fold degenerate) and a
frustrated one with one site carrying opposite sign and twice the amplitude
of the other two (FSP, six-fold degenerate).

The frustrated minima are found by enumerating the roots of one scalar
function: on the (x1, x2, x2) pattern dE/dx1 = 0 gives x2 explicitly, and
dE/dx2 = 0 becomes an equation in x1 alone, scanned on the windows where x2
stays in the domain.  Each root is polished as the 3-vector (x1, x2, x2).
The frustrated rows of a batch go through this as one array pass: the window
ends, the scan and the root refinement (an elementwise bracketed solve) run
over all rows at once, and the candidates are polished as one stack.  See
docs/frustrated_stationarity.md.

:func:`solve_ground_states` is the one dispatch to these branches, over a
batch of parameter points; :func:`solve_ground_state` is its one-point case.
A batch is one Points record of columns; the public entries convert one
ModelParams or a sequence of them to Points once, so all run the same code.
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
    Points,
    _b_tilde_error,
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


def _inside(x, g):
    """Mask of the rows of x (over its last axis) inside |x_n| < g/2; a NaN
    row is never inside."""
    return np.all(np.abs(x) < 0.5 * g, axis=-1)


def _domain_error(x, g):
    """The DomainError of a configuration not inside |x_n| < g/2, or None."""
    # "not inside" rather than "outside", so that NaN fails it too
    if not (np.abs(x) < 0.5 * g).all():
        return DomainError(f"|x_n| >= g/2 is unphysical (g={g}, x={np.asarray(x)})")
    return None


def _check_domain(x, g):
    err = _domain_error(x, g)
    if err is not None:
        raise err


def bloch_theta(x, g):
    """Bloch polar angles of the sites: sin(theta) = -2x/g, cos(theta) < 0."""
    return math.pi + np.arcsin(2.0 * x / g)


def state_from_x(x, params: ModelParams) -> MeanFieldState:
    """Build the full state (coherences and angles) from the x variables."""
    x = np.asarray(x, dtype=float)
    _check_domain(x, params.g)
    alpha = alpha_from_x(x, params)
    return MeanFieldState(alpha=alpha, x=x, theta=bloch_theta(x, params.g))


def _coefficients(params):
    """g, C_tilde and B_tilde for the kernels below: floats for one
    ModelParams, (N, 1) columns for Points (or a sequence of ModelParams);
    raises the error of the first row where B_tilde is undefined."""
    if isinstance(params, ModelParams):
        return params.g, c_tilde(params.J1), b_tilde(params)
    p = Points.of(params)
    B = b_tilde(p)
    if np.isnan(B).any():
        b_tilde(p[int(np.argmax(np.isnan(B)))])
    return p.g[:, None], c_tilde(p.J1)[:, None], B[:, None]


def _terms(x, g):
    """Checked x, u = 4x^2/g^2 and sqrt(1 - u).

    The kernels below take g, C_tilde and B_tilde as floats, or as (N, 1)
    columns, one per row of x.  On the 3-cycle the neighbours of site n sum
    to sum(x) - x_n, and sum_n x_n x_{n+1} = ((sum x)^2 - sum x^2)/2, so
    they need no index shifts.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(x, g)
    u = 4.0 * x * x / (g * g)
    return x, u, np.sqrt(1.0 - u)


def _energy(x, g, C, B):
    x, _, root = _terms(x, g)
    if isinstance(B, np.ndarray):  # one B per row of x, as an (N, 1) column
        B = B[:, 0]
    s = np.sum(x, axis=-1)
    return np.sum(C * x * x - 0.5 * root, axis=-1) + B * (s * s - np.vecdot(x, x))


def _gradient(x, g, C, B):
    x, _, root = _terms(x, g)
    return (2.0 * C * x + 2.0 * x / (g * g * root)
            + 2.0 * B * (x.sum(axis=-1, keepdims=True) - x))


def _hessian(x, g, C, B):
    x, u, root = _terms(x, g)
    if isinstance(B, np.ndarray):  # (N, 1) column -> (N, 1, 1)
        B = B[..., None]
    diag = 2.0 * C + (2.0 / (g * g)) * (1.0 / root + u / root**3)
    H = np.empty(x.shape + (3,))
    H[...] = 2.0 * B
    # the diagonal of each 3x3 block is every fourth entry of its 9
    H.reshape(-1, 9)[:, ::4] = diag.reshape(-1, 3)
    return H


def energy(x, params):
    """Reduced ground-state energy E(x) over the last axis of x (a float for
    one configuration); hard error outside |x_n| < g/2.  params is one
    ModelParams, or Points (or a sequence of ModelParams), one row per row
    of x."""
    e = _energy(x, *_coefficients(params))
    return float(e) if e.ndim == 0 else e


def gradient(x, params) -> np.ndarray:
    """Analytic dE/dx_n over the last axis of x; params as for energy."""
    return _gradient(x, *_coefficients(params))


def hessian(x, params) -> np.ndarray:
    """Analytic 3x3 Hessian of E, one per row of x (shape x.shape + (3,));
    params as for energy."""
    return _hessian(x, *_coefficients(params))


#: newton_polish, and each row of the oracle's descent, stops once
#: max |grad E| is below this
_NEWTON_TOL = 1e-13
#: a stationary point whose smallest Hessian eigenvalue is below this is a
#: saddle, not a minimum
_PSD_TOL = -1e-9
#: at most this many Newton steps, each halved at most _NEWTON_HALVINGS times
_NEWTON_STEPS = 60
_NEWTON_HALVINGS = 40


def _newton_steps(H, grad):
    """H^-1 grad per row, and which rows could be solved: a singular
    Hessian ends its own row only."""
    try:
        return np.linalg.solve(H, grad[..., None])[..., 0], np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        step, solved = np.zeros_like(grad), np.ones(len(H), dtype=bool)
        for k in range(len(H)):
            try:
                step[k] = np.linalg.solve(H[k:k + 1], grad[k:k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                solved[k] = False
        return step, solved


def _polish(x, g, C, B):
    """newton_polish over the rows of an (N, 3) stack, with g, C_tilde and
    B_tilde as (N, 1) columns.  The rows step in lockstep, but each keeps
    its own step length and stop rules, so no row depends on another."""
    x = np.array(x, dtype=float)
    grad = _gradient(x, g, C, B)
    norm = np.max(np.abs(grad), axis=-1)
    live = np.flatnonzero(norm >= _NEWTON_TOL)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        step, solved = _newton_steps(
            _hessian(x[live], g[live], C[live], B[live]), grad[live])
        live, step = live[solved], step[solved]
        moved = np.zeros(len(live), dtype=bool)
        pending = np.arange(len(live))
        lam = 1.0  # the pending rows have all been halved equally often
        for _ in range(_NEWTON_HALVINGS):
            if not pending.size:
                break
            rows = live[pending]
            trial = x[rows] - lam * step[pending]
            # a stuck row: every smaller step rounds to x as well
            stuck = np.all(trial == x[rows], axis=-1)
            test = np.flatnonzero(~stuck & _inside(trial, g[rows]))
            r = rows[test]
            tg = _gradient(trial[test], g[r], C[r], B[r])
            tnorm = np.max(np.abs(tg), axis=-1)
            better = tnorm < norm[r]
            ok = test[better]
            x[rows[ok]], grad[rows[ok]], norm[rows[ok]] = trial[ok], tg[better], tnorm[better]
            moved[pending[ok]] = True
            pending = pending[~stuck & ~moved[pending]]
            lam *= 0.5
        live = live[moved]  # a row no halving helped has stopped
        live = live[norm[live] >= _NEWTON_TOL]
    return x, norm


def newton_polish(x, params):
    """Damped Newton on grad E = 0 over all three x_n; no pattern assumed.

    x is one configuration (3,) or a (k, 3) stack of them, and params is one
    ModelParams, or Points (or a sequence of ModelParams), one row per row.
    Per row, a step is halved until it stays
    inside the domain and lowers max |grad E|; the row ends when no halving
    helps, when its Hessian is singular, or once the halved step no longer
    changes x in floating point.  A row's result does not depend on the
    other rows.  Returns the polished x and its max |grad E| (a float for
    one configuration).
    """
    x = np.asarray(x, dtype=float)
    stack = x.reshape(-1, 3)
    polished, norm = _polish(stack, *(np.broadcast_to(v, (len(stack), 1))
                                      for v in _coefficients(params)))
    if x.ndim == 1:
        return polished[0], float(norm[0])
    return polished, norm


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
    return _phase_result(NP, np.zeros(3), params)


# ---------------------------------------------------------------------------
# uniform (NSP) branch

def nsp_alpha(params):
    """Closed-form uniform coherence amplitude; 0.0 at or below onset.  A
    float for one ModelParams, one per row of Points."""
    p = Points.of(params)
    g, J1, J2 = p.g, p.J1, p.J2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        denom = g * g - 2.0 * (J2 + 2.0 * J1 * J2)
        s = 1.0 + 2.0 * J1
        radicand = 1.0 / (s * s) - 1.0 / (denom * denom)
        a = np.where((denom > 0.0) & (radicand > 0.0), 0.5 * g * np.sqrt(radicand), 0.0)
    return float(a[0]) if isinstance(params, ModelParams) else a


def _uniform_branch(points):
    """Label and x of the uniform branch at every row of Points: NSP with
    x_n = (1 + 2 J1) nsp_alpha, or NP (x = 0) where nsp_alpha vanishes."""
    a = nsp_alpha(points)
    x = (1.0 + 2.0 * points.J1) * a
    return np.where(a == 0.0, NP, NSP).astype(object), np.repeat(x[:, None], 3, axis=1)


def solve_nsp(params: ModelParams) -> PhaseResult:
    """Translational-symmetric superradiant solution, or NP below its onset."""
    label, x = _uniform_branch(Points.of(params))
    return _phase_result(label[0], x[0], params)


# ---------------------------------------------------------------------------
# frustrated (FSP) branch

#: |B_tilde| below this is first-order coexistence: the sites decouple
_B_COEXIST_TOL = 1e-12
#: largest |grad E| of an accepted stationary state
STATIONARITY_TOL = 1e-8


def asymptotic_fsp(params: ModelParams) -> MeanFieldState:
    """Leading-order frustrated solution near the finite-momentum onset.

    x = (-2t, t, t) with t = sqrt((1-J2)*g_c_plus*(g - g_c_plus)/3); exact
    zeros at g = g_c_plus.  An acceptance reference for the |g - g_c|^(1/2)
    scaling.
    """
    gcp = critical_couplings(params).g_c_plus
    dg = max(params.g - gcp, 0.0)
    t = math.sqrt((1.0 - params.J2) * gcp * dg / 3.0)
    return state_from_x(np.array([-2.0 * t, t, t]), params)


def _is_fsp_minimum(x, g, C, B):
    """True for each row of x, with x[0] opposite in sign to x[1] and x[2],
    that is a local minimum of the full energy."""
    frustrated = (x[:, 0] * x[:, 1] < 0.0) & (x[:, 0] * x[:, 2] < 0.0)
    return frustrated & (np.linalg.eigvalsh(_hessian(x, g, C, B))[:, 0] > _PSD_TOL)


def _h(x, C, g):
    """Half the on-site part of dE/dx_n: C*x + x/(g^2*sqrt(1 - 4*x^2/g^2))."""
    return C * x + x / (g * g * np.sqrt((1.0 - 2.0 * x / g) * (1.0 + 2.0 * x / g)))


def _G(x1, C, B, g, size=False):
    """dE/dx2 on the (x1, x2, x2) pattern with x2 = -h(x1)/(2B), over x1;
    with size, the size of its terms, (|h(x2)| + |B| (|x1| + |x2|)) / |x1|."""
    x2 = -_h(x1, C, g) / (2.0 * B)
    if size:
        return (np.abs(_h(x2, C, g)) + np.abs(B) * (np.abs(x1) + np.abs(x2))) / np.abs(x1)
    return (_h(x2, C, g) + B * (x1 + x2)) / x1


_EPS = np.finfo(float).eps
#: the bracketed root solve stops once the bracket is narrower than
#: 4 eps |x| + 1e-300, brentq's default rtol with xtol = 1e-300
_ROOT_RTOL = 4.0 * _EPS
_ROOT_XTOL = 1e-300
#: at most this many steps per root
_ROOT_STEPS = 100


def _bracketed_roots(f, x1, x2, f1, f2, *args, ftol=0.0):
    """Roots of f inside the brackets [x1, x2], elementwise, f1 = f(x1) and
    f2 = f(x2) of opposite sign.  f(x, *args) evaluates f elementwise, args
    being arrays with one entry per bracket.

    Chandrupatla's method (AIChE J. 43, 2146 (1997)): inverse quadratic
    interpolation through the last three points where they admit it,
    bisection otherwise, and never a step closer than half the tolerance to
    a bracket end.  Each element stops on its own, at the end with the
    smaller |f|, so no root depends on the other elements: once the bracket
    is narrower than 4 eps |x|, or once that smaller |f| is at most ftol
    (f's rounding floor, a float or one per bracket; the default 0 stops at
    an exact zero).
    """
    root = np.empty(len(x1))
    at = np.arange(len(x1))
    ftol = np.broadcast_to(ftol, at.shape)
    x3 = f3 = None
    for it in range(_ROOT_STEPS + 1):
        lower = np.abs(f1) < np.abs(f2)
        xm = np.where(lower, x1, x2)
        dx = np.abs(x2 - x1)
        tol = _ROOT_RTOL * np.abs(xm) + _ROOT_XTOL
        done = (dx < tol) | (np.minimum(np.abs(f1), np.abs(f2)) <= ftol)
        if it == _ROOT_STEPS:
            done[:] = True
        if done.any():
            root[at[done]] = xm[done]
            live = ~done
            at, x1, x2, f1, f2, dx, tol, ftol = (
                v[live] for v in (at, x1, x2, f1, f2, dx, tol, ftol))
            args = [v[live] for v in args]
            if it:
                x3, f3 = x3[live], f3[live]
        if not at.size:
            break
        t = 0.5
        if it:
            with np.errstate(divide="ignore", invalid="ignore"):
                xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                t = np.where(iqi, f1 / (f2 - f1) * f3 / (f2 - f3)
                             + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
        tl = 0.5 * tol / dx
        x = x1 + np.minimum(np.maximum(t, tl), 1.0 - tl) * (x2 - x1)
        fx = f(x, *args)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    return root


def _bisect(above, lo, hi, width, levels=1):
    """Bisection of the brackets [lo, hi] (1-D arrays) in lockstep: every
    bracket at least width wide is halved, at most 60 times.  above(mid,
    rows) gets midpoints and the indices of their brackets, and returns True
    where the change lies below mid.  Returns 0.5 (lo + hi).

    Each call of above settles up to `levels` halvings: it gets, per active
    bracket, every midpoint of the next `levels` levels of its bisection
    tree that is at least width wide (rows repeated), each computed as the
    halving computes it, so the result does not depend on `levels`."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    active = np.flatnonzero(hi - lo >= width)
    halvings = 0
    while active.size and halvings < 60:
        depth = min(levels, 60 - halvings)
        # the tree level by level, node k of a level parent of 2k and 2k + 1
        a, b, mids, wide = lo[active, None], hi[active, None], [], []
        for _ in range(depth):
            m = 0.5 * (a + b)
            mids.append(m)
            wide.append(b - a >= width)
            a, b = (np.stack(u, axis=2).reshape(len(active), -1) for u in ((a, m), (m, b)))
        mid = np.concatenate(mids, axis=1)
        probe = np.nonzero(np.concatenate(wide, axis=1))
        up = np.zeros(mid.shape, dtype=bool)
        up[probe] = np.asarray(above(mid[probe], active[probe[0]]), dtype=bool)
        node, at = np.zeros(len(active), dtype=int), np.arange(len(active))
        for level in range(depth):
            col = 2 ** level - 1 + node[at]
            u, m = up[at, col], mid[at, col]
            hi[active[at[u]]], lo[active[at[~u]]] = m[u], m[~u]
            node[at] = 2 * node[at] + ~u
            at = at[hi[active[at]] - lo[active[at]] >= width]
        active = active[at]
        halvings += depth
    return 0.5 * (lo + hi)


# scan points as fractions of a window: cosine spacing plus geometric
# offsets toward both ends, where the roots crowd at large B, large g and
# just above g_c_plus
_SCAN_COS = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 66)[1:-1]))
_SCAN_END = np.geomspace(1e-15, 1e-2, 27)
_EDGE_OFFSETS = np.geomspace(1e-1, 1e-15, 15)
#: windows per scan chunk, bounding the (windows, scan points) work arrays
_SCAN_CHUNK = 64


def _turning(C, g):
    """h's turning point t and its zero -x* on the piece from -g/2, for 1-D
    arrays C and g.  With q = 1/(C g^2), sqrt(1 - 4x^2/g^2) is (-q)^(1/3)
    at t, where h' vanishes, and -q at -x*, the decoupled single-site
    minimum.  Both exist for q in (-1, 0], where h'(0) = C + 1/g^2 < 0;
    elsewhere h is monotone on (-g/2, 0] and both are 0.  Returns the
    indices with a turning point, t and -x*."""
    q = 1.0 / (C * g * g)
    turn = np.flatnonzero((-1.0 < q) & (q <= 0.0))
    s = np.stack(((-q[turn]) ** (1.0 / 3.0), -q[turn]))
    t, zero = np.zeros((2, len(g)))
    t[turn], zero[turn] = -0.5 * g[turn] * np.sqrt((1.0 - s) * (1.0 + s))
    return turn, t, zero


def _level(C, g, v, t):
    """Where h = v on the pieces (-g/2, t] and [t, 0] of h, for 1-D arrays
    C, g, v and the turning points t of :func:`_turning` (the second piece
    is empty where t = 0): per piece, as (N, 2) arrays, the x where h = v
    or the piece end nearer to it, and whether h = v crosses the piece or
    meets it at an end.  The first piece starts at the first of the points
    -g/2 (1 - _EDGE_OFFSETS) where h <= min(v, 0), or at the last of them.
    The crossings of all pieces are one bracketed root solve."""
    n = len(g)
    edges = -0.5 * g[:, None] * (1.0 - _EDGE_OFFSETS)
    below = _h(edges, C[:, None], g[:, None]) <= np.minimum(v, 0.0)[:, None]
    first = np.where(below.any(axis=1), below.argmax(axis=1), -1)
    a = np.stack((edges[np.arange(n), first], t), axis=1)
    b = np.stack((t, np.zeros(n)), axis=1)
    Cp, gp, vp = (np.repeat(u[:, None], 2, axis=1) for u in (C, g, v))
    fa, fb = _h(a, Cp, gp) - vp, _h(b, Cp, gp) - vp
    x = np.where(np.abs(fa) < np.abs(fb), a, b)
    sign = np.sign(fa) * np.sign(fb)
    solve = sign < 0.0
    if solve.any():
        x[solve] = _bracketed_roots(lambda x, C, g, v: _h(x, C, g) - v,
                                    a[solve], b[solve], fa[solve], fb[solve],
                                    Cp[solve], gp[solve], vp[solve])
    return x, sign <= 0.0


def _scan(first, left, right, C, B, g):
    """G at the scan points of the windows (left, right), for 1-D arrays
    with one entry per window, numbered from first.  Returns the window and
    x1 of every exact zero, and the window, both ends and G at both ends of
    every sign change between consecutive points."""
    w = (right - left)[:, None]
    left, right = left[:, None], right[:, None]
    x1 = np.sort(np.concatenate(
        (left + w * _SCAN_COS, left + w * _SCAN_END, right - w * _SCAN_END), axis=1), axis=1)
    keep = (x1 > left) & (x1 < right)
    keep[:, 1:] &= x1[:, 1:] != x1[:, :-1]
    # the kept points of all windows in one flat array, window by window
    win, x1 = np.nonzero(keep)[0], x1[keep]
    x2 = -_h(x1, C[win], g[win]) / (2.0 * B[win])
    inside = (1.0 - 2.0 * x2 / g[win]) * (1.0 + 2.0 * x2 / g[win]) > 0.0
    win, x1 = win[inside], x1[inside]
    G = _G(x1, C[win], B[win], g[win])
    s = np.sign(G)
    zero = s == 0.0
    i = np.flatnonzero((win[:-1] == win[1:]) & (s[:-1] * s[1:] < 0.0))
    return first + win[zero], x1[zero], first + win[i], x1[i], x1[i + 1], G[i], G[i + 1]


def _fsp_roots(C, B, g, t, h0):
    """Every x1 on the frustrated windows where G(x1) is zero or changes
    sign, for 1-D arrays C, B, g and h's turning point t and zero h0 from
    :func:`_turning`: the row of each root and the root, ordered by row,
    window, exact zeros before refined sign changes, and x1.  The scan runs
    over _SCAN_CHUNK windows at a time, the refinement over all sign
    changes at once.  A refinement stops at G's rounding floor, 8 eps times
    the size of G's terms at the larger bracket end: just above g_c_plus G
    is flat at its root, and a narrower bracket would take 15-20 more steps
    inside that noise."""
    # the windows, where x2 = -h(x1)/(2B) lies in (0, g/2): on each piece,
    # from the zero of h to h = -B g or to the piece end
    end, _ = _level(C, g, -B * g, t)
    h0 = np.stack((h0, np.zeros(len(g))), axis=1)
    left, right = np.minimum(h0, end), np.maximum(h0, end)
    row, piece = np.nonzero(left < right)
    left, right, C, B, g = left[row, piece], right[row, piece], C[row], B[row], g[row]
    parts = [_scan(k, *(u[k:k + _SCAN_CHUNK] for u in (left, right, C, B, g)))
             for k in range(0, max(len(row), 1), _SCAN_CHUNK)]
    zero_win, zero, win, a, b, fa, fb = (np.concatenate(u) for u in zip(*parts))
    C, B, g = C[win], B[win], g[win]
    ftol = 8.0 * _EPS * np.maximum(_G(a, C, B, g, size=True), _G(b, C, B, g, size=True))
    roots = _bracketed_roots(_G, a, b, fa, fb, C, B, g, ftol=ftol)
    win, x1 = np.concatenate((zero_win, win)), np.concatenate((zero, roots))
    order = np.lexsort((x1, np.repeat([0, 1], (len(zero), len(roots))), win))
    return row[win[order]], x1[order]


def _keep_lowest_minima(rows, X, coef, x, error):
    """Polish the candidates X (k, 3) of the given rows as one stack and set
    x[row] to the lowest one that ends as a stationary frustrated local
    minimum.  coef holds g, C_tilde and B_tilde per row.  A candidate outside
    the domain fails its row with the DomainError that polishing it would
    raise."""
    g, C, B = (u[rows, None] for u in coef)
    for k in np.flatnonzero(~_inside(X, g)):
        error[rows[k]] = error[rows[k]] or _domain_error(X[k], g[k, 0])
    use = np.flatnonzero(np.array([error[i] is None for i in rows], dtype=bool))
    if not use.size:
        return
    rows, g, C, B = rows[use], g[use], C[use], B[use]
    P, resid = _polish(X[use], g, C, B)
    ok = np.flatnonzero((resid <= STATIONARITY_TOL) & _is_fsp_minimum(P, g, C, B))
    # lexsort is stable: the earliest candidate wins among equal energies
    order = ok[np.lexsort((_energy(P[ok], g[ok], C[ok], B[ok]), rows[ok]))]
    best = order[np.unique(rows[order], return_index=True)[1]]
    x[rows[best]] = P[best]


def _fsp_minima(points):
    """x of the frustrated minimum branch at every row of Points, g >
    g_c_plus, ignoring the B sign, as one array pass over all rows.

    Needed internally to trace the branch through the first-order point,
    where B changes sign while the branch persists.  Every stationary point
    of the (x1, x2, x2) pattern with x1 < 0 < x2 is a root of one scalar
    function of x1; all roots are enumerated and the lowest-energy local
    minimum wins (docs/frustrated_stationarity.md).  Returns the (N, 3) x,
    NaN in a failed row, and per row its ValueError or ConvergenceError, or
    None.  Each row equals its one-row call bitwise.
    """
    points = Points.of(points)
    n = len(points)
    error = [None] * n
    gcp = critical_couplings(points).g_c_plus
    below = points.g <= gcp
    for i in np.flatnonzero(below):
        error[i] = ValueError(f"frustrated branch requires g > g_c_plus={gcp[i]}, "
                              f"got g={points.g[i]}")
    valid = np.flatnonzero(~below)
    g, C, B = coef = np.where(below, np.nan, (points.g, c_tilde(points.J1), b_tilde(points)))
    x = np.full((n, 3), np.nan)
    scan = valid[np.abs(B[valid]) >= _B_COEXIST_TOL]
    # from about g = 1e12 the turning point rounds onto -g/2, where h divides
    # by zero, and from about g = 1.3e154 g * g overflows; such a row fails
    # through the domain mask and the stationarity gate, not the warning
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        turn, t, zero = _turning(C, g)
        rows, x1 = _fsp_roots(*(u[scan] for u in (C, B, g, t, zero)))
        rows = scan[rows]
        x2 = -_h(x1, C[rows], g[rows]) / (2.0 * B[rows])
    _keep_lowest_minima(rows, np.stack((x1, x2, x2), axis=1), coef, x, error)
    rows = turn[np.isnan(x[turn, 0]) & np.array([error[i] is None for i in turn], dtype=bool)]
    # decoupled sites at the single-site minima +-x*: exact for B = 0, and
    # the Newton seed where B is so small that x2 = -h(x1)/(2B) cannot be
    # resolved from the floats of x1 in the window
    xs = -zero[rows]
    _keep_lowest_minima(rows, np.stack((-xs, xs, xs), axis=1), coef, x, error)
    for i in np.flatnonzero(np.isnan(x[:, 0])):
        if error[i] is None:
            p = points[i]
            error[i] = ConvergenceError(
                f"no frustrated local minimum at g={p.g} (J1={p.J1}, "
                f"J2={p.J2}); the branch may not exist yet",
                residual=math.inf)
    return x, error


def _solve_fsp_branch(params: ModelParams) -> PhaseResult:
    """The frustrated minimum branch at one point as a PhaseResult: the
    one-row case of :func:`_fsp_minima`, raising the row's error."""
    x, error = _fsp_minima(Points.of(params))
    if error[0] is not None:
        raise error[0]
    return _phase_result(FSP, x[0], params)


def solve_fsp(params: ModelParams) -> PhaseResult:
    """Frustrated superradiant ground state for g > g_c_plus and B_tilde > 0."""
    if b_tilde(params) <= 0.0:
        raise ValueError("frustrated phase requires B_tilde > 0")
    return _solve_fsp_branch(params)


# ---------------------------------------------------------------------------
# dispatch

@dataclass(frozen=True)
class GroundStates:
    """Ground states of a batch of parameter points, one row per point.

    representative is the member of the orbit that
    PhaseResult.representative holds.  A row whose solve raised keeps the
    exception in ``error``, label "", NaN representative and energy and
    degeneracy 0.
    """

    label: np.ndarray
    representative: np.ndarray
    energy: np.ndarray
    degeneracy: np.ndarray
    coexistent: np.ndarray
    error: list


def solve_ground_states(points) -> GroundStates:
    """Global mean-field ground states of Points (or a sequence of
    ModelParams), one row per point.

    Dispatch: g <= g_c gives the NP; above it the sign of B_tilde selects
    the uniform (B < 0, closed form) or frustrated (B > 0, root scan)
    branch.  |B| below 1e-12 is treated as first-order coexistence: both
    branches are solved and the lower-energy one is kept, with
    ``coexistent`` set; a branch that fails is never kept over one that
    does not.  The orbits, energies and domain checks run over
    all rows at once.  A ConvergenceError or ValueError of a row is
    recorded for that row, as is the ParameterError of a row where B_tilde
    is undefined; any other exception propagates.
    """
    points = Points.of(points)
    n = len(points)
    g = points.g
    above = g > critical_couplings(points).g_c
    B = b_tilde(points)
    error = [None] * n
    for i in np.flatnonzero(np.isnan(B)):
        error[i] = _b_tilde_error(g[i], points.J2[i])
    coexist = above & (np.abs(B) < _B_COEXIST_TOL)
    uniform = np.flatnonzero(above & (coexist | (B < 0.0)))
    # one candidate per row on its branch, plus the frustrated branch of
    # every coexistence row
    rows = np.concatenate((np.arange(n), np.flatnonzero(coexist)))
    frustrated = np.concatenate((np.flatnonzero(above & ~coexist & (B > 0.0)),
                                 np.arange(n, len(rows))))
    label = np.full(len(rows), NP, dtype=object)
    x = np.zeros((len(rows), 3))
    error += [None] * (len(rows) - n)
    label[uniform], x[uniform] = _uniform_branch(points[uniform])
    label[frustrated] = FSP
    x[frustrated], errors = _fsp_minima(points[rows[frustrated]])
    for k, err in zip(frustrated, errors):
        error[k] = err

    members, count = _orbits(x, label == FSP)
    rep = members[:, 0]
    for k in np.flatnonzero(~_inside(rep, g[rows, None])):
        error[k] = error[k] or _domain_error(rep[k], g[rows[k]])
    # a failed candidate has energy +inf, so it is never picked over one that
    # did not fail; row i's own candidate is candidate i and wins a tie
    e = np.full(len(rows), np.inf)
    ok = np.flatnonzero([err is None for err in error])
    if ok.size:
        e[ok] = _energy(rep[ok], *_coefficients(points[rows[ok]]))

    pick = np.arange(n)
    k = np.arange(n, len(rows))[e[n:] < e[rows[n:]]]
    pick[rows[k]] = k
    error = [error[i] for i in pick]
    failed = np.array([err is not None for err in error], dtype=bool)
    rep, label, e = rep[pick], label[pick], e[pick]
    rep[failed], label[failed], e[failed] = np.nan, "", np.nan
    return GroundStates(label=label, representative=rep, energy=e,
                        degeneracy=np.where(failed, 0, count[pick]),
                        coexistent=coexist & ~failed, error=error)


def solve_ground_state(params: ModelParams) -> PhaseResult:
    """Global mean-field ground state at one parameter point, with its full
    degenerate orbit: the one-point case of :func:`solve_ground_states`,
    raising the error a row would record."""
    states = solve_ground_states(Points.of(params))
    if states.error[0] is not None:
        raise states.error[0]
    return _phase_result(states.label[0], states.representative[0], params,
                         coexistent=bool(states.coexistent[0]))


# ---------------------------------------------------------------------------
# monotonic-method root analysis

@dataclass(frozen=True)
class RootStructure:
    """Roots of f(x) = k on (-g/2, g/2) and the monotonicity of f."""

    monotonic: bool
    roots: tuple
    turning_points: tuple


def root_structure(params: ModelParams, k: float) -> RootStructure:
    """Classify the roots of the per-site stationarity function f(x) = k.

    f(x) = (g^2 + J2 - J1*J2)*x/(1-J1) - x/sqrt(1 - 4*x^2/g^2) is monotonic
    for g < g_c_plus and develops two symmetric turning points above it.
    As f = -g^2 h(x) with C_tilde - B_tilde in place of C_tilde in h, its
    turning points and roots are those of the frustrated windows: f = k is
    h = -k/g^2, two rows of one level solve of h on its monotone pieces in
    (-g/2, 0], the second at +k/g^2 and mirrored, h being odd, for the
    roots in (0, g/2).  A root at a piece end, where two pieces meet, is
    counted once.
    """
    g, C, B = _coefficients(params)
    C, g = np.full(2, C - B), np.full(2, g)
    turn, t, _ = _turning(C, g)
    x, hit = _level(C, g, np.array([-k, k]) / (g * g), t)
    roots = np.unique(np.concatenate((x[0, hit[0]], -x[1, hit[1] & (x[1] < 0.0)])))
    return RootStructure(monotonic=params.g <= critical_couplings(params).g_c_plus,
                         roots=tuple(roots.tolist()),
                         turning_points=(float(t[0]), -float(t[0])) if turn.size else ())


# ---------------------------------------------------------------------------
# atom-hopping-only special case (independent route)

def _atom_only_energy(alpha, g, J2):
    root = np.sqrt(1.0 - 4.0 * alpha * alpha / (g * g))
    return float(np.sum(-alpha * alpha - 0.5 * root
                        + (2.0 * J2 / (g * g)) * alpha * np.roll(alpha, -1)))


def _atom_only_gradient(alpha, g, J2):
    root = np.sqrt(1.0 - 4.0 * alpha * alpha / (g * g))
    return (-2.0 * alpha + 2.0 * alpha / (g * g * root)
            + (2.0 * J2 / (g * g)) * (np.roll(alpha, 1) + np.roll(alpha, -1)))


def _atom_only_hessian(alpha, g, J2):
    u = 4.0 * alpha * alpha / (g * g)
    root = np.sqrt(1.0 - u)
    H = np.full((3, 3), 2.0 * J2 / (g * g))
    np.fill_diagonal(H, -2.0 + (2.0 / (g * g)) * (1.0 / root + u / root**3))
    return H


def _atom_only_descent(alpha, g, J2):
    """Modified Newton from one seed (Nocedal & Wright, sec. 3.4), Hessian
    eigenvalues w taken as max(|w|, 1e-8); a step is halved until it stays
    inside |alpha| < g/2 and passes the Armijo test on E, or, once the
    predicted decrease is below the float resolution of E, lowers max |grad|.
    Ends at max |grad| < _NEWTON_TOL, after 200 steps, or when a halved step
    no longer changes alpha."""
    e, grad = _atom_only_energy(alpha, g, J2), _atom_only_gradient(alpha, g, J2)
    for _ in range(200):
        norm = np.max(np.abs(grad))
        if norm < _NEWTON_TOL:
            break
        w, V = np.linalg.eigh(_atom_only_hessian(alpha, g, J2))
        step = -V @ ((V.T @ grad) / np.maximum(np.abs(w), 1e-8))
        slope, lam = grad @ step, 1.0
        # below it, steps of equal E pass Armijo and can cycle between two floats
        flat = -slope <= _EPS * abs(e)
        while True:
            trial = alpha + lam * step
            if np.all(trial == alpha):
                return alpha
            if _inside(trial, g):
                t_e, t_grad = _atom_only_energy(trial, g, J2), _atom_only_gradient(trial, g, J2)
                if (np.max(np.abs(t_grad)) < norm) if flat else (t_e <= e + 1e-4 * lam * slope):
                    break
            lam *= 0.5
        alpha, e, grad = trial, t_e, t_grad
    return alpha


def solve_atom_only(params: ModelParams) -> PhaseResult:
    """Ground state of the J1 = 0 model by direct minimisation over alpha.

    With the photon hopping off the x variables coincide with alpha and the
    reduced energy per site is -a^2 - 1/2*sqrt(1 - 4a^2/g^2) plus the
    (2*J2/g^2) a_n a_{n+1} coupling.  Solved by its own modified Newton from
    seven pattern seeds, deliberately not reusing the general-x machinery,
    so it can serve as a cross-check of solve_ground_state at J1 = 0.
    """
    if params.J1 != 0.0:
        raise ValueError(f"atom-only solver requires J1 = 0, got J1={params.J1}")
    # the ParameterError of solve_ground_state where g * g == 0
    b_tilde(params)
    g, J2 = params.g, params.J2
    seeds = [np.zeros(3)] + [s * 0.45 * g * np.array(base)
                             for base in ((1.0, 1.0, 1.0), (-1.0, 0.5, 0.5), (-1.0, 1.0, 1.0))
                             for s in (1.0, -1.0)]
    alpha = min((_atom_only_descent(seed, g, J2) for seed in seeds),
                key=lambda a: _atom_only_energy(a, g, J2))
    amp = np.max(np.abs(alpha))
    if amp < 1e-8:
        return solve_np(params)
    uniform = np.max(np.abs(alpha - alpha.mean())) < 1e-8 * max(amp, 1.0)
    configs = _orbit(alpha)
    states = [state_from_x(c, params) for c in configs]  # x == alpha at J1=0
    return PhaseResult(
        label=NSP if uniform else FSP,
        energy=_atom_only_energy(configs[0], g, J2),
        degeneracy=len(configs),
        representative=states[0],
        all_minima=states,
    )
