"""Brute-force verification oracle.

Global minimisation of the reduced energy on a dense grid with local
refinement, degeneracy enumeration, and transition detection from numerical
derivatives of the ground-state energy.  Deliberately ansatz-free: nothing
here assumes the uniform or frustrated patterns, so it can arbitrate the
closed-form and root-scan solvers.  The energy, its derivatives and the
Newton polish are the pattern-free ones of :mod:`dicke_trimer.meanfield`.
The oracle's own parts are the separable grid evaluation and
:func:`descend`, one batched modified-Newton descent that refines every
seed at one parameter point together; no scipy optimiser is involved.
Transition detection takes one brute-force minimum per probed g.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .model import FSP, NP, NSP, ModelParams
from .meanfield import (ConvergenceError, PhaseResult, _bisect, _g_c_b, _inside, energy,
                        gradient, hessian, newton_polish, state_from_x)


@dataclass(frozen=True)
class OracleConfig:
    grid_points_per_axis: int = 41
    refine_tolerance: float = 1e-10
    cluster_radius: float = 1e-6
    derivative_step: float = 1e-4

    def __post_init__(self):
        if self.grid_points_per_axis < 3:
            raise ValueError("grid_points_per_axis must be at least 3")
        for name in ("refine_tolerance", "cluster_radius", "derivative_step"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


#: the configuration of brute_force_minimize and of transition detection
_CONFIG = OracleConfig()


def _energy_grid(params, n):
    """Vectorised energy evaluation on an n^3 interior grid of (-g/2, g/2)^3."""
    g, C, B = _g_c_b(params)
    ax = np.linspace(-0.5 * g, 0.5 * g, n + 2)[1:-1]
    x1 = ax[:, None, None]
    x2 = ax[None, :, None]
    x3 = ax[None, None, :]
    root = np.sqrt(1.0 - 4.0 * ax * ax / (g * g))
    quad = C * ax * ax - 0.5 * root
    # quad_1 + quad_2 + quad_3 + 2 B (x1 x2 + x2 x3 + x3 x1), summed in that
    # order into two n^3 buffers
    E = quad[:, None, None] + quad[None, :, None] + quad[None, None, :]
    pairs = x1 * x2 + x2 * x3
    pairs += x3 * x1
    pairs *= 2.0 * B
    E += pairs
    return ax, E


def _local_minima(E):
    """Mask of the points of a grid no higher than any neighbour, edges
    padded by repetition: E <= scipy.ndimage.minimum_filter(E, size=3,
    mode="nearest"), as one 1-D minimum of three per axis."""
    m = E
    for axis in range(E.ndim):
        v = np.moveaxis(m, axis, 0)
        m = m.copy()
        out = np.moveaxis(m, axis, 0)
        np.minimum(out[1:], v[:-1], out=out[1:])
        np.minimum(out[:-1], v[1:], out=out[:-1])
    return E <= m


#: the descent maps each eigenvalue w of the scaled Hessian to
#: max(|w|, _EIG_FLOOR)
_EIG_FLOOR = 1e-8
#: Armijo sufficient-decrease constant
_ARMIJO = 1e-4
#: a row stops once its predicted decrease -grad.step is below this share of
#: |E|: the energy can no longer tell the step apart, and newton_polish,
#: which works on the gradient, takes over
_FLOAT_FLOOR = 1e-14
#: a row stops once max |grad E| is below this
_GRAD_TOL = 1e-13
#: at most this many steps, each halved at most _HALVINGS times
_STEPS = 100
_HALVINGS = 60
#: refined rows with a Hessian eigenvalue below this are saddles, not minima
_PSD_TOL = -1e-9
#: a saddle is split into seeds this share of its distance to the edge away
_SPLIT = 1e-3


def descend(seeds, params: ModelParams):
    """Refine a (k, 3) stack of seeds at one parameter point to local minima.

    Modified Newton (Nocedal & Wright, Numerical Optimization, sec. 3.4): the
    step solves the Hessian, scaled to a diagonal of at most one in modulus
    (S H S with S = diag(1/sqrt(max(|H_nn|, 1)))), with each eigenvalue w
    replaced by max(|w|, _EIG_FLOOR), so it always points downhill.  Taking
    |w| rather than flooring w itself keeps a row that lies on a plane of
    symmetry through a saddle on that plane: it ends at the saddle instead
    of leaving it to a side picked by rounding, and brute_force_minimize can
    split it.  The scaling keeps the eigenvalues of the other sites resolved
    when one site is near the edge, where its diagonal entry reaches 1e17.
    Each row backtracks on its own, halving its step until the trial lies
    inside |x_n| < g/2 and passes the Armijo test on E.  A row stops at
    max |grad E| < _GRAD_TOL, when its predicted decrease is below float
    resolution, or when its halved step no longer moves it.  Then
    newton_polish finishes it, unless the polish would raise E.  Every
    operation acts row by row, so a row's result does not depend on the
    other rows.

    Returns the refined (k, 3) stack and a mask of the rows whose Hessian is
    positive semidefinite (the minima).
    """
    X = np.array(seeds, dtype=float).reshape(-1, 3)
    E = energy(X, params)
    G = gradient(X, params)
    active = np.max(np.abs(G), axis=1) >= _GRAD_TOL
    for _ in range(_STEPS):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        x, e, grad = X[rows], E[rows], G[rows]
        H = hessian(x, params)
        s = 1.0 / np.sqrt(np.maximum(np.abs(np.diagonal(H, axis1=1, axis2=2)), 1.0))
        w, V = np.linalg.eigh(H * s[:, :, None] * s[:, None, :])
        # step = -S V diag(1/max(|w|, floor)) V^T S grad with S = diag(s),
        # summed out by hand so that no stacked matmul mixes rows
        coef = np.sum(V * (s * grad)[:, :, None], axis=1) / np.maximum(np.abs(w), _EIG_FLOOR)
        step = -s * np.sum(V * coef[:, None, :], axis=2)
        slope = np.sum(grad * step, axis=1)
        pending = -slope > _FLOAT_FLOOR * np.abs(e)
        moved = np.zeros(rows.size, dtype=bool)
        lam = np.ones(rows.size)
        for _ in range(_HALVINGS):
            if not pending.any():
                break
            trial = x + lam[:, None] * step
            pending &= ~np.all(trial == x, axis=1)
            test = np.flatnonzero(pending & _inside(trial, params.g))
            e_trial = energy(trial[test], params)
            ok = e_trial <= e[test] + _ARMIJO * lam[test] * slope[test]
            done = test[ok]
            X[rows[done]], E[rows[done]] = trial[done], e_trial[ok]
            moved[done] = True
            pending[done] = False
            lam[pending] *= 0.5
        active[rows[~moved]] = False
        moved = rows[moved]
        G[moved] = gradient(X[moved], params)
        active[moved] = np.max(np.abs(G[moved]), axis=1) >= _GRAD_TOL
    rows = np.flatnonzero(np.max(np.abs(G), axis=1) >= _GRAD_TOL)
    if rows.size:
        # newton_polish solves grad E = 0 and, far from a minimum, can reach
        # a saddle uphill; its result is kept where E stays at the float floor
        P, _ = newton_polish(X[rows], params)
        kept = energy(P, params) <= E[rows] + _FLOAT_FLOOR * np.abs(E[rows])
        X[rows[kept]] = P[kept]
    return X, np.linalg.eigvalsh(hessian(X, params))[:, 0] > _PSD_TOL


def _cluster(points, radius):
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) < radius for q in out):
            out.append(p)
    return out


def _split(saddles, params):
    """Seeds just off each saddle, _SPLIT of its distance to the edge away,
    on both sides of every eigenvector of negative curvature and of the
    bisector of every pair of them.  Around a saddle of index two the eight
    directions are 45 degrees apart, so every basin that spans more than
    that around the saddle gets a seed; the six-fold orbits around x = 0
    span 60 degrees each."""
    w, V = np.linalg.eigh(hessian(saddles, params))
    seeds = []
    for x, wx, Vx in zip(saddles, w, V):
        U = Vx[:, wx < _PSD_TOL].T
        D = list(U) + [(a + sign * b) / math.sqrt(2.0) for i, a in enumerate(U)
                       for b in U[i + 1:] for sign in (1.0, -1.0)]
        t = _SPLIT * (0.5 * params.g - np.max(np.abs(x)))
        seeds += [x + t * d for d in D] + [x - t * d for d in D]
    return np.array(seeds)


def _label_from_pattern(x):
    if np.max(np.abs(x)) < 1e-7:
        return NP
    if np.max(np.abs(x - x.mean())) < 1e-7:
        return NSP
    return FSP


def brute_force_minimize(params: ModelParams) -> PhaseResult:
    """Grid-scan global minimisation of the reduced energy without any ansatz.

    Every grid-local minimum is refined by :func:`descend`.  A row that ends
    at a saddle is replaced by what seeds just off it reach, along and
    between its directions of negative curvature (:func:`_split`); a row
    that reaches another saddle is split again, up to three times.  The
    minima are deduplicated at the cluster radius and all members within
    the refine tolerance of the best energy are reported as the degenerate
    set.  Raises ConvergenceError when no descent ends at a minimum: a
    saddle is never reported as the ground state.
    """
    ax, E = _energy_grid(params, _CONFIG.grid_points_per_axis)
    idx = np.argwhere(_local_minima(E))
    # cap pathological candidate counts by taking the lowest-energy ones
    if len(idx) > 64:
        order = np.argsort(E[tuple(idx.T)])
        idx = idx[order[:64]]

    rows, is_min = descend(ax[idx], params)
    found, saddles = [rows[is_min]], rows[~is_min]
    # a split can end at a saddle of lower index, so split up to once per axis
    for _ in range(3):
        saddles = np.array(_cluster(saddles, _CONFIG.cluster_radius)).reshape(-1, 3)
        if not len(saddles):
            break
        rows, is_min = descend(_split(saddles, params), params)
        found.append(rows[is_min])
        saddles = rows[~is_min]
    refined = np.concatenate(found)
    if not len(refined):
        raise ConvergenceError(f"no descent ended at a minimum at {params}")
    refined = np.array(_cluster(refined, _CONFIG.cluster_radius))

    energies = energy(refined, params)
    best = energies.min()
    keep = list(refined[energies <= best + _CONFIG.refine_tolerance])
    keep.sort(key=tuple)

    rep = keep[0]
    states = [state_from_x(x, params) for x in keep]
    return PhaseResult(
        label=_label_from_pattern(rep),
        energy=float(best),
        degeneracy=len(keep),
        representative=states[0],
        all_minima=states,
    )


# ---------------------------------------------------------------------------
# transition detection

@dataclass(frozen=True)
class Transition:
    g_star: float
    order: str  # "first", "second" or "inconclusive"
    jump: float
    noise_floor: float


def detect_transitions(J1: float, J2: float, g_range, n_coarse: int = 121):
    """Locate phase transitions on a g line from the brute-force energy alone.

    The coarse scan flags cells where the ground-state label changes.
    First-order candidates are refined by bisection on the crossing of the
    two branch energies (uniform versus frustrated local minima); second-order
    candidates by bisection on the onset of superradiance.  Order labels are
    confirmed from derivative jumps against a noise floor estimated from
    two step sizes; ambiguous jumps are flagged inconclusive, not guessed.
    Every probe of the onset bisection and of the order test is one
    brute-force minimum at one g.
    """
    g_min, g_max = (float(v) for v in g_range)
    if not (math.isfinite(g_min) and math.isfinite(g_max) and g_min < g_max):
        raise ValueError(f"g_range needs finite g_min < g_max, got {g_min} to {g_max}")
    if not (isinstance(n_coarse, numbers.Integral) and n_coarse >= 2):
        raise ValueError(f"n_coarse must be an integer >= 2, got {n_coarse!r}")
    at = partial(ModelParams, J1=J1, J2=J2)
    gs = np.linspace(g_min, g_max, n_coarse)
    results = [brute_force_minimize(at(g)) for g in gs]

    transitions = []
    for left, right, lo, hi in zip(results, results[1:], gs, gs[1:]):
        if left.label == right.label:
            continue
        if NP in (left.label, right.label):
            g_star = _bisect_onset(at, lo, hi, left.energy, right.energy)
            expected = "second"
        else:
            g_star = _bisect_branch_crossing(at, lo, hi, left.representative.x,
                                             right.representative.x)
            expected = "first"
        order, jump, noise = _classify_order(at, g_star)
        if order != expected:
            order = "inconclusive"
        transitions.append(Transition(g_star=g_star, order=order,
                                      jump=jump, noise_floor=noise))
    return transitions


#: transition points are bisected to this width in g
_BISECT_WIDTH = 1e-7


def _bisect_onset(at, lo, hi, e_lo, e_hi):
    """Second-order point: bisection on the superradiance predicate.

    e_lo and e_hi are the brute-force minimum energies at the coarse ends
    lo and hi; every other probe is one brute-force minimum.
    """
    width = hi - lo
    energies = {lo: e_lo, hi: e_hi}

    def superradiant(g):
        # the minimum lies strictly below the normal-phase energy, beyond the
        # 1e-12 energy-resolution floor
        if g not in energies:
            energies[g] = brute_force_minimize(at(g)).energy
        return energies[g] < -1.5 - 1e-12

    # coarse labels can miss a shallow minimum just above onset: expand the
    # bracket until it actually straddles the predicate change
    for _ in range(8):
        if superradiant(lo):
            hi, lo = lo, lo - width
        else:
            break
    for _ in range(8):
        if not superradiant(hi):
            lo, hi = hi, hi + width
        else:
            break
    return float(_bisect(lambda mid, rows: [superradiant(float(mid[0]))],
                         [lo], [hi], _BISECT_WIDTH)[0])


def _bisect_branch_crossing(at, lo, hi, seed_left, seed_right):
    """First-order point: bisection on the sign of the branch-energy gap."""
    seeds = np.array([seed_left, seed_right])

    def left_lower(g):
        p = at(g)
        e_l, e_r = energy(descend(seeds, p)[0], p)
        return e_l - e_r < 0.0

    at_lo = left_lower(lo)
    return float(_bisect(lambda mid, rows: [left_lower(float(mid[0])) != at_lo],
                         [lo], [hi], _BISECT_WIDTH)[0])


def _classify_order(at, g_star):
    """Derivative-jump order classification with a two-step noise estimate.

    The first-derivative jump of E(g) converges to a constant across step
    sizes at a first-order point and shrinks linearly with the step at a
    second-order one; the second-derivative jump does the converse.  The
    noise floor is the spread of the estimate over the two step sizes h and
    2h.  The two stencils share points: E takes one brute-force minimum at
    each of the 10 distinct g, g_star +- {1, 2, 3, 4, 6} h.
    """

    @cache
    def E(g):
        return brute_force_minimize(at(g)).energy

    h = _CONFIG.derivative_step
    jumps1, jumps2 = [], []
    for step in (h, 2.0 * h):
        el = [E(g_star - 3.0 * step), E(g_star - 2.0 * step), E(g_star - step)]
        er = [E(g_star + step), E(g_star + 2.0 * step), E(g_star + 3.0 * step)]
        dl = (3.0 * el[2] - 4.0 * el[1] + el[0]) / (2.0 * step)
        dr = (-3.0 * er[0] + 4.0 * er[1] - er[2]) / (2.0 * step)
        jumps1.append(abs(dr - dl))
        d2l = (el[0] - 2.0 * el[1] + el[2]) / step**2
        d2r = (er[0] - 2.0 * er[1] + er[2]) / step**2
        jumps2.append(abs(d2r - d2l))

    noise1 = abs(jumps1[0] - jumps1[1]) + 1e-12
    if jumps1[0] > 3.0 * noise1:
        return "first", jumps1[0], noise1
    noise2 = abs(jumps2[0] - jumps2[1]) + 1e-12
    if jumps2[0] > 3.0 * noise2:
        return "second", jumps2[0], noise2
    return "inconclusive", jumps2[0], max(noise1, noise2)
