"""Brute-force verification oracle.

Global minimisation of the reduced energy on a dense grid with local
refinement, degeneracy enumeration, and transition detection from the label
of the minimum and numerical derivatives of the ground-state energy.
Deliberately ansatz-free: nothing here assumes the uniform or frustrated
patterns, so it can arbitrate the closed-form and root-scan solvers.  The
energy, its derivatives and the descent (:func:`descend`, the batched
modified Newton of :mod:`dicke_trimer.meanfield`) are pattern-free and
shared with the solver; the oracle's own parts are the grid-local minima
of the separable grid (found by an exact 1-D prefilter and a 27-neighbour
check, without building the grid), the splitting of saddles and the
clustering of minima.  The minimisation runs over a batch of parameter
points (one Points record) at once: the grid-local minima and saddle splits
of all points go through each descent together; each point clusters its own
minima.  :func:`brute_force_minimize` is its one-point case.
Transition detection tells phases apart by one test, the label of the
minimum.  It minimises as one such stack its coarse scan, each step of the
root find on its frustrated indicator (:func:`_branch_gap`), the label
confirmation of all its roots and the stencils of all its order tests; an
onset's indicator, the curvature at x = 0, needs no grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
import numpy as np

from .model import FSP, NP, TRANSITIONS, ModelParams, Points
from .meanfield import (_PROBE_WIDTH, _PSD_TOL, ConvergenceError, PhaseResult,
                        _bracketed_roots, _coefficients, _descend, _energy, _hessian,
                        _onset_curvature, _pattern, _result, energy)


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


#: a saddle is split into seeds this share of its distance to the edge away
_SPLIT = 1e-3
#: at most this many grid-local minima of one point are descended
_MAX_CANDIDATES = 64


def _check_finite(X, coef, params):
    """Raise the ConvergenceError of the point of the first row of X whose energy overflows."""
    finite = np.isfinite(_energy(X, *coef))
    if not finite.all():
        p = params if isinstance(params, ModelParams) else params[np.argmin(finite)]
        raise ConvergenceError(f"the energy overflows at {p}")


@np.errstate(over="ignore", invalid="ignore")
def descend(seeds, params):
    """Refine a (k, 3) stack of seeds to local minima by the descent of
    :func:`dicke_trimer.meanfield._descend`, params one ModelParams, or
    Points (or a sequence of ModelParams), one row per row of seeds.  A
    seed or result whose energy overflows (g beyond about 1e154) raises the
    ConvergenceError of its row's point.  Returns the refined stack and a
    mask of the rows whose Hessian is positive semidefinite (the minima).
    """
    X = np.array(seeds, dtype=float).reshape(-1, 3)
    coef = _coefficients(params)
    _check_finite(X, coef, params)
    X, _, is_min = _descend(X, *coef)
    _check_finite(X, coef, params)
    return X, is_min


def _cluster(X, radius):
    """Indices of the rows of X kept, in order: a row within radius of an
    earlier kept row is dropped."""
    kept = []
    for i, x in enumerate(X):
        if not any(np.linalg.norm(x - X[j]) < radius for j in kept):
            kept.append(i)
    return np.array(kept, dtype=int)


def _split(saddles, params):
    """Seeds just off each saddle, _SPLIT of its distance to the edge away,
    on both sides of every eigenvector of negative curvature and of the
    bisector of every pair of them, in order of the saddles, all of the
    point params.  Around a saddle of index two the eight
    directions are 45 degrees apart, so every basin that spans more than
    that around the saddle gets a seed; the six-fold orbits around x = 0
    span 60 degrees each."""
    g, C, B = _coefficients(params)
    w, V = np.linalg.eigh(_hessian(saddles, g, C, B))
    t = _SPLIT * (0.5 * g - np.max(np.abs(saddles), axis=1))
    seeds = []
    for x, wx, Vx, tx in zip(saddles, w, V, t):
        U = Vx[:, wx < _PSD_TOL].T
        D = list(U) + [(a + sign * b) / math.sqrt(2.0) for i, a in enumerate(U)
                       for b in U[i + 1:] for sign in (1.0, -1.0)]
        seeds += [x + tx * d for d in D] + [x - tx * d for d in D]
    return np.array(seeds).reshape(-1, 3)


#: the prefilter's margin M per unit of 3 max|q| + 3 |2B| max x^2, twice the
#: rounding it must cover, plus 6 |2B| times the least subnormal for products
#: that underflow (docs/oracle_grid.md)
_MARGIN = 16.0 * np.finfo(float).eps
#: the offsets of a grid point's 27 neighbours, the point itself at row 13
_CUBE = np.stack(np.unravel_index(np.arange(27), (3, 3, 3)), axis=-1) - 1
#: survivors confirmed per block of (rows, 27) grid energies
_BLOCK = 4096


@np.errstate(over="ignore", invalid="ignore")
def _candidates(params, n):
    """The grid-local minima of one point as a (k, 3) stack of seeds, in C
    order, or the _MAX_CANDIDATES lowest of them in order of energy.

    The grid is n^3 interior points of (-g/2, g/2)^3, E[i, j, k] = ((q_i +
    q_j) + q_k) + (((o_ij + o_jk) + o_ik) * 2B) with q = C x^2 - root/2 and
    o_ij = x_i x_j; a minimum is no higher than its 26 neighbours, edges
    clamped, none NaN.  No n^3 grid is built.  Along axis k, E differs from
    phi(k) = q_k + 2B s x_k, s = x_i + x_j, only by rounding, so a minimum
    passes phi(k) <= phi(k -+ 1) + M for some s among the float sums of
    i + j = t: the table T[t, k], whose every undefined test passes
    (docs/oracle_grid.md).  The (i, j, k) with T[i + j, k], T[j + k, i] and
    T[i + k, j] are then confirmed by the grid's own float expression.
    """
    g, C, B = _coefficients(params)
    x = np.linspace(-0.5 * g, 0.5 * g, n + 2)[1:-1]
    root = np.sqrt(1.0 - 4.0 * x * x / (g * g))
    q = C * x * x - 0.5 * root
    c = 2.0 * B

    def grid(ix):  # E at the (..., 3) indices ix, on the reversed axes of ix
        (qi, qj, qk), (xi, xj, xk) = q[ix].T, x[ix].T
        return ((qi + qj) + qk) + (((xi * xj + xj * xk) + xi * xk) * c)

    # the float pair sums by t = i + j: row i holds x_i + x at columns i to i + n - 1
    skew = np.full((n, 2 * n), np.nan)
    skew[:, :n] = np.add.outer(x, x)
    skew = skew.reshape(-1)[:n * (2 * n - 1)].reshape(n, 2 * n - 1)
    s_lo, s_hi = np.fmin.reduce(skew, axis=0)[:, None], np.fmax.reduce(skew, axis=0)[:, None]
    M = (_MARGIN * (3.0 * np.fmax.reduce(np.abs(q)) + 3.0 * abs(c) * np.max(x * x))
         + 6.0 * abs(c) * np.finfo(float).smallest_subnormal)
    # phi(k + 1) - phi(k) = f(s) = dq + b s is linear in s: k + 1 passes
    # where f <= M at some s of t, k where -f <= M
    dq, b = np.diff(q), c * np.diff(x)
    f_lo, f_hi = s_lo * b + dq, s_hi * b + dq
    T = np.ones((2 * n - 1, n), dtype=bool)
    T[:, 1:] = ~(np.minimum(f_lo, f_hi) > M)
    T[:, :-1] &= ~(np.maximum(f_lo, f_hi) < -M)
    # a NaN q_k makes plane k NaN, and no minimum is or neighbours a NaN
    T[:, np.convolve(np.isnan(q), np.ones(3), "same") > 0] = False
    # T[:, k] lies in t = lo[k] ... hi[k]; enumerate j over both spans per (i, k)
    has = T.any(axis=0)
    lo = np.where(has, np.argmax(T, axis=0), 2 * n)
    hi = np.where(has, 2 * n - 2 - np.argmax(T[::-1], axis=0), -1)
    i, k = np.divmod(np.arange(n * n), n)
    j = np.maximum(np.maximum(lo[k] - i, lo[i] - k), 0)
    count = np.maximum(np.minimum(np.minimum(hi[k] - i, hi[i] - k), n - 1) - j + 1, 0)
    i, j, k = (np.repeat(v, count) for v in (i, j, k))
    j += np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count)
    ix = np.stack([i, j, k], axis=-1)[T[i + k, j]]
    ix = ix[np.argsort((ix[:, 0] * n + ix[:, 1]) * n + ix[:, 2])]
    keep = np.zeros(len(ix), dtype=bool)
    for a in range(0, len(ix), _BLOCK):
        E = grid(np.clip(ix[a:a + _BLOCK, None] + _CUBE, 0, n - 1))
        keep[a:a + _BLOCK] = (E[13] <= E).all(axis=0)
    ix = ix[keep]
    if len(ix) > _MAX_CANDIDATES:
        ix = ix[np.argsort(grid(ix))[:_MAX_CANDIDATES]]
    return x[ix]


def _ranked(minima, params):
    """The PhaseResult of the distinct minima found at one point."""
    energies = energy(minima, params)
    best = energies.min()
    keep = sorted(minima[energies <= best + _CONFIG.refine_tolerance], key=tuple)
    return _result(_pattern(keep[0], params.g), keep, params, float(best))


def _minima(points):
    """The clustered local minima of each row of Points (or of a sequence of
    ModelParams), as a list of (k, 3) stacks, in the order found.

    Every candidate of every point is descended in one :func:`descend`;
    each point then clusters and splits its own saddles, and the seeds of
    all points are descended together, up to three rounds.  Each point
    clusters the minima of all rounds, in round order.  A row, and so a
    point's minima, is the same as in a call on that point alone.  Raises
    the ConvergenceError of the first point where no descent ends at a
    minimum, or at once that of a point whose energy overflows.
    """
    points = Points.of(points)
    each = list(points)
    n, radius = _CONFIG.grid_points_per_axis, _CONFIG.cluster_radius
    seeds = [_candidates(p, n) for p in each]
    found = [[] for _ in each]
    # a split can end at a saddle of lower index, so split up to once per axis
    for depth in range(4):
        if depth:
            seeds = [_split(s[_cluster(s, radius * p.g)], p) if len(s) else s
                     for s, p in zip(saddles, each)]
        counts = [len(s) for s in seeds]
        # none left, or eigh saw no negative curvature where eigvalsh did
        if not sum(counts):
            break
        rows, is_min = descend(np.concatenate(seeds),
                               points[np.repeat(np.arange(len(points)), counts)])
        ends = np.cumsum(counts)
        saddles = []
        for minima, a, b in zip(found, ends - counts, ends):
            minima.extend(rows[a:b][is_min[a:b]])
            saddles.append(rows[a:b][~is_min[a:b]])

    clustered = []
    for p, minima in zip(each, found):
        if not minima:
            raise ConvergenceError(f"no descent ended at a minimum at {p}")
        X = np.array(minima)
        clustered.append(X[_cluster(X, radius * p.g)])
    return clustered


def _brute_force_minima(points):
    """:func:`brute_force_minimize` at each row of Points (or of a sequence
    of ModelParams), as a list of PhaseResults: each point's
    :func:`_minima`, ranked."""
    points = Points.of(points)
    return [_ranked(X, p) for X, p in zip(_minima(points), points)]


def brute_force_minimize(params: ModelParams) -> PhaseResult:
    """Grid-scan global minimisation of the reduced energy without any ansatz.

    Every grid-local minimum (at most the 64 lowest) is refined by
    :func:`descend`.  A row that ends at a saddle is replaced by what seeds
    just off it reach, along and between its directions of negative
    curvature (:func:`_split`); a row that reaches another saddle is split
    again, up to three times.  The minima are deduplicated at the cluster
    radius times g; those within the refine tolerance of the best energy
    are the degenerate set, labelled by the pattern of the first.  Raises
    ConvergenceError when no descent ends at a minimum: a saddle is never
    reported as the ground state.  This is the one-point case of the
    stacked minimisation that transition detection runs over many points.
    """
    return _brute_force_minima([params])[0]


# ---------------------------------------------------------------------------
# transition detection

@dataclass(frozen=True)
class Transition:
    g_star: float
    order: str  # "first", "second" or "inconclusive"
    jump: float
    noise_floor: float


def _branch_gap(points, minima):
    """The lowest energy of each point's uniform-pattern minima less that of
    its frustrated-pattern ones (of :func:`_minima`): negative where the
    uniform branch lies lower, +-inf where one branch is missing."""
    gaps = []
    for X, p in zip(minima, points):
        E = energy(X, p)
        frustrated = np.array([_pattern(x, p.g) == FSP for x in X])
        gaps.append(np.min(E[~frustrated], initial=np.inf)
                    - np.min(E[frustrated], initial=np.inf))
    return np.array(gaps)


def detect_transitions(J1: float, J2: float, g_range, n_coarse: int = 121):
    """Locate phase transitions on a g line from the brute-force minimum alone.

    The one test of a phase is the label of the brute-force minimum.  A
    coarse cell whose two ends differ in label holds a transition, expected
    of the order that ``model.TRANSITIONS`` gives its pair of labels.  The
    cells are solved in lockstep rounds, each for the root of a smooth
    indicator by the rule of ``meanfield._bracketed_roots`` (Chandrupatla):
    where one end is NP, the smallest Hessian eigenvalue at x = 0
    (:func:`_onset_curvature`, no grid needed), at least +0 at the NP end;
    otherwise the lowest uniform-pattern less the lowest frustrated-pattern
    energy (:func:`_branch_gap`, each step one stacked minimisation).  A
    cell without NP whose gap is within the refine tolerance at both ends,
    and does not change sign strictly, holds none: its labels are a pick
    among degenerate minima.  One stacked
    minimisation labels g* -+ _PROBE_WIDTH / 2, clipped to the cell, and
    the root is a transition where the two labels are the cell's, or, in a
    cell whose lower end is NP, NP and a third label: the cell from the
    probe above to its upper end then opens for the next round.  A cell
    whose ends bracket no root (a NaN end brackets nothing), and a root the
    labels do not confirm, raise a ConvergenceError naming the cell.  Order
    labels come from derivative jumps against a noise floor from two step
    sizes; ambiguous jumps are flagged inconclusive, not guessed.  All
    minimisations but the root steps share one memo of each g's minima and
    PhaseResult, so a line makes three stacked minimisations (the coarse
    scan, the labels, the stencils), one per step of its slowest frustrated
    root and one round more per split cell.
    """
    g_min, g_max = (float(v) for v in g_range)
    if not (math.isfinite(g_min) and math.isfinite(g_max) and g_min < g_max):
        raise ValueError(f"g_range needs finite g_min < g_max, got {g_min} to {g_max}")
    if not (isinstance(n_coarse, numbers.Integral) and n_coarse >= 2):
        raise ValueError(f"n_coarse must be an integer >= 2, got {n_coarse!r}")
    def at(gs):
        return Points(g=gs, J1=J1, J2=J2)

    memo = {}  # g -> (its minima, their PhaseResult)

    def solve(gs):
        """The memo entries of the floats gs, the new ones from one stacked minimisation."""
        new = [g for g in dict.fromkeys(gs) if g not in memo]
        if new:
            points = at(new)
            memo.update((g, (X, _ranked(X, p))) for g, X, p in zip(new, _minima(points), points))
        return [memo[g] for g in gs]

    def cell_error(what, k):
        return ConvergenceError(f"{what} in the cell ({float(lo[k])!r}, {float(hi[k])!r}) "
                                f"at J1={J1}, J2={J2}")

    gs = np.linspace(g_min, g_max, n_coarse)
    coarse = np.array([r.label for _, r in solve(gs.tolist())])
    lo, hi = gs[:-1][coarse[:-1] != coarse[1:]], gs[1:][coarse[:-1] != coarse[1:]]
    found = []  # (g_star, label below, label above)
    while len(lo):
        ends = np.concatenate([lo, hi])
        minima, results = zip(*solve(ends.tolist()))
        labels = np.array([r.label for r in results])
        lower, upper = np.split(labels, 2)
        onset = (lower == NP) | (upper == NP)
        f = np.where(np.tile(onset, 2), _onset_curvature(at(ends)), _branch_gap(at(ends), minima))
        f1, f2 = np.split(np.where(labels == NP, np.maximum(f, 0.0), f), 2)
        # a cell without NP whose branches are degenerate at both ends holds
        # no transition, unless its gap changes sign strictly: its labels are
        # a pick among degenerate minima
        live = (onset | (np.sign(f1) * np.sign(f2) < 0.0)
                | ~(np.maximum(np.abs(f1), np.abs(f2)) <= _CONFIG.refine_tolerance))
        lo, hi, lower, upper, f1, f2, onset = (
            v[live] for v in (lo, hi, lower, upper, f1, f2, onset))
        unbracketed = ~(np.sign(f1) * np.sign(f2) <= 0.0)
        if unbracketed.any():
            raise cell_error("the indicator brackets no root", np.argmax(unbracketed))
        roots = np.empty(len(lo))
        for kind, indicator in ((onset, _onset_curvature),
                                (~onset, lambda p: _branch_gap(p, _minima(p)))):
            rows = np.flatnonzero(kind)
            roots[rows] = _bracketed_roots(lambda gs: indicator(at(gs)), lo[rows], hi[rows],
                                           f1[rows], f2[rows])
        # the labels just below and above each root, in one stacked call
        below = np.maximum(roots - 0.5 * _PROBE_WIDTH, lo)
        above = np.minimum(roots + 0.5 * _PROBE_WIDTH, hi)
        seen_below, seen_above = np.split(
            np.array([r.label for _, r in solve(np.concatenate([below, above]).tolist())]), 2)
        split = (seen_below == NP) & (lower == NP) & (seen_above != NP) & (seen_above != upper)
        unconfirmed = ~((seen_below == lower) & (seen_above == upper) | split)
        if unconfirmed.any():
            k = np.argmax(unconfirmed)
            raise cell_error(f"the labels do not confirm the root {float(roots[k])!r}", k)
        found += zip(roots.tolist(), lower, seen_above)
        lo, hi = above[split], hi[split]
    found.sort()

    # g_star - 6h stays above g_star / 2 > 0
    steps = [min(_CONFIG.derivative_step, g_star / 12.0) for g_star, _, _ in found]
    solve([g for (g_star, _, _), h in zip(found, steps)
           for stencil in _stencils(g_star, h) for g in stencil])
    E = {g: r.energy for g, (_, r) in memo.items()}

    transitions = []
    for (g_star, below, above), h in zip(found, steps):
        order, jump, noise = _classify_order(E, g_star, h)
        expected = TRANSITIONS[frozenset((below, above))][1]
        transitions.append(Transition(g_star, order if order == expected else "inconclusive",
                                      jump, noise))
    return transitions


def _stencils(g_star, h):
    """The h and 2h stencils of the order test at g_star, g_star +- {1, 2,
    3} step each; they share g_star +- 2h, so 10 distinct g."""
    return [[g_star + k * step for k in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)]
            for step in (h, 2.0 * h)]


def _classify_order(E, g_star, h):
    """Derivative-jump order classification with a two-step noise estimate,
    from the map E of g to the brute-force energy at the g of
    :func:`_stencils`.

    The first-derivative jump of E(g) converges to a constant across step
    sizes at a first-order point and shrinks linearly with the step at a
    second-order one; the second-derivative jump does the converse.  The
    noise floor is the spread of the estimate over the two step sizes h and
    2h.
    """
    jumps1, jumps2 = [], []
    for step, stencil in zip((h, 2.0 * h), _stencils(g_star, h)):
        el = [E[g] for g in stencil[:3]]
        er = [E[g] for g in stencil[3:]]
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
