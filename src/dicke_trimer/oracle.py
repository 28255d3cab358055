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
points (one Points record) at once, each step one array pass over all: the
grid-local minima, each descent, the clustering and the ranking energy
pass.  :func:`brute_force_minimize` is its one-point case.
Transition detection tells phases apart by one test, the ranked label of
the minimum.  It minimises as one such stack its coarse scan, each step of the
root find on its frustrated indicator (:func:`_branch_gap`), the label
confirmation of all its roots and the stencils of all its order tests; an
onset's indicator, the curvature at x = 0, needs no grid.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
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


def _cluster(X, counts, radius):
    """Indices of the rows of X kept, in order, X holding counts[p] rows of
    each point p in turn: a row within radius[p] of an earlier kept row of
    its point is dropped.  One distance matrix per point; vecdot is the ddot
    of np.linalg.norm(x - y), so each distance is bitwise the same."""
    kept, ends = [], np.cumsum(counts)
    for a, b, r in zip(ends - counts, ends, radius):
        D = X[a:b, None] - X[None, a:b]
        live, close = np.ones(b - a, dtype=bool), np.sqrt(np.vecdot(D, D)) < r
        for i in range(b - a):
            if live[i]:
                kept.append(a + i)
                live &= ~close[i]
    return np.array(kept, dtype=int)


def _split(saddles, points):
    """Seeds just off each saddle, _SPLIT of its distance to the edge away,
    on both sides of every eigenvector of negative curvature and of the
    bisector of every pair of them, in order of the saddles (one row of
    Points each), and the saddle of each seed.  Around a saddle of index two
    the eight directions are 45 degrees apart, so every basin that spans
    more than that around the saddle gets a seed; the six-fold orbits
    around x = 0 span 60 degrees each."""
    g, C, B = _coefficients(points)
    w, V = np.linalg.eigh(_hessian(saddles, g, C, B))
    t = _SPLIT * (0.5 * g[:, 0] - np.max(np.abs(saddles), axis=1))
    seeds, rows = [], []
    for r, (x, wx, Vx, tx) in enumerate(zip(saddles, w, V, t)):
        U = Vx[:, wx < _PSD_TOL].T
        D = list(U) + [(a + sign * b) / math.sqrt(2.0) for i, a in enumerate(U)
                       for b in U[i + 1:] for sign in (1.0, -1.0)]
        seeds += [x + tx * d for d in D] + [x - tx * d for d in D]
        rows += [r] * (2 * len(D))
    return np.array(seeds).reshape(-1, 3), np.array(rows, dtype=int)


#: the prefilter's margin M per unit of 3 max|q| + 3 |2B| max x^2, twice the
#: rounding it must cover, plus 6 |2B| times the least subnormal for products
#: that underflow (docs/oracle_grid.md)
_MARGIN = 16.0 * np.finfo(float).eps
#: survivors confirmed per block of (rows, 27) grid energies
_BLOCK = 4096
#: points per pass of the finder, which holds a few (2n - 1, n) tables per point
_CHUNK = 8


@np.errstate(over="ignore", invalid="ignore")
def _candidates(points, n):
    """The grid-local minima of each row of Points (or of a sequence of
    ModelParams), in C order or the _MAX_CANDIDATES lowest by energy, as one
    (K, 3) stack by point and the count of each; one ModelParams gives its own.

    The grid is n^3 interior points of (-g/2, g/2)^3, E[i, j, k] = ((q_i +
    q_j) + q_k) + (((o_ij + o_jk) + o_ik) * 2B) with q = C x^2 - root/2 and
    o_ij = x_i x_j; a minimum is no higher than its 26 neighbours, edges
    clamped, none NaN.  No n^3 grid is built.  Along axis k, E differs from
    phi(k) = q_k + 2B s x_k, s = x_i + x_j, only by rounding, so a minimum
    passes phi(k) <= phi(k -+ 1) + M for some s among the float sums of
    i + j = t: the table T[t, k], whose every undefined test passes
    (docs/oracle_grid.md).  The (i, j, k) with T[i + j, k], T[j + k, i] and
    T[i + k, j] are then confirmed by the grid's own float expression.
    Each point has its own x, q, M and T; _CHUNK points go in one pass,
    their survivors by point, then in C order.  A pass is a few dozen small
    operations, so it calls array methods and ufuncs, not numpy's wrappers.
    """
    if isinstance(points, ModelParams):
        return _candidates([points], n)[0]
    points = Points.of(points)
    if len(points) > _CHUNK:
        seeds, counts = zip(*(_candidates(points[a:a + _CHUNK], n)
                              for a in range(0, len(points), _CHUNK)))
        return np.concatenate(seeds), np.concatenate(counts)
    P, (g, C, B) = len(points), _coefficients(points)
    # np.linspace(-g/2, g/2, n + 2)[1:-1], by its own float steps
    x = np.arange(1.0, n + 1) * (g / (n + 1)) - 0.5 * g
    q = C * x * x - 0.5 * np.sqrt(1.0 - 4.0 * x * x / (g * g))
    c = 2.0 * B
    # the float pair sums by t = i + j: row i holds x_i + x at columns i to i + n - 1
    skew = np.empty((P, n, 2 * n))
    skew[:, :, :n] = x[:, :, None] + x[:, None, :]
    skew[:, :, n:] = np.nan
    skew = skew.reshape(P, 2 * n * n)[:, :n * (2 * n - 1)].reshape(P, n, 2 * n - 1)
    s_lo, s_hi = np.fmin.reduce(skew, axis=1)[..., None], np.fmax.reduce(skew, axis=1)[..., None]
    del skew
    M = (_MARGIN * (3.0 * np.fmax.reduce(np.abs(q), axis=1, keepdims=True)
                    + 3.0 * np.abs(c) * np.maximum.reduce(x * x, axis=1, keepdims=True))
         + 6.0 * np.abs(c) * np.finfo(float).smallest_subnormal)[..., None]
    # phi(k + 1) - phi(k) = f(s) = dq + b s is linear in s: k + 1 passes
    # where f <= M at some s of t, k where -f <= M
    dq, b = (q[:, 1:] - q[:, :-1])[:, None], (c * (x[:, 1:] - x[:, :-1]))[:, None]
    f_lo, f_hi = s_lo * b + dq, s_hi * b + dq
    T = np.ones((P, 2 * n - 1, n), dtype=bool)
    T[..., 1:] = ~(np.minimum(f_lo, f_hi) > M)
    T[..., :-1] &= ~(np.maximum(f_lo, f_hi) < -M)
    # a NaN q_k makes plane k NaN, and no minimum is or neighbours a NaN
    nan = np.isnan(q)
    if nan.any():
        T &= ~np.array([np.convolve(v, np.ones(3), "same") > 0 for v in nan])[:, None]
    # T[p, :, k] lies in t = lo[p, k] ... hi[p, k]; per (p, i, j) whose
    # columns i and j both pass somewhere, enumerate k over both spans,
    # so the survivors come in C order
    has = np.logical_or.reduce(T, axis=1)
    lo, hi = T.argmax(axis=1), 2 * n - 2 - T[:, ::-1].argmax(axis=1)
    p, i, j = (has[:, :, None] & has[:, None, :]).nonzero()
    k = np.maximum(np.maximum(lo[p, j] - i, lo[p, i] - j), 0)
    count = np.maximum(np.minimum(np.minimum(hi[p, j] - i, hi[p, i] - j), n - 1) - k + 1, 0)
    p, i, j, k = (v.repeat(count) for v in (p, i, j, k))
    k += np.arange(len(k)) - (count.cumsum() - count).repeat(count)
    survive = T[p, i + j, k]
    p, ix = p[survive], np.stack([i, j, k], axis=-1)[survive]
    keep, E = np.zeros(len(ix), dtype=bool), np.empty(len(ix))
    for r in range(0, len(ix), _BLOCK):
        # q and x at the three clamped neighbours along each axis; the 27
        # energies are their outer sums, the point itself at 13
        at = p[r:r + _BLOCK, None, None], np.clip(ix[r:r + _BLOCK, :, None] + (-1, 0, 1), 0, n - 1)
        (qi, qj, qk), (xi, xj, xk) = ((v[:, 0, :, None, None], v[:, 1, None, :, None],
                                       v[:, 2, None, None, :]) for v in (q[at], x[at]))
        grid = (((qi + qj) + qk) + (((xi * xj + xj * xk) + xi * xk) * c[at[0]])).reshape(-1, 27)
        keep[r:r + _BLOCK] = np.logical_and.reduce(grid[:, 13:14] <= grid, axis=1)
        E[r:r + _BLOCK] = grid[:, 13]
    keep = keep.nonzero()[0]
    count = np.bincount(p[keep], minlength=P)
    if (count > _MAX_CANDIDATES).any():
        keep = np.concatenate([r if len(r) <= _MAX_CANDIDATES
                               else r[np.argsort(E[r])[:_MAX_CANDIDATES]]
                               for r in np.split(keep, count.cumsum()[:-1])])
        count = np.minimum(count, _MAX_CANDIDATES)
    return x[p[keep, None], ix[keep]], count


#: one point's minima, in the order found, and their energies; the lowest
#: energy, the minima within the refine tolerance of it, sorted, and their label
_Ranked = namedtuple("_Ranked", "minima energies energy degenerate label")


def _ranked(points, minima):
    """The _Ranked of each row of Points and its stack of minima, from one
    energy pass over all of them; the label is that of the first degenerate
    minimum."""
    points, counts, ranked = Points.of(points), [len(X) for X in minima], []
    if not counts:
        return []
    energies = energy(np.concatenate(minima), points[np.repeat(np.arange(len(points)), counts)])
    for X, E, g in zip(minima, np.split(energies, np.cumsum(counts)[:-1]), points.g):
        best = E.min()
        keep = sorted(X[E <= best + _CONFIG.refine_tolerance], key=tuple)
        ranked.append(_Ranked(X, E, float(best), keep, _pattern(keep[0], g)))
    return ranked


def _minima(points):
    """The clustered local minima of each row of Points (or of a sequence of
    ModelParams), as a list of (k, 3) stacks, in the order found.

    Each step takes all points as one stack of rows by point: the
    candidates, their descent, then up to three rounds that cluster and
    split each point's saddles and descend all the seeds.  Each point
    clusters its minima of all rounds, in round order: those of a call on it
    alone.  Raises the ConvergenceError of the first point where no descent
    ends at a minimum, or at once that of a point whose energy overflows.
    """
    points = Points.of(points)
    radius = _CONFIG.cluster_radius * points.g
    seeds, counts = _candidates(points, _CONFIG.grid_points_per_axis)
    owner = np.repeat(np.arange(len(points)), counts)
    found = [(np.empty((0, 3)), np.empty(0, dtype=int))]
    # a split can end at a saddle of lower index, so split up to once per axis
    for depth in range(4):
        if depth:
            if not len(saddles):
                break
            kept = _cluster(saddles, np.bincount(owner, minlength=len(points)), radius)
            seeds, rows = _split(saddles[kept], points[owner[kept]])
            owner = owner[kept][rows]
        # none left, or eigh saw no negative curvature where eigvalsh did
        if not len(seeds):
            break
        X, is_min = descend(seeds, points[owner])
        found.append((X[is_min], owner[is_min]))
        saddles, owner = X[~is_min], owner[~is_min]
    # each point's minima, in round order
    X, owner = (np.concatenate(v) for v in zip(*found))
    order = np.argsort(owner, kind="stable")
    X, owner, counts = X[order], owner[order], np.bincount(owner, minlength=len(points))
    if not counts.all():
        raise ConvergenceError(f"no descent ended at a minimum at {points[np.argmin(counts)]}")
    kept = _cluster(X, counts, radius)
    ends = np.cumsum(np.bincount(owner[kept], minlength=len(points)))
    return [X[kept[a:b]] for a, b in zip(np.r_[0, ends[:-1]], ends)]


def _brute_force_minima(points):
    """:func:`brute_force_minimize` at each row of Points (or of a sequence
    of ModelParams), as a list of PhaseResults: each point's
    :func:`_minima`, ranked."""
    points = Points.of(points)
    return [_result(r.label, r.degenerate, p, r.energy)
            for p, r in zip(points, _ranked(points, _minima(points)))]


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
    its frustrated-pattern ones, of each point's :func:`_ranked` minima:
    negative where the uniform branch lies lower, +-inf where one is missing."""
    gaps = []
    for r, g in zip(minima, points.g):
        frustrated = np.array([_pattern(x, g) == FSP for x in r.minima])
        gaps.append(np.min(r.energies[~frustrated], initial=np.inf)
                    - np.min(r.energies[frustrated], initial=np.inf))
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
    minimisations share one memo of each g's :func:`_ranked` minima, so a
    line makes three stacked minimisations (the coarse scan, the labels, the
    stencils), one per step of its slowest frustrated root and one round
    more per split cell.
    """
    g_min, g_max = (float(v) for v in g_range)
    if not (math.isfinite(g_min) and math.isfinite(g_max) and g_min < g_max):
        raise ValueError(f"g_range needs finite g_min < g_max, got {g_min} to {g_max}")
    if not (isinstance(n_coarse, numbers.Integral) and n_coarse >= 2):
        raise ValueError(f"n_coarse must be an integer >= 2, got {n_coarse!r}")
    def at(gs):
        return Points(g=gs, J1=J1, J2=J2)

    memo = {}  # g -> its _Ranked minima

    def solve(gs):
        """The memo entries of the floats gs, the new ones from one stacked minimisation."""
        new = [g for g in dict.fromkeys(gs) if g not in memo]
        if new:
            points = at(new)
            memo.update(zip(new, _ranked(points, _minima(points))))
        return [memo[g] for g in gs]

    def cell_error(what, k):
        return ConvergenceError(f"{what} in the cell ({float(lo[k])!r}, {float(hi[k])!r}) "
                                f"at J1={J1}, J2={J2}")

    gs = np.linspace(g_min, g_max, n_coarse)
    coarse = np.array([r.label for r in solve(gs.tolist())])
    lo, hi = gs[:-1][coarse[:-1] != coarse[1:]], gs[1:][coarse[:-1] != coarse[1:]]
    found = []  # (g_star, label below, label above)
    while len(lo):
        ends = np.concatenate([lo, hi])
        minima = solve(ends.tolist())
        labels = np.array([r.label for r in minima])
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
                                (~onset, lambda p: _branch_gap(p, solve(p.g.tolist())))):
            rows = np.flatnonzero(kind)
            roots[rows] = _bracketed_roots(lambda gs: indicator(at(gs)), lo[rows], hi[rows],
                                           f1[rows], f2[rows])
        # the labels just below and above each root, in one stacked call
        below = np.maximum(roots - 0.5 * _PROBE_WIDTH, lo)
        above = np.minimum(roots + 0.5 * _PROBE_WIDTH, hi)
        seen_below, seen_above = np.split(
            np.array([r.label for r in solve(np.concatenate([below, above]).tolist())]), 2)
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

    transitions = []
    for (g_star, below, above), h in zip(found, steps):
        order, jump, noise = _classify_order(memo, g_star, h)
        expected = TRANSITIONS[frozenset((below, above))][1]
        transitions.append(Transition(g_star, order if order == expected else "inconclusive",
                                      jump, noise))
    return transitions


def _stencils(g_star, h):
    """The h and 2h stencils of the order test at g_star, g_star +- {1, 2,
    3} step each; they share g_star +- 2h, so 10 distinct g."""
    return [[g_star + k * step for k in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)]
            for step in (h, 2.0 * h)]


def _classify_order(memo, g_star, h):
    """Derivative-jump order classification with a two-step noise estimate,
    from the memo of each g's :func:`_ranked` minima at the g of
    :func:`_stencils`.

    The first-derivative jump of E(g) converges to a constant across step
    sizes at a first-order point and shrinks linearly with the step at a
    second-order one; the second-derivative jump does the converse.  The
    noise floor is the spread of the estimate over the two step sizes h and
    2h.
    """
    jumps1, jumps2 = [], []
    for step, stencil in zip((h, 2.0 * h), _stencils(g_star, h)):
        el = [memo[g].energy for g in stencil[:3]]
        er = [memo[g].energy for g in stencil[3:]]
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
