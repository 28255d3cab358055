"""Brute-force verification oracle.

Global minimisation of the reduced energy on a dense grid with local
refinement, degeneracy enumeration, and transition detection from numerical
derivatives of the ground-state energy.  Deliberately ansatz-free: nothing
here assumes the uniform or frustrated patterns, so it can arbitrate the
closed-form and root-scan solvers.  The energy, its derivatives and the
Newton polish are the pattern-free ones of :mod:`dicke_trimer.meanfield`;
only the separable grid evaluation is the oracle's own.  Transition
detection takes one brute-force minimum per g, plus seeded refinements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .model import FSP, NP, NSP, ModelParams, coefficients
from .meanfield import PhaseResult, energy, gradient, newton_polish, state_from_x


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


def _energy_grid(params, n):
    """Vectorised energy evaluation on an n^3 interior grid of (-g/2, g/2)^3."""
    g = params.g
    c = coefficients(params)
    ax = np.linspace(-0.5 * g, 0.5 * g, n + 2)[1:-1]
    x1 = ax[:, None, None]
    x2 = ax[None, :, None]
    x3 = ax[None, None, :]
    root = np.sqrt(1.0 - 4.0 * ax * ax / (g * g))
    quad = c.C_tilde * ax * ax - 0.5 * root
    E = (quad[:, None, None] + quad[None, :, None] + quad[None, None, :]
         + 2.0 * c.B_tilde * (x1 * x2 + x2 * x3 + x3 * x1))
    return ax, E


def _local_minima(E):
    """Mask of the points of a grid no higher than any neighbour, edges
    padded by repetition: E <= scipy.ndimage.minimum_filter(E, size=3,
    mode="nearest"), as one 1-D minimum of three per axis."""
    m = E
    for axis in range(E.ndim):
        m = np.moveaxis(m, axis, 0)
        p = np.concatenate((m[:1], m, m[-1:]))
        m = np.moveaxis(np.minimum(np.minimum(p[:-2], p[1:-1]), p[2:]), 0, axis)
    return E <= m


def refine_minimum(seed, params: ModelParams, config: OracleConfig | None = None):
    """Descend from a seed to a local minimum: bounded L-BFGS then Newton polish."""
    from scipy.optimize import minimize

    if config is None:
        config = OracleConfig()
    bound = 0.5 * params.g * (1.0 - 1e-10)
    res = minimize(
        lambda x: energy(np.clip(x, -bound, bound), params),
        np.clip(seed, -bound, bound),
        jac=lambda x: gradient(np.clip(x, -bound, bound), params),
        method="L-BFGS-B", bounds=[(-bound, bound)] * 3,
        options={"ftol": 1e-16, "gtol": config.refine_tolerance},
    )
    return newton_polish(res.x, params)[0]


def _cluster(points, radius):
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) < radius for q in out):
            out.append(p)
    return out


def _label_from_pattern(x):
    if np.max(np.abs(x)) < 1e-7:
        return NP
    if np.max(np.abs(x - x.mean())) < 1e-7:
        return NSP
    return FSP


def brute_force_minimize(params: ModelParams, config: OracleConfig | None = None) -> PhaseResult:
    """Grid-scan global minimisation of the reduced energy without any ansatz.

    Every grid-local minimum is refined by derivative descent; the refined
    set is deduplicated at the cluster radius and all members within the
    refine tolerance of the best energy are reported as the degenerate set.
    """
    if config is None:
        config = OracleConfig()
    ax, E = _energy_grid(params, config.grid_points_per_axis)
    idx = np.argwhere(_local_minima(E))
    # cap pathological candidate counts by taking the lowest-energy ones
    if len(idx) > 64:
        order = np.argsort(E[tuple(idx.T)])
        idx = idx[order[:64]]

    refined = []
    for i, j, k in idx:
        seed = np.array([ax[i], ax[j], ax[k]])
        refined.append(refine_minimum(seed, params, config))
    refined = _cluster(refined, config.cluster_radius)

    energies = np.array([energy(x, params) for x in refined])
    best = energies.min()
    keep = [x for x, e in zip(refined, energies) if e <= best + config.refine_tolerance]
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


def _best_energy(params, config, seeds=()):
    """Lowest energy at one g: one brute-force minimum plus seeded refinement.

    Rescaling each seed over several amplitudes keeps arbitrarily shallow
    minima just above a superradiant onset from being overshot.
    """
    best = brute_force_minimize(params, config).energy
    for seed in seeds:
        if np.max(np.abs(seed)) > 0.0:
            seed = seed * min(1.0, 0.49 * params.g / np.max(np.abs(seed)))
            for scale in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3):
                best = min(best, energy(refine_minimum(scale * seed, params, config), params))
    return best


def detect_transitions(J1: float, J2: float, g_range, n_coarse: int = 121):
    """Locate phase transitions on a g line from the brute-force energy alone.

    The coarse scan flags cells where the ground-state label changes.
    First-order candidates are refined by bisection on the crossing of the
    two branch energies (uniform versus frustrated local minima); second-order
    candidates by bisection on the onset of superradiance.  Order labels are
    confirmed from derivative jumps against a noise floor estimated from
    three step sizes; ambiguous jumps are flagged inconclusive, not guessed.
    The onset bisection and the order test take one brute-force minimum
    per g, through ``_best_energy``.
    """
    g_min, g_max = (float(v) for v in g_range)
    if not (math.isfinite(g_min) and math.isfinite(g_max) and g_min < g_max):
        raise ValueError(f"g_range needs finite g_min < g_max, got {g_min} to {g_max}")
    config = OracleConfig()
    at = partial(ModelParams, J1=J1, J2=J2)
    gs = np.linspace(g_min, g_max, n_coarse)
    results = [brute_force_minimize(at(g), config) for g in gs]

    transitions = []
    for left, right, lo, hi in zip(results, results[1:], gs, gs[1:]):
        if left.label == right.label:
            continue
        if NP in (left.label, right.label):
            g_star = _bisect_onset(at, lo, hi, config, right.representative.x)
            expected = "second"
        else:
            g_star = _bisect_branch_crossing(at, lo, hi, config, left.representative.x,
                                             right.representative.x)
            expected = "first"
        seeds = [r.representative.x for r in (left, right) if r.label != NP]
        order, jump, noise = _classify_order(at, g_star, config, seeds)
        if order != expected:
            order = "inconclusive"
        transitions.append(Transition(g_star=g_star, order=order,
                                      jump=jump, noise_floor=noise))
    return transitions


def _bisect(above, lo, hi):
    """Halve [lo, hi] on the predicate ``above`` down to a width of 1e-7."""
    for _ in range(60):
        if hi - lo < 1e-7:
            break
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _bisect_onset(at, lo, hi, config, seed):
    """Second-order point: bisection on the superradiance predicate.

    Warm-started from a minimum ``seed`` on the superradiant side so that the
    shrinking order parameter is tracked down to the 1e-12 energy-resolution
    floor.
    """
    width = hi - lo

    def scaled(g):
        return seed * min(1.0, 0.49 * g / max(np.max(np.abs(seed)), 1e-300))

    def superradiant(g):
        # some local minimum lies strictly below the normal-phase energy
        return _best_energy(at(g), config, (scaled(g),)) < -1.5 - 1e-12

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

    def above(g):
        nonlocal seed
        if not superradiant(g):
            return False
        x = refine_minimum(scaled(g), at(g), config)
        if np.max(np.abs(x)) > 1e-10:
            seed = x
        return True

    return _bisect(above, lo, hi)


def _bisect_branch_crossing(at, lo, hi, config, seed_left, seed_right):
    """First-order point: bisection on the sign of the branch-energy gap."""

    def left_lower(g):
        p = at(g)
        e_l = energy(refine_minimum(seed_left, p, config), p)
        e_r = energy(refine_minimum(seed_right, p, config), p)
        return e_l - e_r < 0.0

    at_lo = left_lower(lo)
    return _bisect(lambda g: left_lower(g) != at_lo, lo, hi)


def _classify_order(at, g_star, config, seeds):
    """Derivative-jump order classification with a three-step noise estimate.

    The first-derivative jump of E(g) converges to a constant across step
    sizes at a first-order point and shrinks linearly with the step at a
    second-order one; the second-derivative jump does the converse.  The
    noise floor is the spread of the estimate over three step sizes.  The
    three stencils share points: E takes one brute-force minimum at each of
    the 14 distinct g, g_star +- {1, 2, 3, 4, 6, 8, 12} h.
    """

    @cache
    def E(g):
        return _best_energy(at(g), config, seeds)

    h = config.derivative_step
    jumps1, jumps2 = [], []
    for step in (h, 2.0 * h, 4.0 * h):
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
