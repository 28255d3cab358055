"""Brute-force verification oracle.

Global minimisation of the reduced energy on a dense grid with local
refinement, degeneracy enumeration, and transition detection from numerical
derivatives of the ground-state energy.  Deliberately ansatz-free: nothing
here assumes the uniform or frustrated patterns, so it can arbitrate the
closed-form and root-scan solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import minimum_filter
from scipy.optimize import minimize

from .model import FSP, NP, NSP, ModelParams, coefficients
from .meanfield import PhaseResult, gradient, hessian, state_from_x


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


def _newton_polish(x, params, tol=1e-13, max_iter=60):
    """Full 3-variable damped Newton on the gradient, for clean degeneracies."""
    g = params.g
    x = np.array(x, dtype=float)
    grad = gradient(x, params)
    norm = np.max(np.abs(grad))
    for _ in range(max_iter):
        if norm < tol:
            break
        H = hessian(x, params)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(40):
            trial = x - lam * step
            if np.max(np.abs(trial)) < 0.5 * g:
                tg = gradient(trial, params)
                tnorm = np.max(np.abs(tg))
                if tnorm < norm:
                    x, grad, norm = trial, tg, tnorm
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            break
    return x


def refine_minimum(seed, params: ModelParams, config: OracleConfig | None = None):
    """Descend from a seed to a local minimum: bounded L-BFGS then Newton polish."""
    if config is None:
        config = OracleConfig()
    g = params.g
    bound = 0.5 * g * (1.0 - 1e-10)

    def objective(x):
        c = coefficients(params)
        root = np.sqrt(np.maximum(1.0 - 4.0 * x * x / (g * g), 0.0))
        return float(np.sum(c.C_tilde * x * x - 0.5 * root
                            + 2.0 * c.B_tilde * x * np.roll(x, -1)))

    res = minimize(
        objective, np.clip(seed, -bound, bound),
        jac=lambda x: gradient(np.clip(x, -bound, bound), params),
        method="L-BFGS-B", bounds=[(-bound, bound)] * 3,
        options={"ftol": 1e-16, "gtol": config.refine_tolerance},
    )
    return _newton_polish(res.x, params)


def _cluster(points, radius):
    out = []
    for p in points:
        if not any(np.linalg.norm(p - q) < radius for q in out):
            out.append(p)
    return out


def _label_from_pattern(x, amp_tol=1e-7):
    amp = np.max(np.abs(x))
    if amp < amp_tol:
        return NP
    if np.max(np.abs(x - x.mean())) < amp_tol:
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
    from .meanfield import energy as exact_energy

    ax, E = _energy_grid(params, config.grid_points_per_axis)
    local = E <= minimum_filter(E, size=3, mode="nearest")
    idx = np.argwhere(local)
    # cap pathological candidate counts by taking the lowest-energy ones
    if len(idx) > 64:
        order = np.argsort(E[tuple(idx.T)])
        idx = idx[order[:64]]

    refined = []
    for i, j, k in idx:
        seed = np.array([ax[i], ax[j], ax[k]])
        refined.append(refine_minimum(seed, params, config))
    refined = _cluster(refined, config.cluster_radius)

    energies = np.array([exact_energy(x, params) for x in refined])
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


def _best_energy(params, config, seed=None):
    """Lowest energy from the grid scan plus multi-scale seeded refinement.

    Rescaling the seed over several amplitudes keeps arbitrarily shallow
    minima just above a superradiant onset from being overshot.
    """
    from .meanfield import energy as exact_energy
    best = brute_force_minimize(params, config).energy
    if seed is not None and np.max(np.abs(seed)) > 0.0:
        seed = seed * min(1.0, 0.49 * params.g / np.max(np.abs(seed)))
        for scale in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3):
            x = refine_minimum(scale * seed, params, config)
            best = min(best, exact_energy(x, params))
    return best


def _superradiant(params, config, seed):
    """Predicate: some local minimum lies strictly below the normal-phase energy."""
    return _best_energy(params, config, seed) < -1.5 - 1e-12


def detect_transitions(
    J1: float,
    J2: float,
    g_range,
    config: OracleConfig | None = None,
    n_coarse: int = 121,
    omega: float = 1.0,
    Omega: float = 1.0,
):
    """Locate phase transitions on a g line from the brute-force energy alone.

    The coarse scan flags cells where the numerical derivatives of E(g) jump.
    First-order candidates are refined by bisection on the crossing of the
    two branch energies (uniform versus frustrated local minima); second-order
    candidates by bisection on the onset of superradiance.  Order labels are
    confirmed from derivative jumps against a noise floor estimated from
    three step sizes; ambiguous jumps are flagged inconclusive, not guessed.
    """
    if config is None:
        config = OracleConfig()
    g_lo, g_hi = float(g_range[0]), float(g_range[1])
    gs = np.linspace(g_lo, g_hi, n_coarse)

    results = [brute_force_minimize(ModelParams(g=g, J1=J1, J2=J2, omega=omega, Omega=Omega),
                                    config) for g in gs]
    es = np.array([r.energy for r in results])
    labels = [r.label for r in results]

    # candidate cells: any label change between neighbouring coarse points
    cells = [i for i in range(len(gs) - 1) if labels[i] != labels[i + 1]]

    transitions = []
    for i in cells:
        left, right = labels[i], labels[i + 1]
        if NP in (left, right):
            g_star = _bisect_onset(J1, J2, gs[i], gs[i + 1], config,
                                   results[i + 1], omega, Omega)
            expected = "second"
        else:
            g_star = _bisect_branch_crossing(J1, J2, gs[i], gs[i + 1], config,
                                             results[i], results[i + 1], omega, Omega)
            expected = "first"
        seeds = [r.representative.x for r in (results[i], results[i + 1])
                 if r.label != NP]
        order, jump, noise = _classify_order(J1, J2, g_star, config, omega, Omega,
                                             seeds=seeds)
        if order != "inconclusive" and order != expected:
            order = "inconclusive"
        transitions.append(Transition(g_star=g_star, order=order,
                                      jump=jump, noise_floor=noise))
    return transitions


def _bisect_onset(J1, J2, lo, hi, config, upper_result, omega, Omega):
    """Second-order point: bisection on the superradiance predicate.

    Warm-started from the superradiant side so that the shrinking order
    parameter is tracked down to the 1e-12 energy-resolution floor.
    """
    seed = upper_result.representative.x.copy()
    width = hi - lo

    def probe(g):
        p = ModelParams(g=g, J1=J1, J2=J2, omega=omega, Omega=Omega)
        scaled = seed * min(1.0, 0.49 * g / max(np.max(np.abs(seed)), 1e-300))
        return _superradiant(p, config, scaled)

    # coarse labels can miss a shallow minimum just above onset: expand the
    # bracket until it actually straddles the predicate change
    for _ in range(8):
        if probe(lo):
            hi, lo = lo, lo - width
        else:
            break
    for _ in range(8):
        if not probe(hi):
            lo, hi = hi, hi + width
        else:
            break

    for _ in range(60):
        if hi - lo < 1e-7:
            break
        mid = 0.5 * (lo + hi)
        p = ModelParams(g=mid, J1=J1, J2=J2, omega=omega, Omega=Omega)
        scaled_seed = seed * min(1.0, 0.49 * mid / max(np.max(np.abs(seed)), 1e-300))
        if _superradiant(p, config, scaled_seed):
            hi = mid
            x = refine_minimum(scaled_seed, p, config)
            if np.max(np.abs(x)) > 1e-10:
                seed = x
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _bisect_branch_crossing(J1, J2, lo, hi, config, left_result, right_result,
                            omega, Omega):
    """First-order point: bisection on the sign of the branch-energy gap."""
    from .meanfield import energy as exact_energy

    seed_left = left_result.representative.x.copy()
    seed_right = right_result.representative.x.copy()

    def gap(g):
        p = ModelParams(g=g, J1=J1, J2=J2, omega=omega, Omega=Omega)
        e_l = exact_energy(refine_minimum(seed_left, p, config), p)
        e_r = exact_energy(refine_minimum(seed_right, p, config), p)
        return e_l - e_r

    g_left = gap(lo)
    for _ in range(60):
        if hi - lo < 1e-7:
            break
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if (g_left < 0.0) == (g_mid < 0.0):
            lo, g_left = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _classify_order(J1, J2, g_star, config, omega, Omega, seeds=()):
    """Derivative-jump order classification with a three-step noise estimate.

    The first-derivative jump of E(g) converges to a constant across step
    sizes at a first-order point and shrinks linearly with the step at a
    second-order one; the second-derivative jump does the converse.  The
    noise floor is the spread of the estimate over three step sizes.
    """

    def E(g):
        p = ModelParams(g=g, J1=J1, J2=J2, omega=omega, Omega=Omega)
        best = brute_force_minimize(p, config).energy
        for seed in seeds:
            best = min(best, _best_energy(p, config, seed))
        return best

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
