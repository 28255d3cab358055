"""The oracle's batched modified-Newton descent: it stays in the domain, never
raises the energy, keeps only minima and treats every row on its own, also in
a stack of mixed parameter points, on seeded and generated draws with g up to
100."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dicke_trimer import ModelParams, critical_couplings, energy, gradient, hessian
from dicke_trimer import meanfield
from dicke_trimer.meanfield import STATIONARITY_TOL
from dicke_trimer.oracle import _PSD_TOL, descend

#: closer than this share of g/2 to the edge, x no longer resolves
#: sqrt(1 - 4x^2/g^2) well enough for |grad E| <= STATIONARITY_TOL (a float
#: floor of the x coordinates; see ROADMAP item 1)
_RESOLVED = 1.0 - 1e-6


def _seeds(rng, params, k=6):
    """k seeds: uniform rows, with row 0 exactly at x = 0 and every site of
    row 1, and a third of the other sites, within 1e-12 of an edge."""
    half = 0.5 * params.g
    X = rng.uniform(-half, half, (k, 3))
    near = np.where(X < 0.0, -1.0, 1.0) * (half - rng.uniform(5e-13, 1e-12, (k, 3)))
    edge = rng.random((k, 3)) < 1.0 / 3.0
    edge[1] = True
    X = np.where(edge, near, X)
    X[0] = 0.0
    return X


def _check_descent(params, seeds):
    half = 0.5 * params.g
    assert np.all(np.abs(seeds) < half)
    X, is_min = descend(seeds, params)
    assert X.shape == seeds.shape
    assert np.all(np.abs(X) < half)
    assert np.all(energy(X, params) <= energy(seeds, params))

    kept = X[is_min]
    assert np.all(np.linalg.eigvalsh(hessian(kept, params))[:, 0] > _PSD_TOL)
    resolved = kept[np.max(np.abs(kept), axis=1) <= _RESOLVED * half]
    assert np.all(np.max(np.abs(gradient(resolved, params)), axis=1) <= STATIONARITY_TOL)

    # a row's result does not depend on its batch-mates
    for i, seed in enumerate(seeds):
        x, m = descend(seed[None], params)
        assert np.array_equal(x[0], X[i])
        assert m[0] == is_min[i]


def test_seeded_draws():
    rng = np.random.default_rng(20261018)
    for i in range(9):
        J1, J2 = rng.uniform(-0.5, 0.5, 2)
        g = (rng.uniform(0.05, 3.0), rng.uniform(3.0, 100.0), 100.0)[i % 3]
        params = ModelParams(g=g, J1=J1, J2=J2)
        _check_descent(params, _seeds(rng, params))


_hopping = st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True)


def _check_mixed_stack(points, rng):
    """One descent over the seeds of several parameter points, interleaved
    with one ModelParams per row: each row equals its one-point descent."""
    pairs = [(x, p) for p in points for x in _seeds(rng, p, k=3)]
    order = rng.permutation(len(pairs))
    X = np.array([pairs[i][0] for i in order])
    rows = [pairs[i][1] for i in order]
    Y, is_min = descend(X, rows)
    for x, y, m, p in zip(X, Y, is_min, rows):
        one, one_min = descend(x[None], p)
        assert np.array_equal(one[0], y)
        assert one_min[0] == m


_point = st.tuples(_hopping, _hopping, st.floats(0.05, 100.0))


@settings(max_examples=15, deadline=None)
@given(J1=_hopping, J2=_hopping, g=st.floats(0.05, 100.0), seed=st.integers(0, 2**32 - 1),
       others=st.lists(_point, min_size=1, max_size=3))
# a seed with two sites at the edge and the third inside: the unscaled
# Hessian, with diagonal entries near 1e17, left the third site's curvature
# to rounding, and the row stalled at |grad E| = 1.2 with a PSD Hessian
@example(J1=-0.3139734715839863, J2=-0.1855079992289212, g=0.8678413087929991, seed=0,
         others=[(0.1, 0.1, 1.1)])
def test_generated_draws(J1, J2, g, seed, others):
    params = ModelParams(g=g, J1=J1, J2=J2)
    rng = np.random.default_rng(seed)
    _check_descent(params, _seeds(rng, params))
    # the same descent over a stack of mixed parameter points
    points = [params] + [ModelParams(g=g2, J1=a, J2=b) for a, b, g2 in others]
    _check_mixed_stack(points, rng)


def test_exact_stationary_seed_stays():
    # x = 0 is stationary at every g; below onset it is the minimum, above it
    # a saddle that the descent cannot leave and that is not kept
    for g, minimum in ((0.5, True), (2.0, False)):
        X, is_min = descend(np.zeros((1, 3)), ModelParams(g=g, J1=0.1, J2=0.1))
        assert np.array_equal(X, np.zeros((1, 3)))
        assert is_min[0] == minimum


def test_level_passes_equal_one_halving_at_a_time(monkeypatch):
    # a pass tries several halvings of every pending row at once and each row
    # takes its first trial that passes; near onset the minima are flat, and
    # rows take many halvings per step
    rng = np.random.default_rng(99)
    seeds, rows = [], []
    for _ in range(8):
        J1, J2 = rng.uniform(-0.45, 0.45, 2)
        p = ModelParams(g=1.0, J1=J1, J2=J2)
        p = p.replace(g=critical_couplings(p).g_c * (1.0 + 10.0 ** rng.uniform(-8.0, -3.0)))
        seeds += list(_seeds(rng, p))
        rows += [p] * 6
    X, is_min = descend(np.array(seeds), rows)
    monkeypatch.setattr(meanfield, "_PASSES", [lam[None] for p in meanfield._PASSES for lam in p])
    Y, one_min = descend(np.array(seeds), rows)
    assert np.array_equal(X, Y) and np.array_equal(is_min, one_min)
