"""Energy kernels against the functional written out term by term, the shared
Newton polish and the orientation of the frustrated representative."""

import numpy as np
import pytest

from dicke_trimer import ModelParams, energy, gradient, hessian, solve_nsp
from dicke_trimer.meanfield import _solve_fsp_branch, newton_polish
from dicke_trimer.model import b_tilde, c_tilde


def _reference(x, params):
    """E, grad E and the Hessian with explicit periodic neighbours."""
    g, C, B = params.g, c_tilde(params.J1), b_tilde(params)
    u = 4.0 * x * x / (g * g)
    root = np.sqrt(1.0 - u)
    E = np.sum(C * x * x - 0.5 * root + 2.0 * B * x * np.roll(x, -1))
    grad = 2.0 * C * x + 2.0 * x / (g * g * root) + 2.0 * B * (np.roll(x, 1) + np.roll(x, -1))
    H = np.full((3, 3), 2.0 * B)
    np.fill_diagonal(H, 2.0 * C + (2.0 / (g * g)) * (1.0 / root + u / root**3))
    return E, grad, H


def test_kernels_match_rolled_functional():
    rng = np.random.default_rng(7)
    for i in range(400):
        J1, J2 = rng.uniform(-0.49, 0.49, 2)
        params = ModelParams(g=rng.uniform(0.1, 20.0), J1=J1, J2=J2)
        half = 0.5 * params.g
        x = rng.uniform(-half, half, 3)
        if i % 4 == 0:
            # one or more sites within 1e-6 of the edge |x| = g/2
            edge = rng.random(3) < 0.5
            edge[rng.integers(3)] = True
            x = np.where(edge, np.sign(x) * (half - rng.uniform(1e-9, 1e-6, 3)), x)
        E, grad, H = _reference(x, params)
        assert energy(x, params) == pytest.approx(E, rel=1e-12)
        assert np.max(np.abs(gradient(x, params) - grad)) <= 1e-12 * np.max(np.abs(grad))
        assert np.max(np.abs(hessian(x, params) - H)) <= 1e-12 * np.max(np.abs(H))


def test_energy_on_a_stack_matches_rowwise_calls():
    rng = np.random.default_rng(13)
    for _ in range(20):
        J1, J2 = rng.uniform(-0.49, 0.49, 2)
        params = ModelParams(g=rng.uniform(0.1, 20.0), J1=J1, J2=J2)
        half = 0.5 * params.g
        X = rng.uniform(-half, half, (40, 3))
        # a quarter of the rows with every site within 1e-6 of the edge
        X[::4] = np.sign(X[::4]) * (half - rng.uniform(1e-9, 1e-6, (10, 3)))
        E = energy(X, params)
        assert E.shape == (40,)
        assert np.array_equal(E, [energy(x, params) for x in X])
        assert type(energy(X[0], params)) is float


def test_hessian_on_a_stack_matches_rowwise_calls():
    rng = np.random.default_rng(17)
    for _ in range(20):
        J1, J2 = rng.uniform(-0.49, 0.49, 2)
        params = ModelParams(g=rng.uniform(0.1, 20.0), J1=J1, J2=J2)
        half = 0.5 * params.g
        X = rng.uniform(-half, half, (40, 3))
        X[::4] = np.sign(X[::4]) * (half - rng.uniform(1e-9, 1e-6, (10, 3)))
        H = hessian(X, params)
        assert H.shape == (40, 3, 3)
        assert np.array_equal(H, [hessian(x, params) for x in X])
        # one ModelParams per row
        rows = [params.replace(g=g) for g in rng.uniform(params.g, 2.0 * params.g, 40)]
        assert np.array_equal(hessian(X, rows), [hessian(x, p) for x, p in zip(X, rows)])
    assert hessian(X[0], params).shape == (3, 3)


def _nsp_minimum():
    params = ModelParams(g=1.3, J1=-0.1, J2=-0.2)
    res = solve_nsp(params)
    assert res.label == "NSP"
    return res.representative.x, params


def _fsp_minimum():
    params = ModelParams(g=1.4, J1=0.2, J2=0.1)
    res = _solve_fsp_branch(params)
    return res.representative.x, params


class TestNewtonPolish:
    @pytest.mark.parametrize("minimum", [_nsp_minimum, _fsp_minimum])
    def test_converges_from_perturbed_minimum(self, minimum):
        x0, params = minimum()
        rng = np.random.default_rng(3)
        for _ in range(5):
            seed = x0 + rng.uniform(-1e-3, 1e-3, 3)
            x, norm = newton_polish(seed, params)
            assert norm < 1e-13
            assert norm == np.max(np.abs(gradient(x, params)))
            assert np.allclose(x, x0, atol=1e-10)

    def test_returned_norm_is_gradient_norm(self):
        # a start far from any minimum, where the loop may stop early
        params = ModelParams(g=3.0, J1=0.3, J2=-0.2)
        for seed in ([0.3, -0.7, 1.1], [1.4999, 1.4999, -1.4999], [0.0, 0.0, 1e-3]):
            x, norm = newton_polish(seed, params)
            assert norm == np.max(np.abs(gradient(x, params)))

    def test_stays_inside_domain_from_edge_seed(self):
        params = ModelParams(g=2.0, J1=0.1, J2=0.1)
        half = 0.5 * params.g
        for seed in ([half * (1 - 1e-9), 0.1, 0.1], [-half * (1 - 1e-12)] * 3):
            x, norm = newton_polish(seed, params)
            assert np.max(np.abs(x)) < half
            assert norm == np.max(np.abs(gradient(x, params)))

    def test_stack_equals_one_row_calls(self):
        rng = np.random.default_rng(5)
        seeds, params = [], []
        for _ in range(40):
            J1, J2 = (float(v) for v in rng.uniform(-0.45, 0.45, 2))
            p = ModelParams(g=float(rng.uniform(0.3, 20.0)), J1=J1, J2=J2)
            seeds.append(rng.uniform(-0.499, 0.499, 3) * p.g)
            params.append(p)
        # singular Hessian diag(0, d, d) at the first site, with B = 0
        singular = ModelParams(g=1.0, J1=0.0, J2=0.0)
        x = np.array([0.0, 0.3, 0.3])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hessian(x, singular), gradient(x, singular))
        seeds.insert(10, x)
        params.insert(10, singular)
        # near the edge at large g the Newton step rounds to x before
        # |grad E| reaches the tolerance
        stuck = ModelParams(g=60.0, J1=0.1, J2=0.1)
        seeds.insert(20, np.full(3, 0.499 * stuck.g))
        params.insert(20, stuck)
        # a row already below the tolerance stays put
        x0, p0 = _fsp_minimum()
        seeds.insert(30, x0)
        params.insert(30, p0)

        X, norms = newton_polish(np.array(seeds), params)
        for seed, p, x, norm in zip(seeds, params, X, norms, strict=True):
            want, want_norm = newton_polish(seed, p)
            assert np.array_equal(x, want) and norm == want_norm
        assert np.array_equal(X[10], seeds[10])
        step = np.linalg.solve(hessian(X[20], stuck), gradient(X[20], stuck))
        assert norms[20] > 1e-13 and np.array_equal(X[20] - step, X[20])
        assert np.array_equal(X[30], x0)
        # one ModelParams for the whole stack, as the oracle passes it
        same = rng.uniform(-0.499, 0.499, (10, 3)) * params[0].g
        X, norms = newton_polish(same, params[0])
        want, want_norms = newton_polish(same, params[:1] * 10)
        assert np.array_equal(X, want) and np.array_equal(norms, want_norms)


def test_fsp_representative_has_one_negative_site():
    # B < 0 here (the traced branch below g_L): the old tuple order picked a
    # member with two negative sites
    params = ModelParams(g=1.03, J1=0.1, J2=-0.1)
    assert b_tilde(params) < 0.0
    x = _solve_fsp_branch(params).representative.x
    assert np.count_nonzero(x < 0.0) == 1
    assert x[0] < 0.0 < min(x[1], x[2])
