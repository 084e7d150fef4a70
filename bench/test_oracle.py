"""Tests of the benchmark's oracle against closed forms.

    PYTHONPATH=src python3 -m pytest -q bench/test_oracle.py

The last test also holds the oracle's G to copra_beam's own definition.
"""

import math

import numpy as np

import oracle


def test_steering_broadside_and_quarter_turns():
    assert np.allclose(oracle.steering(5, 0.5, 0.0), np.ones(5))
    assert np.allclose(oracle.steering(4, 0.5, 30.0), [1, 1j, -1, -1j])


def test_clairvoyant_bound_without_interference_is_array_gain():
    assert math.isclose(oracle.clairvoyant_sinr(8, 0.5, 12.0, [], 10.0, 30.0), 10.0 * 8)


def test_clairvoyant_bound_nulls_an_orthogonal_interferer():
    # broadside and 30 degrees are orthogonal on a 4-element half-wave array
    bound = oracle.clairvoyant_sinr(4, 0.5, 0.0, [30.0], 0.0, 40.0)
    assert math.isclose(bound, 4.0, rel_tol=1e-12)


def test_clairvoyant_bound_drops_for_a_close_interferer():
    far = oracle.clairvoyant_sinr(10, 0.5, 0.0, [40.0], 0.0, 30.0)
    near = oracle.clairvoyant_sinr(10, 0.5, 0.0, [2.0], 0.0, 30.0)
    assert near < far <= 10.0


def _sum_form(gamma, lam, weights, rho):
    """G from eigenvalue sums, as the method defines it."""
    sigma = np.sqrt(lam)
    n1 = int(np.count_nonzero(sigma > rho * sigma.mean()))
    beta, n2 = len(lam) / n1, len(lam) - n1
    lam1 = lam[:n1]
    t_a = np.sum(lam * weights / (lam + gamma) ** 2)
    t_d = np.sum(weights / (lam + gamma) ** 2)
    t_b = np.sum((beta * lam1 + gamma) / (lam1 + gamma) ** 2)
    t_e = np.sum(lam1 * (beta * lam1 + gamma) / (lam1 + gamma) ** 2)
    return t_a * t_b + n2 / gamma * t_a - t_d * t_e


def test_dense_secular_matches_sums_on_a_diagonal_covariance():
    lam = np.array([50.0, 9.0, 2.0, 0.01, 0.001])
    r = np.array([1.0, 1j, -0.5, 2.0, 0.3 + 0.1j])
    for gamma in (1e-3, 0.1, 3.0, 100.0):
        g, scale = oracle.dense_secular(gamma, np.diag(lam), r, 0.1)
        want = _sum_form(gamma, lam, np.abs(r) ** 2, 0.1)
        assert abs(g - want) <= 1e-12 * scale


def test_dense_secular_snapshot_side_uses_eigenvalues_as_weights():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    y[:, :] *= np.array([30.0, 5.0, 1.0, 1.0, 0.1, 0.1])[:, None]
    cov = y @ y.conj().T / y.shape[1]
    lam = np.linalg.eigvalsh(cov)[::-1]
    for gamma in (0.01, 1.0, 50.0):
        g, scale = oracle.dense_secular(gamma, cov, y, 0.1)
        assert abs(g - _sum_form(gamma, lam, lam, 0.1)) <= 1e-10 * scale


def test_isotropic_spectrum_makes_g_vanish():
    g, scale = oracle.dense_secular(0.7, 3.0 * np.eye(5), np.arange(5.0) + 1j, 0.1)
    assert abs(g) <= 1e-14 * scale


def test_root_detection_on_a_bisected_root():
    lam = np.array([80.0, 20.0, 1.0, 1e-3, 1e-4, 1e-4])
    cov = np.diag(lam)
    r = np.array([0.1, 0.2, 1.0, 1.0, 2.0, 1.0])

    def g(x):
        return oracle.dense_secular(x, cov, r, 0.1)[0]

    grid = np.geomspace(1e-9, 1e3, 400) * lam.mean()
    vals = [g(x) for x in grid]
    k = next(k for k in range(len(grid) - 1) if (vals[k] < 0) != (vals[k + 1] < 0))
    lo, hi = grid[k], grid[k + 1]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (g(mid) < 0) == (vals[k] < 0):
            lo = mid
        else:
            hi = mid
    assert oracle.is_secular_root(lo, cov, r, 0.1)
    assert not oracle.is_secular_root(2.0 * lo, cov, r, 0.1)
    assert not oracle.is_secular_root(0.0, cov, r, 0.1)


def test_fallback_level_is_rho_mean_eigenvalue():
    assert math.isclose(oracle.fallback_gamma(np.diag([4.0, 2.0, 0.0]), 0.1), 0.2)


def test_aggregate_linear_known_values():
    mean_db, stderr_db, n = oracle.aggregate_linear([1.0, 2.0, 3.0])
    assert n == 3
    assert math.isclose(mean_db, 10.0 * math.log10(2.0))
    assert math.isclose(stderr_db, 10.0 / math.log(10.0) * (1.0 / math.sqrt(3.0)) / 2.0)
    assert oracle.aggregate_linear([5.0])[1] == 0.0
    assert math.isnan(oracle.aggregate_linear([])[0])


def test_close_tracks_nine_significant_digits():
    assert oracle.close(float("%.9g" % 12.3456789012), 12.3456789012)
    assert not oracle.close(12.34567, 12.34568)
    assert oracle.close(float("nan"), float("nan"))


def test_dense_secular_agrees_with_copra_beam():
    import program

    program.load()
    from copra_beam import secular
    from copra_beam.linalg import hermitian_evd

    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    cov = b @ b.conj().T / 5 + 1e-3 * np.eye(8)
    r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    es = hermitian_evd(cov)
    split = secular.split_eigenvalues(es, 0.1)
    for gamma in (1e-4, 0.05, 2.0):
        g, scale = oracle.dense_secular(gamma, cov, r, 0.1)
        assert abs(g - secular.secular_function(gamma, split, es.u.conj().T @ r)) <= 1e-10 * scale
