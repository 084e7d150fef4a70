import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_secular_value,
    gamma_mse_approx,
    grid_scan_root,
    random_complex_vector,
    random_psd,
    rls_mse,
    secular_derivative_weighted,
    secular_scale,
    secular_terms,
)
from copra_beam import secular
from copra_beam.arraysim import draw_scenario, sample_covariance, synthesize_snapshots
from copra_beam.linalg import HermitianEigensystem, hermitian_evd
from copra_beam.secular import (
    copra_gammas,
    lambda_o_sq,
    secular_function,
    secular_function_weighted,
    solve_secular,
    solve_secular_weighted,
    split_eigenvalues,
)


def _diag_es(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=float)
    return HermitianEigensystem(np.eye(lam.size, dtype=complex), lam)


class TestSplit:
    def test_equal_eigenvalues_no_truncation(self):
        split = split_eigenvalues(_diag_es([4.0, 4.0, 4.0, 4.0]), 0.5)
        assert (split.n1, split.n2) == (4, 0)
        assert split.beta == 1.0

    def test_strongly_bimodal_spectrum(self):
        split = split_eigenvalues(_diag_es([100.0, 1e-18, 1e-18, 1e-18]), 0.1)
        assert (split.n1, split.n2) == (1, 3)

    def test_threshold_against_direct_scan(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sc = draw_scenario(rng)
            ss = synthesize_snapshots(sc, 30, rng)
            es = hermitian_evd(sample_covariance(ss))
            split = split_eigenvalues(es, 0.1)
            sigma = np.sqrt(es.eigenvalues)
            tau = 0.1 * sigma.mean()
            assert split.n1 == np.count_nonzero(sigma > tau)
            assert split.n1 + split.n2 == 10
            assert np.all(sigma[:split.n1] > tau)
            assert np.all(sigma[split.n1:] <= tau)
            assert split.beta == 10 / split.n1

    def test_all_zero_spectrum_refused(self):
        with pytest.raises(ValueError, match="all-zero spectrum"):
            split_eigenvalues(hermitian_evd(np.zeros((4, 4))), 0.1)

    def test_rho_out_of_range(self):
        es = _diag_es([1.0, 2.0])
        for rho in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split_eigenvalues(es, rho)


class TestSecularFunction:
    def test_isotropic_spectrum_vanishes(self):
        split = split_eigenvalues(_diag_es([3.0] * 5), 0.5)
        rng = np.random.default_rng(1)
        d = random_complex_vector(rng, 5)
        for gamma in (0.01, 1.0, 50.0):
            assert abs(secular_function(gamma, split, d)) < 1e-12

    def test_closed_form_negative_case(self):
        split = split_eigenvalues(_diag_es([2.0, 0.0]), 0.5)
        d = np.array([1.0, 1.0])
        for gamma in (0.5, 1.0, 2.0):
            expected = -8.0 / (gamma**2 * (2.0 + gamma) ** 2)
            assert abs(secular_function(gamma, split, d) - expected) < 1e-12
        assert np.isclose(secular_function(2.0, split, d), -0.125)

    def test_closed_form_positive_case(self):
        split = split_eigenvalues(_diag_es([2.0, 0.0]), 0.5)
        d = np.array([1.0, 0.0])
        for gamma in (0.1, 1.0, 10.0):
            expected = 2.0 / (gamma * (2.0 + gamma) ** 2)
            assert np.isclose(secular_function(gamma, split, d), expected)
            assert secular_function(gamma, split, d) > 0

    def test_matches_dense_trace_oracle(self):
        rng = np.random.default_rng(37)
        for n in (4, 8, 12):
            for _ in range(10):
                es = hermitian_evd(random_psd(rng, n, rank=max(2, n // 2)))
                split = split_eigenvalues(es, 0.2)
                d = random_complex_vector(rng, n)
                for gamma in (0.05, 0.7, 9.0):
                    fast = secular_function(gamma, split, d)
                    dense = dense_secular_value(gamma, split, d)
                    scale = max(abs(dense), 1e-30)
                    assert abs(fast - dense) <= 1e-10 * max(scale, 1.0)

    def test_rejects_bad_inputs(self):
        split = split_eigenvalues(_diag_es([1.0, 2.0]), 0.5)
        with pytest.raises(ValueError):
            secular_function(0.0, split, np.ones(2))
        with pytest.raises(ValueError):
            secular_function(1.0, split, np.ones(3))
        with pytest.raises(ValueError, match="weights length .* does not match system size"):
            solve_secular(split, np.ones(3))
        with pytest.raises(ValueError, match="weights length .* does not match system size"):
            solve_secular_weighted(split, np.ones(3))

    def test_analytic_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(41)
        es = hermitian_evd(random_psd(rng, 6))
        split = split_eigenvalues(es, 0.3)
        w = np.abs(random_complex_vector(rng, 6)) ** 2
        for gamma in (0.1, 1.0, 10.0):
            h = 1e-6 * gamma
            fd = (secular_function_weighted(gamma + h, split, w)
                  - secular_function_weighted(gamma - h, split, w)) / (2 * h)
            an = secular_derivative_weighted(gamma, split, w)
            assert abs(an - fd) <= 1e-5 * max(abs(fd), 1e-12)

    def test_scalar_value_takes_one_kernel_pass(self, monkeypatch):
        # G alone needs neither G' nor the scale; it keeps the bits of the
        # pass that also forms G'
        rng = np.random.default_rng(43)
        split = split_eigenvalues(hermitian_evd(random_psd(rng, 6)), 0.3)
        w = np.abs(random_complex_vector(rng, 6)) ** 2
        real, calls = secular._kernel, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(secular, "_kernel", counted)
        for gamma in (0.1, 1.0, 10.0):
            del calls[:]
            g = secular_function_weighted(gamma, split, w)
            assert len(calls) == 1
            assert float(g).hex() == float(secular_terms(gamma, split, w)[0]).hex()


class TestSolve:
    def test_isotropic_uses_fallback(self):
        split = split_eigenvalues(_diag_es([3.0] * 4), 0.5)
        report = solve_secular(split, np.ones(4))
        assert report.fallback_used
        assert report.gamma == pytest.approx(0.5 * 3.0)

    def test_everywhere_negative_uses_fallback(self):
        split = split_eigenvalues(_diag_es([2.0, 0.0]), 0.5)
        report = solve_secular(split, np.array([1.0, 1.0]))
        assert report.fallback_used
        assert report.gamma == pytest.approx(0.5 * 1.0)

    def test_matches_grid_scan_oracle(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(10):
            sc = draw_scenario(rng, snr_db=20.0)
            ss = synthesize_snapshots(sc, 30, rng)
            es = hermitian_evd(sample_covariance(ss))
            split = split_eigenvalues(es, 0.1)
            d = es.u.conj().T @ sc.a_presumed
            report = solve_secular(split, d)
            if report.fallback_used:
                continue
            assert report.converged
            root = grid_scan_root(split, np.abs(d) ** 2, n_points=10**5)
            assert root is not None
            assert abs(report.gamma - root) <= 1e-6 * root
            checked += 1
        assert checked >= 5

    def test_spent_budget_is_neither_converged_nor_fallback(self, monkeypatch):
        # one bisection step leaves the oracle test's first system open
        monkeypatch.setattr(secular, "MAX_NEWTON_ITERS", 0)
        monkeypatch.setattr(secular, "MAX_BISECT_ITERS", 1)
        rng = np.random.default_rng(43)
        sc = draw_scenario(rng, snr_db=20.0)
        ss = synthesize_snapshots(sc, 30, rng)
        es = hermitian_evd(sample_covariance(ss))
        split = split_eigenvalues(es, 0.1)
        w = np.abs(es.u.conj().T @ sc.a_presumed) ** 2
        report = solve_secular_weighted(split, w)
        assert (report.converged, report.fallback_used, report.iterations) == (False, False, 1)
        # the same lane ahead of one that falls back, in one stacked solve
        lam = np.stack([es.eigenvalues] * 2)
        stacked = secular._solve_lanes(lam, lam[:, :split.n1].copy(),
                                       np.stack([w, es.eigenvalues]), split.beta, split.n2, 0.1)
        assert stacked.fallback_used.tolist() == [False, True]
        lane = stacked[0]
        assert (lane.converged, lane.fallback_used, lane.iterations) == (False, False, 1)

    @pytest.mark.parametrize("seed, gamma", [
        (43, "0x1.33e39f15793dap-1"),
        (44, "0x1.90c80c074a888p-2"),
        (45, "0x1.1f74e661e4980p-1"),
    ])
    def test_bisection_only_converges_to_pinned_bits(self, monkeypatch, seed, gamma):
        # no Newton budget: every step is bisection, so its stop test ends the solve
        monkeypatch.setattr(secular, "MAX_NEWTON_ITERS", 0)
        rng = np.random.default_rng(seed)
        sc = draw_scenario(rng, snr_db=20.0)
        ss = synthesize_snapshots(sc, 30, rng)
        es = hermitian_evd(sample_covariance(ss))
        report = solve_secular(split_eigenvalues(es, 0.1), es.u.conj().T @ sc.a_presumed)
        assert float(report.gamma).hex() == gamma
        assert (report.iterations, report.converged, report.fallback_used) == (28, True, False)

    def test_converged_residual_consistent(self):
        rng = np.random.default_rng(47)
        sc = draw_scenario(rng, snr_db=20.0)
        ss = synthesize_snapshots(sc, 30, rng)
        es = hermitian_evd(sample_covariance(ss))
        split = split_eigenvalues(es, 0.1)
        d = es.u.conj().T @ sc.a_presumed
        report = solve_secular(split, d)
        if report.converged:
            scale = secular_scale(report.gamma, split, np.abs(d) ** 2)
            assert abs(secular_function(report.gamma, split, d)) <= 1e-6 * scale
            assert report.gamma > 0

    def test_deterministic(self):
        split = split_eigenvalues(_diag_es([9.0, 4.0, 1.0, 0.01]), 0.2)
        d = np.array([1.0, 0.5 + 0.5j, 0.1, 0.9])
        a = solve_secular(split, d)
        b = solve_secular(split, d)
        assert a == b


class TestCopraGammas:
    def _setup(self, seed, n_s):
        rng = np.random.default_rng(seed)
        sc = draw_scenario(rng, snr_db=20.0)
        ss = synthesize_snapshots(sc, n_s, rng)
        es = hermitian_evd(sample_covariance(ss))
        split = split_eigenvalues(es, 0.1)
        return sc, ss, es, split

    def test_single_snapshot_policies_coincide(self):
        sc, ss, es, split = self._setup(53, 1)
        _, avg = copra_gammas(split, sc.a_presumed, ss, snapshot_policy="averaged")
        _, med = copra_gammas(split, sc.a_presumed, ss, snapshot_policy="per-snapshot-median")
        assert avg.gamma == pytest.approx(med.gamma, rel=1e-9)
        for flag in ("converged", "fallback_used"):
            assert getattr(avg, flag) == getattr(med, flag), flag

    def test_deterministic(self):
        sc, ss, es, split = self._setup(59, 30)
        a = copra_gammas(split, sc.a_presumed, ss)
        b = copra_gammas(split, sc.a_presumed, ss)
        assert a == b

    def test_gammas_finite_positive(self):
        sc, ss, es, split = self._setup(61, 30)
        for report in copra_gammas(split, sc.a_presumed, ss):
            assert report.gamma > 0 and np.isfinite(report.gamma)

    def test_unknown_policy_rejected(self):
        sc, ss, es, split = self._setup(67, 5)
        with pytest.raises(ValueError):
            copra_gammas(split, sc.a_presumed, ss, snapshot_policy="latest")


# diagonal eigensystems of 2 to 12 eigenvalues over nine decades; SPECTRA
# also holds zeros, so rank-deficient spectra are drawn too
EIGENVALUE = st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e)
POSITIVE = st.lists(EIGENVALUE, min_size=2, max_size=12)
SPECTRA = st.lists(st.one_of(st.just(0.0), EIGENVALUE), min_size=2, max_size=12).filter(any)


def _split(eigenvalues, rho):
    return split_eigenvalues(_diag_es(sorted(eigenvalues, reverse=True)), rho)


def _c_infinity(split, w):
    """c_inf = n sum(lambda w) - sum(w) sum_{i <= n1} lambda_i, the limit of
    gamma^3 G(gamma), and the size of its two terms."""
    a = split.es.n * np.sum(split.es.eigenvalues * w)
    b = np.sum(w) * np.sum(split.sigma1_sq)
    return a - b, a + b


class TestRootFacts:
    """The closed-form facts on when G has a positive root. Criterion 3
    checks only converged solves; these cover the fallbacks too."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(SPECTRA, st.floats(0.05, 0.5))
    def test_snapshot_side_limit_is_nonnegative(self, eigenvalues, rho):
        # w = lambda: c_inf >= 0 by Cauchy-Schwarz, and gamma^3 G -> c_inf
        split = _split(eigenvalues, rho)
        w = split.es.eigenvalues.copy()
        c_inf, size = _c_infinity(split, w)
        assert c_inf >= -1e-12 * size
        gamma = 1e6 * split.es.eigenvalues[0]
        assert abs(gamma**3 * secular_function_weighted(gamma, split, w) - c_inf) <= 1e-5 * size

    @settings(max_examples=200, deadline=None, database=None)
    @given(POSITIVE, st.floats(0.01, 0.99))
    def test_untruncated_snapshot_side_falls_back(self, eigenvalues, fraction):
        # n2 = 0 and w = lambda: G = gamma/2 sum_ij (lambda_i - lambda_j)^2
        # / ((lambda_i + gamma)^2 (lambda_j + gamma)^2) >= 0, so no root.
        # rho below min(sigma) / mean(sigma) keeps every mode
        sigma = np.sqrt(eigenvalues)
        split = _split(eigenvalues, fraction * sigma.min() / sigma.mean())
        assert split.n2 == 0
        w = split.es.eigenvalues.copy()
        mean = w.mean()
        grid = np.geomspace(secular.SCAN_LO_FACTOR * mean, secular.SCAN_HI_FACTOR * mean,
                            secular.SCAN_POINTS)
        g, _, scale = secular_terms(grid, split, w)
        assert np.all(g >= -1e-12 * scale)
        report = solve_secular_weighted(split, w)
        assert report.fallback_used and not report.converged

    @settings(max_examples=200, deadline=None, database=None)
    @given(POSITIVE, st.floats(0.05, 0.5), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    def test_guaranteed_root_converges_to_a_dense_root(self, eigenvalues, rho, seed, boost):
        # every eigenvalue positive and n2 > 0: G -> +inf as gamma -> 0+, so
        # c_inf < 0 guarantees a root. Weight on the trivial modes, scaled by
        # 10**boost, makes c_inf negative
        split = _split(eigenvalues, rho)
        assume(split.n2 > 0)
        d = random_complex_vector(np.random.default_rng(seed), split.es.n)
        d[split.n1:] *= 10.0 ** boost
        assume(_c_infinity(split, np.abs(d) ** 2)[0] < 0)
        lam = split.es.eigenvalues
        assert dense_secular_value(1e-6 * lam[-1], split, d) > 0
        # the scan looks for the root on [SCAN_LO_FACTOR, SCAN_HI_FACTOR] *
        # mean(lambda) only: the root must lie there
        assume(dense_secular_value(secular.SCAN_LO_FACTOR * lam.mean(), split, d) > 0)
        assume(dense_secular_value(secular.SCAN_HI_FACTOR * lam.mean(), split, d) < 0)
        report = solve_secular(split, d)
        assert report.converged and not report.fallback_used
        below, above = (dense_secular_value(report.gamma * f, split, d)
                        for f in (1 - 1e-6, 1 + 1e-6))
        assert np.sign(below) != np.sign(above)


class TestLambdaO:
    def test_isotropic_collapses_to_eigenvalue(self):
        es = _diag_es([5.0] * 4)
        rng = np.random.default_rng(71)
        r = random_complex_vector(rng, 4)
        assert lambda_o_sq(0.3, es, r) == pytest.approx(5.0)

    def test_single_mode_concentration(self):
        es = _diag_es([4.0, 1.0])
        assert lambda_o_sq(1.0, es, np.array([1.0, 0.0])) == pytest.approx(4.0)

    def test_matches_dense_trace_evaluation(self):
        rng = np.random.default_rng(73)
        es = hermitian_evd(random_psd(rng, 8))
        r = random_complex_vector(rng, 8)
        gamma = 0.42
        lam = es.eigenvalues
        inv2 = np.linalg.inv(np.diag(lam) + gamma * np.eye(8)) @ \
            np.linalg.inv(np.diag(lam) + gamma * np.eye(8))
        proj = es.u.conj().T @ np.outer(r, r.conj()) @ es.u
        dense = (np.trace(np.diag(lam) @ inv2 @ proj)
                 / np.trace(inv2 @ proj)).real
        assert abs(lambda_o_sq(gamma, es, r) - dense) < 1e-12 * max(abs(dense), 1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            lambda_o_sq(1.0, _diag_es([1.0, 2.0]), np.zeros(2))


class TestRlsMse:
    def test_gamma_zero_pure_ls_error(self):
        es = _diag_es([4.0, 2.0, 1.0])
        c_xx = np.eye(3)
        assert rls_mse(0.0, es, c_xx, 0.5) == pytest.approx(0.5 * (1/4 + 1/2 + 1))

    def test_large_gamma_limit_is_signal_trace(self):
        rng = np.random.default_rng(79)
        es = hermitian_evd(random_psd(rng, 5))
        c_xx = random_psd(rng, 5)
        big = rls_mse(1e12, es, c_xx, 0.3)
        assert big == pytest.approx(np.trace(c_xx).real, rel=1e-6)

    def test_monte_carlo_oracle(self):
        # simulate the regularized estimator on a known system and compare
        rng = np.random.default_rng(83)
        n, draws, gamma, noise_power = 10, 10**4, 0.7, 0.25
        es = hermitian_evd(random_psd(rng, n))
        c_xx = random_psd(rng, n)
        lam = es.eigenvalues
        chol = np.linalg.cholesky(c_xx + 1e-12 * np.eye(n))
        x = chol @ (rng.standard_normal((n, draws))
                    + 1j * rng.standard_normal((n, draws))) / np.sqrt(2)
        v = np.sqrt(noise_power / 2) * (rng.standard_normal((n, draws))
                                        + 1j * rng.standard_normal((n, draws)))
        a_half = (es.u * np.sqrt(lam)) @ es.u.conj().T
        r = a_half @ x + v
        filt = np.sqrt(lam) / (lam + gamma)
        x_hat = es.u @ (filt[:, None] * (es.u.conj().T @ r))
        mc = np.mean(np.sum(np.abs(x_hat - x) ** 2, axis=0))
        assert mc == pytest.approx(rls_mse(gamma, es, c_xx, noise_power), rel=0.02)

    def test_convex_in_gamma(self):
        # convex below half the smallest eigenvalue, where both the noise and
        # bias terms are individually convex; beyond that the bias term turns
        # concave and the midpoint inequality can fail
        rng = np.random.default_rng(89)
        es = hermitian_evd(random_psd(rng, 6))
        c_xx = random_psd(rng, 6)
        hi = 0.5 * es.eigenvalues.min()
        for _ in range(50):
            g1, g2 = np.sort(rng.uniform(1e-4 * hi, hi, size=2))
            mid = 0.5 * (g1 + g2)
            lhs = rls_mse(mid, es, c_xx, 0.4)
            rhs = 0.5 * (rls_mse(g1, es, c_xx, 0.4) + rls_mse(g2, es, c_xx, 0.4))
            assert lhs <= rhs + 1e-12


class TestGammaApprox:
    def test_isotropic_signal_exact_minimizer(self):
        rng = np.random.default_rng(97)
        es = hermitian_evd(random_psd(rng, 5))
        sigma_x_sq, noise_power = 2.0, 0.5
        gamma = gamma_mse_approx(5 * sigma_x_sq, noise_power, 5)
        assert gamma == pytest.approx(noise_power / sigma_x_sq)
        # exact global minimizer of the MSE when the signal is isotropic
        c_xx = sigma_x_sq * np.eye(5)
        grid = np.geomspace(1e-4, 1e4, 2001) * gamma
        vals = [rls_mse(g, es, c_xx, noise_power) for g in grid]
        assert abs(grid[int(np.argmin(vals))] - gamma) <= gamma * 1e-2

    def test_zero_noise_gives_zero(self):
        assert gamma_mse_approx(3.0, 0.0, 7) == 0.0

    def test_anisotropic_signal_near_grid_minimizer(self):
        # near-isotropic spectrum keeps the trace-average step accurate, so
        # the closed form should land within one step of a 1e4-point log grid
        rng = np.random.default_rng(101)
        es = _diag_es(np.full(10, 3.0))
        evals = rng.uniform(0.5, 2.0, size=10)
        q = np.linalg.qr(rng.standard_normal((10, 10))
                         + 1j * rng.standard_normal((10, 10)))[0]
        c_xx = (q * evals) @ q.conj().T
        noise_power = 0.8
        gamma = gamma_mse_approx(np.trace(c_xx).real, noise_power, 10)
        grid = np.geomspace(1e-2 * gamma, 1e2 * gamma, 10**4)
        vals = np.array([rls_mse(g, es, c_xx, noise_power) for g in grid])
        k = int(np.argmin(vals))
        step = grid[1] / grid[0]
        assert grid[k] / step <= gamma <= grid[k] * step

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            gamma_mse_approx(0.0, 1.0, 4)


def test_weighted_solver_handles_zero_spectrum():
    split = split_eigenvalues(_diag_es([1e-30, 1e-30]), 0.5)
    report = solve_secular_weighted(split, np.ones(2))
    assert report.fallback_used
