import dataclasses

import numpy as np
import pytest

from conftest import (
    ls_estimate,
    random_complex_vector,
    random_psd,
    rls_estimate,
    worst_case_cost,
    worst_case_gradient,
)
from copra_beam.arraysim import (
    ArrayGeometry,
    draw_scenario,
    interference_noise_covariance,
    sample_covariance,
    steering_vector,
    synthesize_snapshots,
    true_covariance,
)
from copra_beam.beamformers import (
    SingularCovarianceError,
    copra_weights,
    diagonal_loading_weights,
    mvdr_weights,
    optimal_weights,
    quasi_optimal_gamma,
)
from copra_beam.config import LEVEL_DB_BOUND
from copra_beam.harness import output_sinr
from copra_beam.linalg import HermitianEigensystem, hermitian_evd


def _diag_es(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=float)
    return HermitianEigensystem(np.eye(lam.size, dtype=complex), lam)


class TestMvdr:
    def test_identity_covariance(self):
        a = steering_vector(ArrayGeometry(5, 0.5), 17.0)
        w = mvdr_weights(np.eye(5), a)
        assert np.allclose(w.w, a / np.linalg.norm(a) ** 2)

    def test_scalar_case(self):
        w = mvdr_weights(np.array([[4.0]]), np.array([2.0]))
        assert np.allclose(w.w, [0.5])

    def test_distortionless_constraint(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = random_psd(rng, 8) + 0.1 * np.eye(8)
            a = random_complex_vector(rng, 8)
            w = mvdr_weights(c, a)
            assert abs(w.w.conj() @ a - 1.0) < 1e-10

    def test_true_covariance_maximizes_sinr(self):
        # no random weight perturbation beats the clairvoyant MVDR optimum
        rng = np.random.default_rng(2)
        sc = draw_scenario(rng, n_interferers=2, snr_db=10.0)
        w = mvdr_weights(true_covariance(sc), sc.a_true)
        best = output_sinr(w, sc)
        for _ in range(10**4):
            scale = 10.0 ** rng.uniform(-3, 0)
            delta = scale * random_complex_vector(rng, 10)
            perturbed = dataclasses.replace(w, w=w.w + delta)
            assert output_sinr(perturbed, sc) <= best + 1e-9 * best

    def test_singular_covariance_rejected(self):
        a = np.ones(3, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            mvdr_weights(np.diag([1.0, 1.0, 0.0]), a)

    def test_zero_steering_rejected(self):
        with pytest.raises(ValueError):
            mvdr_weights(np.eye(3), np.zeros(3))


class TestDiagonalLoading:
    def test_zero_loading_equals_mvdr(self):
        rng = np.random.default_rng(3)
        c = random_psd(rng, 6) + 0.5 * np.eye(6)
        a = random_complex_vector(rng, 6)
        assert np.allclose(diagonal_loading_weights(c, a, 0.0).w,
                           mvdr_weights(c, a).w)

    def test_large_loading_matched_filter_limit(self):
        rng = np.random.default_rng(4)
        c = random_psd(rng, 6)
        a = random_complex_vector(rng, 6)
        w = diagonal_loading_weights(c, a, 1e12).w
        cos = abs(w.conj() @ a) / (np.linalg.norm(w) * np.linalg.norm(a))
        assert cos > 1.0 - 1e-8

    def test_rank_deficient_covariance(self):
        rng = np.random.default_rng(5)
        sc = draw_scenario(rng)
        ss = synthesize_snapshots(sc, 5, rng)  # n_s < n_e
        c = sample_covariance(ss)
        w = diagonal_loading_weights(c, sc.a_presumed, 10.0 * sc.noise_power)
        assert np.all(np.isfinite(w.w))
        assert abs(w.w.conj() @ sc.a_presumed - 1.0) < 1e-10


class TestCopraWeights:
    def test_zero_gammas_reduce_to_mvdr(self):
        rng = np.random.default_rng(6)
        c = random_psd(rng, 8) + np.eye(8)
        es = hermitian_evd(c)
        a = random_complex_vector(rng, 8)
        w = copra_weights(es, 0.0, 0.0, a).w
        ref = mvdr_weights(c, a).w
        assert np.linalg.norm(w - ref) < 1e-8 * np.linalg.norm(ref)

    def test_scalar_case(self):
        es = _diag_es([1.0])
        w = copra_weights(es, 1.0, 1.0, np.array([1.0]))
        assert np.allclose(w.w, [1.0])

    def test_two_path_equivalence(self):
        # w^H y must equal the inner-product form built from the two
        # regularized solves of the steering and snapshot linear systems
        rng = np.random.default_rng(7)
        c = random_psd(rng, 10)
        es = hermitian_evd(c)
        a = random_complex_vector(rng, 10)
        y = random_complex_vector(rng, 10)
        gamma_b, gamma_z = 0.3, 1.7
        lam = es.eigenvalues
        b_hat = es.u @ ((np.sqrt(lam) / (lam + gamma_b)) * (es.u.conj().T @ a))
        z_hat = es.u @ ((np.sqrt(lam) / (lam + gamma_z)) * (es.u.conj().T @ y))
        expected = (b_hat.conj() @ z_hat) / (b_hat.conj() @ b_hat)
        w = copra_weights(es, gamma_b, gamma_z, a)
        got = w.w.conj() @ y
        assert abs(got - expected) < 1e-10 * max(abs(expected), 1.0)

    def test_invariant_under_degenerate_rebasis(self):
        # rotate the eigenvector basis inside a repeated-eigenvalue subspace;
        # the weights depend only on spectral projectors
        rng = np.random.default_rng(8)
        lam = np.array([5.0, 2.0, 2.0, 0.5])
        q = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
        es = HermitianEigensystem(q, lam)
        rot = np.eye(4, dtype=complex)
        theta = 0.77
        rot[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]]
        es2 = HermitianEigensystem(q @ rot, lam)
        a = random_complex_vector(rng, 4)
        w1 = copra_weights(es, 0.2, 0.9, a).w
        w2 = copra_weights(es2, 0.2, 0.9, a).w
        assert np.linalg.norm(w1 - w2) < 1e-10 * np.linalg.norm(w1)

    def test_steering_scale_changes_only_overall_gain(self):
        # scaling the steering vector rescales w by the inverse factor, so the
        # weight direction (and any SINR-type ratio) is unchanged
        rng = np.random.default_rng(9)
        es = hermitian_evd(random_psd(rng, 6))
        a = random_complex_vector(rng, 6)
        w1 = copra_weights(es, 0.4, 2.2, a).w
        w2 = copra_weights(es, 0.4, 2.2, 3.7 * a).w
        assert np.allclose(3.7 * w2, w1, atol=1e-10 * np.linalg.norm(w1))

    def test_sinr_invariant_to_steering_scale(self):
        rng = np.random.default_rng(25)
        sc = draw_scenario(rng, snr_db=10.0)
        ss = synthesize_snapshots(sc, 30, rng)
        es = hermitian_evd(sample_covariance(ss))
        w1 = copra_weights(es, 0.4, 2.2, sc.a_presumed)
        w2 = copra_weights(es, 0.4, 2.2, 5.0 * sc.a_presumed)
        assert output_sinr(w1, sc) == pytest.approx(output_sinr(w2, sc), rel=1e-10)

    def test_negative_gamma_rejected(self):
        es = _diag_es([1.0, 2.0])
        with pytest.raises(ValueError):
            copra_weights(es, -0.1, 0.5, np.ones(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_level_overflowing_the_filter_rejected(self):
        # (lambda + 1e200)^2 overflows: the filter would read 0 on every mode
        # and the steering vector look orthogonal to all of them
        es = _diag_es([2.0, 1.0])
        with pytest.raises(ValueError, match=r"^regularization level 1e\+200 overflows the filter$"):
            copra_weights(es, 1e200, 0.5, np.ones(2))
        # so does (lambda + gamma_b)(lambda + gamma_z)
        with pytest.raises(ValueError, match=r"level 1e\+300 overflows"):
            copra_weights(es, 1e10, 1e300, np.ones(2))
        for gamma_b, gamma_z in ((1e150, 0.5), (0.5, 1e300)):
            assert np.all(np.isfinite(copra_weights(es, gamma_b, gamma_z, np.ones(2)).w))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_mode_with_underflowing_level_adds_nothing(self):
        # (0 + 5e-324)^2 underflows to 0: the zero mode's filter 0/0 must read
        # its limit 0, not NaN, and leave the weights of the other mode alone
        es = _diag_es([1.49, 0.0])
        for gamma in (5e-324, 1e-200):
            w = copra_weights(es, gamma, gamma, np.ones(2)).w
            assert np.array_equal(w, [1.0, 0.0]), gamma


class TestOptimal:
    def test_no_interferers_sinr(self):
        rng = np.random.default_rng(10)
        sc = draw_scenario(rng, n_interferers=0, snr_db=0.0)
        w = optimal_weights(sc)
        assert output_sinr(w, sc) == pytest.approx(10.0, rel=1e-9)
        cos = abs(w.w.conj() @ sc.a_true) / (np.linalg.norm(w.w)
                                             * np.linalg.norm(sc.a_true))
        assert cos > 1.0 - 1e-9

    def test_well_separated_interferer_near_lossless(self):
        import dataclasses as dc
        rng = np.random.default_rng(11)
        base = draw_scenario(rng, n_interferers=0, snr_db=0.0)
        geo = base.geometry
        sc0 = dc.replace(base, soi_doa_deg=0.0,
                         a_true=steering_vector(geo, 0.0),
                         a_presumed=steering_vector(geo, 0.0))
        sinr0 = output_sinr(optimal_weights(sc0), sc0)
        sc1 = dc.replace(sc0, interferer_doas_deg=(60.0,),
                         interferer_powers=(1000.0,))
        sinr1 = output_sinr(optimal_weights(sc1), sc1)
        assert abs(10 * np.log10(sinr0) - 10 * np.log10(sinr1)) < 0.5

    def test_deterministic(self):
        sc = draw_scenario(np.random.default_rng(12))
        assert np.array_equal(optimal_weights(sc).w, optimal_weights(sc).w)

    def test_closed_form(self):
        # R = C_in + p a a^H, and by Sherman-Morrison R^{-1} a is parallel to
        # C_in^{-1} a: the weights do not depend on p, and the SINR is
        # p a^H C_in^{-1} a. Decomposing R itself loses digits as p a^H a
        # outgrows the noise floor (5e-5 relative at 100 dB), so that route
        # is held to 1e-9 up to 40 dB only
        for seed in range(8):
            sc = draw_scenario(np.random.default_rng(seed), n_interferers=seed % 4)
            a = sc.a_true
            c_in_inv_a = np.linalg.solve(interference_noise_covariance(sc), a)
            w = optimal_weights(sc).w
            for snr_db in (-LEVEL_DB_BOUND, -10.0, 0.0, 20.0, 40.0, LEVEL_DB_BOUND):
                at = sc.at_snr(snr_db)
                assert np.array_equal(optimal_weights(at).w, w), (seed, snr_db)
                p = at.soi_power[()]
                assert output_sinr(w, at) == pytest.approx(
                    p * np.real(a.conj() @ c_in_inv_a), rel=1e-12), (seed, snr_db)
                if snr_db <= 40.0:
                    w_r = mvdr_weights(true_covariance(at), a).w
                    assert np.linalg.norm(w_r - w) <= 1e-9 * np.linalg.norm(w), (seed, snr_db)


class TestEstimators:
    def test_ls_identity(self):
        rng = np.random.default_rng(13)
        r = random_complex_vector(rng, 4)
        assert np.allclose(ls_estimate(_diag_es([1.0] * 4), r), r)

    def test_ls_diagonal(self):
        r = np.array([2.0, 8.0], dtype=complex)
        # eigenvalues are of C = A^2, so A = diag(2, 4) means C = diag(4, 16)
        x = ls_estimate(_diag_es([16.0, 4.0]), np.array([r[1], r[0]]))
        assert np.allclose(x, [r[1] / 4.0, r[0] / 2.0])

    def test_ls_sensitivity_amplification(self):
        # system matrix with condition 1e8 (eigenvalues of C are its squares);
        # observation along the large mode, perturbation along the small one
        es = _diag_es([1.0, 1e-16])
        r = np.array([1.0, 0.0], dtype=complex)
        x0 = ls_estimate(es, r)
        dr = np.array([0.0, 1e-8], dtype=complex)
        x1 = ls_estimate(es, r + dr)
        in_rel = np.linalg.norm(dr) / np.linalg.norm(r)
        out_rel = np.linalg.norm(x1 - x0) / np.linalg.norm(x0)
        assert out_rel / in_rel >= 1e6

    def test_rls_identity_halving(self):
        rng = np.random.default_rng(14)
        r = random_complex_vector(rng, 5)
        assert np.allclose(rls_estimate(_diag_es([1.0] * 5), r, 1.0), r / 2.0)

    def test_rls_gamma_zero_equals_ls(self):
        rng = np.random.default_rng(15)
        es = hermitian_evd(random_psd(rng, 6) + 0.2 * np.eye(6))
        r = random_complex_vector(rng, 6)
        assert np.allclose(rls_estimate(es, r, 0.0), ls_estimate(es, r))

    def test_rls_norm_nonincreasing_in_gamma(self):
        rng = np.random.default_rng(16)
        es = hermitian_evd(random_psd(rng, 6))
        r = random_complex_vector(rng, 6)
        norms = [np.linalg.norm(rls_estimate(es, r, g))
                 for g in (0.01, 0.1, 1.0, 10.0, 100.0)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    def test_singular_ls_rejected(self):
        with pytest.raises(SingularCovarianceError):
            ls_estimate(_diag_es([1.0, 0.0]), np.ones(2))


class TestQuasiOptimal:
    def test_isotropic_closed_form(self):
        # estimate profile is r/(1+g): successive differences grow along the
        # bottom of the geometric grid and peak near g = 1, so the global
        # minimum sits at the smallest grid point
        es = _diag_es([1.0] * 4)
        r = np.ones(4, dtype=complex)
        grid = np.geomspace(1e-8, 10.0, 200)
        diffs = np.abs(np.diff(1.0 / (1.0 + grid))) * np.linalg.norm(r)
        expected = grid[int(np.argmin(diffs))]
        assert quasi_optimal_gamma(es, r) == pytest.approx(expected)
        assert expected == grid[0]

    def test_two_scale_spectrum_grid_oracle(self):
        es = _diag_es([1e4, 1.0])
        r = np.ones(2, dtype=complex)
        grid = np.geomspace(1e-8 * 1e4, 10 * 1e4, 200)
        x = np.vstack([np.sqrt(1e4) / (1e4 + grid), 1.0 / (1.0 + grid)])
        diffs = np.linalg.norm(np.diff(x, axis=1), axis=0)
        expected = grid[int(np.argmin(diffs))]
        assert quasi_optimal_gamma(es, r) == pytest.approx(expected)

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        es = hermitian_evd(random_psd(rng, 5))
        r = random_complex_vector(rng, 5)
        assert quasi_optimal_gamma(es, r) == quasi_optimal_gamma(es, 4.2 * r)

    def test_zero_observation_rejected(self):
        with pytest.raises(ValueError):
            quasi_optimal_gamma(_diag_es([1.0, 2.0]), np.zeros(2))


def _coupling_bound(es, r, gamma):
    """Perturbation bound paired with gamma through the stationarity relation."""
    x = rls_estimate(es, r, gamma)
    resid = r - es.u @ (np.sqrt(es.eigenvalues) * (es.u.conj().T @ x))
    return gamma * np.linalg.norm(x) / np.linalg.norm(resid)


class TestWorstCase:
    def test_cost_at_zero(self):
        rng = np.random.default_rng(18)
        es = hermitian_evd(random_psd(rng, 5))
        r = random_complex_vector(rng, 5)
        assert worst_case_cost(np.zeros(5), r, es, 2.0) == pytest.approx(
            np.linalg.norm(r))

    def test_cost_zero_bound_at_ls_solution(self):
        rng = np.random.default_rng(19)
        es = hermitian_evd(random_psd(rng, 5) + 0.3 * np.eye(5))
        r = random_complex_vector(rng, 5)
        x = ls_estimate(es, r)
        assert worst_case_cost(x, r, es, 0.0) < 1e-8 * np.linalg.norm(r)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        es = hermitian_evd(random_psd(rng, 6))
        for _ in range(20):
            r = random_complex_vector(rng, 6)
            x = random_complex_vector(rng, 6)
            grad = worst_case_gradient(x, r, es, 0.8)
            h = 1e-6
            fd = np.zeros(6, dtype=complex)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[j] = (worst_case_cost(x + e, r, es, 0.8)
                         - worst_case_cost(x - e, r, es, 0.8)) / (2 * h)
                fd[j] += 1j * (worst_case_cost(x + 1j * e, r, es, 0.8)
                               - worst_case_cost(x - 1j * e, r, es, 0.8)) / (2 * h)
            assert np.linalg.norm(grad - fd) < 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_stationarity_at_rls_solution(self):
        rng = np.random.default_rng(21)
        es = hermitian_evd(random_psd(rng, 6))
        r = random_complex_vector(rng, 6)
        gamma = 0.9
        x = rls_estimate(es, r, gamma)
        bound = _coupling_bound(es, r, gamma)
        grad = worst_case_gradient(x, r, es, bound)
        assert np.linalg.norm(grad) < 1e-8 * np.linalg.norm(r)

    def test_gradient_descent_recovers_rls_minimizer(self):
        rng = np.random.default_rng(22)
        es = hermitian_evd(random_psd(rng, 4))
        r = random_complex_vector(rng, 4)
        gamma = 1.3
        bound = _coupling_bound(es, r, gamma)
        target = rls_estimate(es, r, gamma)
        x = 0.5 * random_complex_vector(rng, 4)
        step = 0.05
        for _ in range(20000):
            x = x - step * worst_case_gradient(x, r, es, bound)
        assert np.linalg.norm(x - target) < 1e-6 * np.linalg.norm(target)

    def test_gradient_substitution_case(self):
        # at a point where the residual is half the observation, the prefactor
        # is 2/||r|| and the bound term drops out with bound = 0
        rng = np.random.default_rng(23)
        es = hermitian_evd(random_psd(rng, 4) + 0.5 * np.eye(4))
        r = random_complex_vector(rng, 4)
        lam = es.eigenvalues
        # pick x with C^{1/2} x = r / 2
        x = es.u @ ((es.u.conj().T @ (r / 2.0)) / np.sqrt(lam))
        grad = worst_case_gradient(x, r, es, 0.0)
        c_x = es.u @ (lam * (es.u.conj().T @ x))
        sqrt_r = es.u @ (np.sqrt(lam) * (es.u.conj().T @ r))
        expected = (2.0 / np.linalg.norm(r)) * (c_x - sqrt_r)
        assert np.allclose(grad, expected, atol=1e-10)

    def test_vanishing_norms_rejected(self):
        rng = np.random.default_rng(24)
        es = hermitian_evd(random_psd(rng, 3) + 0.5 * np.eye(3))
        r = random_complex_vector(rng, 3)
        with pytest.raises(ValueError):
            worst_case_gradient(np.zeros(3), r, es, 1.0)
        x_exact = ls_estimate(es, r)
        with pytest.raises(ValueError):
            worst_case_gradient(x_exact, r, es, 1.0)
