"""End-to-end acceptance suite.

Each test exercises one headline claim of the package at full protocol scale
and prints a single PASS/FAIL line. The suite is slower than the unit tests
(several minutes total) but runs entirely from fixed seeds. Criteria 1 and
2 read the reference sweeps, which conftest runs once per session.
"""

import json

import numpy as np
import pytest

from conftest import (
    REFERENCE_SWEEPS,
    gamma_mse_approx,
    grid_scan_roots,
    random_complex_vector,
    random_psd,
    reconstruct,
    rls_estimate,
    rls_mse,
    secular_scale,
    worst_case_cost,
    worst_case_gradient,
)
from copra_beam import arraysim, beamformers, secular
from copra_beam.cli import main as cli_main
from copra_beam.config import ExperimentConfig
from copra_beam.linalg import hermitian_evd

SEED = 7


def _report(num, ok, detail):
    print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "[criterion %d] %s" % (num, detail)


def _ordering_ok(result, points):
    """optimal >= copra > sample-mvdr and copra > quasi-rls at every point."""
    bad = []
    for v in points:
        opt = result.mean_db(v, "optimal")
        cop = result.mean_db(v, "copra")
        smv = result.mean_db(v, "sample-mvdr")
        qrl = result.mean_db(v, "quasi-rls")
        if not (opt >= cop - 1e-9 and cop > smv and cop > qrl):
            bad.append((v, opt, cop, smv, qrl))
    return bad


def test_criterion_1_snr_sweep_ordering(reference_sweeps):
    cfg = REFERENCE_SWEEPS["snr"]
    result, elapsed, _ = reference_sweeps["snr"]
    bad = _ordering_ok(result, cfg.snr_db_grid)
    ok = not bad and elapsed < 300.0
    _report(1, ok,
            "SNR sweep, 1000 trials x 5 points in %.0f s; ordering "
            "optimal >= copra > sample-mvdr, copra > quasi-rls %s"
            % (elapsed, "holds at every point" if not bad
               else "violated at %s" % bad))


def test_criterion_2_snapshot_sweep_ordering(reference_sweeps):
    cfg = REFERENCE_SWEEPS["snapshots"]
    result = reference_sweeps["snapshots"][0]
    points = [float(v) for v in cfg.snapshot_grid]
    bad = _ordering_ok(result, points)
    gap_bad = []
    for v in points:
        opt = result.mean_db(v, "optimal")
        if opt - result.mean_db(v, "copra") >= opt - result.mean_db(v, "sample-mvdr"):
            gap_bad.append(v)
    ok = not bad and not gap_bad
    _report(2, ok,
            "snapshot sweep 10..100 at SNR 20 dB; ordering %s, copra gap to "
            "optimal smaller than sample-mvdr gap %s"
            % ("holds" if not bad else "violated at %s" % bad,
               "everywhere" if not gap_bad else "violated at %s" % gap_bad))


def _solve_protocol_batch(n_scenarios, master_seed):
    """b- and z-side solves over the default Monte-Carlo protocol."""
    cfg = ExperimentConfig()
    out = []
    for i in range(n_scenarios):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, i]))
        sc = arraysim.draw_scenario(rng)
        snaps = arraysim.synthesize_snapshots(sc, cfg.n_snapshots, rng)
        es = hermitian_evd(arraysim.sample_covariance(snaps))
        split = secular.split_eigenvalues(es, cfg.rho)
        w_b = np.abs(es.u.conj().T @ sc.a_presumed) ** 2
        rep_b = secular.solve_secular_weighted(split, w_b)
        rep_z = secular.solve_secular_weighted(split, es.eigenvalues.copy())
        out.append((split, w_b, rep_b, rep_z))
    return out


def test_criterion_3_solver_vs_grid_oracle():
    n = 1000
    batch = _solve_protocol_batch(n, SEED)
    worst_rel = 0.0
    mismatches = residual_bad = 0
    solves = [(split, np.asarray(weights, dtype=float), rep)
              for split, w_b, rep_b, rep_z in batch
              for weights, rep in ((w_b, rep_b), (split.es.eigenvalues, rep_z))
              if rep.converged]
    roots = grid_scan_roots([(split, weights) for split, weights, _ in solves])
    for (split, weights, rep), root in zip(solves, roots):
        if root is None:
            mismatches += 1
            continue
        rel = abs(rep.gamma - root) / root
        worst_rel = max(worst_rel, rel)
        if rel > 1e-6:
            mismatches += 1
        scale = secular_scale(rep.gamma, split, weights)
        if abs(secular.secular_function_weighted(rep.gamma, split, weights)) > 1e-6 * scale:
            residual_bad += 1
    rate_b = sum(r.fallback_used for _, _, r, _ in batch) / n
    rate_z = sum(r.fallback_used for _, _, _, r in batch) / n

    reproducible = True
    if max(rate_b, rate_z) >= 0.10:
        again = _solve_protocol_batch(n, SEED)
        reproducible = all(
            a[2].fallback_used == b[2].fallback_used
            and a[3].fallback_used == b[3].fallback_used
            and a[2].gamma == b[2].gamma and a[3].gamma == b[3].gamma
            for a, b in zip(batch, again))

    ok = (mismatches == 0 and residual_bad == 0 and rate_b < 0.10
          and reproducible)
    _report(3, ok,
            "1000 protocol scenarios: converged roots match 1e6-point grid "
            "oracle (worst rel err %.2e, %d mismatches, %d residual "
            "violations); fallback rate b=%.1f%% z=%.1f%%%s"
            % (worst_rel, mismatches, residual_bad, 100 * rate_b, 100 * rate_z,
               "" if max(rate_b, rate_z) < 0.10 else
               (", bit-identical on re-run" if reproducible
                else ", NOT reproducible")))


def test_criterion_4_degenerate_algebra():
    rng = np.random.default_rng(SEED)
    # isotropic spectrum: every eigenvalue equal, n2 = 0, G identically zero
    es = hermitian_evd(2.5 * np.eye(6))
    split = secular.split_eigenvalues(es, 0.1)
    weights = rng.uniform(0.1, 3.0, 6)
    iso_worst = 0.0
    for gamma in rng.uniform(1e-3, 1e3, 100):
        val = secular.secular_function_weighted(gamma, split, weights)
        scale = secular_scale(gamma, split, weights)
        iso_worst = max(iso_worst, abs(val) / scale)
    iso_ok = split.n2 == 0 and iso_worst <= 1e-12

    # closed form: eigenvalues (2, 0), unit weights -> G = -8 / (g^2 (2+g)^2)
    es2 = hermitian_evd(np.diag([2.0, 0.0]))
    split2 = secular.split_eigenvalues(es2, 0.1)
    closed_worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        got = secular.secular_function_weighted(gamma, split2, np.ones(2))
        want = -8.0 / (gamma**2 * (2.0 + gamma) ** 2)
        closed_worst = max(closed_worst, abs(got - want))
    closed_ok = closed_worst <= 1e-12

    _report(4, iso_ok and closed_ok,
            "isotropic G = 0 to %.1e relative over 100 gammas (n2=%d); "
            "rank-one closed form max abs err %.1e"
            % (iso_worst, split.n2, closed_worst))


def test_criterion_5_gradient_oracle():
    rng = np.random.default_rng(SEED)
    n = 8
    worst = 0.0
    for _ in range(100):
        es = hermitian_evd(random_psd(rng, n))
        r = random_complex_vector(rng, n)
        x = random_complex_vector(rng, n)
        bound = rng.uniform(0.1, 2.0)
        grad = worst_case_gradient(x, r, es, bound)
        h = 1e-6
        fd = np.zeros(n, dtype=complex)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[j] = (worst_case_cost(x + e, r, es, bound)
                     - worst_case_cost(x - e, r, es, bound)) / (2 * h)
            fd[j] += 1j * (worst_case_cost(x + 1j * e, r, es, bound)
                           - worst_case_cost(x - 1j * e, r, es, bound)) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    fd_ok = worst < 1e-5

    # stationarity: the regularized solution with the induced bound is a
    # stationary point of the robust cost
    stat_worst = 0.0
    for _ in range(20):
        es = hermitian_evd(random_psd(rng, n))
        r = random_complex_vector(rng, n)
        gamma = 0.3 * float(es.eigenvalues.mean())
        x_hat = rls_estimate(es, r, gamma)
        resid = r - es.u @ (np.sqrt(es.eigenvalues) * (es.u.conj().T @ x_hat))
        bound = gamma * np.linalg.norm(x_hat) / np.linalg.norm(resid)
        g = worst_case_gradient(x_hat, r, es, bound)
        stat_worst = max(stat_worst, np.linalg.norm(g) / np.linalg.norm(r))
    stat_ok = stat_worst < 1e-8

    _report(5, fd_ok and stat_ok,
            "gradient vs central differences worst rel err %.2e over 100 "
            "points; stationarity norm %.2e of ||r|| at the regularized "
            "solution" % (worst, stat_worst))


def test_criterion_6_mse_oracle():
    rng = np.random.default_rng(SEED)
    n = 10
    es = hermitian_evd(random_psd(rng, n))
    c_xx = random_psd(rng, n)
    noise_power = 0.5
    gamma = 0.4
    sqrt_a = es.u @ (np.diag(np.sqrt(es.eigenvalues))) @ es.u.conj().T
    cx_half = np.linalg.cholesky(c_xx + 1e-12 * np.eye(n))

    draws = 10**4
    g = (rng.standard_normal((n, draws)) + 1j * rng.standard_normal((n, draws))) / np.sqrt(2)
    x = cx_half @ g
    v = np.sqrt(noise_power / 2) * (rng.standard_normal((n, draws))
                                    + 1j * rng.standard_normal((n, draws)))
    r = sqrt_a @ x + v
    filt = np.sqrt(es.eigenvalues) / (es.eigenvalues + gamma)
    x_hat = es.u @ (filt[:, None] * (es.u.conj().T @ r))
    mc_mse = float(np.mean(np.sum(np.abs(x_hat - x) ** 2, axis=0)))
    pred = rls_mse(gamma, es, c_xx, noise_power)
    mse_rel = abs(mc_mse - pred) / pred
    mse_ok = mse_rel < 0.02

    # isotropic signal covariance: the closed-form gamma is the exact minimizer
    sigma_x_sq = 1.7
    gamma_star = gamma_mse_approx(n * sigma_x_sq, noise_power, n)
    iso_exact = gamma_star == noise_power / sigma_x_sq
    grid = np.geomspace(1e-4, 1e2, 10**4)
    vals = [rls_mse(gv, es, sigma_x_sq * np.eye(n), noise_power)
            for gv in grid]
    k = int(np.argmin(vals))
    step = grid[1] / grid[0]
    grid_ok = grid[k] / step <= gamma_star <= grid[k] * step
    _report(6, mse_ok and iso_exact and grid_ok,
            "predicted MSE within %.2f%% of 1e4-draw Monte Carlo; isotropic "
            "closed-form gamma exact and within one step of the 1e4-point "
            "grid minimum" % (100 * mse_rel))


def test_criterion_7_reduction_to_mvdr():
    rng = np.random.default_rng(SEED)
    sc = arraysim.draw_scenario(rng)
    snaps = arraysim.synthesize_snapshots(sc, 10**4, rng)
    es = hermitian_evd(arraysim.sample_covariance(snaps))
    w_copra = beamformers.copra_weights(es, 0.0, 0.0, sc.a_presumed).w
    w_mvdr = beamformers.mvdr_weights(es, sc.a_presumed).w
    rel = np.linalg.norm(w_copra - w_mvdr) / np.linalg.norm(w_mvdr)
    _report(7, rel < 1e-8,
            "zero-regularization weights match plain minimum-variance weights "
            "to %.2e relative" % rel)


def test_criterion_8_kernel_suite():
    rng = np.random.default_rng(SEED)
    recon_worst = ortho_worst = 0.0
    for _ in range(1000):
        a = random_psd(rng, 10)
        es = hermitian_evd(a)
        recon_worst = max(recon_worst,
                          np.linalg.norm(reconstruct(es) - a) / np.linalg.norm(a))
        ortho_worst = max(ortho_worst,
                          np.linalg.norm(es.u.conj().T @ es.u - np.eye(10)))
    evd_ok = recon_worst < 1e-10 and ortho_worst < 1e-10

    distort_worst = 0.0
    sinr_worst = 0.0
    from copra_beam.harness import output_sinr
    for _ in range(50):
        sc = arraysim.draw_scenario(rng)
        snaps = arraysim.synthesize_snapshots(sc, 100, rng)
        es = hermitian_evd(arraysim.sample_covariance(snaps))
        for w in (beamformers.mvdr_weights(es, sc.a_presumed),
                  beamformers.optimal_weights(sc)):
            a_used = sc.a_presumed if w.method == "sample-mvdr" else sc.a_true
            distort_worst = max(distort_worst,
                                abs(w.w.conj() @ a_used - 1.0))
            base = output_sinr(w, sc)
            for c in (3.0, -0.5 + 2j):
                sinr_worst = max(sinr_worst,
                                 abs(output_sinr(c * w.w, sc) - base) / base)
    w_ok = distort_worst < 1e-10 and sinr_worst < 1e-12

    _report(8, evd_ok and w_ok,
            "1000 eigendecompositions: reconstruction %.1e, orthonormality "
            "%.1e; distortionless constraint %.1e; SINR scale invariance "
            "%.1e" % (recon_worst, ortho_worst, distort_worst, sinr_worst))


def test_criterion_9_determinism(tmp_path):
    cfg = {"trials": 64, "n_snapshots": 20, "snr_db_grid": [0.0, 20.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        rc = cli_main(["sweep", "--config", str(cfg_path), "--seed", "7",
                       "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        outputs.append((out / "sweep.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(9, ok,
            "sweep --seed 7 CSV byte-identical across repeat runs and worker "
            "counts 1 vs 8")
