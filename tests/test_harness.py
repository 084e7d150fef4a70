import dataclasses
import os

import numpy as np
import pytest

from copra_beam import arraysim, harness
from copra_beam.arraysim import draw_scenario, steering_vector
from copra_beam.config import ExperimentConfig
from copra_beam.harness import output_sinr, run_sweep, run_trial
from copra_beam.linalg import HermitianEigensystem


def _fast_cfg(**kwargs):
    defaults = dict(trials=3, n_snapshots=30,
                    snr_db_grid=(0.0, 10.0), snapshot_grid=(20, 40))
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestOutputSinr:
    def test_matched_weights_no_interference(self):
        rng = np.random.default_rng(1)
        sc = draw_scenario(rng, n_interferers=0, snr_db=0.0)
        assert output_sinr(sc.a_true, sc) == pytest.approx(10.0)

    def test_orthogonal_interferer_leaves_sinr(self):
        import dataclasses as dc
        rng = np.random.default_rng(2)
        sc = dc.replace(draw_scenario(rng, n_interferers=0, snr_db=0.0),
                        soi_doa_deg=0.0,
                        a_true=steering_vector(draw_scenario(
                            np.random.default_rng(2), n_interferers=0).geometry, 0.0))
        w = sc.a_true
        base = output_sinr(w, sc)
        # a half-wavelength 10-element array has nulls where the inter-element
        # phase step is a nonzero multiple of 2*pi/10: sin(doa) = 0.2 works
        null_doa = float(np.rad2deg(np.arcsin(0.2)))
        a_i = steering_vector(sc.geometry, null_doa)
        assert abs(w.conj() @ a_i) < 1e-9
        sc_i = dc.replace(sc, interferer_doas_deg=(null_doa,),
                          interferer_powers=(500.0,))
        assert output_sinr(w, sc_i) == pytest.approx(base, rel=1e-9)

    def test_invariant_under_weight_scaling(self):
        rng = np.random.default_rng(3)
        sc = draw_scenario(rng, snr_db=10.0)
        w = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        base = output_sinr(w, sc)
        for c in (2.0, -1.0, 0.3 + 1.4j):
            assert output_sinr(c * w, sc) == pytest.approx(base, rel=1e-12)

    def test_zero_weights_rejected(self):
        sc = draw_scenario(np.random.default_rng(4))
        with pytest.raises(ValueError):
            output_sinr(np.zeros(10), sc)


class TestRunTrial:
    def test_deterministic(self):
        cfg = _fast_cfg()
        a = run_trial(cfg, 5, 123)
        b = run_trial(cfg, 5, 123)
        assert a == b

    def test_different_indices_differ(self):
        cfg = _fast_cfg()
        a = run_trial(cfg, 0, 123)
        b = run_trial(cfg, 1, 123)
        assert a.soi_doa_deg != b.soi_doa_deg

    def test_all_methods_reported(self):
        cfg = _fast_cfg()
        rec = run_trial(cfg, 0, 7)
        assert set(rec.sinr) == set(cfg.methods)
        for method, value in rec.sinr.items():
            if value is not None:
                assert value >= 0 and np.isfinite(value)

    def test_optimal_dominates_all_methods(self):
        cfg = _fast_cfg(snr_db=10.0)
        for i in range(20):
            rec = run_trial(cfg, i, 99)
            opt = rec.sinr["optimal"]
            for method, value in rec.sinr.items():
                if value is not None:
                    assert value <= opt * (1 + 1e-9)

    def test_small_snapshot_count_survives(self):
        cfg = _fast_cfg(n_snapshots=5)  # rank-deficient sample covariance
        rec = run_trial(cfg, 0, 11)
        assert rec.mvdr_loaded
        assert rec.sinr["sample-mvdr"] is not None

    def test_split_recorded_only_for_copra(self):
        rec = run_trial(_fast_cfg(), 0, 7)
        assert rec.n1 >= 1 and rec.n1 + rec.n2 == 10
        rec = run_trial(_fast_cfg(methods=("optimal",)), 0, 7)
        assert (rec.n1, rec.n2) == (None, None)
        # without interferers every eigenvalue is significant: no truncation
        rec = run_trial(_fast_cfg(n_interferers=0), 0, 7)
        assert (rec.n1, rec.n2) == (10, 0)

    def test_wide_doa_guard_completes(self):
        cfg = _fast_cfg(trials=1, doa_guard_deg=89.0)
        rec = run_trial(cfg, 0, 1)
        assert all(v is not None for v in rec.sinr.values())
        for doa in rec.interferer_doas_deg:
            assert abs(doa - rec.soi_doa_deg) >= 89.0

    def test_zero_spectrum_fails_methods_not_trial(self, monkeypatch):
        # an all-zero spectrum cannot be split: copra is recorded as failed
        # and the trial still returns
        # the fake, like hermitian_evd, returns a stack for a stack
        def zero(c):
            return HermitianEigensystem(
                np.broadcast_to(np.eye(10, dtype=complex), c.shape).copy(),
                np.zeros(c.shape[:-1]))
        monkeypatch.setattr(harness, "hermitian_evd", zero)
        rec = run_trial(_fast_cfg(), 0, 1)
        assert rec.sinr["copra"] is None
        assert "all-zero spectrum" in rec.failures["copra"]
        assert "all-zero spectrum" in rec.failures["quasi-rls"]
        assert rec.sinr["optimal"] is not None

    def test_non_finite_sinr_is_a_failure(self, monkeypatch):
        # a NaN interference-plus-noise covariance makes every SINR NaN: each
        # is recorded as a failure, and no sweep row counts it as a trial
        real = arraysim.interference_noise_lanes
        monkeypatch.setattr(arraysim, "interference_noise_lanes",
                            lambda sl: np.full_like(real(sl), np.nan))
        cfg = _fast_cfg(methods=("sample-mvdr", "diagonal-loading", "copra", "quasi-rls"))
        rec = run_trial(cfg, 0, 1)
        assert rec.sinr == dict.fromkeys(cfg.methods)
        assert rec.failures == dict.fromkeys(cfg.methods, "SINR is not finite")
        for row in run_sweep(cfg, "snr", master_seed=1).rows:
            assert row.trials == 0 and np.isnan(row.mean_sinr_db)

    def test_zero_sinr_is_a_value_infinite_is_not(self, monkeypatch):
        real = harness._sinr_lanes

        def sinr(*args):
            values = real(*args)
            values[:, 0] = 0.0
            values[:, 1] = np.inf
            values[:, 2] = -np.inf
            return values

        monkeypatch.setattr(harness, "_sinr_lanes", sinr)
        cfg = _fast_cfg(methods=("sample-mvdr", "diagonal-loading", "quasi-rls", "optimal"))
        rec = run_trial(cfg, 0, 1)
        assert rec.sinr["sample-mvdr"] == 0.0
        assert rec.sinr["diagonal-loading"] is None and rec.sinr["quasi-rls"] is None
        assert rec.failures == {"diagonal-loading": "SINR is not finite",
                                "quasi-rls": "SINR is not finite"}
        assert rec.sinr["optimal"] > 0

    def test_zero_error_large_sample_mvdr_near_optimal(self):
        # with no look-direction error the sample beamformer is consistent:
        # at 1000 snapshots and low SNR it sits within ~0.5 dB of clairvoyant
        cfg = _fast_cfg(soi_error_bound_deg=0.0, n_snapshots=1000, snr_db=0.0)
        hits = 0
        trials = 50
        for i in range(trials):
            rec = run_trial(cfg, i, 2024)
            gap_db = 10 * np.log10(rec.sinr["optimal"] / rec.sinr["sample-mvdr"])
            if gap_db < 0.7:
                hits += 1
        assert hits >= 0.9 * trials


class TestRunSweep:
    def test_single_point_single_trial_matches_trial(self):
        cfg = _fast_cfg(trials=1, snr_db_grid=(10.0,))
        res = run_sweep(cfg, "snr", master_seed=5)
        rec = run_trial(dataclasses.replace(cfg, snr_db=10.0), 0, 5)
        for method in cfg.methods:
            assert res.mean_db(10.0, method) == pytest.approx(
                10 * np.log10(rec.sinr[method]))

    def test_deterministic(self):
        cfg = _fast_cfg()
        a = run_sweep(cfg, "snr", master_seed=3)
        b = run_sweep(cfg, "snr", master_seed=3)
        assert a.rows == b.rows

    def test_serial_and_parallel_agree(self):
        # two blocks of trials, so that the sweep goes through the pool
        cfg = _fast_cfg(trials=13)
        serial = run_sweep(cfg, "snapshots", master_seed=3)
        parallel = run_sweep(dataclasses.replace(cfg, workers=4),
                             "snapshots", master_seed=3)
        assert serial.rows == parallel.rows

    def test_pool_no_larger_than_its_jobs(self, monkeypatch):
        # the pool forks every worker at its first submit, so 4 configured
        # workers over 2 blocks must open a pool of 2
        import concurrent.futures
        sizes = []
        real = concurrent.futures.ProcessPoolExecutor

        class Recording(real):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        # the pool is capped at the CPU count too: more CPUs than jobs
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        cfg = _fast_cfg(trials=13)
        serial = run_sweep(cfg, "snapshots", master_seed=3)
        pooled = run_sweep(dataclasses.replace(cfg, workers=4), "snapshots", master_seed=3)
        assert sizes == [2]
        assert repr(pooled.rows) == repr(serial.rows)
        assert pooled.config.workers == 4

    def test_pool_no_larger_than_the_cpu_count(self, monkeypatch):
        # 64 workers over 13 blocks on 3 CPUs must open a pool of 3; the
        # fake pool maps in this process, so it starts no process
        import concurrent.futures
        sizes = []

        class InProcess:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cfg = _fast_cfg(trials=13 * harness.BLOCK)
        serial = run_sweep(cfg, "snapshots", master_seed=3)
        pooled = run_sweep(dataclasses.replace(cfg, workers=64), "snapshots", master_seed=3)
        assert sizes == [3]
        assert repr(pooled.rows) == repr(serial.rows)
        assert pooled.config.workers == 64

    def test_optimal_curve_monotone_in_snr(self):
        cfg = _fast_cfg(trials=20, snr_db_grid=(-10.0, 0.0, 10.0, 20.0))
        res = run_sweep(cfg, "snr", master_seed=17)
        opt = [res.mean_db(v, "optimal") for v in cfg.snr_db_grid]
        assert all(a < b for a, b in zip(opt, opt[1:]))

    def test_row_shape(self):
        cfg = _fast_cfg()
        res = run_sweep(cfg, "snapshots", master_seed=0)
        assert len(res.rows) == len(cfg.snapshot_grid) * len(cfg.methods)
        for row in res.rows:
            assert row.trials == cfg.trials

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(_fast_cfg(), "frequency")
