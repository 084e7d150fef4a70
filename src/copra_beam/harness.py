"""Seeded Monte-Carlo experiment engine and the output-SINR metric.

Each trial derives an independent random substream from (master seed, trial
index) via numpy's SeedSequence, so aggregate results are bit-identical
regardless of execution order or worker count. Within a sweep point all
methods see the same scenario and noise realizations (paired comparison).
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import arraysim, beamformers, secular
from .beamformers import SingularCovarianceError
from .config import ExperimentConfig
from .linalg import hermitian_evd

__all__ = ["TrialRecord", "PointStats", "SweepResult", "output_sinr",
           "run_trial", "run_sweep"]


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial SINR for every enabled method, plus solver diagnostics."""

    trial_index: int
    sinr: dict            # method -> linear SINR, or None on failure
    failures: dict        # method -> reason string, for missing values
    gamma_b: float
    gamma_z: float
    fallback_b: bool
    fallback_z: bool
    mvdr_loaded: bool
    soi_doa_deg: float
    soi_error_deg: float
    interferer_doas_deg: tuple


@dataclass(frozen=True)
class PointStats:
    """Aggregated SINR statistics for one (sweep point, method) pair."""

    value: float
    method: str
    mean_sinr_db: float
    stderr_db: float
    trials: int
    fallback_rate: float


@dataclass(frozen=True)
class SweepResult:
    """All aggregated rows of one sweep, plus everything needed to re-run it."""

    sweep_variable: str
    rows: tuple
    trials: int
    seed: int
    config: ExperimentConfig

    def mean_db(self, value, method):
        for row in self.rows:
            if row.value == value and row.method == method:
                return row.mean_sinr_db
        raise KeyError((value, method))


def output_sinr(w, scenario):
    """Output SINR of a weight vector against the true signal direction.

    soi_power * |w^H a_true|^2 / (w^H C_interference+noise w), linear scale.
    Invariant under any nonzero complex scaling of w.
    """
    wv = w.w if hasattr(w, "w") else np.asarray(w, dtype=complex)
    if not np.any(wv):
        raise ValueError("weight vector is zero")
    c_in = arraysim.interference_noise_covariance(scenario)
    num = scenario.soi_power * np.abs(wv.conj() @ scenario.a_true) ** 2
    den = np.real(wv.conj() @ c_in @ wv)
    return float(num / den)


def _trial_rng(master_seed, trial_index):
    # SeedSequence mixes (seed, index) into a stable, order-independent stream
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial_index)]))


def run_trial(cfg, trial_index, master_seed):
    """Run one Monte-Carlo trial: draw, decompose once, evaluate all methods.

    Per-method failures are recorded as missing values; nothing raises, so
    long sweeps always complete.
    """
    rng = _trial_rng(master_seed, trial_index)
    geometry = arraysim.ArrayGeometry(cfg.n_elements, cfg.spacing_wavelengths)
    scenario = arraysim.draw_scenario(
        rng, geometry=geometry, n_interferers=cfg.n_interferers,
        snr_db=cfg.snr_db, inr_db=cfg.inr_db,
        soi_error_bound_deg=cfg.soi_error_bound_deg,
        doa_guard_deg=cfg.doa_guard_deg)
    snapshots = arraysim.synthesize_snapshots(scenario, cfg.n_snapshots, rng)
    cov = arraysim.sample_covariance(snapshots)
    es = hermitian_evd(cov)

    a = scenario.a_presumed
    sinr = {}
    failures = {}
    gamma_b = gamma_z = float("nan")
    fallback_b = fallback_z = False
    mvdr_loaded = False

    for method in cfg.methods:
        try:
            if method == "sample-mvdr":
                try:
                    w = beamformers.mvdr_weights(es, a)
                except SingularCovarianceError:
                    # minimal loading keeps the baseline plottable at small n_s
                    mvdr_loaded = True
                    loading = 1e-8 * es.eigenvalues.sum() / cfg.n_elements
                    w = beamformers.diagonal_loading_weights(cov, a, loading)
                    w = dataclasses.replace(w, method="sample-mvdr")
            elif method == "diagonal-loading":
                loading = cfg.diagonal_loading * scenario.noise_power
                w = beamformers.diagonal_loading_weights(cov, a, loading)
            elif method == "copra":
                split = secular.split_eigenvalues(es, cfg.rho)
                diag = secular.copra_gammas(
                    es, split, a, snapshots,
                    snapshot_policy=cfg.gamma_z_policy)
                gamma_b, gamma_z = diag.gamma_b, diag.gamma_z
                fallback_b = diag.report_b.fallback_used
                fallback_z = diag.report_z.fallback_used
                w = beamformers.copra_weights(es, gamma_b, gamma_z, a)
            elif method == "quasi-rls":
                q = cfg.quasi_grid
                gb = beamformers.quasi_optimal_gamma(
                    es, a, n_grid=q.points, lo_factor=q.lo_factor,
                    hi_factor=q.hi_factor)
                gz = beamformers.quasi_optimal_gamma(
                    es, snapshots.snapshots, n_grid=q.points,
                    lo_factor=q.lo_factor, hi_factor=q.hi_factor)
                w = beamformers.copra_weights(es, gb, gz, a)
                w = dataclasses.replace(w, method="quasi-rls")
            elif method == "optimal":
                w = beamformers.optimal_weights(scenario)
            else:
                raise ValueError("unknown method %r" % method)
            sinr[method] = output_sinr(w, scenario)
        except (ValueError, np.linalg.LinAlgError) as exc:
            sinr[method] = None
            failures[method] = str(exc)

    return TrialRecord(
        trial_index=trial_index,
        sinr=sinr,
        failures=failures,
        gamma_b=gamma_b,
        gamma_z=gamma_z,
        fallback_b=fallback_b,
        fallback_z=fallback_z,
        mvdr_loaded=mvdr_loaded,
        soi_doa_deg=scenario.soi_doa_deg,
        soi_error_deg=scenario.soi_error_deg,
        interferer_doas_deg=scenario.interferer_doas_deg,
    )


def _point_records(cfg, master_seed, pool):
    n = cfg.trials
    if pool is None:
        return [run_trial(cfg, i, master_seed) for i in range(n)]
    chunk = max(1, n // (4 * cfg.workers))
    return list(pool.map(run_trial, [cfg] * n, range(n), [master_seed] * n,
                         chunksize=chunk))


def _fallback_rate(records, method):
    if method == "copra":
        return float(np.mean([r.fallback_b or r.fallback_z for r in records]))
    if method == "sample-mvdr":
        return float(np.mean([r.mvdr_loaded for r in records]))
    return 0.0


def _aggregate(records, method, value, mean_domain):
    vals = np.array([r.sinr[method] for r in records if r.sinr.get(method) is not None])
    n = len(vals)
    if n == 0:
        return PointStats(value, method, float("nan"), float("nan"), 0,
                          _fallback_rate(records, method))
    if mean_domain == "db":
        db = 10.0 * np.log10(vals)
        mean_db = float(db.mean())
        stderr_db = float(db.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    else:
        mean_lin = vals.mean()
        mean_db = float(10.0 * np.log10(mean_lin))
        se_lin = vals.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
        stderr_db = float(10.0 / np.log(10.0) * se_lin / mean_lin)
    return PointStats(value, method, mean_db, stderr_db, n,
                      _fallback_rate(records, method))


def run_sweep(cfg, sweep_kind, master_seed=None):
    """Sweep SNR or snapshot count; aggregate linear-mean SINR in dB per point.

    The same trial substreams are reused across methods within a point, and
    across points, so curves are paired comparisons on identical realizations.
    """
    if sweep_kind == "snr":
        points = list(cfg.snr_db_grid)
    elif sweep_kind == "snapshots":
        points = [int(v) for v in cfg.snapshot_grid]
    else:
        raise ValueError("sweep kind must be 'snr' or 'snapshots'")
    if not points:
        raise ValueError("sweep grid is empty")
    if master_seed is None:
        master_seed = cfg.seed

    rows = []
    # one pool for all points; map keeps trial order, whatever the worker count
    parallel = cfg.workers > 1 and cfg.trials > 1
    with (ProcessPoolExecutor(cfg.workers) if parallel else nullcontext()) as pool:
        for value in points:
            if sweep_kind == "snr":
                point_cfg = dataclasses.replace(cfg, snr_db=float(value))
            else:
                point_cfg = dataclasses.replace(cfg, n_snapshots=int(value))
            records = _point_records(point_cfg, master_seed, pool)
            for method in cfg.methods:
                rows.append(_aggregate(records, method, float(value), cfg.mean_domain))

    return SweepResult(
        sweep_variable=sweep_kind,
        rows=tuple(rows),
        trials=cfg.trials,
        seed=int(master_seed),
        config=cfg,
    )
