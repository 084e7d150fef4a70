"""Seeded Monte-Carlo experiment engine and the output-SINR metric.

Each trial derives an independent random substream from (master seed, trial
index) via numpy's SeedSequence, and trials run in blocks as the lanes of
one array program whose lanes do not see each other, so aggregate results
are bit-identical regardless of execution order, block split, point set or
worker count. A sweep's unit of work is one block of trials over every
distinct point, of either sweep kind, and one function, _run_points, runs
it from the sweep's config and its (snr_db, n_snapshots) points. Per trial
run its generator and draws, once per sweep; per block the steering
vectors, the interference-plus-noise covariances and, from them, the
clairvoyant weights, which do not depend on the SOI power. Per point run
the snapshots, summed at its SOI power from a prefix of the draws, and
their sample covariances; then the snapshots are dropped. One
eigendecomposition of the stack of every point's sample covariances serves
every method: the split, both secular solves, the quasi selector, every
method's weights and the SINR run once per block over that stack, into
per-lane columns.
run_trials, the one-point case, alone makes TrialRecords of them. All
methods see the same scenario and noise realizations, within a point and
across points (paired comparison).
"""

import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import arraysim, beamformers, secular
from .beamformers import SingularCovarianceError
from .config import ExperimentConfig
from .linalg import BLOCK, hermitian_evd

__all__ = ["TrialRecord", "PointStats", "SweepResult", "output_sinr",
           "run_trials", "run_trial", "run_sweep"]


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial SINR for every enabled method, plus solver diagnostics.

    n1/n2 is copra's eigenvalue split, None when copra did not split.
    """

    trial_index: int
    sinr: dict            # method -> linear SINR, or None on failure
    failures: dict        # method -> reason string, for missing values
    n1: int
    n2: int
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


def _sinr_lanes(w, c_in, a_true, soi_power):
    """Output SINR of (lanes, methods, n) weights, against each lane's truth.

    The lanes are points x block, point-major: c_in and a_true hold the
    block's interference-plus-noise covariances and true steering vectors,
    which every point shares, and soi_power each lane's SOI power. Every
    (lane, method) row takes its own dot products, so it gets the bits of a
    single weight vector's SINR; an all-zero row gives nan.
    """
    # (points, block, methods, n), sized from c_in, not -1: with no methods w is empty
    w = w.reshape(len(w) // len(c_in), len(c_in), *w.shape[1:])
    wh = w.conj()[..., None, :]
    num = np.abs((wh @ a_true[:, None, :, None])[..., 0, 0]) ** 2
    num = soi_power[:, None] * num.reshape(len(soi_power), -1)
    den = np.real(wh @ c_in[:, None] @ w[..., None]).reshape(num.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def output_sinr(w, scenario):
    """Output SINR of a weight vector against the true signal direction.

    soi_power * |w^H a_true|^2 / (w^H C_interference+noise w), linear scale.
    Invariant under any nonzero complex scaling of w.
    """
    wv = w.w if hasattr(w, "w") else np.asarray(w, dtype=complex)
    if not np.any(wv):
        raise ValueError("weight vector is zero")
    sl = scenario[None]
    c_in = arraysim.interference_noise_lanes(sl)
    return float(_sinr_lanes(wv[None, None], c_in, sl.a_true, sl.soi_power)[0, 0])


def _trial_rng(master_seed, trial_index):
    # SeedSequence mixes (seed, index) into a stable, order-independent stream
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial_index)]))


def _draw_block(cfg, indices, master_seed, n_s):
    """The Scenario of a block of trials at cfg's SNR and each trial's
    Gaussian draws for n_s snapshots, each lane from its own trial's substream."""
    return arraysim.draw_block(
        [_trial_rng(master_seed, i) for i in indices], n_s,
        geometry=arraysim.ArrayGeometry(cfg.n_elements, cfg.spacing_wavelengths),
        n_interferers=cfg.n_interferers, snr_db=cfg.snr_db, inr_db=cfg.inr_db,
        soi_error_bound_deg=cfg.soi_error_bound_deg, doa_guard_deg=cfg.doa_guard_deg)


def _run_points(cfg, points, indices, master_seed):
    """(the block's Scenario, each point's columns) of one block of trials
    at the given (snr_db, n_snapshots) points of cfg.

    Each trial is drawn once, for the largest snapshot count; the steering
    vectors, the interference-plus-noise covariances c_in and, from them,
    the clairvoyant weights are built once. Each distinct point synthesizes
    its snapshots on its own, keeps their sample covariances and drops them
    before the next point's are made (the per-snapshot-median policy keeps
    them). Every later stage runs once over the stack of every distinct
    point's lanes, point-major, from one eigendecomposition of its sample
    covariances, which flags a failed lane in es.errors; a repeated point
    gets its first occurrence's columns, so a point's columns are those it
    gets alone. Each method runs its kernel over the whole stack, which
    reports failures per lane, so a lane that fails fails in its row only. A
    point's columns are a dict of per-lane arrays: (lanes, methods) sinr,
    NaN where a method failed, failures, each message or None, and fallback
    (copra on either side, sample MVDR loaded); copra's n1 (0 where it did
    not split), gamma_b, gamma_z, fallback_b and fallback_z; and
    mvdr_loaded.
    """
    keys = list(dict.fromkeys(points))
    sl, z = _draw_block(cfg, indices, master_seed, max(n_s for _, n_s in keys))
    c_in = arraysim.interference_noise_lanes(sl)
    keep = "copra" in cfg.methods and cfg.gamma_z_policy == "per-snapshot-median"
    cov, snapshots = [], []
    for snr_db, n_s in keys:
        y = arraysim.synthesize_block(sl.at_snr(snr_db), z, n_s)
        cov.append(arraysim.sample_covariance(arraysim.SnapshotSet(y)))
        if keep:
            snapshots += list(y)
        del y  # before the next point's are made
    es = hermitian_evd(np.concatenate(cov))
    snapshot_weights = secular.per_snapshot_weights(es, snapshots) if keep else None
    block = len(indices)
    lanes = len(keys) * block
    a = np.tile(sl.a_presumed, (len(keys), 1))
    weights = np.zeros((lanes, len(cfg.methods), a.shape[1]), dtype=complex)
    failures = np.full((lanes, len(cfg.methods)), None, dtype=object)
    fallback = np.zeros((lanes, len(cfg.methods)), dtype=bool)
    n1 = np.zeros(lanes, dtype=int)
    gamma_b, gamma_z = np.full((2, lanes), np.nan)
    fallback_b, fallback_z, mvdr_loaded = np.zeros((3, lanes), dtype=bool)

    for m, method in enumerate(cfg.methods):
        if method == "sample-mvdr":
            w, errors = beamformers.mvdr_lanes(es, a)
            mvdr_loaded = np.array([isinstance(e, SingularCovarianceError) for e in errors])
            if mvdr_loaded.any():
                # minimal loading keeps the baseline plottable at small n_s;
                # adding 0 leaves every other lane's eigenvalues, and bits, as they are
                loading = 1e-8 * es.eigenvalues.sum(axis=-1) / cfg.n_elements
                w, errors = beamformers.loaded_mvdr_lanes(es, a, np.where(mvdr_loaded, loading, 0))
            fallback[:, m] = mvdr_loaded
        elif method == "diagonal-loading":
            loading = cfg.diagonal_loading * np.tile(sl.noise_power, len(keys))
            w, errors = beamformers.loaded_mvdr_lanes(es, a, loading)
        elif method == "copra":
            n1, report_b, report_z = secular.copra_gammas_lanes(
                es, a, cfg.rho, snapshot_weights, snapshot_policy=cfg.gamma_z_policy)
            gamma_b, gamma_z = report_b.gamma, report_z.gamma
            fallback_b, fallback_z = report_b.fallback_used, report_z.fallback_used
            w, errors = beamformers.copra_lanes(es, gamma_b, gamma_z, a)
            fallback[:, m] = fallback_b | fallback_z
        elif method == "quasi-rls":
            # the snapshot side's powers sum_t |(U^H y)_it|^2 are n_s * lambda_i
            q, n_s = cfg.quasi_grid, np.repeat([k for _, k in keys], block)
            (gb, errors_b), (gz, errors_z) = beamformers.quasi_lanes(
                es, (beamformers.mode_powers(es, a), n_s[:, None] * es.eigenvalues),
                q.points, q.lo_factor, q.hi_factor)
            w, errors = beamformers.copra_lanes(es, gb, gz, a)
            errors = [eb or ez or e for eb, ez, e in zip(errors_b, errors_z, errors)]
        else:  # "optimal"; the config refuses any other method
            w, errors = beamformers.optimal_lanes(c_in, sl.a_true)
            w, errors = np.tile(w, (len(keys), 1)), errors * len(keys)
        weights[:, m] = w
        failures[:, m] = [None if e is None else str(e) for e in errors]

    soi_power = np.concatenate([sl.at_snr(snr_db).soi_power for snr_db, _ in keys])
    sinr = _sinr_lanes(weights, c_in, sl.a_true, soi_power)
    # a method's own error first, then a zero weight vector, then a SINR
    # that is not finite
    ok = np.equal(failures, None)
    zero = ok & ~weights.any(axis=-1)
    failures[zero] = "weight vector is zero"
    failures[ok & ~zero & ~np.isfinite(sinr)] = "SINR is not finite"
    sinr[~np.equal(failures, None)] = np.nan
    columns = dict(sinr=sinr, failures=failures, fallback=fallback, n1=n1, gamma_b=gamma_b,
                   gamma_z=gamma_z, fallback_b=fallback_b, fallback_z=fallback_z,
                   mvdr_loaded=mvdr_loaded)
    by_point = {key: {name: col[j * block:(j + 1) * block] for name, col in columns.items()}
                for j, key in enumerate(keys)}
    return sl, [by_point[point] for point in points]


def run_trials(cfg, indices, master_seed):
    """Run the Monte-Carlo trials of the given indices, in that order.

    The one-point case of a sweep: the trials run in blocks of BLOCK lanes,
    each drawn from its own substream, and only here do a block's columns
    become records. A trial's record does not depend on the other trials of
    its block, so it is the same for any index set, order or block split.
    Per-method failures, the eigensolver's among them, are recorded per lane
    as missing values; nothing raises, so long sweeps always complete.
    """
    indices = [int(i) for i in indices]
    records = []
    for start in range(0, len(indices), BLOCK):
        block = indices[start:start + BLOCK]
        sl, (columns,) = _run_points(cfg, [(cfg.snr_db, cfg.n_snapshots)], block,
                                     master_seed)
        sinr, failures, n1, gamma_b, gamma_z, fallback_b, fallback_z, loaded = (
            columns[name].tolist() for name in ("sinr", "failures", "n1", "gamma_b", "gamma_z",
                                                "fallback_b", "fallback_z", "mvdr_loaded"))
        soi_doa, soi_error = sl.soi_doa_deg.tolist(), sl.soi_error_deg.tolist()
        interferer_doas = sl.interferer_doas_deg.tolist()
        for i, index in enumerate(block):
            failed = {m: f for m, f in zip(cfg.methods, failures[i]) if f is not None}
            records.append(TrialRecord(
                trial_index=index, failures=failed,
                sinr={m: None if m in failed else v for m, v in zip(cfg.methods, sinr[i])},
                n1=n1[i] or None, n2=cfg.n_elements - n1[i] if n1[i] else None,
                gamma_b=gamma_b[i], gamma_z=gamma_z[i], fallback_b=fallback_b[i],
                fallback_z=fallback_z[i], mvdr_loaded=loaded[i], soi_doa_deg=soi_doa[i],
                soi_error_deg=soi_error[i], interferer_doas_deg=tuple(interferer_doas[i])))
    return records


def run_trial(cfg, trial_index, master_seed):
    """Run one Monte-Carlo trial: the one-lane case of run_trials."""
    return run_trials(cfg, [trial_index], master_seed)[0]


def _aggregate(sinr, fallback, method, value):
    """One sweep row from a method's SINR and fallback columns at one point."""
    vals = sinr[~np.isnan(sinr)]
    fallback_rate = float(np.mean(fallback))
    n = len(vals)
    if n == 0:
        return PointStats(value, method, float("nan"), float("nan"), 0, fallback_rate)
    mean_lin = vals.mean()
    mean_db = float(10.0 * np.log10(mean_lin))
    se_lin = vals.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    stderr_db = float(10.0 / np.log(10.0) * se_lin / mean_lin)
    return PointStats(value, method, mean_db, stderr_db, n, fallback_rate)


def _sweep_block(cfg, points, indices, master_seed):
    """One sweep job: a block of trials at every point, as the (sinr,
    fallback) columns of each point."""
    return [(columns["sinr"], columns["fallback"])
            for columns in _run_points(cfg, points, indices, master_seed)[1]]


def run_sweep(cfg, sweep_kind, master_seed=None):
    """Sweep SNR or snapshot count; aggregate linear-mean SINR in dB per point.

    The same trial substreams are reused across methods within a point, and
    across points, so curves are paired comparisons on identical
    realizations. A job is one block of trials over every point: each trial
    is drawn once per sweep, not once per point.
    """
    values = {"snr": cfg.snr_db_grid, "snapshots": cfg.snapshot_grid}.get(sweep_kind)
    if values is None:
        raise ValueError("sweep kind must be 'snr' or 'snapshots'")
    if master_seed is None:
        master_seed = cfg.seed

    points = [(float(v), cfg.n_snapshots) if sweep_kind == "snr" else (cfg.snr_db, int(v))
              for v in values]
    blocks = [range(s, min(s + BLOCK, cfg.trials)) for s in range(0, cfg.trials, BLOCK)]
    # one pool for the sweep, fed whole blocks; map keeps the block order,
    # whatever the worker count, and a finished block leaves only its columns
    parallel = cfg.workers > 1 and len(blocks) > 1
    if parallel:
        # imported here: only a pool sweep pays for the module's import
        from concurrent.futures import ProcessPoolExecutor
    # no more workers than jobs or CPUs: the pool forks every worker at the first submit
    with (ProcessPoolExecutor(min(cfg.workers, len(blocks), os.cpu_count() or 1)) if parallel
          else nullcontext()) as pool:
        done = (pool.map if pool else map)(
            _sweep_block, [cfg] * len(blocks), [points] * len(blocks), blocks,
            [master_seed] * len(blocks))
        # per point, the (sinr, fallback) columns of every block, stacked in block order
        columns = [[np.concatenate(c) for c in zip(*point)] for point in zip(*done)]
    rows = [_aggregate(sinr[:, m], fallback[:, m], method, float(value))
            for value, (sinr, fallback) in zip(values, columns)
            for m, method in enumerate(cfg.methods)]

    return SweepResult(
        sweep_variable=sweep_kind,
        rows=tuple(rows),
        trials=cfg.trials,
        seed=int(master_seed),
        config=cfg,
    )
