"""Seeded Monte-Carlo experiment engine and the output-SINR metric.

Each trial derives an independent random substream from (master seed, trial
index) via numpy's SeedSequence, and trials run in blocks as the lanes of
one array program whose lanes do not see each other, so aggregate results
are bit-identical regardless of execution order, block split or worker
count. Within a sweep point all methods see the same scenario and noise
realizations (paired comparison).
"""

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import arraysim, beamformers, secular
from .beamformers import SingularCovarianceError
from .config import ExperimentConfig
from .linalg import flag_lanes, hermitian_evd

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

    c_in holds each lane's interference-plus-noise covariance. Every (lane,
    method) row takes its own dot products, so it gets the bits of a single
    weight vector's SINR; an all-zero row gives nan.
    """
    wh = w.conj()[:, :, None, :]
    num = soi_power[:, None] * np.abs((wh @ a_true[:, None, :, None])[..., 0, 0]) ** 2
    den = np.real((wh @ c_in[:, None] @ w[..., None])[..., 0, 0])
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
    c_in = arraysim.interference_noise_lanes([scenario])
    return float(_sinr_lanes(wv[None, None], c_in, scenario.a_true[None],
                             np.array([scenario.soi_power]))[0, 0])


# lanes per block: enough to spread numpy's per-call cost, few enough that the
# (lanes, 200, n) scan arrays keep a sweep's peak memory flat
BLOCK = 10


def _trial_rng(master_seed, trial_index):
    # SeedSequence mixes (seed, index) into a stable, order-independent stream
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial_index)]))


def _draw(cfg, trial_index, master_seed):
    """The scenario and snapshots of one trial, from its own substream."""
    rng = _trial_rng(master_seed, trial_index)
    geometry = arraysim.ArrayGeometry(cfg.n_elements, cfg.spacing_wavelengths)
    scenario = arraysim.draw_scenario(
        rng, geometry=geometry, n_interferers=cfg.n_interferers,
        snr_db=cfg.snr_db, inr_db=cfg.inr_db,
        soi_error_bound_deg=cfg.soi_error_bound_deg,
        doa_guard_deg=cfg.doa_guard_deg)
    snapshots = arraysim.synthesize_snapshots(scenario, cfg.n_snapshots, rng)
    return int(trial_index), scenario, snapshots.snapshots


def run_trials(cfg, indices, master_seed):
    """Run the Monte-Carlo trials of the given indices, in that order.

    Each trial draws its scenario and snapshots from its own substream; the
    trials then run in blocks of BLOCK lanes, each stage over a whole block.
    A trial's record does not depend on the other trials of its block, so it
    is the same for any index set, order or block split. Per-method failures
    are recorded as missing values; nothing raises, so long sweeps always
    complete.
    """
    indices = list(indices)
    records = []
    for start in range(0, len(indices), BLOCK):
        draws = [_draw(cfg, i, master_seed) for i in indices[start:start + BLOCK]]
        try:
            records += _run_block(cfg, draws)
        except (ValueError, np.linalg.LinAlgError):
            if len(draws) == 1:
                raise
            # a stacked eigh fails as a whole when one lane fails: redo the
            # block lane by lane, so that only that lane's method fails
            for draw in draws:
                records += _run_block(cfg, [draw])
    return records


def run_trial(cfg, trial_index, master_seed):
    """Run one Monte-Carlo trial: the one-lane case of run_trials."""
    return run_trials(cfg, [trial_index], master_seed)[0]


def _run_block(cfg, draws):
    """The records of a block of drawn trials: decompose once, evaluate all methods."""
    lanes = len(draws)
    scenarios = [sc for _, sc, _ in draws]
    y = np.array([snaps for _, _, snaps in draws])
    cov = arraysim.sample_covariance(arraysim.SnapshotSet(y))
    es = hermitian_evd(cov)
    a = np.array([sc.a_presumed for sc in scenarios])
    c_in = arraysim.interference_noise_lanes(scenarios)
    a_true = np.array([sc.a_true for sc in scenarios])
    soi_power = np.array([sc.soi_power for sc in scenarios])

    weights, method_errors = [], []
    copra = [dict(n1=None, n2=None, gamma_b=float("nan"), gamma_z=float("nan"),
                  fallback_b=False, fallback_z=False) for _ in draws]
    mvdr_loaded = np.zeros(lanes, dtype=bool)

    for method in cfg.methods:
        try:
            if method == "sample-mvdr":
                w, errors = beamformers.mvdr_lanes(es, a)
                mvdr_loaded = np.array([isinstance(e, SingularCovarianceError)
                                        for e in errors])
                if mvdr_loaded.any():
                    # minimal loading keeps the baseline plottable at small n_s
                    idx = np.flatnonzero(mvdr_loaded)
                    loading = 1e-8 * es.eigenvalues[idx].sum(axis=-1) / cfg.n_elements
                    w[idx], loaded_errors = beamformers.loaded_mvdr_lanes(
                        cov[idx], a[idx], loading)
                    for i, e in zip(idx, loaded_errors):
                        errors[i] = e
            elif method == "diagonal-loading":
                loading = np.array([cfg.diagonal_loading * sc.noise_power
                                    for sc in scenarios])
                w, errors = beamformers.loaded_mvdr_lanes(cov, a, loading)
            elif method == "copra":
                w = np.zeros_like(a)
                n1, groups = secular.split_lanes(es, cfg.rho)
                errors = flag_lanes([None] * lanes, n1 == 0, lambda i: ValueError(
                    "cannot split an all-zero spectrum"))
                for idx, split in groups:
                    diags = secular.copra_gammas_lanes(
                        split, a[idx], y[idx], snapshot_policy=cfg.gamma_z_policy)
                    w[idx], split_errors = beamformers.copra_lanes(
                        split.es, np.array([d.gamma_b for d in diags]),
                        np.array([d.gamma_z for d in diags]), a[idx])
                    for i, d, e in zip(idx, diags, split_errors):
                        copra[i] = dict(n1=split.n1, n2=split.n2, gamma_b=d.gamma_b,
                                        gamma_z=d.gamma_z,
                                        fallback_b=d.report_b.fallback_used,
                                        fallback_z=d.report_z.fallback_used)
                        errors[i] = e
            elif method == "quasi-rls":
                q = cfg.quasi_grid
                (gb, errors_b), (gz, errors_z) = beamformers.quasi_lanes(
                    es, (a, y), q.points, q.lo_factor, q.hi_factor)
                w, errors = beamformers.copra_lanes(es, gb, gz, a)
                errors = [eb or ez or e for eb, ez, e in zip(errors_b, errors_z, errors)]
            elif method == "optimal":
                w, errors = beamformers.optimal_lanes(scenarios, c_in)
            else:
                raise ValueError("unknown method %r" % method)
        except (ValueError, np.linalg.LinAlgError) as exc:
            if lanes > 1:
                raise
            w, errors = np.zeros_like(a), [exc]
        weights.append(w)
        method_errors.append(errors)

    w = np.stack(weights, axis=1) if weights else np.empty((lanes, 0, a.shape[1]), complex)
    values = _sinr_lanes(w, c_in, a_true, soi_power).tolist()
    zero = (~w.any(axis=-1)).tolist()
    sinr = [{} for _ in draws]
    failures = [{} for _ in draws]
    for m, (method, errors) in enumerate(zip(cfg.methods, method_errors)):
        for i, e in enumerate(errors):
            if e is None and zero[i][m]:
                e = ValueError("weight vector is zero")
            sinr[i][method] = None if e else values[i][m]
            if e:
                failures[i][method] = str(e)

    return [
        TrialRecord(
            trial_index=index,
            sinr=sinr[i],
            failures=failures[i],
            mvdr_loaded=bool(mvdr_loaded[i]),
            soi_doa_deg=sc.soi_doa_deg,
            soi_error_deg=sc.soi_error_deg,
            interferer_doas_deg=sc.interferer_doas_deg,
            **copra[i],
        )
        for i, (index, sc, _) in enumerate(draws)
    ]


def _fallback_rate(records, method):
    if method == "copra":
        return float(np.mean([r.fallback_b or r.fallback_z for r in records]))
    if method == "sample-mvdr":
        return float(np.mean([r.mvdr_loaded for r in records]))
    return 0.0


def _aggregate(records, method, value):
    vals = np.array([r.sinr[method] for r in records if r.sinr.get(method) is not None])
    n = len(vals)
    if n == 0:
        return PointStats(value, method, float("nan"), float("nan"), 0,
                          _fallback_rate(records, method))
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

    if sweep_kind == "snr":
        point_cfgs = [dataclasses.replace(cfg, snr_db=float(v)) for v in points]
    else:
        point_cfgs = [dataclasses.replace(cfg, n_snapshots=int(v)) for v in points]
    blocks = [range(s, min(s + BLOCK, cfg.trials)) for s in range(0, cfg.trials, BLOCK)]
    jobs = [(pcfg, block) for pcfg in point_cfgs for block in blocks]
    rows = []
    # one pool for all points, fed whole blocks; map keeps the job order,
    # whatever the worker count
    parallel = cfg.workers > 1 and len(jobs) > 1
    with (ProcessPoolExecutor(cfg.workers) if parallel else nullcontext()) as pool:
        done = (pool.map if pool else map)(
            run_trials, *zip(*jobs), [master_seed] * len(jobs))
        for value in points:
            records = [rec for _ in blocks for rec in next(done)]
            rows += [_aggregate(records, method, float(value)) for method in cfg.methods]

    return SweepResult(
        sweep_variable=sweep_kind,
        rows=tuple(rows),
        trials=cfg.trials,
        seed=int(master_seed),
        config=cfg,
    )
