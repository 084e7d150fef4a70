"""Stage-by-stage replay of ``harness.run_trial`` and its per-trial checks.

``replay_trial`` calls, in order, the public functions ``run_trial`` calls, on
the same ``SeedSequence([seed, i])`` substream, with a span around each call.
``copra_gammas`` is opened up into its two solves and the perturbation bound
so that each has its own span. ``drift_problems`` holds the replay to the
recorded trial (bit for bit), ``oracle_problems`` to the independent oracle.
"""

import numpy as np

import oracle
import program

program.load()
from copra_beam import arraysim, beamformers, harness, secular  # noqa: E402
from copra_beam.beamformers import SingularCovarianceError  # noqa: E402
from copra_beam.linalg import hermitian_evd  # noqa: E402


class Replay:
    """Everything a replayed trial produced that the checks look at."""

    def __init__(self):
        self.sinr = {}
        self.failures = {}
        self.weights = {}
        self.report_b = None
        self.report_z = None
        self.mvdr_loaded = False
        self.scenario = None
        self.snapshots = None


def replay_trial(cfg, trial_index, master_seed, tracer, trial_id):
    if cfg.gamma_z_policy != "averaged":
        raise ValueError("the replay covers only the averaged snapshot policy")
    rp = Replay()
    span = tracer.span
    rng = np.random.default_rng(np.random.SeedSequence([int(master_seed), int(trial_index)]))
    with span("trial", trial_id):
        geometry = arraysim.ArrayGeometry(cfg.n_elements, cfg.spacing_wavelengths)
        with span("arraysim.draw_scenario", trial_id):
            scenario = arraysim.draw_scenario(
                rng, geometry=geometry, n_interferers=cfg.n_interferers,
                snr_db=cfg.snr_db, inr_db=cfg.inr_db,
                soi_error_bound_deg=cfg.soi_error_bound_deg,
                doa_guard_deg=cfg.doa_guard_deg)
        with span("arraysim.synthesize_snapshots", trial_id):
            snapshots = arraysim.synthesize_snapshots(scenario, cfg.n_snapshots, rng)
        with span("arraysim.sample_covariance", trial_id):
            cov = arraysim.sample_covariance(snapshots)
        with span("linalg.hermitian_evd", trial_id):
            es = hermitian_evd(cov)
        with span("secular.split_eigenvalues", trial_id):
            split = secular.split_eigenvalues(es, cfg.rho)
        rp.scenario, rp.snapshots = scenario, snapshots

        for method in cfg.methods:
            try:
                w = _weights(method, cfg, scenario, snapshots, cov, es, split,
                             rp, span, tracer, trial_id)
                rp.weights[method] = w
                with span("harness.output_sinr", trial_id):
                    rp.sinr[method] = harness.output_sinr(w, scenario)
            except (ValueError, np.linalg.LinAlgError) as exc:
                rp.sinr[method] = None
                rp.failures[method] = str(exc)
        if "sample-mvdr" in cfg.methods:
            tracer.count("harness.mvdr_loaded", int(rp.mvdr_loaded), trial_id)
    return rp


def _weights(method, cfg, scenario, snapshots, cov, es, split, rp, span, tracer, trial_id):
    a = scenario.a_presumed
    if method == "sample-mvdr":
        try:
            with span("beamformers.mvdr_weights", trial_id):
                return beamformers.mvdr_weights(es, a)
        except SingularCovarianceError:
            rp.mvdr_loaded = True
            loading = 1e-8 * es.eigenvalues.sum() / cfg.n_elements
            with span("beamformers.diagonal_loading_weights", trial_id):
                return beamformers.diagonal_loading_weights(cov, a, loading)
    if method == "diagonal-loading":
        loading = cfg.diagonal_loading * scenario.noise_power
        with span("beamformers.diagonal_loading_weights", trial_id):
            return beamformers.diagonal_loading_weights(cov, a, loading)
    if method == "copra":
        with span("secular.solve_b", trial_id):
            rp.report_b = secular.solve_secular(
                split, es.u.conj().T @ np.asarray(a, dtype=complex))
        with span("secular.solve_z", trial_id):
            rp.report_z = secular.solve_secular_weighted(split, es.eigenvalues.copy())
        with span("secular.lambda_o_sq", trial_id):
            secular.lambda_o_sq(rp.report_b.gamma, es, a)
        tracer.count("secular.solves", 2, trial_id)
        tracer.count("secular.root_found_b", int(rp.report_b.converged), trial_id)
        tracer.count("secular.root_found_z", int(rp.report_z.converged), trial_id)
        if not rp.report_b.fallback_used:
            tracer.count("secular.iterations_b", rp.report_b.iterations, trial_id)
        with span("beamformers.copra_weights", trial_id):
            return beamformers.copra_weights(es, rp.report_b.gamma, rp.report_z.gamma, a)
    if method == "quasi-rls":
        q = cfg.quasi_grid
        with span("beamformers.quasi_b", trial_id):
            gb = beamformers.quasi_optimal_gamma(
                es, a, n_grid=q.points, lo_factor=q.lo_factor, hi_factor=q.hi_factor)
        with span("beamformers.quasi_z", trial_id):
            gz = beamformers.quasi_optimal_gamma(
                es, snapshots.snapshots, n_grid=q.points, lo_factor=q.lo_factor,
                hi_factor=q.hi_factor)
        with span("beamformers.copra_weights", trial_id):
            return beamformers.copra_weights(es, gb, gz, a)
    if method == "optimal":
        with span("beamformers.optimal_weights", trial_id):
            return beamformers.optimal_weights(scenario)
    raise ValueError("unknown method %r" % method)


def _bits(x):
    return None if x is None else float(x).hex()


def drift_problems(cfg, record, rp, where):
    """Where the replay's SINRs differ, bit for bit, from run_trial's record."""
    problems = []
    for method in cfg.methods:
        if _bits(record.sinr.get(method)) != _bits(rp.sinr.get(method)):
            problems.append("%s: %s SINR drifted from run_trial (%r vs %r)"
                            % (where, method, rp.sinr.get(method), record.sinr.get(method)))
    if set(record.failures) != set(rp.failures):
        problems.append("%s: failures differ from run_trial" % where)
    return problems


def oracle_problems(cfg, rp, where):
    """Where a replayed trial's solves or weights disagree with the oracle."""
    problems = []
    y = rp.snapshots.snapshots
    cov = y @ y.conj().T / y.shape[1]
    cov = 0.5 * (cov + cov.conj().T)
    a = rp.scenario.a_presumed
    for side, report, obs in (("b", rp.report_b, a), ("z", rp.report_z, y)):
        if report is None:
            continue
        if report.converged and not oracle.is_secular_root(report.gamma, cov, obs, cfg.rho):
            problems.append("%s: converged gamma_%s=%r is not a root of the dense G"
                            % (where, side, float(report.gamma)))
        if report.fallback_used and not oracle.close(
                report.gamma, oracle.fallback_gamma(cov, cfg.rho), rel=1e-9):
            problems.append("%s: fallback gamma_%s=%r is not rho * mean eigenvalue"
                            % (where, side, float(report.gamma)))
    for method in ("sample-mvdr", "diagonal-loading"):
        w = rp.weights.get(method)
        if w is not None and abs(np.vdot(w.w, a) - 1.0) > 1e-9:
            problems.append("%s: %s weights break w^H a = 1 (%r)"
                            % (where, method, complex(np.vdot(w.w, a))))
    return problems
