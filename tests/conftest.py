"""Shared test helpers: random matrix factories, independent dense-matrix
oracles for the eigenvalue-sum implementations, MVDR on a loaded covariance
through its own decomposition, the one-trial loop form of
the scenario and snapshot draw, the test-only oracles of the regularized
least-squares problem (MSE formulas, LS/RLS estimators, the worst-case
robust cost and its gradient, spectral helpers), and the reference sweeps,
run once per session.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from copra_beam import cli, harness, secular
from copra_beam.beamformers import SingularCovarianceError, mvdr_lanes
from copra_beam.config import ExperimentConfig
from copra_beam.linalg import hermitian_evd

# The reference protocol at seed 7: acceptance criterion 1's SNR sweep at 30
# snapshots and criterion 2's snapshot sweep at 20 dB, 1000 trials each.
REFERENCE_SWEEPS = {
    "snr": ExperimentConfig(trials=1000, n_snapshots=30,
                            snr_db_grid=(-10.0, 0.0, 10.0, 20.0, 30.0), seed=7),
    "snapshots": ExperimentConfig(trials=1000, snr_db=20.0,
                                  snapshot_grid=tuple(range(10, 101, 10)), seed=7),
}
SWEEP_FILES = ("sweep.csv", "sweep.svg", "meta.json")


def reference_sweep(kind, workdir):
    """Run a reference sweep through `copra-beam sweep`.

    Returns (result, seconds, files): the SweepResult, run_sweep's wall time
    and, by file name, the bytes of the sweep's output files plus
    columns.sha256, the digest of every (point, method) SINR and fallback
    column its rows are aggregated from. The rows' 9-digit CSV cannot show
    a last-bit change in one trial's SINR; the digest does.
    """
    workdir = Path(workdir)
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(REFERENCE_SWEEPS[kind].to_dict()))
    digest, kept = hashlib.sha256(), []
    real_aggregate, real_sweep = harness._aggregate, harness.run_sweep

    def aggregate(sinr, fallback, *args):
        digest.update(np.ascontiguousarray(sinr).tobytes())
        digest.update(np.ascontiguousarray(fallback).tobytes())
        return real_aggregate(sinr, fallback, *args)

    def timed(*args, **kwargs):
        t0 = time.time()
        kept.append(real_sweep(*args, **kwargs))
        kept.append(time.time() - t0)
        return kept[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_aggregate", aggregate)
        patch.setattr(harness, "run_sweep", timed)
        assert cli.main(["sweep", "--kind", kind, "--config", str(cfg_path),
                         "--out", str(workdir / "out")]) == 0
    files = {name: (workdir / "out" / name).read_bytes() for name in SWEEP_FILES}
    files["columns.sha256"] = (digest.hexdigest() + "\n").encode()
    result, seconds = kept
    return result, seconds, files


@pytest.fixture(scope="session")
def reference_sweeps(tmp_path_factory):
    """reference_sweep of both kinds, run once per session."""
    return {kind: reference_sweep(kind, tmp_path_factory.mktemp(kind))
            for kind in REFERENCE_SWEEPS}


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_psd(rng, n, rank=None):
    rank = n if rank is None else rank
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return b @ b.conj().T / rank


def random_complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def dense_secular_value(gamma, split, d):
    """G(gamma) evaluated with explicit dense matrix products.

    Independent of the eigenvalue-sum path in copra_beam.secular: builds the
    full trace arguments as matrices and calls np.trace.
    """
    lam = split.es.eigenvalues
    n = lam.shape[0]
    n1 = split.n1
    beta = split.beta
    d = np.asarray(d, dtype=complex)
    sig2 = np.diag(lam)
    inv2 = np.linalg.matrix_power(np.linalg.inv(sig2 + gamma * np.eye(n)), 2)
    ddh = np.outer(d, d.conj())
    sig1 = np.diag(lam[:n1])
    i1 = np.eye(n1)
    inv1 = np.linalg.matrix_power(np.linalg.inv(sig1 + gamma * i1), 2)

    t_a = np.trace(sig2 @ inv2 @ ddh).real
    t_b = np.trace(inv1 @ (beta * sig1 + gamma * i1)).real
    t_d = np.trace(inv2 @ ddh).real
    t_e = np.trace(sig1 @ inv1 @ (beta * sig1 + gamma * i1)).real
    return t_a * t_b + (split.n2 / gamma) * t_a - t_d * t_e


def dense_quasi_gamma(es, r, n_grid=200, lo_factor=1e-8, hi_factor=10.0):
    """Quasi-optimality grid point from the dense regularized-estimate tensor.

    Forms the estimate filt * (U^H r) at every grid point, an (n, n_grid) or
    (n, n_obs, n_grid) array, and takes the norm of its successive
    differences. Oracle for the runtime selector's closed form.
    """
    r = np.asarray(r, dtype=complex)
    lam = es.eigenvalues
    grid = np.geomspace(lo_factor * lam[0], hi_factor * lam[0], n_grid)
    d = es.u.conj().T @ r
    filt = np.sqrt(lam)[:, None] / (lam[:, None] + grid[None, :])
    if d.ndim == 1:
        x = filt * d[:, None]
        diffs = np.linalg.norm(np.diff(x, axis=1), axis=0)
    else:
        x = filt[:, None, :] * d[:, :, None]
        diffs = np.linalg.norm(np.diff(x, axis=2), axis=(0, 1))
    return float(grid[int(np.argmin(diffs))])


def _log_grid(lo, hi, n_points):
    """(log10 lo, log10 step) of np.geomspace(lo, hi, n_points), from the
    same scalar operations geomspace and linspace apply, so that
    10 ** (j * step + log10 lo) is, bit for bit, its point j (but the
    first and last, which geomspace sets to lo and hi)."""
    log_lo, log_hi = np.log10(np.asarray(lo, dtype=float)), np.log10(np.asarray(hi, dtype=float))
    return log_lo, np.subtract(log_hi, log_lo, dtype=float) / (n_points - 1)


def grid_scan_roots(systems, n_points=10**6, lo_factor=1e-9, hi_factor=1e3):
    """First positive root of G for each (split, weights) system, by a dense
    log-grid sign scan plus bisection; None where the scan finds no sign change.

    A system's grid is np.geomspace(lo_factor * mean eigenvalue, hi_factor *
    mean eigenvalue, n_points); the first sign change is the first point j
    with a nonzero sign that differs from point j + 1's, and a bisection on
    the runtime G narrows it. The systems are scanned in batches, chunk by
    chunk: the chunk of every system still scanning is one row of an array,
    1/(lambda + gamma)^2 is a (systems, n, points) array, and its trace sums
    are one matrix product per system. A system leaves at its first sign
    change.
    """
    systems = [(split, np.asarray(weights, dtype=float)) for split, weights in systems]
    roots = []
    for start in range(0, len(systems), _SCAN_SYSTEMS):
        roots += _scan_batch(systems[start:start + _SCAN_SYSTEMS], n_points, lo_factor,
                             hi_factor)
    return roots


# systems per batch and points per chunk: a batch's (systems, n, points)
# array of a 10-element system is 2.6 MB
_SCAN_SYSTEMS = 32
_SCAN_CHUNK = 1024


def _scan_batch(systems, n_points, lo_factor, hi_factor):
    lam = np.array([split.es.eigenvalues for split, _ in systems])
    rows, n = lam.shape
    n2 = np.array([float(split.n2) for split, _ in systems])
    # the trace sums' coefficients: t_a, t_d, then the parts of t_b and t_e
    # without and with gamma, over the significant block only
    coeffs = np.zeros((rows, 6, n))
    for row, (split, weights) in enumerate(systems):
        lam1, n1 = split.sigma1_sq, split.n1
        coeffs[row, 0], coeffs[row, 1] = lam[row] * weights, weights
        coeffs[row, 2:, :n1] = split.beta * lam1, np.ones(n1), split.beta * lam1**2, lam1
    lam_one = np.stack([lam, np.ones_like(lam)], axis=-1)
    ends = [(lo_factor * lam_i.mean(), hi_factor * lam_i.mean()) for lam_i in lam]
    log_lo, step = (np.array(v) for v in zip(*(_log_grid(lo, hi, n_points) for lo, hi in ends)))

    # one set of buffers for every chunk: fresh arrays of this size would be
    # paged in anew each time. Row 0 of one_grid stays 1, row 1 is the grid.
    one_grid = np.ones((rows, 2, _SCAN_CHUNK + 1))
    inv = np.empty((rows, n, _SCAN_CHUNK + 1))
    # each sum a block of its own: interleaved rows would make numpy copy the
    # operands of every in-place step below
    sums = np.empty((6, rows, _SCAN_CHUNK + 1))
    brackets = [None] * rows
    active = np.arange(rows)
    for first in range(0, n_points - 1, _SCAN_CHUNK):
        if not active.size:
            break
        # points first .. first + _SCAN_CHUNK: the last overlaps the next chunk
        j = np.arange(first, min(first + _SCAN_CHUNK + 1, n_points), dtype=float)
        k, width = len(active), len(j)
        grid = one_grid[:k, 1, :width]
        np.multiply(j, step[active, None], out=grid)
        grid += log_lo[active, None]
        np.power(10.0, grid, out=grid)
        if first == 0:
            grid[:, 0] = [ends[i][0] for i in active]
        if j[-1] == n_points - 1:
            grid[:, -1] = [ends[i][1] for i in active]
        # lambda + gamma as [lambda, 1] @ [1, gamma]: products by 1 are exact,
        # so each entry is the one rounding of the sum, and the matrix product
        # runs faster than numpy's broadcast add
        shifted = np.matmul(lam_one[active], one_grid[:k, :, :width], out=inv[:k, :, :width])
        np.square(shifted, out=shifted)
        np.reciprocal(shifted, out=shifted)
        t_a, t_d, b0, b1, e0, e1 = sums[:, :k, :width]
        np.matmul(coeffs[active], shifted, out=sums[:, :k, :width].transpose(1, 0, 2))
        # in place: vals = t_a * t_b + (n2 / grid) * t_a - t_d * t_e, with
        # t_b = b0 + grid * b1 and t_e = e0 + grid * e1
        t_b = np.multiply(grid, b1, out=b1)
        t_b += b0
        t_e = np.multiply(grid, e1, out=e1)
        t_e += e0
        vals = np.multiply(t_a, t_b, out=t_b)
        ratio = np.divide(n2[active, None], grid, out=b0)
        ratio *= t_a
        vals += ratio
        vals -= np.multiply(t_d, t_e, out=t_e)
        sign = np.sign(vals, out=t_a)
        change = (sign[:, :-1] != 0) & (sign[:, :-1] != sign[:, 1:])
        hit = change.any(axis=1)
        for row in np.flatnonzero(hit):
            at = change[row].argmax()
            brackets[active[row]] = (float(grid[row, at]), float(grid[row, at + 1]),
                                     sign[row, at])
        active = active[~hit]

    roots = []
    for (split, weights), bracket in zip(systems, brackets):
        if bracket is None:
            roots.append(None)
            continue
        lo, hi, s_lo = bracket
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sign(secular.secular_function_weighted(mid, split, weights)) == s_lo:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * mid:
                break
        roots.append(0.5 * (lo + hi))
    return roots


def grid_scan_root(split, weights, **scan):
    """grid_scan_roots of a single system."""
    return grid_scan_roots([(split, weights)], **scan)[0]


def loop_draw(rng, geometry, n_s, n_interferers, snr_db, inr_db, soi_error_bound_deg,
              doa_guard_deg):
    """One trial's scenario fields and snapshots, drawn one piece at a time.

    The loop form of the block draw: one uniform call per angle, one
    standard_normal call per real or imaginary part, a steering vector per
    direction and an np.outer per source, summed SOI first, then each
    interferer, then the noise.
    """
    def steering(doa):
        p = np.arange(geometry.n_elements)
        return np.exp(1j * (2.0 * np.pi * geometry.spacing_wavelengths * p
                            * np.sin(np.deg2rad(doa))))

    def circular(shape, power=1.0):
        scale = np.sqrt(power / 2.0)
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    soi = rng.uniform(-90.0, 90.0)
    doas = []
    for _ in range(n_interferers):
        doa = rng.uniform(-90.0, 90.0)
        while abs(doa - soi) < doa_guard_deg:
            doa = rng.uniform(-90.0, 90.0)
        doas.append(doa)
    error = (rng.uniform(-soi_error_bound_deg, soi_error_bound_deg)
             if soi_error_bound_deg > 0 else 0.0)
    presumed = float(np.clip(soi + error, -90.0, 90.0))
    fields = dict(
        soi_doa_deg=soi, soi_error_deg=presumed - soi, interferer_doas_deg=tuple(doas),
        soi_power=10.0 ** (snr_db / 10.0),
        interferer_powers=tuple(10.0 ** (inr_db / 10.0) for _ in doas),
        noise_power=1.0, a_true=steering(soi), a_presumed=steering(presumed))

    y = np.zeros((geometry.n_elements, n_s), dtype=complex)
    y += np.sqrt(fields["soi_power"]) * np.outer(fields["a_true"], circular(n_s))
    for doa, power in zip(doas, fields["interferer_powers"]):
        y += np.sqrt(power) * np.outer(steering(doa), circular(n_s))
    y += circular((geometry.n_elements, n_s), power=fields["noise_power"])
    return fields, y


def loaded_mvdr_by_decomposition(c, a, loading):
    """MVDR on C + loading * I of a (lanes, n, n) stack through a fresh
    decomposition of the loaded matrices. Oracle for the runtime path, which
    shifts the eigenvalues of C's own eigensystem instead."""
    loaded = c + np.asarray(loading, dtype=float)[:, None, None] * np.eye(c.shape[-1])
    return mvdr_lanes(hermitian_evd(loaded), a)


def eigensystem_of(matrix):
    return hermitian_evd(matrix)


def reconstruct(es):
    """Dense matrix U diag(eigenvalues) U^H."""
    return (es.u * es.eigenvalues) @ es.u.conj().T


def matrix_sqrt_eigs(es):
    """Singular values of the decomposed matrix: element-wise sqrt of eigenvalues."""
    return np.sqrt(es.eigenvalues)


def apply_filtered(es, f, v):
    """Apply the spectral map U diag(f(lambda_i)) U^H to a vector.

    Raises ValueError on a dimension mismatch or non-finite filter values.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (es.n,):
        raise ValueError("vector length %s does not match system size %d" % (v.shape, es.n))
    fl = np.asarray(f(es.eigenvalues), dtype=float)
    if not np.all(np.isfinite(fl)):
        raise ValueError("spectral map produced non-finite values")
    return es.u @ (fl * (es.u.conj().T @ v))


def secular_terms(gamma, split, weights):
    """(G, dG/dgamma, scale) of a system at a gamma or 1-D grid.

    G and G' come from the kernel's derivative pass and the scale from its
    scan pass, so that the scan pass's G (secular_function_weighted) checked
    against this G compares two passes.
    """
    args = (np.reshape(np.asarray(gamma, dtype=float), (1, -1)),
            split.es.eigenvalues[None], split.sigma1_sq[None],
            np.ascontiguousarray(weights, dtype=float)[None], split.beta, split.n2)
    g, dg = secular._kernel(*args, derivative=True)
    scale = secular._kernel(*args, derivative=False)[1]
    return tuple(v.reshape(np.shape(gamma))[()] for v in (g, dg, scale))


def secular_derivative_weighted(gamma, split, weights):
    """Analytic dG/dgamma from the closed-form eigenvalue sums."""
    return secular_terms(gamma, split, weights)[1]


def secular_scale(gamma, split, weights):
    """Zero-detection scale of G(gamma)."""
    return secular_terms(gamma, split, weights)[2]


def rls_mse(gamma, es, c_xx, noise_power):
    """Exact mean-squared error of the regularized estimator on a known system.

    Needs the (normally unknown) signal covariance c_xx and noise power.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    lam = es.eigenvalues
    shifted = lam + gamma
    m = es.u.conj().T @ np.asarray(c_xx, dtype=complex) @ es.u
    noise_term = noise_power * np.sum(lam / shifted**2)
    bias_term = gamma**2 * np.sum(np.real(np.diag(m)) / shifted**2)
    return float(noise_term + bias_term)


def gamma_mse_approx(c_xx_trace, noise_power, n):
    """Closed-form approximate MSE minimizer: n * noise_power / trace(c_xx)."""
    if c_xx_trace <= 0:
        raise ValueError("c_xx_trace must be positive")
    return n * noise_power / c_xx_trace


def ls_estimate(es, r):
    """Unregularized solve of A x = r for Hermitian PSD A with A^2 = C."""
    lam = es.eigenvalues
    if lam[-1] <= 0:
        raise SingularCovarianceError("system matrix is singular")
    r = np.asarray(r, dtype=complex)
    return es.u @ ((es.u.conj().T @ r) / np.sqrt(lam))


def rls_estimate(es, r, gamma):
    """Regularized solve: x = U (lam + gamma)^{-1} sqrt(lam) U^H r."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    lam = es.eigenvalues
    if gamma == 0 and lam[-1] <= 0:
        raise SingularCovarianceError("gamma = 0 requires an invertible spectrum")
    r = np.asarray(r, dtype=complex)
    filt = np.sqrt(lam) / (lam + gamma)
    return es.u @ (filt * (es.u.conj().T @ r))


def _sqrt_apply(es, x):
    lam = np.sqrt(es.eigenvalues)
    return es.u @ (lam * (es.u.conj().T @ x))


def worst_case_cost(x, r, es, bound):
    """Robust cost: residual norm plus bound times solution norm."""
    if bound < 0:
        raise ValueError("perturbation bound must be >= 0")
    x = np.asarray(x, dtype=complex)
    r = np.asarray(r, dtype=complex)
    return float(np.linalg.norm(r - _sqrt_apply(es, x)) + bound * np.linalg.norm(x))


def worst_case_gradient(x, r, es, bound):
    """Gradient of the robust cost with respect to the complex solution vector.

    Components are d/dRe + i d/dIm of the real cost. Both norms in the
    denominators must be nonzero.
    """
    x = np.asarray(x, dtype=complex)
    r = np.asarray(r, dtype=complex)
    resid = r - _sqrt_apply(es, x)
    resid_norm = np.linalg.norm(resid)
    x_norm = np.linalg.norm(x)
    scale = np.linalg.norm(r)
    if resid_norm <= 1e-12 * scale:
        raise ValueError("residual norm vanished; gradient undefined")
    if x_norm <= 1e-12 * scale:
        raise ValueError("solution norm vanished; gradient undefined")
    c_x = es.u @ (es.eigenvalues * (es.u.conj().T @ x))
    return (c_x + bound * resid_norm * x / x_norm - _sqrt_apply(es, r)) / resid_norm
