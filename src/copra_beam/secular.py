"""Data-driven regularization-parameter selection for the RLS beamformer.

The covariance spectrum is split into significant and near-zero groups, and
the regularization parameter is obtained as the positive root of a scalar
secular equation G(gamma) = 0. One kernel forms its O(n) eigenvalue sums for
a scalar gamma or a whole grid and returns G, G' and a zero-detection scale.
Safeguarded Newton, bracketed by a logarithmic sign scan done as one
broadcast, solves it; when no positive root exists the solver falls back to a
regularization level at the truncation scale of the spectrum and flags it.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSplit",
    "SecularSolveReport",
    "CopraDiagnostics",
    "SolverOptions",
    "split_eigenvalues",
    "secular_function",
    "secular_function_weighted",
    "secular_derivative_weighted",
    "solve_secular",
    "solve_secular_weighted",
    "copra_gammas",
    "lambda_o_sq",
    "rls_mse",
    "gamma_mse_approx",
]


@dataclass(frozen=True)
class EigenSplit:
    """Partition of a covariance eigensystem into significant / trivial groups.

    n1 singular values exceed the threshold rho * mean(singular values); the
    remaining n2 = n - n1 are treated as zero. beta = n / n1.
    """

    es: object
    n1: int
    n2: int
    rho: float
    sigma1_sq: np.ndarray
    beta: float


@dataclass(frozen=True)
class SecularSolveReport:
    """Outcome of one secular-equation solve."""

    gamma: float
    iterations: int
    residual: float
    converged: bool
    fallback_used: bool
    bracket: tuple = None


@dataclass(frozen=True)
class CopraDiagnostics:
    """Solved regularization pair plus the perturbation-bound diagnostic."""

    gamma_b: float
    gamma_z: float
    report_b: SecularSolveReport
    report_z: SecularSolveReport
    lambda_o_sq_b: float


@dataclass(frozen=True)
class SolverOptions:
    """Safeguarded-Newton controls for the secular equation.

    The bracket comes from a scan_points-point logarithmic sign scan over
    [scan_lo_factor, scan_hi_factor] * mean(eigenvalues); Newton steps leaving
    the bracket are replaced by bisection.
    """

    max_newton_iters: int = 100
    max_bisect_iters: int = 200
    gamma_rel_tol: float = 1e-9
    residual_rel_tol: float = 1e-12
    init_factor: float = 1e-6
    scan_points: int = 200
    scan_lo_factor: float = 1e-9
    scan_hi_factor: float = 1e3


def split_eigenvalues(es, rho):
    """Split the spectrum at rho times the mean singular value.

    All singular values strictly above the threshold are significant. With
    equal eigenvalues every one exceeds rho * mean for rho < 1, so n2 = 0 and
    no truncation occurs. An all-zero spectrum has none and is refused.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1), got %g" % rho)
    sigma = np.sqrt(es.eigenvalues)
    threshold = rho * sigma.mean()
    n1 = int(np.count_nonzero(sigma > threshold))
    if n1 == 0:
        raise ValueError("cannot split an all-zero spectrum")
    n = es.n
    return EigenSplit(
        es=es,
        n1=n1,
        n2=n - n1,
        rho=rho,
        sigma1_sq=es.eigenvalues[:n1].copy(),
        beta=n / n1,
    )


def _secular_terms(gamma, split, weights):
    """(G, dG/dgamma, scale) from one pass over the four eigenvalue sums.

    weights holds |d_i|^2 for the full spectrum; sigma1_sq is the significant
    block. gamma is a scalar or a 1-D grid whose points are rows summed along
    the eigenvalue axis, so each gets the bits of a scalar call. scale, the
    magnitude of the terms whose difference forms G, detects G = 0.
    """
    lam = split.es.eigenvalues
    lam1 = split.sigma1_sq
    beta = split.beta
    n2 = split.n2
    col = np.asarray(gamma, dtype=float)[..., None]
    shifted, shifted1 = lam + col, lam1 + col
    sq, sq1 = shifted**2, shifted1**2
    num1 = beta * lam1 + col
    t_a = np.sum(lam * weights / sq, axis=-1)
    t_b = np.sum(num1 / sq1, axis=-1)
    t_d = np.sum(weights / sq, axis=-1)
    t_e = np.sum(lam1 * num1 / sq1, axis=-1)
    cube, cube1 = shifted**3, shifted1**3
    dnum1 = lam1 * (1.0 - 2.0 * beta) - col
    dt_a = np.sum(-2.0 * lam * weights / cube, axis=-1)
    dt_b = np.sum(dnum1 / cube1, axis=-1)
    dt_d = np.sum(-2.0 * weights / cube, axis=-1)
    dt_e = np.sum(lam1 * dnum1 / cube1, axis=-1)
    # gamma as given, not col: a scalar call keeps Python-scalar arithmetic
    g = t_a * t_b + (n2 / gamma) * t_a - t_d * t_e
    dg = (dt_a * t_b + t_a * dt_b + n2 * (dt_a / gamma - t_a / gamma**2)
          - dt_d * t_e - t_d * dt_e)
    scale = abs(t_a * t_b) + (n2 / gamma) * abs(t_a) + abs(t_d * t_e)
    return g, dg, scale


def _checked_weights(split, weights):
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (split.es.n,):
        raise ValueError("weights length %s does not match system size %d"
                         % (weights.shape, split.es.n))
    return weights


def _secular_scale(gamma, split, weights):
    """Zero-detection scale of G(gamma)."""
    return _secular_terms(gamma, split, weights)[2]


def secular_function_weighted(gamma, split, weights):
    """G(gamma) with the observation entering only through |d_i|^2 weights."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return _secular_terms(gamma, split, _checked_weights(split, weights))[0]


def secular_function(gamma, split, d):
    """G(gamma) for an observation expressed in the eigenbasis, d = U^H r."""
    d = np.asarray(d, dtype=complex)
    return secular_function_weighted(gamma, split, np.abs(d) ** 2)


def secular_derivative_weighted(gamma, split, weights):
    """Analytic dG/dgamma from the closed-form eigenvalue sums."""
    return _secular_terms(gamma, split, np.asarray(weights, dtype=float))[1]


def _fallback_gamma(split):
    return split.rho * float(split.es.eigenvalues.mean())


def solve_secular_weighted(split, weights, opts=SolverOptions()):
    """Solve G(gamma) = 0 by bracketed Newton; fall back when no root exists.

    One kernel call scans the whole logarithmic grid for the first sign
    change; Newton iterates inside that bracket with bisection safeguards,
    taking G and G' at each point from one kernel call. Failures are
    reported, never raised, so Monte-Carlo runs always complete.
    """
    weights = _checked_weights(split, weights)
    mean_lam = float(split.es.eigenvalues.mean())
    if mean_lam <= 0:
        return SecularSolveReport(
            gamma=max(_fallback_gamma(split), np.finfo(float).tiny),
            iterations=0, residual=np.nan, converged=False, fallback_used=True)

    def kernel(x):
        return _secular_terms(x, split, weights)

    # bracket: first sign change on a log grid; values at round-off scale
    # relative to the constituent trace terms count as zero (degenerate
    # spectra make G identically zero without an isolated root)
    grid = np.geomspace(opts.scan_lo_factor * mean_lam,
                        opts.scan_hi_factor * mean_lam, opts.scan_points)
    vals, _, scales = kernel(grid)
    sign = np.sign(vals)
    sign[np.abs(vals) <= 1e-12 * scales] = 0
    nonzero = np.nonzero(sign)[0]
    change = np.nonzero(sign[nonzero[:-1]] != sign[nonzero[1:]])[0]
    if not change.size:
        return SecularSolveReport(
            gamma=_fallback_gamma(split), iterations=0,
            residual=float(np.abs(vals).min()),
            converged=False, fallback_used=True)
    bracket_lo, bracket_hi = nonzero[change[0]], nonzero[change[0] + 1]

    lo, hi = float(grid[bracket_lo]), float(grid[bracket_hi])
    g_lo, g_hi = float(vals[bracket_lo]), float(vals[bracket_hi])
    bracket = (lo, hi)

    g_init = kernel(max(opts.init_factor * mean_lam, lo))[0]
    tol_abs = opts.residual_rel_tol * max(abs(g_init), abs(g_lo), abs(g_hi))

    x, gx = lo, g_lo
    slope = kernel(x)[1]
    iters = 0
    for _ in range(opts.max_newton_iters):
        iters += 1
        if slope != 0.0 and np.isfinite(slope):
            step = x - gx / slope
        else:
            step = 0.5 * (lo + hi)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        g_step, slope, _ = kernel(step)
        converged = (abs(g_step) <= tol_abs
                     or abs(step - x) <= opts.gamma_rel_tol * step)
        x, gx = step, g_step
        if np.sign(gx) == np.sign(g_lo):
            lo, g_lo = x, gx
        else:
            hi, g_hi = x, gx
        if converged:
            return SecularSolveReport(gamma=x, iterations=iters, residual=abs(gx),
                                      converged=True, fallback_used=False,
                                      bracket=bracket)

    # Newton budget exhausted: finish by bisection
    for _ in range(opts.max_bisect_iters):
        iters += 1
        mid = 0.5 * (lo + hi)
        g_mid = kernel(mid)[0]
        if np.sign(g_mid) == np.sign(g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
        if abs(g_mid) <= tol_abs or (hi - lo) <= opts.gamma_rel_tol * mid:
            return SecularSolveReport(gamma=mid, iterations=iters, residual=abs(g_mid),
                                      converged=True, fallback_used=False,
                                      bracket=bracket)
    mid = 0.5 * (lo + hi)
    return SecularSolveReport(gamma=mid, iterations=iters, residual=abs(kernel(mid)[0]),
                              converged=False, fallback_used=False, bracket=bracket)


def solve_secular(split, d, opts=SolverOptions()):
    """Solve the secular equation for an eigenbasis observation d = U^H r."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (split.es.n,):
        raise ValueError("d length %s does not match system size %d"
                         % (d.shape, split.es.n))
    return solve_secular_weighted(split, np.abs(d) ** 2, opts)


def copra_gammas(es, split, a_presumed, snapshots, opts=SolverOptions(),
                 snapshot_policy="averaged"):
    """Solve for the steering-side and snapshot-side regularization parameters.

    The steering-side solve uses d = U^H a. For the snapshot side the default
    policy replaces |d_i|^2 by its average over all snapshots, which equals the
    covariance eigenvalue lambda_i; the alternative solves per snapshot and
    takes the median gamma.
    """
    d_a = es.u.conj().T @ np.asarray(a_presumed, dtype=complex)
    report_b = solve_secular(split, d_a, opts)

    if snapshot_policy == "averaged":
        # mean over snapshots of |U^H y_t|^2 equals the eigenvalues of the
        # sample covariance formed from the same snapshots
        report_z = solve_secular_weighted(split, es.eigenvalues.copy(), opts)
    elif snapshot_policy == "per-snapshot-median":
        y = snapshots.snapshots
        gammas = []
        for t in range(y.shape[1]):
            rep = solve_secular(split, es.u.conj().T @ y[:, t], opts)
            gammas.append(rep.gamma)
        gamma_med = float(np.median(gammas))
        report_z = SecularSolveReport(
            gamma=gamma_med, iterations=0,
            residual=abs(secular_function_weighted(
                gamma_med, split, np.abs(es.u.conj().T @ y[:, 0]) ** 2)),
            converged=True, fallback_used=False)
    else:
        raise ValueError("unknown snapshot policy %r" % snapshot_policy)

    return CopraDiagnostics(
        gamma_b=report_b.gamma,
        gamma_z=report_z.gamma,
        report_b=report_b,
        report_z=report_z,
        lambda_o_sq_b=lambda_o_sq(report_b.gamma, es, a_presumed),
    )


def lambda_o_sq(gamma, es, r):
    """Squared perturbation bound implied by a regularization level.

    Ratio of two spectral traces over the rank-one observation outer product,
    evaluated as eigenvalue-weighted sums over |U^H r|^2.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d2 = np.abs(es.u.conj().T @ np.asarray(r, dtype=complex)) ** 2
    shifted = es.eigenvalues + gamma
    denom = np.sum(d2 / shifted**2)
    if denom == 0.0:
        raise ValueError("observation vector is zero")
    return float(np.sum(es.eigenvalues * d2 / shifted**2) / denom)


def rls_mse(gamma, es, c_xx, noise_power):
    """Exact mean-squared error of the regularized estimator on a known system.

    Test-support oracle: requires the (normally unknown) signal covariance
    c_xx and noise power.
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
