"""Data-driven regularization-parameter selection for the RLS beamformer.

The covariance spectrum is split into significant and near-zero groups, and
the regularization parameter is obtained as the positive root of a scalar
secular equation G(gamma) = 0. One kernel forms its O(n) eigenvalue sums for
a scalar gamma or a whole grid and returns G, G' and a zero-detection scale.
Safeguarded Newton, bracketed by a logarithmic sign scan done as one
broadcast, solves it; when no positive root exists the solver falls back to a
regularization level at the truncation scale of the spectrum and flags it.
The kernel and the solver run over a stack of lanes, each lane with its own
spectrum; the single-system functions are the one-lane case.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import lanes_matmul

__all__ = [
    "EigenSplit",
    "SecularSolveReport",
    "CopraDiagnostics",
    "SolverOptions",
    "split_eigenvalues",
    "split_lanes",
    "secular_function",
    "secular_function_weighted",
    "solve_secular",
    "solve_secular_weighted",
    "copra_gammas",
    "copra_gammas_lanes",
    "lambda_o_sq",
]


@dataclass(frozen=True)
class EigenSplit:
    """Partition of a covariance eigensystem into significant / trivial groups.

    n1 singular values exceed the threshold rho * mean(singular values); the
    remaining n2 = n - n1 are treated as zero. beta = n / n1. es may also be
    a stack of lanes that all split at n1; sigma1_sq then has a row per lane.
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
    """Solved regularization pair and the report of each solve."""

    gamma_b: float
    gamma_z: float
    report_b: SecularSolveReport
    report_z: SecularSolveReport


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


def _significant(eigenvalues, rho):
    """Per lane, the count of singular values above rho * their mean."""
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1), got %g" % rho)
    sigma = np.sqrt(eigenvalues)
    threshold = rho * sigma.mean(axis=-1)
    return np.count_nonzero(sigma > threshold[..., None], axis=-1)


def _split(es, n1, rho):
    n = es.n
    return EigenSplit(
        es=es,
        n1=n1,
        n2=n - n1,
        rho=rho,
        sigma1_sq=es.eigenvalues[..., :n1].copy(),
        beta=n / n1,
    )


def split_eigenvalues(es, rho):
    """Split the spectrum at rho times the mean singular value.

    All singular values strictly above the threshold are significant. With
    equal eigenvalues every one exceeds rho * mean for rho < 1, so n2 = 0 and
    no truncation occurs. An all-zero spectrum has none and is refused.
    """
    n1 = int(_significant(es.eigenvalues, rho))
    if n1 == 0:
        raise ValueError("cannot split an all-zero spectrum")
    return _split(es, n1, rho)


def split_lanes(es, rho):
    """Split every lane of a (lanes, n) eigensystem stack, grouped by n1.

    Returns (n1, groups): n1 per lane, 0 for an all-zero spectrum that cannot
    be split, and one (lanes, split) pair per positive n1 whose split holds
    those lanes as a stack. Lanes are grouped, not padded: numpy sums fewer
    than 8 terms in order and more in 8-way blocks, so a zero-padded
    sigma1_sq would change the bits of a lane's sums.
    """
    n1 = _significant(es.eigenvalues, rho)
    groups = []
    for k in sorted(set(n1.tolist()) - {0}):
        lanes = np.flatnonzero(n1 == k)
        groups.append((lanes, _split(es[lanes], k, rho)))
    return n1, groups


def _kernel(gamma, lam, lam1, weights, beta, n2, derivative):
    """G and either dG/dgamma or the zero-detection scale, from one pass.

    gamma is (lanes, points); lam, lam1 (the significant block) and weights
    (|d_i|^2 over the full spectrum) hold one row per lane. Every (lane,
    point) sums a contiguous row of its own, so it gets the same bits in any
    call. The scale, the magnitude of the terms whose difference forms G,
    detects G = 0 in the sign scan; Newton steps take dG/dgamma instead.
    """
    lam, lam1, weights = lam[:, None, :], lam1[:, None, :], weights[:, None, :]
    col = gamma[..., None]
    shifted, shifted1 = lam + col, lam1 + col
    if derivative:
        cube, cube1 = shifted**3, shifted1**3
    # squared in place: a sign scan holds one (lanes, points, n) array less
    sq, sq1 = np.square(shifted, out=shifted), np.square(shifted1, out=shifted1)
    num1 = beta * lam1 + col
    t_a = np.sum(lam * weights / sq, axis=-1)
    t_b = np.sum(num1 / sq1, axis=-1)
    t_d = np.sum(weights / sq, axis=-1)
    t_e = np.sum(lam1 * num1 / sq1, axis=-1)
    ratio = n2 / gamma
    g = t_a * t_b + ratio * t_a - t_d * t_e
    if not derivative:
        return g, abs(t_a * t_b) + ratio * abs(t_a) + abs(t_d * t_e)
    dnum1 = lam1 * (1.0 - 2.0 * beta) - col
    dt_a = np.sum(-2.0 * lam * weights / cube, axis=-1)
    dt_b = np.sum(dnum1 / cube1, axis=-1)
    dt_d = np.sum(-2.0 * weights / cube, axis=-1)
    dt_e = np.sum(lam1 * dnum1 / cube1, axis=-1)
    return g, (dt_a * t_b + t_a * dt_b + n2 * (dt_a / gamma - t_a / gamma**2)
               - dt_d * t_e - t_d * dt_e)


def _secular_terms(gamma, split, weights):
    """(G, dG/dgamma, scale) of a single system at a scalar gamma or 1-D grid."""
    args = (np.reshape(np.asarray(gamma, dtype=float), (1, -1)),
            split.es.eigenvalues[None], split.sigma1_sq[None],
            np.ascontiguousarray(weights, dtype=float)[None], split.beta, split.n2)
    g, dg = _kernel(*args, derivative=True)
    scale = _kernel(*args, derivative=False)[1]
    return tuple(v.reshape(np.shape(gamma))[()] for v in (g, dg, scale))


def _checked_weights(split, weights):
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (split.es.n,):
        raise ValueError("weights length %s does not match system size %d"
                         % (weights.shape, split.es.n))
    return weights


def secular_function_weighted(gamma, split, weights):
    """G(gamma) with the observation entering only through |d_i|^2 weights."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return _secular_terms(gamma, split, _checked_weights(split, weights))[0]


def secular_function(gamma, split, d):
    """G(gamma) for an observation expressed in the eigenbasis, d = U^H r."""
    d = np.asarray(d, dtype=complex)
    return secular_function_weighted(gamma, split, np.abs(d) ** 2)


def _solve_lanes(lam, lam1, weights, beta, n2, rho, opts):
    """Solve G(gamma) = 0 on every lane; one SecularSolveReport per lane.

    lam, lam1 and weights hold one row per lane, all lanes split at the same
    n1. One kernel call scans every lane's logarithmic grid for its first
    sign change; a lane without one falls back. Newton then steps all
    bracketed lanes together inside their brackets, with bisection
    safeguards, taking G and G' from one kernel call per step; a lane leaves
    once it converges, and lanes still open when the Newton budget is spent
    finish by bisection. Iterations, residual and bracket are each lane's
    own, and so are its bits. Failures are reported, never raised, so
    Monte-Carlo runs always complete.
    """
    weights = np.ascontiguousarray(weights, dtype=float)
    # positive: a split refuses a spectrum without a positive eigenvalue
    mean_lam = lam.mean(axis=-1)
    reports = [None] * len(lam)

    def kernel(x, derivative=True):
        # on the lanes still open: the arrays below shrink as lanes finish
        return _kernel(x, lam, lam1, weights, beta, n2, derivative)

    # bracket: first sign change on a log grid; values at round-off scale
    # relative to the constituent trace terms count as zero (degenerate
    # spectra make G identically zero without an isolated root)
    grid = np.ascontiguousarray(np.geomspace(opts.scan_lo_factor * mean_lam,
                                             opts.scan_hi_factor * mean_lam,
                                             opts.scan_points, axis=-1))
    vals, scales = kernel(grid, derivative=False)
    sign = np.sign(vals)
    sign[np.abs(vals) <= 1e-12 * scales] = 0
    # prev[:, j]: the last point before j with a nonzero sign, or -1
    points = np.arange(grid.shape[1])
    last = np.maximum.accumulate(np.where(sign != 0, points, -1), axis=1)
    prev = np.concatenate([np.full((len(lam), 1), -1), last[:, :-1]], axis=1)
    change = (sign != 0) & (prev >= 0) & (sign != np.take_along_axis(sign, prev, axis=1))
    found = change.any(axis=1)
    for i in np.flatnonzero(~found):
        reports[i] = SecularSolveReport(
            gamma=rho * float(mean_lam[i]), iterations=0,
            residual=float(np.abs(vals[i]).min()),
            converged=False, fallback_used=True)

    lanes = np.flatnonzero(found)
    if not lanes.size:
        return reports
    hi_at = change[lanes].argmax(axis=1)
    lo_at = prev[lanes, hi_at]
    lo, hi = grid[lanes, lo_at], grid[lanes, hi_at]
    g_lo, g_hi = vals[lanes, lo_at], vals[lanes, hi_at]
    brackets = {i: (float(a), float(b)) for i, a, b in zip(lanes, lo, hi)}
    lam, lam1, weights = lam[lanes], lam1[lanes], weights[lanes]

    # G at the initial point and G' at the bracket's low end, in one call
    start = np.maximum(opts.init_factor * mean_lam[lanes], lo)
    g, dg = kernel(np.stack([start, lo], axis=1))
    tol = opts.residual_rel_tol * np.maximum(np.maximum(abs(g[:, 0]), abs(g_lo)), abs(g_hi))
    x, gx, slope = lo, g_lo, dg[:, 1]

    budget = opts.max_newton_iters + opts.max_bisect_iters
    # a zero or infinite slope gives a step outside the bracket: bisect
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(budget):
            newton = it < opts.max_newton_iters
            mid = 0.5 * (lo + hi)
            if newton:
                step = x - gx / slope
                step = np.where(np.isfinite(slope) & (lo < step) & (step < hi), step, mid)
                g, slope = kernel(step[:, None])
                g, slope = g[:, 0], slope[:, 0]
                done = (abs(g) <= tol) | (abs(step - x) <= opts.gamma_rel_tol * step)
            else:
                # Newton budget exhausted: finish by bisection
                step = mid
                g = kernel(step[:, None], derivative=False)[0][:, 0]
            same = np.sign(g) == np.sign(g_lo)
            lo, g_lo, hi = (np.where(same, step, lo), np.where(same, g, g_lo),
                            np.where(same, hi, step))
            if not newton:
                done = (abs(g) <= tol) | (hi - lo <= opts.gamma_rel_tol * step)
            x, gx = step, g
            if done.any():
                for j in np.flatnonzero(done):
                    reports[lanes[j]] = SecularSolveReport(
                        gamma=float(x[j]), iterations=it + 1, residual=float(abs(gx[j])),
                        converged=True, fallback_used=False, bracket=brackets[lanes[j]])
                if done.all():
                    return reports
                keep = ~done
                lanes, lam, lam1, weights, lo, hi, g_lo, x, gx, slope, tol = (
                    v[keep] for v in (lanes, lam, lam1, weights, lo, hi, g_lo, x, gx,
                                      slope, tol))

    mid = 0.5 * (lo + hi)
    g = kernel(mid[:, None], derivative=False)[0][:, 0]
    for j, i in enumerate(lanes):
        reports[i] = SecularSolveReport(
            gamma=float(mid[j]), iterations=budget, residual=float(abs(g[j])),
            converged=False, fallback_used=False, bracket=brackets[i])
    return reports


def solve_secular_weighted(split, weights, opts=SolverOptions()):
    """Solve G(gamma) = 0 for a single system; see _solve_lanes."""
    weights = _checked_weights(split, weights)
    return _solve_lanes(split.es.eigenvalues[None], split.sigma1_sq[None], weights[None],
                        split.beta, split.n2, split.rho, opts)[0]


def solve_secular(split, d, opts=SolverOptions()):
    """Solve the secular equation for an eigenbasis observation d = U^H r."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (split.es.n,):
        raise ValueError("d length %s does not match system size %d"
                         % (d.shape, split.es.n))
    return solve_secular_weighted(split, np.abs(d) ** 2, opts)


def copra_gammas_lanes(split, a_presumed, snapshots, opts=SolverOptions(),
                       snapshot_policy="averaged"):
    """Solve for the steering-side and snapshot-side regularization parameters.

    split holds a stack of lanes, a_presumed is (lanes, n) and snapshots is
    (lanes, n, n_s); returns one CopraDiagnostics per lane. The steering-side
    solve uses d = U^H a. For the snapshot side the default policy replaces
    |d_i|^2 by its average over all snapshots, which equals the covariance
    eigenvalue lambda_i; the alternative solves per snapshot and takes the
    median gamma. Its report sums the iterations and takes the largest
    residual; it is converged only if every solve converged and a fallback
    if any solve fell back.
    """
    if snapshot_policy not in ("averaged", "per-snapshot-median"):
        raise ValueError("unknown snapshot policy %r" % snapshot_policy)
    es = split.es
    lam, lam1 = es.eigenvalues, split.sigma1_sq
    uh = es.u.conj().swapaxes(-1, -2)
    weights_b = np.abs(lanes_matmul(uh, a_presumed)) ** 2
    lanes = len(lam)

    if snapshot_policy == "averaged":
        # mean over snapshots of |U^H y_t|^2 equals the eigenvalues of the
        # sample covariance formed from the same snapshots; both sides run
        # as lanes of one solve
        reports = _solve_lanes(np.concatenate([lam, lam]), np.concatenate([lam1, lam1]),
                               np.concatenate([weights_b, lam]),
                               split.beta, split.n2, split.rho, opts)
        reports_b, reports_z = reports[:lanes], reports[lanes:]
    else:
        reports_b = _solve_lanes(lam, lam1, weights_b, split.beta, split.n2, split.rho,
                                 opts)
        reports_z = []
        for i in range(lanes):
            # every snapshot of lane i is a lane of its own
            weights = np.abs(uh[i] @ snapshots[i]).T ** 2
            rows = np.full(len(weights), i)
            reps = _solve_lanes(lam[rows], lam1[rows], weights,
                                split.beta, split.n2, split.rho, opts)
            reports_z.append(SecularSolveReport(
                gamma=float(np.median([r.gamma for r in reps])),
                iterations=sum(r.iterations for r in reps),
                residual=max(r.residual for r in reps),
                converged=all(r.converged for r in reps),
                fallback_used=any(r.fallback_used for r in reps)))

    return [CopraDiagnostics(gamma_b=b.gamma, gamma_z=z.gamma, report_b=b, report_z=z)
            for b, z in zip(reports_b, reports_z)]


def copra_gammas(es, split, a_presumed, snapshots, opts=SolverOptions(),
                 snapshot_policy="averaged"):
    """Regularization pair of a single system; see copra_gammas_lanes."""
    return copra_gammas_lanes(_split(es[None], split.n1, split.rho),
                              np.asarray(a_presumed, dtype=complex)[None],
                              snapshots.snapshots[None], opts, snapshot_policy)[0]


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
