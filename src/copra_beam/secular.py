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

from .config import SCAN_POINTS
from .linalg import lane_chunks, lanes_matmul

__all__ = [
    "EigenSplit",
    "SecularSolveReport",
    "split_eigenvalues",
    "split_lanes",
    "secular_function",
    "secular_function_weighted",
    "solve_secular",
    "solve_secular_weighted",
    "copra_gammas",
    "copra_gammas_lanes",
    "per_snapshot_weights",
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


# Safeguarded-Newton controls. The bracket comes from a SCAN_POINTS-point
# logarithmic sign scan over [SCAN_LO_FACTOR, SCAN_HI_FACTOR] * mean(eigenvalues)
# (config sizes its array budget by SCAN_POINTS); Newton steps leaving the
# bracket are replaced by bisection.
MAX_NEWTON_ITERS = 100
MAX_BISECT_ITERS = 200
GAMMA_REL_TOL = 1e-9
RESIDUAL_REL_TOL = 1e-12
INIT_FACTOR = 1e-6
SCAN_LO_FACTOR = 1e-9
SCAN_HI_FACTOR = 1e3


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


def _secular_terms(gamma, split, weights, derivative=True):
    """(G, dG/dgamma, scale), or (G, scale) in one pass, of a system at a gamma or 1-D grid."""
    args = (np.reshape(np.asarray(gamma, dtype=float), (1, -1)),
            split.es.eigenvalues[None], split.sigma1_sq[None],
            np.ascontiguousarray(weights, dtype=float)[None], split.beta, split.n2)
    out = _kernel(*args, derivative=False)
    if derivative:
        out = (*_kernel(*args, derivative=True), out[1])
    return tuple(v.reshape(np.shape(gamma))[()] for v in out)


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
    # G takes the same operations with or without the derivative
    return _secular_terms(gamma, split, _checked_weights(split, weights), derivative=False)[0]


def secular_function(gamma, split, d):
    """G(gamma) for an observation expressed in the eigenbasis, d = U^H r."""
    d = np.asarray(d, dtype=complex)
    return secular_function_weighted(gamma, split, np.abs(d) ** 2)


def _scan(grid, lam, lam1, weights, beta, n2):
    """The sign scan of some lanes on their (lanes, points) grid, one kernel call.

    Per lane: whether G changes sign on its grid, the grid points (lo, hi)
    around the first change, G at both, and the smallest |G| on the grid.
    Values at round-off scale relative to the constituent trace terms count
    as zero (degenerate spectra make G identically zero without an isolated
    root).
    """
    vals, scales = _kernel(grid, lam, lam1, weights, beta, n2, derivative=False)
    sign = np.sign(vals)
    sign[np.abs(vals) <= 1e-12 * scales] = 0
    # prev[:, j]: the last point before j with a nonzero sign, or -1
    points = np.arange(grid.shape[1])
    last = np.maximum.accumulate(np.where(sign != 0, points, -1), axis=1)
    prev = np.concatenate([np.full((len(lam), 1), -1), last[:, :-1]], axis=1)
    change = (sign != 0) & (prev >= 0) & (sign != np.take_along_axis(sign, prev, axis=1))
    rows = np.arange(len(lam))
    hi_at = change.argmax(axis=1)
    lo_at = prev[rows, hi_at]
    return (change.any(axis=1), grid[rows, lo_at], grid[rows, hi_at],
            vals[rows, lo_at], vals[rows, hi_at], np.abs(vals).min(axis=1))


def _solve_lanes(lam, lam1, weights, beta, n2, rho):
    """Solve G(gamma) = 0 on every lane; one SecularSolveReport per lane.

    lam, lam1 and weights hold one row per lane, all lanes split at the same
    n1. A sign scan of every lane's logarithmic grid, in chunks of
    LANE_CHUNK lanes, finds its first sign change; a lane without one falls
    back. Newton then steps all bracketed lanes together inside their
    brackets, with bisection safeguards, taking G and G' from one kernel
    call per step; a lane leaves once it converges, and lanes still open
    when the Newton budget is spent finish by bisection. Iterations,
    residual and bracket are each lane's own, and so are its bits. Failures
    are reported, never raised, so Monte-Carlo runs always complete.
    """
    weights = np.ascontiguousarray(weights, dtype=float)
    # positive: a split refuses a spectrum without a positive eigenvalue
    mean_lam = lam.mean(axis=-1)
    reports = [None] * len(lam)

    def kernel(x, derivative=True):
        # on the lanes still open: the arrays below shrink as lanes finish
        return _kernel(x, lam, lam1, weights, beta, n2, derivative)

    # one logarithmic grid for the stack; each row sums its own contiguous
    # data, so a chunk's bits are the whole stack's, and chunks keep the
    # (lanes, points, n) arrays small
    grid = np.ascontiguousarray(np.geomspace(SCAN_LO_FACTOR * mean_lam, SCAN_HI_FACTOR * mean_lam,
                                             SCAN_POINTS, axis=-1))
    scans = [_scan(grid[c], lam[c], lam1[c], weights[c], beta, n2)
             for c in lane_chunks(len(lam))]
    found, lo, hi, g_lo, g_hi, floor = (np.concatenate(v) for v in zip(*scans))
    for i in np.flatnonzero(~found):
        reports[i] = SecularSolveReport(
            gamma=rho * float(mean_lam[i]), iterations=0, residual=float(floor[i]),
            converged=False, fallback_used=True)

    lanes = np.flatnonzero(found)
    if not lanes.size:
        return reports
    lo, hi, g_lo, g_hi = lo[lanes], hi[lanes], g_lo[lanes], g_hi[lanes]
    brackets = {i: (float(a), float(b)) for i, a, b in zip(lanes, lo, hi)}
    lam, lam1, weights = lam[lanes], lam1[lanes], weights[lanes]

    # G at the initial point and G' at the bracket's low end, in one call
    start = np.maximum(INIT_FACTOR * mean_lam[lanes], lo)
    g, dg = kernel(np.stack([start, lo], axis=1))
    tol = RESIDUAL_REL_TOL * np.maximum(np.maximum(abs(g[:, 0]), abs(g_lo)), abs(g_hi))
    x, gx, slope = lo, g_lo, dg[:, 1]

    budget = MAX_NEWTON_ITERS + MAX_BISECT_ITERS
    # a zero or infinite slope gives a step outside the bracket: bisect
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(budget):
            newton = it < MAX_NEWTON_ITERS
            mid = 0.5 * (lo + hi)
            if newton:
                step = x - gx / slope
                step = np.where(np.isfinite(slope) & (lo < step) & (step < hi), step, mid)
                g, slope = kernel(step[:, None])
                g, slope = g[:, 0], slope[:, 0]
                done = (abs(g) <= tol) | (abs(step - x) <= GAMMA_REL_TOL * step)
            else:
                # Newton budget exhausted: finish by bisection
                step = mid
                g = kernel(step[:, None], derivative=False)[0][:, 0]
            same = np.sign(g) == np.sign(g_lo)
            lo, g_lo, hi = (np.where(same, step, lo), np.where(same, g, g_lo),
                            np.where(same, hi, step))
            if not newton:
                done = (abs(g) <= tol) | (hi - lo <= GAMMA_REL_TOL * step)
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


def solve_secular_weighted(split, weights):
    """Solve G(gamma) = 0 for a single system; see _solve_lanes."""
    weights = _checked_weights(split, weights)
    return _solve_lanes(split.es.eigenvalues[None], split.sigma1_sq[None], weights[None],
                        split.beta, split.n2, split.rho)[0]


def solve_secular(split, d):
    """Solve the secular equation for an eigenbasis observation d = U^H r."""
    d = np.asarray(d, dtype=complex)
    if d.shape != (split.es.n,):
        raise ValueError("d length %s does not match system size %d"
                         % (d.shape, split.es.n))
    return solve_secular_weighted(split, np.abs(d) ** 2)


def per_snapshot_weights(es, y):
    """Per lane of (lanes, n, n_s) snapshots y, the (n_s, n) |U^H y_t|^2."""
    uh = es.u.conj().swapaxes(-1, -2)
    return [np.abs(uh[i] @ y[i]).T ** 2 for i in range(len(y))]


def copra_gammas_lanes(split, a_presumed, snapshot_weights=None, snapshot_policy="averaged"):
    """Solve for the steering-side and snapshot-side regularization parameters.

    split holds a stack of lanes and a_presumed is (lanes, n); returns one
    (report_b, report_z) pair of SecularSolveReports per lane. The
    steering-side solve uses d = U^H a.
    For the snapshot side the default policy replaces |d_i|^2 by its average
    over all snapshots, which equals the covariance eigenvalue lambda_i; the
    alternative solves per snapshot of snapshot_weights (per_snapshot_weights,
    lanes may differ in n_s) and takes the median gamma. Its report sums the
    iterations and takes the largest residual; it is converged only if every
    solve converged and a fallback if any solve fell back.
    """
    if snapshot_policy not in ("averaged", "per-snapshot-median"):
        raise ValueError("unknown snapshot policy %r" % snapshot_policy)
    lam, lam1 = split.es.eigenvalues, split.sigma1_sq
    weights_b = np.abs(lanes_matmul(split.es.u.conj().swapaxes(-1, -2), a_presumed)) ** 2
    lanes = len(lam)
    if snapshot_policy == "averaged":
        # mean over snapshots of |U^H y_t|^2 equals the eigenvalues of the
        # sample covariance formed from the same snapshots
        counts, weights_z = np.ones(lanes, dtype=int), lam
    else:
        # every snapshot of every lane is a lane of its own
        counts = [len(w) for w in snapshot_weights]
        weights_z = np.concatenate(snapshot_weights)
    rows = np.repeat(np.arange(lanes), counts)
    # both sides run as lanes of one solve
    reports = _solve_lanes(np.concatenate([lam, lam[rows]]), np.concatenate([lam1, lam1[rows]]),
                           np.concatenate([weights_b, weights_z]), split.beta, split.n2, split.rho)
    reports_b, reports_z = reports[:lanes], reports[lanes:]
    if snapshot_policy != "averaged":
        reports_z = [SecularSolveReport(
            gamma=float(np.median([r.gamma for r in reps])),
            iterations=sum(r.iterations for r in reps),
            residual=max(r.residual for r in reps),
            converged=all(r.converged for r in reps),
            fallback_used=any(r.fallback_used for r in reps))
            for reps in (reports_z[end - n:end] for n, end in zip(counts, np.cumsum(counts)))]
    return list(zip(reports_b, reports_z))


def copra_gammas(split, a_presumed, snapshots, snapshot_policy="averaged"):
    """(report_b, report_z) of a single system; see copra_gammas_lanes."""
    es = split.es[None]
    weights = (per_snapshot_weights(es, snapshots.snapshots[None])
               if snapshot_policy == "per-snapshot-median" else None)
    return copra_gammas_lanes(_split(es, split.n1, split.rho),
                              np.asarray(a_presumed, dtype=complex)[None], weights,
                              snapshot_policy)[0]


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
