"""Data-driven regularization-parameter selection for the RLS beamformer.

The covariance spectrum is split into significant and near-zero groups, and
the regularization parameter is obtained as the positive root of a scalar
secular equation G(gamma) = 0. One kernel forms its O(n) eigenvalue sums for
a scalar gamma or a whole grid and returns G, G' and a zero-detection scale.
Safeguarded Newton solves it inside the bracket of the first sign change on
a logarithmic scan grid; when the scan finds none the solver falls back to a
regularization level at the truncation scale of the spectrum and flags it.
The scan has two tiers: one pass of BLAS trace sums over every lane decides
each grid point whose G clears the zero threshold by a rounding bound
derived for both passes (see _sign_pass), and the kernel recomputes every
other point. Every sign the scan finds is the one the kernel's G has, and
every G at a bracket end or a Newton step is the kernel's, so every gamma
bit is the kernel's. The kernel and the solver run over a stack of lanes,
each lane with its own spectrum; the single-system functions are the
one-lane case.
"""

from dataclasses import dataclass, fields

import numpy as np

from .config import LANE_CHUNK, SCAN_POINTS
from .linalg import lane_chunks, lanes_matmul

__all__ = [
    "EigenSplit",
    "SecularSolveReport",
    "split_eigenvalues",
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
    """Outcome of one secular-equation solve, or of a stack of lanes.

    Each solve ends in one of three states: converged; a fallback, where the
    sign scan found no root and gamma is rho * mean(eigenvalues), with 0
    iterations; or neither, the budget spent and gamma the bracket's
    midpoint. In a stack every field is a (lanes,) array. Indexing selects
    lanes: an integer gives that lane's report in Python float, int and
    bool, as a single solve returns it.
    """

    gamma: float
    iterations: int
    converged: bool
    fallback_used: bool

    def __getitem__(self, lanes):
        values = [getattr(self, f.name)[lanes] for f in fields(self)]
        if isinstance(lanes, (int, np.integer)):
            values = [v.item() for v in values]
        return SecularSolveReport(*values)


# Safeguarded-Newton controls. The bracket comes from a SCAN_POINTS-point
# logarithmic sign scan over [SCAN_LO_FACTOR, SCAN_HI_FACTOR] * mean(eigenvalues)
# (config sizes its array budget by SCAN_POINTS); Newton steps leaving the
# bracket are replaced by bisection.
MAX_NEWTON_ITERS = 100
MAX_BISECT_ITERS = 200
GAMMA_REL_TOL = 1e-9
RESIDUAL_REL_TOL = 1e-12
# |G| at most this share of its scale counts as zero in the sign scan
ZERO_REL_TOL = 1e-12
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


def split_eigenvalues(es, rho):
    """Split the spectrum at rho times the mean singular value.

    All singular values strictly above the threshold are significant. With
    equal eigenvalues every one exceeds rho * mean for rho < 1, so n2 = 0 and
    no truncation occurs. An all-zero spectrum has none and is refused.
    """
    n1 = int(_significant(es.eigenvalues, rho))
    if n1 == 0:
        raise ValueError("cannot split an all-zero spectrum")
    return EigenSplit(es=es, n1=n1, n2=es.n - n1, rho=rho,
                      sigma1_sq=es.eigenvalues[..., :n1].copy(), beta=es.n / n1)


def _kernel(gamma, lam, lam1, weights, beta, n2, derivative):
    """G and either dG/dgamma or the zero-detection scale, from one pass.

    gamma is (lanes, points); lam, lam1 (the significant block) and weights
    (|d_i|^2 over the full spectrum) hold one row per lane; beta and n2 are
    scalars or per-lane arrays shaped to broadcast. Every (lane,
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


def _checked_weights(split, weights):
    weights = np.ascontiguousarray(weights, dtype=float)
    if weights.shape != (split.es.n,):
        raise ValueError("weights length %s does not match system size %d"
                         % (weights.shape, split.es.n))
    return weights


def secular_function_weighted(gamma, split, weights):
    """G(gamma) with the observation entering only through |d_i|^2 weights."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    # G takes the same operations with or without the derivative
    return _kernel(np.full((1, 1), gamma, dtype=float), split.es.eigenvalues[None],
                   split.sigma1_sq[None], _checked_weights(split, weights)[None], split.beta,
                   split.n2, derivative=False)[0][0, 0]


def secular_function(gamma, split, d):
    """G(gamma) for an observation expressed in the eigenbasis, d = U^H r."""
    d = np.asarray(d, dtype=complex)
    return secular_function_weighted(gamma, split, np.abs(d) ** 2)


def _sign_bound(n):
    """kappa = (4n + 28) u: the share of its scale by which the sign pass's G
    must clear the zero threshold on a lane of n eigenvalues; see _sign_pass."""
    return (4 * n + 28) * (np.finfo(float).eps / 2)


def _sign_pass(lam, n1, weights, beta, n2):
    """Per lane: whether G changes sign on its scan grid, and the grid points
    (lo, hi) around the first change.

    Lanes may differ in n1, beta and n2, each a (lanes,) array. The sign at
    a grid point is the one _kernel's G has there, zero where |G| is at most
    ZERO_REL_TOL times the kernel's scale (degenerate spectra make G
    identically zero without an isolated root). Two tiers find it.

    Fast tier. Per chunk of LANE_CHUNK lanes, 1/(lambda + gamma)^2 is formed
    once in a (lanes, n, points) buffer, and one matrix product against five
    coefficient rows per lane gives t_a, t_d and the moments M_k = sum over
    the n1 block of lambda^k / (lambda + gamma)^2, k = 0, 1, 2; then t_b =
    beta M_1 + gamma M_0 and t_e = beta M_2 + gamma M_1. Every term is
    non-negative (eigenvalues are clamped at 0, weights are |d|^2, gamma >
    0), so rounding errors cannot cancel. With u = 2^-53, counting the
    roundings in each term plus n - 1 for its sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, Lemma 3.1 and section
    4.2; the count holds in any order of summation, BLAS's included), and
    S = t_a t_b + (n2 / gamma) t_a + t_d t_e the exact scale:
      _kernel's t_a, t_b, t_d, t_e carry n + 4, n + 5, n + 3, n + 6
        roundings, so its G is within (2n + 12) u S of the exact G, and its
        scale within (2n + 12) u S of S;
      this pass's t_a, t_d, M_0, M_1, M_2 carry n + 5, n + 4, n + 4, n + 4,
        n + 5, so t_b and t_e n + 6 and n + 7, and its G and its scale s
        are within (2n + 14) u S of G and S.
    So the two G differ by at most (4n + 26) u s, to first order in u. A
    point is decided here when |G| > (ZERO_REL_TOL + kappa) s, a sign, or
    |G| < (ZERO_REL_TOL - kappa) s, a zero, with kappa = _sign_bound(n) =
    (4n + 28) u: 4n + 26 units for the two passes, and two for the rest,
    the kernel threshold's own error ZERO_REL_TOL (4n + 27) u, the test's
    roundings and the second-order terms, together far below u for any n
    under 10^6. Then _kernel's G has this G's sign, or is zero where this
    one is. A NaN or infinite value fails both tests.

    The count assumes no underflow or overflow. When every positive
    eigenvalue, weight and grid end of a lane lies in [2^-100, 2^100], every
    term, sum and product of either pass lies in [2^-704, 2^1002], inside
    the normal range. A lane outside that range, or with a negative
    eigenvalue or weight, is decided nowhere here.

    Recheck tier. _kernel recomputes every undecided point of a chunk on
    that (lane, point) alone, lanes grouped by n1. Each (lane, point) of the kernel
    sums a contiguous row of its own, so it gets the bits it gets in a
    whole-grid call: every sign, and so every bracket, is the kernel's.
    """
    lanes, n = lam.shape
    mean_lam = lam.mean(axis=-1)
    grid = np.ascontiguousarray(np.geomspace(SCAN_LO_FACTOR * mean_lam, SCAN_HI_FACTOR * mean_lam,
                                             SCAN_POINTS, axis=-1))
    width = min(lanes, LANE_CHUNK)
    # row 0 stays 1, row 1 takes a chunk's grid
    one_grid = np.ones((width, 2, SCAN_POINTS))
    inv = np.empty((width, n, SCAN_POINTS))
    # each sum a block of its own, so the steps below read contiguous rows
    sums = np.empty((5, width, SCAN_POINTS))
    sign = np.empty((lanes, SCAN_POINTS))
    decided = np.empty((width, SCAN_POINTS), dtype=bool)
    # |G| above scale * clear is a sign and below scale * vanish a zero
    clear, vanish = ZERO_REL_TOL + _sign_bound(n), ZERO_REL_TOL - _sign_bound(n)
    # the bound's range: each eigenvalue, weight and grid end is 0 or in
    # [2^-100, 2^100]. A lane out of it may overflow or underflow below, and
    # no point of it is decided there
    data = np.concatenate([lam, weights, grid[:, ::SCAN_POINTS - 1]], axis=1)
    in_range = ((data == 0) | ((data >= 2.0**-100) & (data <= 2.0**100))).all(axis=1)
    with np.errstate(all="ignore"):
        block = np.arange(n) < n1[:, None]
        # rows: t_a, t_d, then M_0, M_1, M_2 over the n1 block
        coeffs = np.stack([lam * weights, weights, block, lam * block, lam * lam * block], axis=1)
        # lambda + gamma as [lambda, 1] @ [1, gamma]: products by 1 are exact,
        # so each entry is the one rounding of the sum
        lam_one = np.stack([lam, np.ones_like(lam)], axis=-1)
        for c in lane_chunks(lanes):
            g = grid[c]
            k = len(g)
            one_grid[:k, 1] = g
            shifted = np.matmul(lam_one[c], one_grid[:k], out=inv[:k])
            np.square(shifted, out=shifted)
            np.reciprocal(shifted, out=shifted)
            np.matmul(coeffs[c], shifted, out=sums[:, :k].transpose(1, 0, 2))
            t_a, t_d, m_0, m_1, m_2 = sums[:, :k]
            b = beta[c, None]
            a = t_a * (b * m_1 + g * m_0) + (n2[c, None] / g) * t_a
            p_3 = t_d * (b * m_2 + g * m_1)
            vals, scale = a - p_3, a + p_3
            size = abs(vals)
            # a NaN fails both tests, and so does every value whose scale is
            # not finite
            nonzero = size > clear * scale
            np.copysign(nonzero, vals, out=sign[c])
            np.logical_or(nonzero, size < vanish * scale, out=decided[:k])
            decided[:k] &= in_range[c, None]
            # the recheck, a chunk at a time so its arrays stay chunk-sized
            at, point = np.nonzero(~decided[:k])
            at += c.start
            for group in sorted(set(n1[at].tolist())):
                i, j = at[n1[at] == group], point[n1[at] == group]
                vals, scales = _kernel(grid[i, j][:, None], lam[i], lam[i, :group], weights[i],
                                       beta[i, None, None], n2[i, None], derivative=False)
                exact = np.sign(vals[:, 0])
                exact[np.abs(vals[:, 0]) <= ZERO_REL_TOL * scales[:, 0]] = 0
                sign[i, j] = exact

    # the first change is at the first nonzero sign after the first one
    # that differs from it (a NaN differs from everything); it brackets
    # with the last nonzero sign before it
    rows, points = np.arange(lanes), np.arange(SCAN_POINTS)
    nonzero = sign != 0
    first = nonzero.argmax(axis=1)
    change = nonzero & (sign != sign[rows, first][:, None]) & (points > first[:, None])
    hi_at = change.argmax(axis=1)
    lo_at = SCAN_POINTS - 1 - (nonzero & (points < hi_at[:, None]))[:, ::-1].argmax(axis=1)
    return change.any(axis=1), grid[rows, lo_at], grid[rows, hi_at]


def _newton(lam, lam1, weights, beta, n2, rho, found, lo, hi):
    """Refine the bracketed lanes of a stack split at one n1; its report.

    found, lo and hi are _sign_pass's. A lane without a bracket falls back.
    Newton steps all bracketed lanes together inside their brackets, with
    bisection safeguards, taking G and G' from one kernel call per step,
    then bisects once the Newton budget is spent. A lane leaves once it
    converges; one still open when the budget is spent takes its bracket's
    midpoint. Iterations and bits are each lane's own.
    """
    # positive: a split refuses a spectrum without a positive eigenvalue
    mean_lam = lam.mean(axis=-1)

    def kernel(x, derivative=True):
        # on the lanes still open: the arrays below shrink as lanes finish
        return _kernel(x, lam, lam1, weights, beta, n2, derivative)

    # every lane starts as a fallback; the bracketed ones are written below
    report = SecularSolveReport(gamma=rho * mean_lam, iterations=np.zeros(len(lam), dtype=int),
                                converged=np.zeros(len(lam), dtype=bool), fallback_used=~found)

    lanes = np.flatnonzero(found)
    if not lanes.size:
        return report
    lo, hi = lo[lanes], hi[lanes]
    lam, lam1, weights = lam[lanes], lam1[lanes], weights[lanes]

    # G at the initial point and both bracket ends, and G' at the low end,
    # in one call
    start = np.maximum(INIT_FACTOR * mean_lam[lanes], lo)
    g, dg = kernel(np.stack([start, lo, hi], axis=1))
    g_lo = g[:, 1]
    tol = RESIDUAL_REL_TOL * np.max(abs(g), axis=1)
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
            else:
                # Newton budget exhausted: finish by bisection
                step = mid
                g = kernel(step[:, None], derivative=False)[0][:, 0]
            same = np.sign(g) == np.sign(g_lo)
            lo, g_lo, hi = (np.where(same, step, lo), np.where(same, g, g_lo),
                            np.where(same, hi, step))
            # the Newton test reads only g, step and x, which the bracket keeps
            done = (abs(g) <= tol) | ((abs(step - x) if newton else hi - lo)
                                      <= GAMMA_REL_TOL * step)
            x, gx = step, g
            if done.any():
                at = lanes[done]
                report.gamma[at], report.iterations[at], report.converged[at] = (
                    x[done], it + 1, True)
                if done.all():
                    return report
                keep = ~done
                lanes, lam, lam1, weights, lo, hi, g_lo, x, gx, slope, tol = (
                    v[keep] for v in (lanes, lam, lam1, weights, lo, hi, g_lo, x, gx,
                                      slope, tol))

    # the budget is spent: neither converged nor a fallback
    report.gamma[lanes], report.iterations[lanes] = 0.5 * (lo + hi), budget
    return report


def _solve_lanes(lam, lam1, weights, beta, n2, rho):
    """Solve G(gamma) = 0 on every lane; one stacked SecularSolveReport.

    lam, lam1 and weights hold one row per lane, all lanes split at the same
    n1, lam1 the first n1 columns of lam. _sign_pass brackets the first sign
    change on every lane's logarithmic grid in two tiers: BLAS trace sums
    decide each point whose G clears the zero threshold ZERO_REL_TOL times
    its scale by kappa = (4n + 28) u times the scale, the sum of both
    passes' derived rounding bounds (4n + 26 units) and two units for the
    threshold's and the test's own error; _kernel recomputes every other
    point alone. _newton refines the bracketed lanes, starting from
    _kernel's G at both bracket ends. So every gamma bit is _kernel's, as
    with an exact scan. Failures are reported, never raised, so Monte-Carlo
    runs always complete.
    """
    lanes, n1 = len(lam), lam1.shape[1]
    found, lo, hi = _sign_pass(lam, np.full(lanes, n1), weights, np.full(lanes, beta),
                               np.full(lanes, n2))
    return _newton(lam, lam1, weights, beta, n2, rho, found, lo, hi)


def solve_secular_weighted(split, weights):
    """Solve G(gamma) = 0 for a single system; see _solve_lanes."""
    weights = _checked_weights(split, weights)
    return _solve_lanes(split.es.eigenvalues[None], split.sigma1_sq[None], weights[None],
                        split.beta, split.n2, split.rho)[0]


def solve_secular(split, d):
    """Solve the secular equation for an eigenbasis observation d = U^H r."""
    return solve_secular_weighted(split, np.abs(np.asarray(d, dtype=complex)) ** 2)


def per_snapshot_weights(es, y):
    """Per lane of (lanes, n, n_s) snapshots y, the (n_s, n) |U^H y_t|^2."""
    uh = es.u.conj().swapaxes(-1, -2)
    return [np.abs(uh[i] @ y[i]).T ** 2 for i in range(len(y))]


def copra_gammas_lanes(es, a_presumed, rho, snapshot_weights=None, snapshot_policy="averaged"):
    """Split every lane of an eigensystem stack and solve both of its levels.

    es is a (lanes, n) eigensystem stack and a_presumed is (lanes, n);
    returns (n1, report_b, report_z): per lane its split n1, and the stacked
    SecularSolveReports of the steering side, d = U^H a, and the snapshot
    side. An all-zero spectrum cannot be split: its lane gets n1 = 0, a NaN
    level and neither flag. Both sides of every lane, whatever its n1, are
    lanes of one _sign_pass, which masks each lane's n1 block; its exact
    rechecks and Newton run per n1 group, never padded: numpy sums fewer
    than 8 terms in order and more in 8-way blocks, so a zero-padded
    sigma1_sq would change the bits of a lane's sums.
    For the snapshot side the default policy replaces |d_i|^2 by its average
    over all snapshots, which equals the covariance eigenvalue lambda_i; the
    alternative solves per snapshot of snapshot_weights (per_snapshot_weights,
    lanes may differ in n_s) and takes the median gamma. Its report sums the
    iterations; it is converged only if every solve converged and a fallback
    if any solve fell back.
    """
    if snapshot_policy not in ("averaged", "per-snapshot-median"):
        raise ValueError("unknown snapshot policy %r" % snapshot_policy)
    n1 = _significant(es.eigenvalues, rho)
    report_b, report_z = (SecularSolveReport(
        gamma=np.full(len(n1), np.nan), iterations=np.zeros(len(n1), dtype=int),
        converged=np.zeros(len(n1), dtype=bool), fallback_used=np.zeros(len(n1), dtype=bool))
        for _ in range(2))
    idx = np.flatnonzero(n1)
    if not idx.size:
        return n1, report_b, report_z
    weights_b = np.abs(lanes_matmul(es.u[idx].conj().swapaxes(-1, -2), a_presumed[idx])) ** 2
    if snapshot_policy == "averaged":
        # mean over snapshots of |U^H y_t|^2 equals the eigenvalues of the
        # sample covariance formed from the same snapshots
        counts, weights_z = np.ones(len(idx), dtype=int), es.eigenvalues[idx]
    else:
        # every snapshot of every lane is a lane of its own
        counts = [len(snapshot_weights[i]) for i in idx]
        weights_z = np.concatenate([snapshot_weights[i] for i in idx])
    # both sides of every split lane are lanes of one sign pass
    rows = idx[np.concatenate([np.arange(len(idx)), np.repeat(np.arange(len(idx)), counts)])]
    k, lam, weights = n1[rows], es.eigenvalues[rows], np.concatenate([weights_b, weights_z])
    found, lo, hi = _sign_pass(lam, k, weights, es.n / k, es.n - k)
    solved = SecularSolveReport(gamma=np.empty(len(rows)), iterations=np.empty(len(rows), dtype=int),
                                converged=np.empty(len(rows), dtype=bool),
                                fallback_used=np.empty(len(rows), dtype=bool))
    for group in sorted(set(k.tolist())):
        at = np.flatnonzero(k == group)
        _put(solved, at, _newton(lam[at], lam[at, :group], weights[at], es.n / group,
                                 es.n - group, rho, found[at], lo[at], hi[at]))
    b, z = solved[:len(idx)], solved[len(idx):]
    if snapshot_policy != "averaged":
        starts = np.cumsum(counts) - counts
        z = SecularSolveReport(
            gamma=np.array([np.median(g) for g in np.split(z.gamma, starts[1:])]),
            iterations=np.add.reduceat(z.iterations, starts),
            converged=np.logical_and.reduceat(z.converged, starts),
            fallback_used=np.logical_or.reduceat(z.fallback_used, starts))
    _put(report_b, idx, b)
    _put(report_z, idx, z)
    return n1, report_b, report_z


def _put(report, lanes, part):
    """Write the stacked report part into report's lanes."""
    for f in fields(report):
        getattr(report, f.name)[lanes] = getattr(part, f.name)


def copra_gammas(split, a_presumed, snapshots, snapshot_policy="averaged"):
    """(report_b, report_z) of a single system; see copra_gammas_lanes."""
    es = split.es[None]
    weights = (per_snapshot_weights(es, snapshots.snapshots[None])
               if snapshot_policy == "per-snapshot-median" else None)
    _, report_b, report_z = copra_gammas_lanes(
        es, np.asarray(a_presumed, dtype=complex)[None], split.rho, weights, snapshot_policy)
    return report_b[0], report_z[0]


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
