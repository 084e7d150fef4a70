"""Shared test helpers: random matrix factories and independent dense-matrix
oracles for the eigenvalue-sum implementations.
"""

import numpy as np

from copra_beam.linalg import hermitian_evd


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


def grid_secular_values(split, weights, grid):
    """Vectorized G over a gamma grid (dense broadcasting, oracle use only)."""
    lam = split.es.eigenvalues
    lam1 = split.sigma1_sq
    beta = split.beta
    g = grid[:, None]
    sh = lam[None, :] + g
    sh1 = lam1[None, :] + g
    t_a = ((lam * weights)[None, :] / sh**2).sum(axis=1)
    t_d = (weights[None, :] / sh**2).sum(axis=1)
    t_b = ((beta * lam1[None, :] + g) / sh1**2).sum(axis=1)
    t_e = ((lam1[None, :] * (beta * lam1[None, :] + g)) / sh1**2).sum(axis=1)
    return t_a * t_b + (split.n2 / grid) * t_a - t_d * t_e


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


def grid_scan_root(split, weights, n_points=10**6, lo_factor=1e-9, hi_factor=1e3):
    """First positive root of G by dense log-grid sign scan plus bisection.

    Returns None when no sign change exists on the scanned interval.
    """
    from copra_beam.secular import secular_function_weighted

    mean_lam = split.es.eigenvalues.mean()
    grid = np.geomspace(lo_factor * mean_lam, hi_factor * mean_lam, n_points)
    # scan in chunks and stop at the first sign change; identical result to
    # evaluating the whole grid, much cheaper when the root sits early
    chunk = 50_000
    lo = hi = s_lo = None
    for start in range(0, n_points - 1, chunk):
        block = grid[start:start + chunk + 1]  # overlap one point
        vals = grid_secular_values(split, weights, block)
        sign = np.sign(vals)
        idx = np.nonzero((sign[:-1] != 0) & (sign[:-1] != sign[1:]))[0]
        if idx.size:
            lo, hi = float(block[idx[0]]), float(block[idx[0] + 1])
            s_lo = sign[idx[0]]
            break
    if lo is None:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sign(secular_function_weighted(mid, split, weights)) == s_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * mid:
            break
    return 0.5 * (lo + hi)


def eigensystem_of(matrix):
    return hermitian_evd(matrix)
