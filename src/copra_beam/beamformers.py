"""Weight computation for every beamforming method under test and the
quasi-optimality regularization selector.

All spectral filtering goes through one shared eigendecomposition of the
sample covariance; no second inversion pathway exists.
"""

from dataclasses import dataclass

import numpy as np

from .arraysim import true_covariance
from .linalg import hermitian_evd

__all__ = [
    "BeamformerWeights",
    "mvdr_weights",
    "diagonal_loading_weights",
    "copra_weights",
    "optimal_weights",
    "quasi_optimal_gamma",
]

_PD_RTOL = 1e-12


@dataclass(frozen=True)
class BeamformerWeights:
    """Complex weight vector w applied as w^H y, tagged with its method."""

    w: np.ndarray
    method: str
    gamma_b: float = None
    gamma_z: float = None


class SingularCovarianceError(np.linalg.LinAlgError):
    """Covariance too close to singular for unregularized inversion."""


def _spectral_solve(es, a):
    """C^{-1} a through the eigensystem; raises on a numerically singular C."""
    lam = es.eigenvalues
    if lam[-1] <= _PD_RTOL * lam[0]:
        raise SingularCovarianceError(
            "covariance numerically singular (eigenvalue ratio %.3e); "
            "use a regularized method" % (lam[-1] / lam[0] if lam[0] else 0.0))
    return es.u @ ((es.u.conj().T @ a) / lam)


def mvdr_weights(c, a):
    """Minimum-variance distortionless weights w = C^{-1}a / (a^H C^{-1} a)."""
    a = np.asarray(a, dtype=complex)
    if not np.any(a):
        raise ValueError("steering vector is zero")
    es = c if hasattr(c, "eigenvalues") else hermitian_evd(c)
    ca = _spectral_solve(es, a)
    w = ca / np.real(a.conj() @ ca)
    return BeamformerWeights(w=w, method="sample-mvdr")


def diagonal_loading_weights(c, a, loading):
    """MVDR on the loaded covariance C + loading * I."""
    c = np.asarray(c, dtype=complex)
    n = c.shape[0]
    w = mvdr_weights(c + loading * np.eye(n), a)
    return BeamformerWeights(w=w.w, method="diagonal-loading")


def copra_weights(es, gamma_b, gamma_z, a):
    """Regularized MVDR weights from the two solved regularization levels.

    w = U diag(lam / ((lam+gamma_b)(lam+gamma_z))) U^H a, normalized by
    a^H U diag(lam / (lam+gamma_b)^2) U^H a, so that w^H y reproduces the
    inner-product form b^H z / (b^H b) of the regularized beamformer output.
    """
    if gamma_b < 0 or gamma_z < 0:
        raise ValueError("regularization parameters must be >= 0")
    a = np.asarray(a, dtype=complex)
    lam = es.eigenvalues
    if (gamma_b == 0 or gamma_z == 0) and lam[-1] <= _PD_RTOL * lam[0]:
        raise SingularCovarianceError(
            "zero regularization requires a numerically invertible spectrum")
    d = es.u.conj().T @ a
    numer_filter = lam / ((lam + gamma_b) * (lam + gamma_z))
    denom = float(np.sum(lam / (lam + gamma_b) ** 2 * np.abs(d) ** 2))
    if denom == 0.0:
        raise ValueError("steering vector orthogonal to all retained modes")
    w = es.u @ (numer_filter * d) / denom
    return BeamformerWeights(w=w, method="copra", gamma_b=gamma_b, gamma_z=gamma_z)


def optimal_weights(scenario):
    """Clairvoyant MVDR: true covariance and true steering vector."""
    w = mvdr_weights(true_covariance(scenario), scenario.a_true)
    return BeamformerWeights(w=w.w, method="optimal")


def quasi_optimal_gamma(es, r, n_grid=200, lo_factor=1e-8, hi_factor=10.0):
    """Quasi-optimality selector on a geometric regularization grid.

    Returns the grid point minimizing the norm of the successive difference
    of the regularized estimate filt(gamma) * (U^H r); ties break toward
    smaller values. r may be a vector or a matrix of column observations
    (Frobenius norm). The squared norm is the closed form p @ diff(filt)^2
    with p_i = sum_t |(U^H r)_it|^2, so no estimate is formed.
    """
    r = np.asarray(r, dtype=complex)
    if not np.any(r):
        raise ValueError("observation is zero")
    lam = es.eigenvalues
    if not lam[0] > 0:
        raise ValueError("cannot select gamma for an all-zero spectrum")
    grid = np.geomspace(lo_factor * lam[0], hi_factor * lam[0], n_grid)
    p = np.sum(np.abs((es.u.conj().T @ r).reshape(lam.size, -1)) ** 2, axis=1)
    filt = np.sqrt(lam)[:, None] / (lam[:, None] + grid[None, :])  # (n, n_grid)
    diffs = np.sqrt(p @ np.diff(filt, axis=1) ** 2)
    return float(grid[int(np.argmin(diffs))])
