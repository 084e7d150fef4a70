"""Weight computation for every beamforming method under test, plus the
generic regularized estimators and worst-case cost/gradient used as oracles.

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
    "ls_estimate",
    "rls_estimate",
    "quasi_optimal_gamma",
    "worst_case_cost",
    "worst_case_gradient",
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
    grid = np.geomspace(lo_factor * lam[0], hi_factor * lam[0], n_grid)
    p = np.sum(np.abs((es.u.conj().T @ r).reshape(lam.size, -1)) ** 2, axis=1)
    filt = np.sqrt(lam)[:, None] / (lam[:, None] + grid[None, :])  # (n, n_grid)
    diffs = np.sqrt(p @ np.diff(filt, axis=1) ** 2)
    return float(grid[int(np.argmin(diffs))])


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
