"""Hermitian eigendecomposition kernel shared by every beamforming method.

All downstream computation (covariance inversion, spectral filtering,
regularization selection) runs through one eigendecomposition per trial.
"""

import numpy as np

__all__ = ["HermitianEigensystem", "hermitian_evd"]

_HERMITIAN_TOL = 1e-8


class HermitianEigensystem:
    """Eigendecomposition of a Hermitian PSD matrix.

    Attributes:
        u: (n, n) complex ndarray whose columns are orthonormal eigenvectors.
        eigenvalues: (n,) real ndarray, sorted descending, clamped at zero.
    """

    __slots__ = ("u", "eigenvalues")

    def __init__(self, u, eigenvalues):
        self.u = u
        self.eigenvalues = eigenvalues

    @property
    def n(self):
        return self.eigenvalues.shape[0]


def hermitian_evd(a):
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    Negative eigenvalues arising from round-off (rank-deficient sample
    covariances) are clamped to exactly zero.

    Args:
        a: square Hermitian ndarray (within relative tolerance 1e-8).

    Returns:
        HermitianEigensystem.

    Raises:
        ValueError: non-square input or Hermitian symmetry violated.
        np.linalg.LinAlgError: eigensolver failed to converge.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix, got shape %s" % (a.shape,))
    norm = np.linalg.norm(a)
    defect = np.linalg.norm(a - a.conj().T)
    if norm > 0 and defect > _HERMITIAN_TOL * norm:
        raise ValueError(
            "matrix is not Hermitian: asymmetry %.3e exceeds %.1e relative"
            % (defect / norm, _HERMITIAN_TOL)
        )
    w, v = np.linalg.eigh(a)
    # eigh returns ascending order
    w = np.maximum(w[::-1], 0.0)
    v = v[:, ::-1]
    return HermitianEigensystem(np.ascontiguousarray(v), np.ascontiguousarray(w))
