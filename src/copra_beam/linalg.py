"""Hermitian eigendecomposition kernel shared by every beamforming method.

All downstream computation (covariance inversion, spectral filtering,
regularization selection) runs through one eigendecomposition per trial. The
kernel takes a single matrix or a stack of them with a leading lane axis; a
lane's result does not depend on the other lanes of the stack.
"""

import numpy as np

__all__ = ["HermitianEigensystem", "hermitian_evd"]

_HERMITIAN_TOL = 1e-8


class HermitianEigensystem:
    """Eigendecomposition of a Hermitian PSD matrix, or of a stack of them.

    Attributes:
        u: (..., n, n) complex ndarray whose columns are orthonormal eigenvectors.
        eigenvalues: (..., n) real ndarray, sorted descending, clamped at zero.

    Indexing selects lanes: ``es[idx]`` is the eigensystem of the stack's
    lanes idx, and ``es[None]`` the one-lane stack of a single system.
    """

    __slots__ = ("u", "eigenvalues")

    def __init__(self, u, eigenvalues):
        self.u = u
        self.eigenvalues = eigenvalues

    @property
    def n(self):
        return self.eigenvalues.shape[-1]

    def __getitem__(self, lanes):
        return HermitianEigensystem(self.u[lanes], self.eigenvalues[lanes])


def hermitian_evd(a):
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    Negative eigenvalues arising from round-off (rank-deficient sample
    covariances) are clamped to exactly zero.

    Args:
        a: square Hermitian ndarray (within relative tolerance 1e-8), or a
            (lanes, n, n) stack of them.

    Returns:
        HermitianEigensystem with the same leading shape.

    Raises:
        ValueError: non-square input or Hermitian symmetry violated.
        np.linalg.LinAlgError: eigensolver failed to converge (on a stack,
            for any lane).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("input must be a square matrix, got shape %s" % (a.shape,))
    norm = np.linalg.norm(a, axis=(-2, -1))
    defect = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    # a zero matrix has no defect either
    bad = defect > _HERMITIAN_TOL * norm
    if bad.any():
        worst = np.max(defect[bad] / norm[bad])
        raise ValueError(
            "matrix is not Hermitian: asymmetry %.3e exceeds %.1e relative"
            % (worst, _HERMITIAN_TOL)
        )
    w, v = np.linalg.eigh(a)
    # eigh returns ascending order
    w = np.maximum(w[..., ::-1], 0.0)
    v = v[..., ::-1]
    return HermitianEigensystem(np.ascontiguousarray(v), np.ascontiguousarray(w))


def lanes_matmul(x, y):
    """x @ y on every lane, with numpy's rules for a 1-D operand per lane.

    A (lanes, n) operand is a vector per lane and a (lanes, n, k) operand a
    matrix, so each lane goes through the same BLAS call, and gets the same
    bits, as the 2-D product of that lane alone.
    """
    out = (x[:, None, :] if x.ndim == 2 else x) @ (y[..., None] if y.ndim == 2 else y)
    if y.ndim == 2:
        out = out[..., 0]
    return out[:, 0] if x.ndim == 2 else out


def flag_lanes(errors, bad, error):
    """Give error(lane) to every lane in the mask bad that has no error yet.

    errors holds, per lane, the exception that lane raises on its own, or
    None; the first error found for a lane is the one it keeps.
    """
    for i, flagged in enumerate(bad.tolist()):
        if flagged and errors[i] is None:
            errors[i] = error(i)
    return errors


def one_lane(values, errors):
    """Lane 0 of a one-lane kernel result, raising the error it recorded."""
    if errors[0] is not None:
        raise errors[0]
    return values[0]
