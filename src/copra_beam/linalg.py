"""Hermitian eigendecomposition kernel shared by every beamforming method.

All downstream computation (covariance inversion, spectral filtering,
regularization selection) runs through one eigendecomposition per trial. The
kernel takes a single matrix or a stack of them with a leading lane axis; a
lane's result does not depend on the other lanes of the stack.
"""

import numpy as np

# sized in config, whose array budget reads them; BLOCK is the harness's
from .config import BLOCK, LANE_CHUNK

__all__ = ["HermitianEigensystem", "hermitian_evd"]

_HERMITIAN_TOL = 1e-8


class HermitianEigensystem:
    """Eigendecomposition of a Hermitian PSD matrix, or of a stack of them.

    Attributes:
        u: (..., n, n) complex ndarray whose columns are orthonormal eigenvectors.
        eigenvalues: (..., n) real ndarray, sorted descending, clamped at zero.
        errors: (...) object ndarray, per lane its failure or None (default);
            a failed lane holds the zero matrix's eigensystem (u = I).

    Indexing selects lanes: ``es[idx]`` is the eigensystem of the stack's
    lanes idx, and ``es[None]`` the one-lane stack of a single system.
    """

    __slots__ = ("u", "eigenvalues", "errors")

    def __init__(self, u, eigenvalues, errors=None):
        self.u = u
        self.eigenvalues = eigenvalues
        self.errors = np.empty(eigenvalues.shape[:-1], object) if errors is None else errors

    @property
    def n(self):
        return self.eigenvalues.shape[-1]

    def __getitem__(self, lanes):
        # the ellipsis keeps a single lane's error a 0-d array
        return HermitianEigensystem(self.u[lanes], self.eigenvalues[lanes],
                                    self.errors[lanes, ...])


def hermitian_evd(a):
    """Eigendecomposition of a Hermitian matrix with descending eigenvalues.

    a is a square Hermitian matrix (within relative tolerance 1e-8), or a
    (lanes, n, n) stack of them; the HermitianEigensystem has the same
    leading shape. Negative eigenvalues arising from round-off
    (rank-deficient sample covariances) are clamped to exactly zero. Raises
    ValueError for a non-square input. A stack flags in errors each lane that
    is not Hermitian (ValueError) or whose eigh does not converge
    (LinAlgError, the stack retried matrix by matrix); a matrix raises them.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("input must be a square matrix, got shape %s" % (a.shape,))
    if a.ndim == 2:
        es = hermitian_evd(a[None])
        return one_lane(es, es.errors)
    norm = np.linalg.norm(a, axis=(-2, -1))
    defect = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    errors = np.empty(len(a), dtype=object)  # None on every lane
    # a zero matrix has no defect either
    for i in (defect > _HERMITIAN_TOL * norm).nonzero()[0]:
        errors[i] = ValueError("matrix is not Hermitian: asymmetry %.3e exceeds %.1e relative"
                               % (defect[i] / norm[i], _HERMITIAN_TOL))
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        # a stacked eigh fails as a whole when one lane fails
        w, v = np.zeros(a.shape[:-1]), np.empty_like(a)
        for i, m in enumerate(a):
            try:
                w[i], v[i] = np.linalg.eigh(m)
            except np.linalg.LinAlgError as exc:
                errors[i] = errors[i] or exc
    # eigh returns ascending order
    w = np.ascontiguousarray(np.maximum(w[..., ::-1], 0.0))
    v = np.ascontiguousarray(v[..., ::-1])
    if any(errors.tolist()):
        failed = np.not_equal(errors, None)
        w[failed], v[failed] = 0.0, np.eye(a.shape[-1])
    return HermitianEigensystem(v, w, errors)


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


def lane_chunks(lanes):
    """Slices that cover range(lanes) in runs of LANE_CHUNK lanes."""
    return [slice(start, start + LANE_CHUNK) for start in range(0, lanes, LANE_CHUNK)]


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
