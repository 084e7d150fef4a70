"""Weight computation for every beamforming method under test and the
quasi-optimality regularization selector.

All spectral filtering goes through one shared eigendecomposition of the
sample covariance; no second inversion pathway exists. Each method is a
lane kernel over a stack of trials, returning the weights of every lane and
the error each lane would raise on its own (None when it succeeds); a lane's
result does not depend on the other lanes. The single-system functions are
the one-lane case of those kernels.
"""

from dataclasses import dataclass

import numpy as np

from .arraysim import interference_noise_lanes, true_covariance_lanes
from .linalg import flag_lanes, hermitian_evd, lanes_matmul, one_lane

__all__ = [
    "BeamformerWeights",
    "mvdr_weights",
    "diagonal_loading_weights",
    "copra_weights",
    "optimal_weights",
    "quasi_optimal_gamma",
    "mvdr_lanes",
    "loaded_mvdr_lanes",
    "copra_lanes",
    "optimal_lanes",
    "quasi_lanes",
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


def _uh(es):
    return es.u.conj().swapaxes(-1, -2)


def mvdr_lanes(es, a):
    """Minimum-variance distortionless weights w = C^{-1}a / (a^H C^{-1} a).

    es is a (lanes, n) eigensystem stack and a a (lanes, n) steering stack.
    C^{-1} a goes through the eigensystem; a numerically singular C is a
    SingularCovarianceError. Returns (w, errors).
    """
    lam = es.eigenvalues
    errors = flag_lanes([None] * len(lam), ~a.any(axis=-1),
                        lambda i: ValueError("steering vector is zero"))
    flag_lanes(errors, lam[:, -1] <= _PD_RTOL * lam[:, 0],
               lambda i: SingularCovarianceError(
                   "covariance numerically singular (eigenvalue ratio %.3e); "
                   "use a regularized method"
                   % (lam[i, -1] / lam[i, 0] if lam[i, 0] else 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ca = lanes_matmul(es.u, lanes_matmul(_uh(es), a) / lam)
        w = ca / np.real(lanes_matmul(a.conj(), ca))[:, None]
    return w, errors


def loaded_mvdr_lanes(c, a, loading):
    """MVDR on the loaded covariances C + loading * I of a (lanes, n, n) stack."""
    return mvdr_lanes(hermitian_evd(c + loading[:, None, None] * np.eye(c.shape[-1])), a)


def copra_lanes(es, gamma_b, gamma_z, a):
    """Regularized MVDR weights from the two solved regularization levels.

    w = U diag(lam / ((lam+gamma_b)(lam+gamma_z))) U^H a, normalized by
    a^H U diag(lam / (lam+gamma_b)^2) U^H a, so that w^H y reproduces the
    inner-product form b^H z / (b^H b) of the regularized beamformer output.
    gamma_b and gamma_z hold one level per lane. Returns (w, errors).
    """
    lam = es.eigenvalues
    gb, gz = gamma_b[:, None], gamma_z[:, None]
    errors = flag_lanes([None] * len(lam), (gamma_b < 0) | (gamma_z < 0),
                        lambda i: ValueError("regularization parameters must be >= 0"))
    flag_lanes(errors, ((gamma_b == 0) | (gamma_z == 0)) & (lam[:, -1] <= _PD_RTOL * lam[:, 0]),
               lambda i: SingularCovarianceError(
                   "zero regularization requires a numerically invertible spectrum"))
    d = lanes_matmul(_uh(es), a)
    with np.errstate(divide="ignore", invalid="ignore"):
        numer_filter = lam / ((lam + gb) * (lam + gz))
        denom = np.sum(lam / (lam + gb) ** 2 * np.abs(d) ** 2, axis=-1)
        flag_lanes(errors, denom == 0.0, lambda i: ValueError(
            "steering vector orthogonal to all retained modes"))
        w = lanes_matmul(es.u, numer_filter * d) / denom[:, None]
    return w, errors


def optimal_lanes(scenarios, c_in):
    """Clairvoyant MVDR: true covariance and true steering vector per lane.

    c_in holds the lanes' interference-plus-noise covariances.
    """
    a_true = np.array([sc.a_true for sc in scenarios])
    return mvdr_lanes(hermitian_evd(true_covariance_lanes(scenarios, c_in)), a_true)


def quasi_lanes(es, observations, n_grid=200, lo_factor=1e-8, hi_factor=10.0):
    """Quasi-optimality selector on a geometric regularization grid.

    For each observation stack r, returns (gamma, errors): each lane's grid
    point minimizing the norm of the successive difference of the
    regularized estimate filt(gamma) * (U^H r); ties break toward smaller
    values. r is a (lanes, n) vector or (lanes, n, n_obs) matrix stack
    (Frobenius norm). The squared norm is the closed form p @ diff(filt)^2
    with p_i = sum_t |(U^H r)_it|^2, so no estimate is formed, and the grid
    and diff(filt)^2 come from the spectrum alone, shared by every r.
    """
    lam = es.eigenvalues
    lanes, n = lam.shape
    flat = ~(lam[:, 0] > 0)
    # a lane without a positive eigenvalue gets a harmless scale, so that the
    # grids of the others are built; it is flagged below
    top = np.where(flat, 1.0, lam[:, 0])
    grid = np.ascontiguousarray(
        np.geomspace(lo_factor * top, hi_factor * top, n_grid, axis=-1))
    # squared in place, as is p below: keeps the selector's peak memory low
    dfilt_sq = np.diff(np.sqrt(lam)[:, :, None] / (lam[:, :, None] + grid[:, None, :]),
                       axis=-1)
    dfilt_sq **= 2
    uh = _uh(es)
    out = []
    for r in observations:
        errors = flag_lanes([None] * lanes, ~r.reshape(lanes, -1).any(axis=-1),
                            lambda i: ValueError("observation is zero"))
        flag_lanes(errors, flat, lambda i: ValueError(
            "cannot select gamma for an all-zero spectrum"))
        p = np.abs(lanes_matmul(uh, r).reshape(lanes, n, -1))
        p **= 2
        p = np.sum(p, axis=-1)
        diffs = np.sqrt(lanes_matmul(p, dfilt_sq))
        out.append((grid[np.arange(lanes), np.argmin(diffs, axis=-1)], errors))
    return out


def mvdr_weights(c, a):
    """Minimum-variance distortionless weights w = C^{-1}a / (a^H C^{-1} a)."""
    a = np.asarray(a, dtype=complex)
    es = c if hasattr(c, "eigenvalues") else hermitian_evd(c)
    w = one_lane(*mvdr_lanes(es[None], a[None]))
    return BeamformerWeights(w=w, method="sample-mvdr")


def diagonal_loading_weights(c, a, loading):
    """MVDR on the loaded covariance C + loading * I."""
    c = np.asarray(c, dtype=complex)
    a = np.asarray(a, dtype=complex)
    w = one_lane(*loaded_mvdr_lanes(c[None], a[None], np.array([loading], dtype=float)))
    return BeamformerWeights(w=w, method="diagonal-loading")


def copra_weights(es, gamma_b, gamma_z, a):
    """Regularized MVDR weights of a single system; see copra_lanes."""
    a = np.asarray(a, dtype=complex)
    w = one_lane(*copra_lanes(es[None], np.array([gamma_b], dtype=float),
                              np.array([gamma_z], dtype=float), a[None]))
    return BeamformerWeights(w=w, method="copra", gamma_b=gamma_b, gamma_z=gamma_z)


def optimal_weights(scenario):
    """Clairvoyant MVDR: true covariance and true steering vector."""
    w = one_lane(*optimal_lanes([scenario], interference_noise_lanes([scenario])))
    return BeamformerWeights(w=w, method="optimal")


def quasi_optimal_gamma(es, r, n_grid=200, lo_factor=1e-8, hi_factor=10.0):
    """Quasi-optimality grid point of a single system; see quasi_lanes."""
    r = np.asarray(r, dtype=complex)
    (gamma, errors), = quasi_lanes(es[None], [r[None]], n_grid, lo_factor, hi_factor)
    return float(one_lane(gamma, errors))
