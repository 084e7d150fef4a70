"""Weight computation for every beamforming method under test and the
quasi-optimality regularization selector.

All spectral filtering goes through one shared eigendecomposition of the
sample covariance; no second inversion pathway exists. Each method is a
lane kernel over a stack of trials, returning the weights of every lane and
the error each lane would raise on its own (None when it succeeds), its
eigensystem's first; a lane's result does not depend on the other lanes. The
single-system functions are the one-lane case of those kernels.
"""

from dataclasses import dataclass

import numpy as np

from .arraysim import interference_noise_lanes
from .linalg import (HermitianEigensystem, flag_lanes, hermitian_evd, lane_chunks,
                     lanes_matmul, one_lane)

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
    "mode_powers",
]

_PD_RTOL = 1e-12


@dataclass(frozen=True)
class BeamformerWeights:
    """Complex weight vector w applied as w^H y, tagged with its method."""

    w: np.ndarray
    method: str


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
    errors = flag_lanes(es.errors.tolist(), ~a.any(axis=-1),
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


def loaded_mvdr_lanes(es, a, loading):
    """MVDR on C + loading * I from C's eigensystem es: eigenvalues lambda + loading."""
    return mvdr_lanes(HermitianEigensystem(es.u, es.eigenvalues + loading[:, None], es.errors), a)


def copra_lanes(es, gamma_b, gamma_z, a):
    """Regularized MVDR weights from the two solved regularization levels.

    w = U diag(lam / ((lam+gamma_b)(lam+gamma_z))) U^H a, normalized by
    a^H U diag(lam / (lam+gamma_b)^2) U^H a, so that w^H y reproduces the
    inner-product form b^H z / (b^H b) of the regularized beamformer output.
    gamma_b and gamma_z hold one level per lane; a lane without a positive
    eigenvalue, which cannot be split, fails. Returns (w, errors).
    """
    lam = es.eigenvalues
    gb, gz = gamma_b[:, None], gamma_z[:, None]
    errors = flag_lanes(es.errors.tolist(), ~(lam[:, 0] > 0),
                        lambda i: ValueError("cannot split an all-zero spectrum"))
    flag_lanes(errors, (gamma_b < 0) | (gamma_z < 0),
               lambda i: ValueError("regularization parameters must be >= 0"))
    flag_lanes(errors, ((gamma_b == 0) | (gamma_z == 0)) & (lam[:, -1] <= _PD_RTOL * lam[:, 0]),
               lambda i: SingularCovarianceError(
                   "zero regularization requires a numerically invertible spectrum"))
    d = lanes_matmul(_uh(es), a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lbz, lb_sq = (lam + gb) * (lam + gz), (lam + gb) ** 2
        flag_lanes(errors, ~(np.isfinite(lbz) & np.isfinite(lb_sq)).all(axis=-1),
                   lambda i: ValueError("regularization level %g overflows the filter"
                                        % max(gamma_b[i], gamma_z[i])))
        # a zero mode adds its limit 0 to both filters, also where gamma^2 underflows
        f_b, f_bz = (np.divide(lam, x, out=np.zeros_like(lam), where=lam > 0) for x in (lb_sq, lbz))
        denom = np.sum(f_b * np.abs(d) ** 2, axis=-1)
        flag_lanes(errors, denom == 0.0, lambda i: ValueError(
            "steering vector orthogonal to all retained modes"))
        w = lanes_matmul(es.u, f_bz * d) / denom[:, None]
    return w, errors


def optimal_lanes(c_in, a_true):
    """Clairvoyant MVDR from each lane's interference-plus-noise covariance
    and true steering vector: by Sherman-Morrison, (c_in + p a a^H)^{-1} a is
    c_in^{-1} a / (1 + p a^H c_in^{-1} a), so the weights, the true
    covariance's, do not depend on the SOI power p."""
    return mvdr_lanes(hermitian_evd(c_in), a_true)


def mode_powers(es, r):
    """quasi_lanes' input: per lane of a (lanes, n) or (lanes, n, n_obs) stack
    r, the powers p_i = sum_t |(U^H r)_it|^2."""
    lanes, n = es.eigenvalues.shape
    p = np.abs(lanes_matmul(_uh(es), r).reshape(lanes, n, -1))
    p **= 2
    return np.sum(p, axis=-1)


def quasi_lanes(es, observations, n_grid=200, lo_factor=1e-8, hi_factor=10.0):
    """Quasi-optimality selector on a geometric regularization grid.

    For each observation, given as the mode_powers p of an observation
    stack r, returns (gamma, errors): each lane's grid point minimizing the
    norm of the successive difference of the regularized estimate
    filt(gamma) * (U^H r); ties break toward smaller values, and an all-zero
    p (r zero, or its powers underflow) fails. A matrix r takes the
    Frobenius norm. The squared norm is the closed form p @ diff(filt)^2, so
    no estimate is formed, and the grid and diff(filt)^2 come from the
    spectrum alone, shared by every observation.
    Only p depends on r's width (n_s * lambda for the n_s snapshots whose
    sample covariance es decomposes), so lanes may differ in n_obs.
    """
    lam = es.eigenvalues
    lanes, n = lam.shape
    # a lane without a positive eigenvalue, or whose grid would start at
    # zero (lo_factor * top underflows) or end at infinity (hi_factor * top
    # overflows), gets a harmless scale, so that the grids of the others are
    # built; it is flagged below
    flat, low = ~(lam[:, 0] > 0), ~(lo_factor * lam[:, 0] > 0)
    with np.errstate(over="ignore"):
        high = ~(hi_factor * lam[:, 0] < np.inf)
    top = np.where(low | high, 1.0, lam[:, 0])
    errors = []
    for p in observations:
        errs = flag_lanes(es.errors.tolist(), ~p.any(axis=-1),
                          lambda i: ValueError("observation is zero"))
        errors.append(flag_lanes(errs, low | high, lambda i: ValueError(
            "cannot select gamma for an all-zero spectrum" if flat[i] else
            "quasi grid starts at zero: lo_factor * %g underflows" % lam[i, 0] if low[i] else
            "quasi grid ends at infinity: hi_factor * %g overflows" % lam[i, 0])))
    # one grid for the stack; the (lanes, n, n_grid) filter grid runs in
    # chunks of lanes. Each lane's grid and sums are its own, so a chunk's
    # bits are the whole stack's
    grid = np.ascontiguousarray(
        np.geomspace(lo_factor * top, hi_factor * top, n_grid, axis=-1))
    picks = [[] for _ in observations]
    for c in lane_chunks(lanes):
        sub = lam[c]
        # squared in place, and dropped before the next chunk's is made:
        # keeps the selector's peak memory low
        dfilt_sq = np.diff(np.sqrt(sub)[:, :, None] / (sub[:, :, None] + grid[c, None, :]),
                           axis=-1)
        dfilt_sq **= 2
        for p, pick in zip(observations, picks):
            pick.append(np.argmin(np.sqrt(lanes_matmul(p[c], dfilt_sq)), axis=-1))
        del dfilt_sq
    rows = np.arange(lanes)
    return [(grid[rows, np.concatenate(pick)], errs) for pick, errs in zip(picks, errors)]


def mvdr_weights(c, a):
    """Minimum-variance distortionless weights w = C^{-1}a / (a^H C^{-1} a)."""
    a = np.asarray(a, dtype=complex)
    es = c if hasattr(c, "eigenvalues") else hermitian_evd(c)
    w = one_lane(*mvdr_lanes(es[None], a[None]))
    return BeamformerWeights(w=w, method="sample-mvdr")


def diagonal_loading_weights(c, a, loading):
    """MVDR on C + loading * I, from C's eigensystem; see loaded_mvdr_lanes."""
    a = np.asarray(a, dtype=complex)
    w = one_lane(*loaded_mvdr_lanes(hermitian_evd(c)[None], a[None], np.array([loading], float)))
    return BeamformerWeights(w=w, method="diagonal-loading")


def copra_weights(es, gamma_b, gamma_z, a):
    """Regularized MVDR weights of a single system; see copra_lanes."""
    a = np.asarray(a, dtype=complex)
    w = one_lane(*copra_lanes(es[None], np.array([gamma_b], dtype=float),
                              np.array([gamma_z], dtype=float), a[None]))
    return BeamformerWeights(w=w, method="copra")


def optimal_weights(scenario):
    """Clairvoyant MVDR: true covariance and true steering vector."""
    sl = scenario[None]
    w = one_lane(*optimal_lanes(interference_noise_lanes(sl), sl.a_true))
    return BeamformerWeights(w=w, method="optimal")


def quasi_optimal_gamma(es, r, n_grid=200, lo_factor=1e-8, hi_factor=10.0):
    """Quasi-optimality grid point of a single system; see quasi_lanes."""
    es, r = es[None], np.asarray(r, dtype=complex)[None]
    (gamma, errors), = quasi_lanes(es, [mode_powers(es, r)], n_grid, lo_factor, hi_factor)
    return float(one_lane(gamma, errors))
