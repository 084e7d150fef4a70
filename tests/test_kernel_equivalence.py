"""The broadcast secular scan and the closed-form quasi selector against
their scalar and dense forms, on random, rank-deficient, repeated-eigenvalue
and zero-eigenvalue spectra.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_quasi_gamma, random_complex_vector, random_psd, secular_scale
from copra_beam import arraysim, secular
from copra_beam.beamformers import quasi_optimal_gamma
from copra_beam.linalg import HermitianEigensystem, hermitian_evd

SPECTRA = ("random", "rank-deficient", "repeated", "zeros", "snapshots")

cases = st.tuples(st.sampled_from(SPECTRA),
                  st.integers(2, 12),
                  st.integers(0, 2**32 - 1))


def _diag_es(lam):
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    return HermitianEigensystem(np.eye(lam.size, dtype=complex), lam.copy())


def _spectrum(kind, n, rng):
    """An eigensystem of the given kind plus an observation matrix."""
    n_obs = int(rng.integers(1, 2 * n))
    if kind == "random":
        es = hermitian_evd(random_psd(rng, n))
    elif kind == "rank-deficient":
        # fewer snapshots than elements: trailing eigenvalues at round-off
        es = hermitian_evd(random_psd(rng, n, rank=int(rng.integers(1, n))))
    elif kind == "repeated":
        values = rng.uniform(0.1, 10.0, size=int(rng.integers(1, 3)))
        es = _diag_es(rng.choice(values, size=n))
    elif kind == "zeros":
        k = int(rng.integers(1, n))
        es = _diag_es(np.concatenate([rng.uniform(0.1, 10.0, k), np.zeros(n - k)]))
    else:
        sc = arraysim.draw_scenario(rng, geometry=arraysim.ArrayGeometry(n, 0.5),
                                    snr_db=float(rng.uniform(-10.0, 30.0)))
        snaps = arraysim.synthesize_snapshots(sc, n_obs, rng)
        es = hermitian_evd(arraysim.sample_covariance(snaps))
        return es, snaps.snapshots
    obs = np.stack([random_complex_vector(rng, n) for _ in range(n_obs)], axis=1)
    return es, obs


@settings(max_examples=60, deadline=None, database=None)
@given(cases)
def test_broadcast_scan_matches_scalar_kernel(case):
    kind, n, seed = case
    rng = np.random.default_rng(seed)
    es, obs = _spectrum(kind, n, rng)
    split = secular.split_eigenvalues(es, float(rng.uniform(0.05, 0.5)))
    mean_lam = float(es.eigenvalues.mean())
    grid = np.geomspace(secular.SCAN_LO_FACTOR * mean_lam,
                        secular.SCAN_HI_FACTOR * mean_lam, secular.SCAN_POINTS)
    for weights in (np.abs(es.u.conj().T @ obs[:, 0]) ** 2, es.eigenvalues.copy()):
        vals, _, scales = secular._secular_terms(grid, split, weights)
        scalar_vals = np.array([secular.secular_function_weighted(x, split, weights)
                                for x in grid])
        scalar_scales = np.array([secular_scale(x, split, weights)
                                  for x in grid])
        assert vals.tobytes() == scalar_vals.tobytes()
        assert scales.tobytes() == scalar_scales.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(cases, st.booleans())
def test_closed_form_quasi_matches_dense_oracle(case, single):
    kind, n, seed = case
    rng = np.random.default_rng(seed)
    es, obs = _spectrum(kind, n, rng)
    r = obs[:, 0] if single else obs
    assert quasi_optimal_gamma(es, r) == dense_quasi_gamma(es, r)
