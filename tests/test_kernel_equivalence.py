"""The broadcast secular scan and the closed-form quasi selector against
their scalar and dense forms, on random, rank-deficient, repeated-eigenvalue
and zero-eigenvalue spectra, and their lane-chunked forms against each lane
run alone; diagonal loading by a shifted spectrum against a fresh
decomposition of the loaded covariance, and the snapshot powers n_s * lambda
against the snapshots' own.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense_quasi_gamma, loaded_mvdr_by_decomposition, random_complex_vector,
                      random_psd, secular_scale, secular_terms)
from copra_beam import arraysim, harness, secular
from copra_beam.beamformers import (copra_lanes, loaded_mvdr_lanes, mode_powers, mvdr_lanes,
                                    quasi_lanes, quasi_optimal_gamma)
from copra_beam.linalg import LANE_CHUNK, HermitianEigensystem, hermitian_evd, lanes_matmul

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
        vals, _, scales = secular_terms(grid, split, weights)
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


def _hex(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_hex(v) for v in value)
    return value


def _report_bits(report):
    return {f.name: _hex(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _protocol_stack(lanes, n_s=30):
    """Sample-covariance eigensystems, presumed steering vectors and
    snapshots of protocol trials, one lane each."""
    rngs = [np.random.default_rng([11, i]) for i in range(lanes)]
    sl, z = arraysim.draw_block(rngs, n_s)
    y = arraysim.synthesize_block(sl, z, n_s)
    return hermitian_evd(arraysim.sample_covariance(arraysim.SnapshotSet(y))), sl.a_presumed, y


# two whole chunks and a remainder
CHUNKED_LANES = 2 * LANE_CHUNK + 5


def test_chunked_scan_moves_no_bits():
    es, a, _ = _protocol_stack(CHUNKED_LANES)
    lam = es.eigenvalues
    n1 = 3
    lam1 = lam[:, :n1].copy()
    # steering-side weights bracket a root, snapshot-side ones (the
    # eigenvalues) almost always fall back: alternate them along the stack
    weights = np.abs(lanes_matmul(es.u.conj().swapaxes(-1, -2), a)) ** 2
    weights[1::2] = lam[1::2]
    args = (lam.shape[1] / n1, lam.shape[1] - n1, 0.1)
    stacked = secular._solve_lanes(lam, lam1, weights, *args)
    assert {r.fallback_used for r in stacked} == {True, False}
    assert {r.converged for r in stacked[LANE_CHUNK:]} == {True, False}
    for i, report in enumerate(stacked):
        alone, = secular._solve_lanes(lam[i:i + 1], lam1[i:i + 1], weights[i:i + 1], *args)
        assert _report_bits(report) == _report_bits(alone), i


def _copra_stack():
    """Protocol lanes of 1, 2 and 7 snapshots, which split at different n1,
    and an all-zero lane: eigensystems, presumed steering vectors and each
    lane's snapshots."""
    a, y = [], []
    for i, n_s in enumerate((1, 7, 2, 7, 1, 2)):
        sl, z = arraysim.draw_block([np.random.default_rng([13, i])], n_s)
        lane = arraysim.synthesize_block(sl, z, n_s)
        a.append(sl.a_presumed[0])
        y.append(lane[0])
    a.append(a[0])
    y.append(np.zeros_like(y[0]))
    cov = [arraysim.sample_covariance(arraysim.SnapshotSet(lane)) for lane in y]
    return hermitian_evd(np.stack(cov)), np.stack(a), y


@pytest.mark.parametrize("policy", ["averaged", "per-snapshot-median"])
def test_stacked_copra_solve_matches_each_lane_alone(policy):
    es, a, y = _copra_stack()
    weights = secular.per_snapshot_weights(es, y)
    # snapshot-side weights fall back; odd rows take scaled steering-side
    # ones, which bracket a root, so a lane's median mixes both outcomes
    for w, d2 in zip(weights, np.abs(lanes_matmul(es.u.conj().swapaxes(-1, -2), a)) ** 2):
        w[1::2] = d2 * np.arange(2, len(w) + 1, 2)[:, None]
    n1, report_b, report_z = secular.copra_gammas_lanes(
        es, a, 0.1, weights if policy != "averaged" else None, policy)
    assert len(set(n1.tolist()) - {0}) >= 2
    for i in range(len(a) - 1):
        split = secular.split_eigenvalues(es[i], 0.1)
        assert n1[i] == split.n1
        alone_b = secular.solve_secular(split, es.u[i].conj().T @ a[i])
        if policy == "averaged":
            alone_z = secular.solve_secular_weighted(split, es.eigenvalues[i])
        else:
            solves = [secular.solve_secular_weighted(split, w) for w in weights[i]]
            alone_z = secular.SecularSolveReport(
                gamma=float(np.median([r.gamma for r in solves])),
                iterations=sum(r.iterations for r in solves),
                converged=all(r.converged for r in solves),
                fallback_used=any(r.fallback_used for r in solves))
        for report, alone in ((report_b[i], alone_b), (report_z[i], alone_z)):
            assert _report_bits(report) == _report_bits(alone), i
            assert [type(v) for v in dataclasses.astuple(report)] == [float, int, bool, bool]
    # the all-zero lane does not split
    assert n1[-1] == 0
    for report in (report_b[-1], report_z[-1]):
        assert np.isnan(report.gamma) and not (report.converged or report.fallback_used)


def test_copra_weights_fail_an_unsplit_lane_alone():
    # the all-zero lane comes with the NaN levels copra_gammas_lanes gives it
    es, a, _ = _copra_stack()
    _, report_b, report_z = secular.copra_gammas_lanes(es, a, 0.1)
    gamma_b, gamma_z = report_b.gamma, report_z.gamma
    assert np.isnan(gamma_b[-1]) and np.isnan(gamma_z[-1])
    w, errors = copra_lanes(es, gamma_b, gamma_z, a)
    assert type(errors[-1]) is ValueError
    assert str(errors[-1]) == "cannot split an all-zero spectrum"
    for i in range(len(a) - 1):
        w_1, errors_1 = copra_lanes(es[i:i + 1], gamma_b[i:i + 1], gamma_z[i:i + 1], a[i:i + 1])
        assert w[i].tobytes() == w_1[0].tobytes(), i
        assert repr(errors[i]) == repr(errors_1[0]), i


def test_chunked_quasi_moves_no_bits():
    es, _, y = _protocol_stack(CHUNKED_LANES)
    # an all-zero spectrum, a zero observation and a nonzero observation
    # whose mode powers underflow to zero, in different chunks
    flat, zero, tiny = LANE_CHUNK + 1, 2 * LANE_CHUNK + 2, 3
    es.eigenvalues[flat] = 0.0
    r = y[:, :, 0].copy()
    r[zero] = 0.0
    r[tiny] *= 1e-170
    assert r[tiny].any()
    stacked = quasi_lanes(es, (mode_powers(es, r), mode_powers(es, y)))
    for i in range(CHUNKED_LANES):
        lane = es[i:i + 1]
        alone = quasi_lanes(lane, (mode_powers(lane, r[i:i + 1]), mode_powers(lane, y[i:i + 1])))
        for (gamma, errors), (gamma_1, errors_1) in zip(stacked, alone):
            assert float(gamma[i]).hex() == float(gamma_1[0]).hex(), i
            assert repr(errors[i]) == repr(errors_1[0]), i
    assert "all-zero spectrum" in str(stacked[1][1][flat])
    assert "observation is zero" in str(stacked[0][1][zero])
    assert "observation is zero" in str(stacked[0][1][tiny])
    with pytest.raises(ValueError, match="observation is zero"):
        quasi_optimal_gamma(es[tiny], r[tiny])


def test_quasi_grid_starting_at_zero_fails_only_its_lane():
    # 5e-324 times lane 1's top eigenvalue 0.4 rounds to zero, where no
    # geometric grid can start; lane 0's grid starts at 5e-324 * 2
    es = HermitianEigensystem(np.stack([np.eye(2, dtype=complex)] * 2),
                              np.array([[2.0, 1.0], [0.4, 0.1]]))
    r = np.ones((2, 2), dtype=complex)
    (gamma, errors), = quasi_lanes(es, [mode_powers(es, r)], lo_factor=5e-324)
    assert errors[0] is None and "underflows" in str(errors[1])
    lane = es[0:1]
    (gamma_1, _), = quasi_lanes(lane, [mode_powers(lane, r[:1])], lo_factor=5e-324)
    assert float(gamma[0]).hex() == float(gamma_1[0]).hex()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quasi_grid_ending_at_infinity_fails_only_its_lane():
    # 1e300 times lane 1's top eigenvalue 1e10 overflows, where no geometric
    # grid can end; lane 0's grid ends at 1e300 * 2
    es = HermitianEigensystem(np.stack([np.eye(2, dtype=complex)] * 2),
                              np.array([[2.0, 1.0], [1e10, 0.1]]))
    r = np.ones((2, 2), dtype=complex)
    (gamma, errors), = quasi_lanes(es, [mode_powers(es, r)], hi_factor=1e300)
    assert errors[0] is None
    assert str(errors[1]) == "quasi grid ends at infinity: hi_factor * 1e+10 overflows"
    lane = es[0:1]
    (gamma_1, _), = quasi_lanes(lane, [mode_powers(lane, r[:1])], hi_factor=1e300)
    assert float(gamma[0]).hex() == float(gamma_1[0]).hex()


def _covariance(kind, n, rng):
    """A Hermitian PSD matrix of the given kind of spectrum."""
    if kind == "random":
        return random_psd(rng, n)
    if kind == "rank-deficient":
        # a sample covariance of fewer snapshots than elements
        n_s = int(rng.integers(1, n))
        y = rng.standard_normal((n, n_s)) + 1j * rng.standard_normal((n, n_s))
        return arraysim.sample_covariance(arraysim.SnapshotSet(y))
    if kind == "repeated":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        c = (q * rng.choice(rng.uniform(0.1, 10.0, 2), size=n)) @ q.conj().T
        return 0.5 * (c + c.conj().T)
    return np.zeros((n, n), dtype=complex)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(("random", "rank-deficient", "repeated", "zero")), st.integers(2, 12),
       st.integers(0, 2**32 - 1), st.sampled_from(("zero", "minimal", "ten")))
def test_shifted_loading_matches_a_fresh_decomposition(kind, n, seed, loading_kind):
    # C + loading * I shares C's eigenvectors, so shifting C's eigenvalues
    # gives its weights. The two paths differ by the round-off of two
    # backward-stable decompositions, which the weights' SINR sees amplified
    # by the loaded matrix's condition number kappa: the tolerance is
    # 1e-12 + 100 * eps * kappa relative (1.2e-6 at the 1e-8 loading of a
    # rank-deficient C; about 1e-12 at a loading of 10). Both paths flag the
    # same lanes, and a loading of 0 is sample MVDR bit for bit.
    rng = np.random.default_rng(seed)
    c = _covariance(kind, n, rng)[None]
    a = random_complex_vector(rng, n)[None]
    es = hermitian_evd(c)
    loading = np.array([{"zero": 0.0, "minimal": 1e-8 * es.eigenvalues.mean(),
                         "ten": 10.0}[loading_kind]])
    w, errors = loaded_mvdr_lanes(es, a, loading)
    w_oracle, errors_oracle = loaded_mvdr_by_decomposition(c, a, loading)
    assert [type(e) for e in errors] == [type(e) for e in errors_oracle]
    if loading_kind == "zero":
        w_mvdr, errors_mvdr = mvdr_lanes(es, a)
        assert w.tobytes() == w_mvdr.tobytes()
        assert [repr(e) for e in errors] == [repr(e) for e in errors_mvdr]
    if errors[0] is None:
        c_in, a_true = random_psd(rng, n)[None], random_complex_vector(rng, n)[None]
        sinr, sinr_oracle = (harness._sinr_lanes(v[:, None], c_in, a_true, np.ones(1))[0, 0]
                             for v in (w, w_oracle))
        lam = es.eigenvalues[0] + loading[0]
        tol = 1e-12 + 100 * np.finfo(float).eps * lam[0] / lam[-1]
        assert abs(sinr - sinr_oracle) <= tol * abs(sinr_oracle)


def test_snapshot_powers_are_n_s_times_the_eigenvalues():
    # U^H (Y Y^H) U = n_s * Lambda: the quasi selector's snapshot-side powers
    # sum_t |(U^H y)_it|^2 are n_s * lambda_i to round-off, and from 3
    # snapshots on the selector picks the same grid point from either
    for seed in (1, 2, 3):
        for snr_db in (-10.0, 10.0, 30.0):
            for n_s in (3, 5, 10, 30, 100):
                rngs = [np.random.default_rng([seed, i]) for i in range(20)]
                sl, z = arraysim.draw_block(rngs, n_s, snr_db=snr_db)
                y = arraysim.synthesize_block(sl, z, n_s)
                es = hermitian_evd(arraysim.sample_covariance(arraysim.SnapshotSet(y)))
                p = mode_powers(es, y)
                p_lam = n_s * es.eigenvalues
                assert np.all(np.abs(p - p_lam) <= 1e-12 * p.max(axis=-1, keepdims=True))
                (gamma, _), (gamma_lam, _) = quasi_lanes(es, [p, p_lam])
                assert gamma.tobytes() == gamma_lam.tobytes(), (seed, snr_db, n_s)
