import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loop_draw
from copra_beam.arraysim import (
    ArrayGeometry,
    draw_block,
    draw_scenario,
    interference_noise_lanes,
    sample_covariance,
    steering_vector,
    synthesize_block,
    synthesize_snapshots,
    true_covariance,
)
from copra_beam.beamformers import optimal_weights
from copra_beam.harness import output_sinr


def _bits(value):
    """Type, shape and exact bits of a number, a tuple of numbers or an array."""
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(n_elements=st.integers(2, 16),
       n_interferers=st.integers(0, 3),
       soi_error_bound_deg=st.sampled_from([0.0, 5.0, 30.0]),
       # a guard near 90 degrees forces many redraws
       doa_guard_deg=st.one_of(st.just(0.0), st.floats(0.0, 89.0)),
       n_s=st.integers(1, 24),
       snr_db=st.floats(-30.0, 40.0),
       inr_db=st.floats(-10.0, 50.0),
       seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=7))
def test_block_draw_equals_single_trial_draws(n_elements, n_interferers, soi_error_bound_deg,
                                              doa_guard_deg, n_s, snr_db, inr_db, seeds):
    # lane i of the block draw holds, bit for bit, what draw_scenario then
    # synthesize_snapshots draw from the same substream, and what the loop
    # form draws; all three leave the generator in the same state
    geometry = ArrayGeometry(n_elements, 0.5)
    kwargs = dict(geometry=geometry, n_interferers=n_interferers, snr_db=snr_db,
                  inr_db=inr_db, soi_error_bound_deg=soi_error_bound_deg,
                  doa_guard_deg=doa_guard_deg)
    rngs = [np.random.default_rng(s) for s in seeds]
    sl, z = draw_block(rngs, n_s, **kwargs)
    y = synthesize_block(sl, z, n_s)
    assert y.shape == (len(seeds), n_elements, n_s)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        scenario = draw_scenario(rng, **kwargs)
        snapshots = synthesize_snapshots(scenario, n_s, rng).snapshots
        loop_rng = np.random.default_rng(seed)
        fields, loop_y = loop_draw(loop_rng, geometry, n_s, n_interferers, snr_db, inr_db,
                                   soi_error_bound_deg, doa_guard_deg)
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        assert rngs[i].bit_generator.state == rng.bit_generator.state
        assert scenario.geometry == sl.geometry == geometry
        for f in dataclasses.fields(scenario):
            if f.name != "geometry":
                want = _bits(fields[f.name])
                assert _bits(getattr(scenario, f.name)) == want, f.name
                assert _bits(getattr(sl, f.name)[i]) == want, f.name
        assert _bits(snapshots) == _bits(loop_y)
        assert _bits(y[i]) == _bits(loop_y)
        interferers = [steering_vector(geometry, d) for d in scenario.interferer_doas_deg]
        assert _bits(sl.a_interferers[i]) == _bits(
            np.array(interferers, dtype=complex).reshape(n_interferers, n_elements))


@settings(max_examples=60, deadline=None, database=None)
@given(n_elements=st.integers(2, 12),
       n_interferers=st.integers(0, 3),
       points=st.lists(st.tuples(st.integers(1, 24), st.floats(-30.0, 40.0)),
                       min_size=1, max_size=4),
       seeds=st.lists(st.integers(0, 2**63), min_size=1, max_size=5))
def test_sweep_draw_equals_point_draws(n_elements, n_interferers, points, seeds):
    # a block drawn once for the largest snapshot count gives, at every
    # (snapshots, SNR) point, the scenario and snapshots that point would
    # draw on its own from the same substreams
    kwargs = dict(geometry=ArrayGeometry(n_elements, 0.5), n_interferers=n_interferers)
    sl, z = draw_block([np.random.default_rng(s) for s in seeds],
                       max(n_s for n_s, _ in points), snr_db=points[0][1], **kwargs)
    for n_s, snr_db in points:
        want_sl, want_z = draw_block([np.random.default_rng(s) for s in seeds], n_s,
                                     snr_db=snr_db, **kwargs)
        want_y = synthesize_block(want_sl, want_z, n_s)
        at = sl.at_snr(snr_db)
        assert at.geometry == want_sl.geometry
        for f in dataclasses.fields(at):
            if f.name != "geometry":
                assert _bits(getattr(at, f.name)) == _bits(getattr(want_sl, f.name)), f.name
        assert _bits(at.a_interferers) == _bits(want_sl.a_interferers)
        assert _bits(synthesize_block(at, z, n_s)) == _bits(want_y)


def test_broadside_steering_is_all_ones():
    a = steering_vector(ArrayGeometry(6, 0.5), 0.0)
    assert np.allclose(a, np.ones(6))


def test_steering_30deg_quarter_turns():
    a = steering_vector(ArrayGeometry(4, 0.5), 30.0)
    assert np.allclose(a, [1.0, 1j, -1.0, -1j], atol=1e-12)


def test_steering_unit_modulus_and_norm():
    geo = ArrayGeometry(10, 0.5)
    rng = np.random.default_rng(2)
    for doa in rng.uniform(-90, 90, size=20):
        a = steering_vector(geo, doa)
        assert np.allclose(np.abs(a), 1.0, atol=1e-14)
        assert np.isclose(np.linalg.norm(a) ** 2, 10.0)


def test_steering_rejects_out_of_range():
    with pytest.raises(ValueError):
        steering_vector(ArrayGeometry(4, 0.5), 91.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(1, 0.5)
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, np.inf)


def test_zero_error_bound_gives_exact_presumed():
    rng = np.random.default_rng(0)
    sc = draw_scenario(rng, soi_error_bound_deg=0.0)
    assert sc.soi_error_deg == 0.0
    assert np.array_equal(sc.a_presumed, sc.a_true)


def test_recorded_error_is_the_applied_error():
    # near endfire the look direction is clipped to +-90 degrees; the recorded
    # error must be the one a_presumed was built with
    rng = np.random.default_rng(6)
    geo = ArrayGeometry()
    for _ in range(3000):
        sc = draw_scenario(rng, geometry=geo, n_interferers=0)
        presumed = steering_vector(geo, sc.soi_doa_deg + sc.soi_error_deg)
        assert np.array_equal(presumed, sc.a_presumed)


def test_scenario_determinism():
    a = draw_scenario(np.random.default_rng(42))
    b = draw_scenario(np.random.default_rng(42))
    assert a.soi_doa_deg == b.soi_doa_deg
    assert np.array_equal(a.interferer_doas_deg, b.interferer_doas_deg)
    assert np.array_equal(a.a_presumed, b.a_presumed)


def test_scenario_powers_follow_db_settings():
    sc = draw_scenario(np.random.default_rng(1), snr_db=20.0, inr_db=30.0)
    assert sc.noise_power == 1.0
    assert np.isclose(sc.soi_power, 100.0)
    assert all(np.isclose(p, 1000.0) for p in sc.interferer_powers)


def test_doa_distribution_uniform():
    # Kolmogorov-Smirnov statistic against the uniform CDF on [-90, 90]
    rng = np.random.default_rng(7)
    doas = np.sort([draw_scenario(rng, n_interferers=0).soi_doa_deg
                    for _ in range(10**5)])
    n = doas.size
    cdf = (doas + 90.0) / 180.0
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
    assert ks < 0.01


def test_interferer_guard_band():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sc = draw_scenario(rng, doa_guard_deg=2.0)
        for doa in sc.interferer_doas_deg:
            assert abs(doa - sc.soi_doa_deg) >= 2.0


def test_doa_guard_out_of_range_refused():
    rng = np.random.default_rng(0)
    for guard in (500.0, 90.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="doa_guard_deg"):
            draw_scenario(rng, doa_guard_deg=guard)


def test_invalid_scenario_config():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_scenario(rng, n_interferers=-1)
    with pytest.raises(ValueError):
        draw_scenario(rng, snr_db=np.inf)


def test_pure_noise_snapshot_variance():
    rng = np.random.default_rng(5)
    sc = draw_scenario(rng, n_interferers=0, snr_db=-400.0)
    ss = synthesize_snapshots(sc, 10**4, rng)
    per_element_var = np.mean(np.abs(ss.snapshots) ** 2, axis=1)
    assert np.all(np.abs(per_element_var - sc.noise_power) < 0.05 * sc.noise_power)


def test_noiseless_single_source_rank_one():
    rng = np.random.default_rng(8)
    sc = draw_scenario(rng, n_interferers=0, snr_db=0.0)
    # rebuild with zero noise by scaling: synthesize against a noise-free copy
    import dataclasses
    sc0 = dataclasses.replace(sc, noise_power=1e-30)
    ss = synthesize_snapshots(sc0, 20, rng)
    s = np.linalg.svd(ss.snapshots, compute_uv=False)
    assert s[1] <= 1e-10 * s[0]


def test_replaced_interferer_doa_out_of_range_refused():
    # the interferer steering comes from the DOAs, so a replaced trial is
    # checked where it is used
    sc = dataclasses.replace(draw_scenario(np.random.default_rng(0)),
                             interferer_doas_deg=(30.0, 95.0))
    for use in (lambda: synthesize_snapshots(sc, 5, np.random.default_rng(0)),
                lambda: output_sinr(np.ones(10), sc),
                lambda: optimal_weights(sc)):
        with pytest.raises(ValueError, match="outside"):
            use()


def test_snapshot_determinism():
    sc = draw_scenario(np.random.default_rng(11))
    a = synthesize_snapshots(sc, 50, np.random.default_rng(99))
    b = synthesize_snapshots(sc, 50, np.random.default_rng(99))
    assert np.array_equal(a.snapshots, b.snapshots)


def test_sample_covariance_single_snapshot():
    from copra_beam.arraysim import SnapshotSet
    y = np.array([[1.0], [1j]])
    c = sample_covariance(SnapshotSet(snapshots=y))
    assert np.allclose(c, [[1.0, -1j], [1j, 1.0]])


def test_sample_covariance_unit_vector_snapshots():
    from copra_beam.arraysim import SnapshotSet
    y = np.zeros((3, 5), dtype=complex)
    y[0, :] = 1.0
    c = sample_covariance(SnapshotSet(snapshots=y))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.allclose(c, expected)


def test_sample_covariance_hermitian_psd():
    rng = np.random.default_rng(13)
    sc = draw_scenario(rng)
    ss = synthesize_snapshots(sc, 25, rng)
    c = sample_covariance(ss)
    assert np.linalg.norm(c - c.conj().T) < 1e-14 * np.linalg.norm(c)
    assert np.linalg.eigvalsh(c).min() >= -1e-12 * np.abs(c).max()
    trace = np.sum(np.abs(ss.snapshots) ** 2) / ss.snapshots.shape[-1]
    assert np.isclose(np.trace(c).real, trace)


def test_interference_noise_covariance_cases():
    rng = np.random.default_rng(17)
    sc = draw_scenario(rng, n_interferers=0)
    assert np.allclose(interference_noise_lanes(sc[None])[0], np.eye(10))

    sc1 = draw_scenario(rng, n_interferers=1, inr_db=10.0)
    c = interference_noise_lanes(sc1[None])[0]
    eigs = np.sort(np.linalg.eigvalsh(c))[::-1]
    assert np.isclose(eigs[0], 1.0 + 10.0 * 10)
    assert np.allclose(eigs[1:], 1.0)

    sc2 = draw_scenario(rng, n_interferers=2, inr_db=20.0)
    c2 = interference_noise_lanes(sc2[None])[0]
    expected_trace = 10 * (1.0 + sum(sc2.interferer_powers))
    assert np.isclose(np.trace(c2).real, expected_trace)


def test_true_covariance_cases():
    rng = np.random.default_rng(19)
    sc = draw_scenario(rng, snr_db=-400.0)
    assert np.allclose(true_covariance(sc), interference_noise_lanes(sc[None])[0],
                       atol=1e-30)
    sc2 = draw_scenario(rng, n_interferers=0, snr_db=10.0)
    expected = np.eye(10) + 10.0 * np.outer(sc2.a_true, sc2.a_true.conj())
    assert np.allclose(true_covariance(sc2), expected)


def test_sample_covariance_consistency():
    rng = np.random.default_rng(23)
    sc = draw_scenario(rng, snr_db=10.0)
    ss = synthesize_snapshots(sc, 10**5, rng)
    c_hat = sample_covariance(ss)
    c = true_covariance(sc)
    rel = np.linalg.norm(c_hat - c) / np.linalg.norm(c)
    assert rel < 0.02


def test_covariance_error_decreases_with_snapshots():
    rng = np.random.default_rng(29)
    errors = []
    for n_s in (100, 1000, 10000):
        trial_err = []
        for _ in range(5):
            sc = draw_scenario(rng, snr_db=10.0)
            c = true_covariance(sc)
            ss = synthesize_snapshots(sc, n_s, rng)
            trial_err.append(np.linalg.norm(sample_covariance(ss) - c)
                             / np.linalg.norm(c))
        errors.append(np.mean(trial_err))
    assert errors[0] > errors[1] > errors[2]


def test_empty_snapshot_set_rejected():
    from copra_beam.arraysim import SnapshotSet
    with pytest.raises(ValueError):
        sample_covariance(SnapshotSet(snapshots=np.zeros((3, 0), dtype=complex)))
    sc = draw_scenario(np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthesize_snapshots(sc, 0, np.random.default_rng(0))
