"""The batched trial engine: a trial's record does not depend on its batch.

``run_trials`` runs blocks of trials as lanes of one array program, and
``run_trial`` is its one-lane case. Every record must equal, bit for bit, the
record of the same trial run alone, whatever the index set, its order and
the block split, on configs that reach every failure and fallback path.
A sweep runs each block over every point, drawing each trial once and
stacking every distinct point, and aggregates the block's columns without
building a record; its rows must equal those aggregated from ``run_trials``
run point by point, also when one trial of one stacked point fails.
"""

import dataclasses
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copra_beam import arraysim, beamformers, harness
from copra_beam.config import METHODS, ExperimentConfig
from copra_beam.harness import run_trial, run_trials

SEED = 5


def _bits(value):
    """A value with every float replaced by its exact hex form."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _fields(record):
    return {f.name: _bits(getattr(record, f.name)) for f in dataclasses.fields(record)}


def _lane(columns, i):
    """Every column of lane i of a point's _run_points columns, floats as hex."""
    return {name: _bits(col[i].tolist()) for name, col in columns.items()}


def _lane_record(columns, methods, i):
    """The failures and SINRs of lane i of a point's _run_points columns, as
    its TrialRecord holds them."""
    failures = {m: f for m, f in zip(methods, columns["failures"][i]) if f is not None}
    sinr = {m: None if m in failures else v
            for m, v in zip(methods, columns["sinr"][i].tolist())}
    return types.SimpleNamespace(failures=failures, sinr=sinr)


def _configs(**fields):
    base = dict(
        n_elements=st.sampled_from([3, 6, 10, 12]),
        n_interferers=st.integers(0, 5),
        snr_db=st.floats(-10.0, 40.0),
        n_snapshots=st.integers(1, 24),
        rho=st.sampled_from([0.05, 0.1, 0.3]),
        # 0 leaves a rank-deficient covariance unloaded: those lanes fail
        diagonal_loading=st.sampled_from([0.0, 10.0]),
        gamma_z_policy=st.sampled_from(["averaged", "per-snapshot-median"]),
        methods=st.lists(st.sampled_from(METHODS), unique=True).map(tuple),
    )
    return st.builds(ExperimentConfig, **dict(base, **fields))


configs = st.one_of(
    _configs(),
    # no interferers and about as many snapshots as elements: flat spectra
    # whose lanes split at n1 on both sides of 8, where numpy's summation
    # changes from one pass to 8-way blocks
    _configs(n_elements=st.sampled_from([10, 12]), n_interferers=st.just(0),
             snr_db=st.sampled_from([0.0, 10.0]), n_snapshots=st.sampled_from([9, 10, 12]),
             rho=st.just(0.3),
             methods=st.lists(st.sampled_from(METHODS), unique=True).map(
                 lambda m: ("copra", *(x for x in m if x != "copra")))),
)


@settings(max_examples=100, deadline=None, database=None)
@given(configs,
       st.lists(st.integers(0, 29), min_size=1, max_size=12, unique=True),
       st.sampled_from([1, 2, 3, 5, 10, 16]),
       st.lists(st.integers(1, 11), max_size=3))
def test_batched_records_equal_single_trial_records(cfg, indices, block, cuts):
    alone = [_fields(run_trial(cfg, i, SEED)) for i in indices]
    edges = sorted({0, len(indices), *(c for c in cuts if c < len(indices))})
    saved = harness.BLOCK
    harness.BLOCK = block
    try:
        batched = [_fields(rec)
                   for lo, hi in zip(edges, edges[1:])
                   for rec in run_trials(cfg, indices[lo:hi], SEED)]
    finally:
        harness.BLOCK = saved
    assert batched == alone


# no interferers and as many snapshots as elements: the lanes of a block
# split their spectra at n1 from 7 to 9, on both sides of the 8 terms where
# numpy's summation changes from one pass to 8-way blocks
NEIGHBOURS = ExperimentConfig(n_interferers=0, n_snapshots=10, snr_db=0.0, rho=0.3,
                              trials=1)
INDICES = list(range(10))
BAD = 4


def _neighbours_unchanged(records):
    alone = [run_trial(NEIGHBOURS, i, SEED) for i in INDICES]
    n1 = [rec.n1 for rec in alone]
    assert min(n1) <= 8 < max(n1)
    for i in INDICES:
        if i != BAD:
            assert _fields(records[i]) == _fields(alone[i]), i


def _zero_lane(monkeypatch):
    """Make lane BAD's sample covariance zero."""
    real = arraysim.sample_covariance

    def zero_lane(snapshot_set):
        c = real(snapshot_set)
        c[BAD] = 0.0
        return c

    monkeypatch.setattr(arraysim, "sample_covariance", zero_lane)


def test_zeroed_lane_fails_alone(monkeypatch):
    # lane BAD's covariance is zero: its copra split, quasi selector and
    # sample MVDR fail; its neighbours in the block must not notice
    _zero_lane(monkeypatch)
    records = run_trials(NEIGHBOURS, INDICES, SEED)
    monkeypatch.undo()
    bad = records[BAD]
    assert "all-zero spectrum" in bad.failures["copra"]
    assert "all-zero spectrum" in bad.failures["quasi-rls"]
    assert "singular" in bad.failures["sample-mvdr"]
    assert bad.sinr["optimal"] is not None
    _neighbours_unchanged(records)


def test_every_method_kernel_sees_the_whole_block(monkeypatch):
    # lane BAD's sample MVDR is loaded and its copra split fails, while its
    # neighbours' are not: the kernels, not the harness, tell these lanes
    # apart, so each runs over every lane of the block
    _zero_lane(monkeypatch)
    lanes = {}
    for name in ("loaded_mvdr_lanes", "copra_lanes"):
        def spy(es, *args, real=getattr(beamformers, name), name=name):
            lanes.setdefault(name, []).append(len(es.eigenvalues))
            return real(es, *args)
        monkeypatch.setattr(beamformers, name, spy)
    records = run_trials(NEIGHBOURS, INDICES, SEED)
    monkeypatch.undo()
    assert records[BAD].mvdr_loaded and records[BAD].n1 is None
    # sample MVDR's loading and diagonal loading; copra and quasi-RLS
    assert lanes == {"loaded_mvdr_lanes": [10, 10], "copra_lanes": [10, 10]}


def _eigh_failing_lane(target):
    """np.linalg.eigh, failing lane BAD of a stack when it holds target: the
    stacked call fails as a whole, and the eigensolver's retry of that lane
    alone fails again. Without interferers every lane's interference-plus-
    noise covariance is the same matrix, so the lane is told by its place."""
    real, failed = np.linalg.eigh, []

    def eigh(a):
        if a.ndim == 3 and len(a) > BAD and np.array_equal(a[BAD], target):
            failed.append(a[BAD])
        if any(np.shares_memory(a, m) for m in failed):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)
    return eigh


def test_eigensolver_failure_fails_only_its_lane(monkeypatch):
    # one lane's interference-plus-noise covariance, which the clairvoyant
    # weights decompose, does not converge, which fails the stacked eigh as
    # a whole; the eigensolver retries it matrix by matrix
    sl, _ = harness._draw_block(NEIGHBOURS, [BAD], SEED, NEIGHBOURS.n_snapshots)
    monkeypatch.setattr(np.linalg, "eigh",
                        _eigh_failing_lane(arraysim.interference_noise_lanes(sl)[0]))
    records = run_trials(NEIGHBOURS, INDICES, SEED)
    monkeypatch.undo()
    bad = records[BAD]
    assert bad.sinr["optimal"] is None
    assert bad.failures == {"optimal": "Eigenvalues did not converge"}
    _neighbours_unchanged(records)


def _per_point_rows(cfg, kind):
    """The rows of a sweep built point by point from run_trials, as run_sweep
    built them when it ran each (point, block) pair on its own."""
    def columns(records):
        # what the rows are aggregated from: (trials, methods) arrays of the
        # SINRs, NaN where a method failed, and of the fallback flags
        sinr = np.array([[np.nan if r.sinr[m] is None else r.sinr[m] for m in cfg.methods]
                         for r in records], dtype=float)
        fallback = np.array([[{"copra": r.fallback_b or r.fallback_z,
                               "sample-mvdr": r.mvdr_loaded}.get(m, False) for m in cfg.methods]
                             for r in records], dtype=bool)
        return sinr, fallback

    if kind == "snr":
        points = [(float(v), dataclasses.replace(cfg, snr_db=float(v))) for v in cfg.snr_db_grid]
    else:
        points = [(float(v), dataclasses.replace(cfg, n_snapshots=int(v)))
                  for v in cfg.snapshot_grid]
    rows = []
    for value, pcfg in points:
        sinr, fallback = columns(run_trials(pcfg, range(cfg.trials), SEED))
        rows += [harness._aggregate(sinr[:, m], fallback[:, m], method, value)
                 for m, method in enumerate(cfg.methods)]
    return tuple(rows)


sweep_configs = st.builds(
    ExperimentConfig,
    n_elements=st.sampled_from([3, 6, 10]),
    n_interferers=st.integers(0, 3),
    doa_guard_deg=st.one_of(st.just(2.0), st.floats(0.0, 89.0)),
    snr_db=st.floats(-10.0, 40.0),
    n_snapshots=st.integers(1, 24),
    trials=st.sampled_from([1, 7, 13, 23]),
    # unsorted, with repeats, down to one snapshot and below n_elements
    snr_db_grid=st.lists(st.sampled_from([-10.0, 0.0, 7.5, 30.0]),
                         min_size=1, max_size=4).map(tuple),
    snapshot_grid=st.lists(st.sampled_from([1, 2, 5, 9, 24]),
                           min_size=1, max_size=4).map(tuple),
    diagonal_loading=st.sampled_from([0.0, 10.0]),
    gamma_z_policy=st.sampled_from(["averaged", "per-snapshot-median"]),
    methods=st.lists(st.sampled_from(METHODS), unique=True).map(tuple),
)


@settings(max_examples=40, deadline=None, database=None)
@given(sweep_configs, st.sampled_from(["snr", "snapshots"]))
def test_sweep_rows_equal_per_point_runs(cfg, kind):
    # a sweep draws each trial once for all points and shares c_in and the
    # clairvoyant weights between them; its rows must not move by a bit
    assert repr(harness.run_sweep(cfg, kind, SEED).rows) == repr(_per_point_rows(cfg, kind))


def test_pool_sweep_rows_equal_per_point_runs():
    # three blocks over two workers
    cfg = ExperimentConfig(trials=23, workers=2, n_elements=6, snapshot_grid=(12, 3, 1, 12),
                           snr_db_grid=(30.0, -10.0, 30.0))
    for kind in ("snr", "snapshots"):
        assert repr(harness.run_sweep(cfg, kind, SEED).rows) == repr(_per_point_rows(cfg, kind))


# three SNR points of one snapshot count: one block runs as a stack of 30
# lanes, in three chunks of the grid-shaped work
STACKED = dataclasses.replace(NEIGHBOURS, trials=len(INDICES), snr_db_grid=(0.0, 10.0, 20.0))
POINT = 1


def _synthesized(monkeypatch):
    """A list that grows by one at every arraysim.synthesize_block call."""
    real, calls = arraysim.synthesize_block, []

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(arraysim, "synthesize_block", spy)
    return calls


def _stacked_run(monkeypatch, failed):
    """Run STACKED under a patch that fails trial BAD at point POINT, then
    hold it to the unpatched per-point runs: only that trial at that point
    may change, only the methods failed fail, and the sweep's rows equal
    the rows built point by point under the same patch. The block, one
    here, synthesizes each point's snapshots once: no lane is run again."""
    point_cfgs = [dataclasses.replace(STACKED, snr_db=v) for v in STACKED.snr_db_grid]
    synthesized = _synthesized(monkeypatch)
    _, columns = harness._run_points(
        STACKED, [(v, STACKED.n_snapshots) for v in STACKED.snr_db_grid], INDICES, SEED)
    assert len(synthesized) == len(point_cfgs)
    rows = harness.run_sweep(STACKED, "snr", SEED).rows
    assert len(synthesized) == 2 * len(point_cfgs)
    patched_rows = _per_point_rows(STACKED, "snr")
    monkeypatch.undo()
    bad = _lane_record(columns[POINT], STACKED.methods, BAD)
    assert set(bad.failures) == set(failed)
    assert all(bad.sinr[m] is None for m in failed)
    for p, cfg in enumerate(point_cfgs):
        _, (alone,) = harness._run_points(cfg, [(cfg.snr_db, cfg.n_snapshots)], INDICES, SEED)
        for i in INDICES:
            if (p, i) != (POINT, BAD):
                assert _lane(columns[p], i) == _lane(alone, i), (p, i)
    assert repr(rows) == repr(patched_rows)
    for row, want in zip(rows, _per_point_rows(STACKED, "snr")):
        if row.value != STACKED.snr_db_grid[POINT]:
            assert repr(row) == repr(want)
        elif row.method in failed:
            assert row.trials == want.trials - 1
    return bad


def test_eigensolver_failure_in_a_stacked_point_fails_only_its_lane(monkeypatch):
    # the sample covariance of one trial at one SNR does not converge: the
    # eigensolver flags that lane alone, and it fails the methods that read
    # the sample eigensystem
    cfg = dataclasses.replace(STACKED, snr_db=STACKED.snr_db_grid[POINT])
    sl, z = harness._draw_block(cfg, [BAD], SEED, cfg.n_snapshots)
    target = arraysim.sample_covariance(
        arraysim.SnapshotSet(arraysim.synthesize_block(sl, z, cfg.n_snapshots)))[0]
    real = np.linalg.eigh

    def eigh(a):
        if any(np.array_equal(m, target) for m in a.reshape(-1, *target.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    failed = ["sample-mvdr", "diagonal-loading", "copra", "quasi-rls"]
    bad = _stacked_run(monkeypatch, failed)
    assert bad.failures == {m: "Eigenvalues did not converge" for m in failed}


def test_clairvoyant_eigensolver_failure_fails_its_trial_at_every_snr(monkeypatch):
    # one trial's interference-plus-noise covariance does not converge: its
    # clairvoyant weights, built once per block, fail at every point of the
    # SNR stack, and every other (point, lane, method) is the unpatched
    # per-point run's
    sl, _ = harness._draw_block(STACKED, [BAD], SEED, STACKED.n_snapshots)
    monkeypatch.setattr(np.linalg, "eigh",
                        _eigh_failing_lane(arraysim.interference_noise_lanes(sl)[0]))
    point_cfgs = [dataclasses.replace(STACKED, snr_db=v) for v in STACKED.snr_db_grid]
    _, columns = harness._run_points(
        STACKED, [(v, STACKED.n_snapshots) for v in STACKED.snr_db_grid], INDICES, SEED)
    rows = harness.run_sweep(STACKED, "snr", SEED).rows
    assert repr(rows) == repr(_per_point_rows(STACKED, "snr"))
    monkeypatch.undo()
    per_lane = ("gamma_b", "gamma_z", "fallback_b", "fallback_z", "mvdr_loaded")
    for cfg, patched in zip(point_cfgs, columns):
        for i, rec in zip(INDICES, run_trials(cfg, INDICES, SEED)):
            got = _lane_record(patched, STACKED.methods, i)
            failures, sinr = dict(rec.failures), dict(rec.sinr)
            if i == BAD:
                assert not failures
                failures["optimal"], sinr["optimal"] = "Eigenvalues did not converge", None
            assert (got.failures, _bits(got.sinr)) == (failures, _bits(sinr)), (cfg.snr_db, i)
            assert _bits([patched[k][i] for k in per_lane]) == _bits(
                [getattr(rec, k) for k in per_lane]), (cfg.snr_db, i)
            assert patched["n1"][i] == (rec.n1 or 0), (cfg.snr_db, i)
    for row, want in zip(rows, _per_point_rows(STACKED, "snr")):
        assert row.trials == want.trials - (row.method == "optimal"), row


def test_zeroed_lane_in_a_stacked_point_fails_alone(monkeypatch):
    # the sample covariance of one trial at one SNR is zero
    cfg = dataclasses.replace(STACKED, snr_db=STACKED.snr_db_grid[POINT])
    sl, z = harness._draw_block(cfg, [BAD], SEED, cfg.n_snapshots)
    target = arraysim.sample_covariance(
        arraysim.SnapshotSet(arraysim.synthesize_block(sl, z, cfg.n_snapshots)))[0]
    real = arraysim.sample_covariance

    def zero_target(snapshot_set):
        c = real(snapshot_set)
        for lane in c:
            if np.array_equal(lane, target):
                lane[...] = 0.0
        return c

    monkeypatch.setattr(arraysim, "sample_covariance", zero_target)
    bad = _stacked_run(monkeypatch, ["sample-mvdr", "copra", "quasi-rls"])
    assert "all-zero spectrum" in bad.failures["copra"]
    assert "singular" in bad.failures["sample-mvdr"]


# three snapshot counts at one SNR, one of them below the element count: one
# block runs as a stack of 30 lanes
STACKED_SNAPSHOTS = dataclasses.replace(STACKED, snapshot_grid=(10, 4, 24))


def _stacked_snapshot_run(monkeypatch, failed):
    """_stacked_run for STACKED_SNAPSHOTS, a snapshot sweep: only trial BAD
    at point POINT may change, only the methods failed fail, the sweep's
    rows equal the rows built point by point under the same patch, and each
    point's snapshots are synthesized once."""
    point_cfgs = [dataclasses.replace(STACKED_SNAPSHOTS, n_snapshots=v)
                  for v in STACKED_SNAPSHOTS.snapshot_grid]
    synthesized = _synthesized(monkeypatch)
    _, columns = harness._run_points(
        STACKED_SNAPSHOTS, [(STACKED_SNAPSHOTS.snr_db, v) for v in STACKED_SNAPSHOTS.snapshot_grid],
        INDICES, SEED)
    assert len(synthesized) == len(point_cfgs)
    rows = harness.run_sweep(STACKED_SNAPSHOTS, "snapshots", SEED).rows
    assert len(synthesized) == 2 * len(point_cfgs)
    patched_rows = _per_point_rows(STACKED_SNAPSHOTS, "snapshots")
    monkeypatch.undo()
    bad = _lane_record(columns[POINT], STACKED_SNAPSHOTS.methods, BAD)
    assert set(bad.failures) == set(failed)
    assert all(bad.sinr[m] is None for m in failed)
    for p, cfg in enumerate(point_cfgs):
        _, (alone,) = harness._run_points(cfg, [(cfg.snr_db, cfg.n_snapshots)], INDICES, SEED)
        for i in INDICES:
            if (p, i) != (POINT, BAD):
                assert _lane(columns[p], i) == _lane(alone, i), (p, i)
    assert repr(rows) == repr(patched_rows)
    for row, want in zip(rows, _per_point_rows(STACKED_SNAPSHOTS, "snapshots")):
        if row.value != STACKED_SNAPSHOTS.snapshot_grid[POINT]:
            assert repr(row) == repr(want)
        elif row.method in failed:
            assert row.trials == want.trials - 1
    return bad


def _bad_sample_covariance():
    """The sample covariance of trial BAD at point POINT of STACKED_SNAPSHOTS,
    drawn alone."""
    n_s = STACKED_SNAPSHOTS.snapshot_grid[POINT]
    sl, z = harness._draw_block(STACKED_SNAPSHOTS, [BAD], SEED, n_s)
    return arraysim.sample_covariance(
        arraysim.SnapshotSet(arraysim.synthesize_block(sl, z, n_s)))[0]


def test_sample_eigensolver_failure_in_a_stacked_snapshot_point_fails_only_its_lane(
        monkeypatch):
    # the sample covariance of one trial at one snapshot count does not
    # converge: the eigensolver flags that lane alone, and it fails the
    # methods that read the sample eigensystem
    target = _bad_sample_covariance()
    real = np.linalg.eigh

    def eigh(a):
        if any(np.array_equal(m, target) for m in a.reshape(-1, *target.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    failed = ["sample-mvdr", "diagonal-loading", "copra", "quasi-rls"]
    bad = _stacked_snapshot_run(monkeypatch, failed)
    assert bad.failures == {m: "Eigenvalues did not converge" for m in failed}


def test_zeroed_lane_in_a_stacked_snapshot_point_fails_alone(monkeypatch):
    target = _bad_sample_covariance()
    real = arraysim.sample_covariance

    def zero_target(snapshot_set):
        c = real(snapshot_set)
        for lane in c:
            if np.array_equal(lane, target):
                lane[...] = 0.0
        return c

    monkeypatch.setattr(arraysim, "sample_covariance", zero_target)
    bad = _stacked_snapshot_run(monkeypatch, ["sample-mvdr", "copra", "quasi-rls"])
    assert "all-zero spectrum" in bad.failures["copra"]
    assert "singular" in bad.failures["sample-mvdr"]


def _stack_sizes(monkeypatch):
    """The lane count of every stack the SINR runs over, as it happens."""
    real, sizes = harness._sinr_lanes, []

    def spy(w, *args):
        sizes.append(len(w))
        return real(w, *args)

    monkeypatch.setattr(harness, "_sinr_lanes", spy)
    return sizes


def test_snapshot_sweep_runs_one_stack_per_block(monkeypatch):
    # three snapshot counts; 23 trials are blocks of 10, 10 and 3
    for trials, stacks in ((10, [30]), (23, [30, 30, 9])):
        cfg = dataclasses.replace(STACKED_SNAPSHOTS, trials=trials)
        sizes = _stack_sizes(monkeypatch)
        rows = harness.run_sweep(cfg, "snapshots", SEED).rows
        monkeypatch.undo()
        assert sizes == stacks, trials
        assert repr(rows) == repr(_per_point_rows(cfg, "snapshots")), trials


def test_repeated_point_runs_once(monkeypatch):
    # a repeated point's lanes are not stacked again: it takes the columns
    # of its first occurrence
    cfg = ExperimentConfig(trials=10, n_elements=6, snapshot_grid=(12, 3, 1, 12),
                           snr_db_grid=(30.0, -10.0, 30.0))
    for kind, lanes in (("snr", 20), ("snapshots", 30)):
        sizes = _stack_sizes(monkeypatch)
        rows = harness.run_sweep(cfg, kind, SEED).rows
        monkeypatch.undo()
        assert sizes == [lanes], kind
        assert repr(rows) == repr(_per_point_rows(cfg, kind)), kind


def test_sweep_builds_no_records(monkeypatch):
    # a sweep aggregates its blocks' columns; only run_trials makes records
    def refuse(**fields):
        raise AssertionError("a TrialRecord was built")

    monkeypatch.setattr(harness, "TrialRecord", refuse)
    with pytest.raises(AssertionError, match="TrialRecord"):
        run_trials(STACKED_SNAPSHOTS, [0], SEED)
    # two blocks, serially
    cfg = dataclasses.replace(STACKED_SNAPSHOTS, trials=2 * harness.BLOCK)
    assert cfg.workers == 1
    for kind in ("snr", "snapshots"):
        harness.run_sweep(cfg, kind, SEED)


def test_sweep_builds_no_config(monkeypatch):
    # a sweep point is its (SNR, snapshot count) pair, not a config copy
    cfg = dataclasses.replace(STACKED_SNAPSHOTS, trials=2 * harness.BLOCK)
    built = []
    monkeypatch.setattr(ExperimentConfig, "__post_init__", lambda self: built.append(self))
    for kind in ("snr", "snapshots"):
        harness.run_sweep(cfg, kind, SEED)
    assert built == []


def test_each_point_drops_its_snapshots_before_the_next(monkeypatch):
    # the stack holds every point's covariances and eigensystems, but never
    # two points' snapshots at once
    real, made = arraysim.synthesize_block, []

    def spy(*args):
        assert all(ref() is None for ref in made), len(made)
        y = real(*args)
        made.append(weakref.ref(y))
        return y

    monkeypatch.setattr(arraysim, "synthesize_block", spy)
    for kind in ("snr", "snapshots"):
        del made[:]
        harness.run_sweep(STACKED_SNAPSHOTS, kind, SEED)
        assert len(made) == 3, kind


@pytest.mark.parametrize("cfg, kind", [(STACKED, "snr"), (STACKED_SNAPSHOTS, "snapshots")])
def test_one_sample_decomposition_per_block(monkeypatch, cfg, kind):
    # a block of either sweep kind decomposes its sample covariances in one
    # call and its interference-plus-noise covariances, for the clairvoyant
    # weights, in another; every method reads those eigensystems, so no call
    # sees a loaded covariance
    made = {"sample": set(), "interference": set()}
    calls = []

    def keep(name, real):
        def spy(*args):
            out = real(*args)
            made[name].update(m.tobytes() for m in out)
            return out
        return spy

    def evd(real):
        def spy(a):
            calls.append([m.tobytes() for m in np.reshape(a, (-1, *np.shape(a)[-2:]))])
            return real(a)
        return spy

    monkeypatch.setattr(arraysim, "sample_covariance", keep("sample", arraysim.sample_covariance))
    monkeypatch.setattr(arraysim, "interference_noise_lanes",
                        keep("interference", arraysim.interference_noise_lanes))
    for module in (harness, beamformers):
        monkeypatch.setattr(module, "hermitian_evd", evd(module.hermitian_evd))
    assert cfg.trials <= harness.BLOCK
    harness.run_sweep(cfg, kind, SEED)
    sample = [c for c in calls if set(c) <= made["sample"]]
    assert len(sample) == 1 and len(sample[0]) == len(getattr(
        cfg, "snr_db_grid" if kind == "snr" else "snapshot_grid")) * cfg.trials
    assert all(set(c) <= made["sample"] | made["interference"] for c in calls)
    assert len(calls) == 2
