"""The batched trial engine: a trial's record does not depend on its batch.

``run_trials`` runs blocks of trials as lanes of one array program, and
``run_trial`` is its one-lane case. Every record must equal, bit for bit, the
record of the same trial run alone, whatever the index set, its order and
the block split, on configs that reach every failure and fallback path.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from copra_beam import arraysim, harness
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


def test_zeroed_lane_fails_alone(monkeypatch):
    # lane BAD's covariance is zero: its copra split, quasi selector and
    # sample MVDR fail; its neighbours in the block must not notice
    real = arraysim.sample_covariance

    def zero_lane(snapshot_set):
        c = real(snapshot_set)
        c[BAD] = 0.0
        return c

    monkeypatch.setattr(arraysim, "sample_covariance", zero_lane)
    records = run_trials(NEIGHBOURS, INDICES, SEED)
    monkeypatch.undo()
    bad = records[BAD]
    assert "all-zero spectrum" in bad.failures["copra"]
    assert "all-zero spectrum" in bad.failures["quasi-rls"]
    assert "singular" in bad.failures["sample-mvdr"]
    assert bad.sinr["optimal"] is not None
    _neighbours_unchanged(records)


def test_eigensolver_failure_fails_only_its_lane(monkeypatch):
    # the stacked eigh raises for the whole stack when one lane's true
    # covariance does not converge; the block is redone lane by lane
    _, scenario, _ = harness._draw(NEIGHBOURS, BAD, SEED)
    target = arraysim.true_covariance(scenario)
    real = np.linalg.eigh

    def eigh(a):
        if any(np.array_equal(m, target) for m in a.reshape(-1, *target.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    records = run_trials(NEIGHBOURS, INDICES, SEED)
    monkeypatch.undo()
    bad = records[BAD]
    assert bad.sinr["optimal"] is None
    assert bad.failures == {"optimal": "Eigenvalues did not converge"}
    _neighbours_unchanged(records)
