"""Golden gate: per-trial records and sweep outputs pinned bit for bit.

The files under tests/golden/ hold every method's SINR, both regularization
levels and both fallback flags of each trial as full-precision ``repr``
strings, with copra's split, sample MVDR's loading flag and the failures,
plus the ``sweep.csv`` and ``meta.json`` bytes of one ``copra-beam sweep``.
The CSV's 9 significant digits alone would let last-bit drift through; the
records do not. ``reference-snr/`` and ``reference-snapshots/`` hold the
``sweep.csv``, ``sweep.svg`` and ``meta.json`` bytes of the two reference
sweeps (``conftest.REFERENCE_SWEEPS``, 1000 trials a point) and the digest of
their SINR and fallback columns, which a one-ulp change of one trial's SINR
moves.

The snapshot sweep includes 5 and 10 snapshots on 10 elements, where the
sample covariance is rank-deficient: sample MVDR takes its loaded path and the
quasi selector sees zero eigenvalues.

A change that moves the numbers on purpose regenerates the files with
``PYTHONPATH=src python3 tests/test_golden.py`` and says why in CHANGES.md.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import REFERENCE_SWEEPS, reference_sweep
from copra_beam.cli import main as cli_main
from copra_beam.config import ExperimentConfig
from copra_beam.harness import run_trial

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 7
TRIALS = 16
SNR_POINTS = (-10.0, 10.0, 30.0)
SNAPSHOT_POINTS = (5, 10)
SWEEP_CONFIG = {"trials": 4, "snapshot_grid": [5, 10, 30], "seed": SEED}
SWEEP_FILES = ("sweep.csv", "meta.json")


def _bits(value):
    # repr of a Python float round-trips exactly; the scalar type is not pinned
    return None if value is None else repr(float(value))


def _record(rec):
    return {
        "trial": rec.trial_index,
        "sinr": {m: _bits(v) for m, v in rec.sinr.items()},
        "gamma_b": _bits(rec.gamma_b),
        "gamma_z": _bits(rec.gamma_z),
        "fallback_b": rec.fallback_b,
        "fallback_z": rec.fallback_z,
        "n1": rec.n1,
        "n2": rec.n2,
        "mvdr_loaded": rec.mvdr_loaded,
        "failures": rec.failures,
    }


def trial_records():
    """Every trial of the pinned SNR and snapshot sweeps, keyed by point."""
    base = ExperimentConfig(trials=TRIALS, seed=SEED)
    points = [("snr_db", v) for v in SNR_POINTS]
    points += [("n_snapshots", v) for v in SNAPSHOT_POINTS]
    out = {}
    for name, value in points:
        cfg = dataclasses.replace(base, **{name: value})
        out["%s=%r" % (name, value)] = [
            _record(run_trial(cfg, i, SEED)) for i in range(TRIALS)]
    return out


def sweep_outputs(workdir):
    """Bytes of the pinned ``copra-beam sweep --kind snapshots`` outputs."""
    workdir = Path(workdir)
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(SWEEP_CONFIG))
    out = workdir / "out"
    rc = cli_main(["sweep", "--kind", "snapshots", "--config", str(cfg_path),
                   "--out", str(out)])
    assert rc == 0
    return {name: (out / name).read_bytes() for name in SWEEP_FILES}


def test_trial_records_match_golden():
    golden = json.loads((GOLDEN / "trials.json").read_text())
    assert trial_records() == golden


def test_sweep_outputs_match_golden(tmp_path):
    got = sweep_outputs(tmp_path)
    for name in SWEEP_FILES:
        assert got[name] == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("kind", sorted(REFERENCE_SWEEPS))
def test_reference_sweep_outputs_match_golden(reference_sweeps, kind):
    for name, data in reference_sweeps[kind][2].items():
        assert data == (GOLDEN / ("reference-" + kind) / name).read_bytes(), name


def main():
    GOLDEN.mkdir(exist_ok=True)
    text = json.dumps(trial_records(), indent=1, sort_keys=True) + "\n"
    (GOLDEN / "trials.json").write_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in sweep_outputs(tmp).items():
            (GOLDEN / name).write_bytes(data)
        for kind in REFERENCE_SWEEPS:
            out, work = GOLDEN / ("reference-" + kind), Path(tmp) / kind
            out.mkdir(exist_ok=True)
            work.mkdir()
            for name, data in reference_sweep(kind, work)[2].items():
                (out / name).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
