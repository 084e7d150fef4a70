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
quasi selector sees zero eigenvalues. One more point pins failures: on 2
elements with 1 snapshot at -100 dB, a quasi grid whose lower end
underflows fails one trial, and eight more pair a zero eigenvalue with a
level whose square underflows, where copra's filter takes its limit 0.

A change that moves the numbers on purpose regenerates the files with
``PYTHONPATH=src python3 tests/test_golden.py`` and says why in CHANGES.md.
Before it writes, the script prints, per field and method of the records,
how many pinned values moved and the largest relative SINR change, and,
per golden file, whether its bytes changed.
"""

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from conftest import REFERENCE_SWEEPS, reference_sweep
from copra_beam.cli import main as cli_main
from copra_beam.config import config_from_dict
from copra_beam.harness import run_trial

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 7
TRIALS = 16
POINTS = ([{"snr_db": v} for v in (-10.0, 10.0, 30.0)]
          + [{"n_snapshots": v} for v in (5, 10)]
          # the config fuzz's example of a quasi grid that starts at zero
          + [{"n_elements": 2, "n_snapshots": 1, "n_interferers": 0, "snr_db": -100.0,
              "quasi_grid": {"lo_factor": 5e-324}}])
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
    """Every trial of the pinned points, keyed by the fields each sets."""
    out = {}
    for fields in POINTS:
        cfg = config_from_dict(dict(fields, trials=TRIALS, seed=SEED))
        out[",".join("%s=%r" % item for item in fields.items())] = [
            _record(run_trial(cfg, i, SEED)) for i in range(TRIALS)]
    return out


def report_moves(old, new):
    """Print, per field and method, how many of old's pinned record values
    new moves and the largest relative change of a moved SINR, and every
    point only one of them has."""
    moved, pinned, worst = Counter(), Counter(), {}
    for point in sorted(old.keys() | new.keys()):
        if point not in old or point not in new:
            print("trials.json: point %s %s" % (point, "added" if point in new else "dropped"))
            continue
        for was, now in zip(old[point], new[point]):
            for field in sorted(was.keys() | now.keys()):
                x, y = was.get(field), now.get(field)
                for key, a, b in ([("%s[%s]" % (field, m), x.get(m), y.get(m))
                                   for m in sorted(x.keys() | y.keys())]
                                  if isinstance(x, dict) else [(field, x, y)]):
                    pinned[key] += 1
                    if a != b:
                        moved[key] += 1
                        if field == "sinr" and None not in (a, b):
                            worst[key] = max(worst.get(key, 0.0), abs(float(b) / float(a) - 1))
    for key in sorted(pinned):
        print("trials.json: %s moved in %d of %d records%s" % (
            key, moved[key], pinned[key],
            ", largest relative change %.2g" % worst[key] if key in worst else ""))


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
    """Regenerate every golden file, after reporting what moves."""
    records, trials = trial_records(), GOLDEN / "trials.json"
    if trials.exists():
        report_moves(json.loads(trials.read_text()), records)
    files = {Path("trials.json"): (json.dumps(records, indent=1, sort_keys=True) + "\n").encode()}
    with tempfile.TemporaryDirectory() as tmp:
        files.update((Path(name), data) for name, data in sweep_outputs(tmp).items())
        for kind in REFERENCE_SWEEPS:
            work = Path(tmp) / kind
            work.mkdir()
            files.update((Path("reference-" + kind, name), data)
                         for name, data in reference_sweep(kind, work)[2].items())
    for name, data in files.items():
        path = GOLDEN / name
        print("%s: bytes %s" % (name, "unchanged" if path.exists() and path.read_bytes() == data
                                else "changed"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
