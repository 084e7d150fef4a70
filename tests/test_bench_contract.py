"""The one-trial API the benchmark replays, held to the batched engine.

``bench/pipeline.py`` replays ``harness.run_trial`` stage by stage through the
single-system functions. Its drift guard requires every replayed SINR to
equal ``run_trial``'s bit for bit, and its oracle checks hold the solves and
weights to references written apart from copra_beam. Here both run on the
first and last sweep point of every workload, so a change to those
functions fails tier-1 and not only a traced benchmark run. A traced run
also writes what the replay counts to JSON, so a solver field that JSON
cannot encode (a numpy scalar) fails here too.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import pipeline  # noqa: E402
import workloads  # noqa: E402
from copra_beam import harness  # noqa: E402
from copra_beam.config import config_from_dict  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SEED = 1
TRIALS = 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("end", [0, -1])
def test_replay_matches_run_trial_and_oracle(name, end):
    kind, doc = workloads.make(name, SEED)
    cfg = config_from_dict(doc)
    value = workloads.points(kind, doc)[end]
    if kind == "snr":
        cfg = dataclasses.replace(cfg, snr_db=float(value))
    else:
        cfg = dataclasses.replace(cfg, n_snapshots=int(value))
    problems = []
    for i in range(TRIALS):
        where = "%s point %g trial %d" % (name, value, i)
        rp = pipeline.replay_trial(cfg, i, SEED, NullTracer(), [0, end, i])
        problems += pipeline.drift_problems(cfg, harness.run_trial(cfg, i, SEED), rp, where)
        problems += pipeline.oracle_problems(cfg, rp, where)
    assert not problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_replay_writes_json(name, tmp_path):
    _, doc = workloads.make(name, SEED)
    tracer = Tracer()
    pipeline.replay_trial(config_from_dict(doc), 0, SEED, tracer, [0, 0, 0])
    path = tmp_path / "trace.json"
    # json.dump raises TypeError on a count it cannot encode
    tracer.dump(path)
    assert json.loads(path.read_text())["spans"]
