import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copra_beam import arraysim, config, harness, linalg, secular
from copra_beam.cli import CSV_HEADER, _sweep_svg, main
from copra_beam.config import (LEVEL_DB_BOUND, METHODS, ExperimentConfig, config_from_dict,
                               load_config)


FAST = {
    "trials": 3,
    "n_snapshots": 20,
    "snr_db_grid": [0.0, 10.0],
    "snapshot_grid": [15, 25],
}


def _write_cfg(tmp_path, extra=None):
    data = dict(FAST)
    if extra:
        data.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_elements == 10
        assert cfg.trials == 1000
        assert cfg.rho == pytest.approx(0.1)
        assert cfg.seed == 0

    def test_rho_bounds(self):
        with pytest.raises(ValueError, match="rho"):
            ExperimentConfig(rho=0.0)
        with pytest.raises(ValueError, match="rho"):
            ExperimentConfig(rho=1.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"n_elments": 10})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentConfig(methods=("copra", "magic"))

    def test_round_trip(self):
        cfg = ExperimentConfig(trials=7, snr_db=3.0, rho=0.2)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_load_json(self, tmp_path):
        path = _write_cfg(tmp_path, {"seed": 42})
        cfg = load_config(path)
        assert cfg.trials == 3
        assert cfg.seed == 42
        assert cfg.snapshot_grid == (15, 25)

    def test_load_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "trials": 3,\n}\n')
        with pytest.raises(ValueError, match="line 3"):
            load_config(str(path))

    def test_doa_guard_refused_at_load(self, tmp_path):
        for guard in ("500", "-1", "NaN"):
            path = tmp_path / "guard.json"
            path.write_text('{"doa_guard_deg": %s}' % guard)
            with pytest.raises(ValueError, match="doa_guard_deg"):
                load_config(str(path))

    @pytest.mark.parametrize("doc, field", [
        ('{"snr_db": NaN}', "snr_db"),
        ('{"inr_db": Infinity}', "inr_db"),
        ('{"inr_db": NaN}', "inr_db"),
        ('{"snr_db_grid": [0.0, -Infinity]}', "snr_db_grid"),
        ('{"n_elements": 1}', "n_elements"),
        ('{"spacing_wavelengths": Infinity}', "spacing_wavelengths"),
        ('{"snapshot_grid": [10, 0]}', "snapshot_grid"),
        ('{"soi_error_bound_deg": Infinity}', "soi_error_bound_deg"),
        ('{"soi_error_bound_deg": 180.5}', "soi_error_bound_deg"),
        ('{"soi_error_bound_deg": 1e308}', "soi_error_bound_deg"),
        ('{"quasi_grid": {"points": 1}}', "quasi_grid"),
        ('{"quasi_grid": {"lo_factor": 0.0}}', "quasi_grid"),
        ('{"quasi_grid": {"lo_factor": 20.0}}', "quasi_grid"),
        ('{"quasi_grid": {"hi_factor": Infinity}}', "quasi_grid"),
        ('{"diagonal_loading": NaN}', "diagonal_loading"),
        ('{"diagonal_loading": Infinity}', "diagonal_loading"),
        ('{"snr_db": "20"}', "snr_db"),
        ('{"trials": "3"}', "trials"),
        ('{"rho": null}', "rho"),
        ('{"workers": true}', "workers"),
        ('{"snapshot_grid": [10, "20"]}', "snapshot_grid"),
        ('{"quasi_grid": {"points": null}}', "quasi_grid"),
        ('{"seed": -1}', "seed"),
        ('{"snr_db": 4000}', "snr_db"),
        ('{"inr_db": 4000.0}', "inr_db"),
        ('{"snr_db_grid": [0.0, 4000.0]}', "snr_db_grid"),
        ('{"snr_db": -4000}', "snr_db"),
        ('{"inr_db": -4000.0}', "inr_db"),
        ('{"snr_db_grid": [0.0, -4000.0]}', "snr_db_grid"),
        ('{"inr_db": 3000, "trials": 2, "snr_db_grid": [0.0]}', "inr_db"),
        ('{"snr_db": -3225, "trials": 2, "snr_db_grid": [-3225.0]}', "snr_db"),
        ('{"snr_db_grid": [0.0, -3225.0]}', "snr_db_grid"),
        ('{"inr_db": 100.5}', "inr_db"),
        # counts whose largest array would pass the 2**27-value budget
        ('{"n_snapshots": 1000000000000}', "n_snapshots"),
        ('{"snapshot_grid": [10, 100000000]}', "snapshot_grid"),
        ('{"quasi_grid": {"points": 10000000000}}', "quasi_grid.points"),
        ('{"n_elements": 100000}', "n_elements"),
        ('{"trials": 1000000000000}', "trials"),
        ('{"snr_db_grid": [0.0], "trials": 30000000, "methods": ["copra"], '
         '"snapshot_grid": [10, 20, 30, 40, 50]}', "trials"),
        ('{"gamma_z_policy": "per-snapshot-median", "n_snapshots": 400000}', "gamma_z_policy"),
        # no method still draws every trial
        ('{"trials": 1000000000000, "methods": []}', "trials"),
    ])
    def test_bad_values_refused_at_load(self, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match=field):
            load_config(str(path))

    @pytest.mark.parametrize("snr_db, inr_db", [
        (-LEVEL_DB_BOUND, 30.0), (LEVEL_DB_BOUND, 30.0),
        (20.0, -LEVEL_DB_BOUND), (20.0, LEVEL_DB_BOUND),
        (-LEVEL_DB_BOUND, -LEVEL_DB_BOUND), (-LEVEL_DB_BOUND, LEVEL_DB_BOUND),
        (LEVEL_DB_BOUND, -LEVEL_DB_BOUND), (LEVEL_DB_BOUND, LEVEL_DB_BOUND),
    ])
    def test_levels_at_the_bound_run(self, tmp_path, capsys, snr_db, inr_db):
        # every method gives a finite SINR at the extreme levels that load
        cfg = _write_cfg(tmp_path, {"snr_db": snr_db, "inr_db": inr_db, "trials": 1,
                                    "snr_db_grid": [snr_db]})
        capsys.readouterr()
        assert main(["trial", "--config", cfg, "--json"]) == 0
        sinr_db = json.loads(capsys.readouterr().out)["sinr_db"]
        assert all(v is not None and math.isfinite(v) for v in sinr_db.values()), sinr_db
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(ExperimentConfig().methods)
        for row in rows:
            assert row["trials"] == "1" and math.isfinite(float(row["mean_sinr_db"])), row

    def test_config_loads_without_numpy(self, tmp_path):
        path = _write_cfg(tmp_path)
        probe = ("import sys\nfrom copra_beam.config import load_config\n"
                 "load_config(sys.argv[1])\nassert 'numpy' not in sys.modules\n")
        src = Path(__file__).resolve().parents[1] / "src"
        subprocess.run([sys.executable, "-c", probe, path], check=True,
                       env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)

    def test_config_owns_the_sizing_names(self):
        assert arraysim.ArrayGeometry is config.ArrayGeometry
        assert (linalg.BLOCK, harness.BLOCK, linalg.LANE_CHUNK, secular.SCAN_POINTS) == (
            config.BLOCK, config.BLOCK, config.LANE_CHUNK, config.SCAN_POINTS)

    def test_quasi_grid_nested(self):
        cfg = config_from_dict({"quasi_grid": {"points": 50}})
        assert cfg.quasi_grid.points == 50
        with pytest.raises(ValueError, match="quasi_grid"):
            config_from_dict({"quasi_grid": {"steps": 50}})


# a field of a fuzzed config takes a valid value small enough to run at
# once, or, for at most two fields, a hostile one: a wrong type, a sign, a
# non-finite or huge number or an unknown key. No hostile count is a valid
# integer, so none starts a large run or many workers, and no guard nears
# 90 deg, where the interferer redraws grow without limit. At most one count
# may instead be valid but huge: each passes the array budget in any config,
# so a doc holding one must be refused at load and is never run.
NOT_NUMBERS = [True, None, "1", [1], {}]
HOSTILE_INT = st.sampled_from([0, -1, 1.5, 1e308, -1e308, math.nan, math.inf, -math.inf]
                              + NOT_NUMBERS)
HOSTILE_FLOAT = st.sampled_from([0, -1, -0.0, 5e-324, 1e308, -1e308, 10**30, math.nan,
                                 math.inf, -math.inf] + NOT_NUMBERS)
VALID_FIELDS = dict(
    n_elements=st.integers(2, 6),
    spacing_wavelengths=st.sampled_from([0.5, 0.05, 3.0]),
    n_interferers=st.integers(0, 3),
    inr_db=st.sampled_from([-LEVEL_DB_BOUND, 0.0, 30.0, LEVEL_DB_BOUND]),
    snr_db=st.sampled_from([-LEVEL_DB_BOUND, 0.0, 20.0, LEVEL_DB_BOUND]),
    soi_error_bound_deg=st.sampled_from([0.0, 5.0, 90.0, 180.0]),
    doa_guard_deg=st.floats(0.0, 89.0),
    n_snapshots=st.integers(1, 12),
    snr_db_grid=st.lists(st.sampled_from([-LEVEL_DB_BOUND, -10.0, 0.0, 30.0, LEVEL_DB_BOUND]),
                         min_size=1, max_size=3),
    snapshot_grid=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    rho=st.sampled_from([5e-324, 0.1, 0.999]),
    # empty, partial and repeated method lists
    methods=st.lists(st.sampled_from(METHODS), max_size=5),
    seed=st.sampled_from([0, 7, 2**64, 10**30]),
    diagonal_loading=st.sampled_from([0.0, 10.0, 1e308]),
    quasi_grid=st.fixed_dictionaries({}, optional=dict(
        points=st.integers(2, 20), lo_factor=st.sampled_from([1e-300, 1e-8]),
        hi_factor=st.sampled_from([10.0, 1e300]))),
    gamma_z_policy=st.sampled_from(["averaged", "per-snapshot-median"]),
)
INT_FIELDS = {"n_elements", "n_interferers", "trials", "n_snapshots", "seed", "workers"}
HOSTILE_FIELDS = dict(
    {name: HOSTILE_INT if name in INT_FIELDS else HOSTILE_FLOAT
     for name in [*VALID_FIELDS, "trials", "workers"]},
    snr_db_grid=st.one_of(HOSTILE_FLOAT, st.lists(HOSTILE_FLOAT, max_size=3)),
    snapshot_grid=st.one_of(HOSTILE_INT, st.lists(HOSTILE_INT, max_size=3)),
    methods=st.one_of(HOSTILE_FLOAT, st.lists(st.one_of(HOSTILE_FLOAT, st.just("magic")),
                                              min_size=1, max_size=3)),
    quasi_grid=st.one_of(HOSTILE_FLOAT, st.fixed_dictionaries({}, optional=dict(
        points=HOSTILE_INT, lo_factor=HOSTILE_FLOAT, hi_factor=HOSTILE_FLOAT,
        steps=st.just(50)))),
    gamma_z_policy=st.one_of(HOSTILE_FLOAT, st.just("latest")),
    n_elments=st.just(10),
)
LARGE_COUNTS = (2**27 + 1, 10**12, 10**30)
LARGE = st.sampled_from(LARGE_COUNTS)
LARGE_FIELDS = dict(
    {name: LARGE for name in ("trials", "n_elements", "n_interferers", "n_snapshots")},
    snapshot_grid=st.tuples(st.lists(st.integers(1, 12), max_size=2), LARGE).map(
        lambda parts: [*parts[0], parts[1]]),
    quasi_grid=LARGE.map(lambda points: {"points": points}),
)
hostile_configs = st.tuples(
    # one trial on one worker, not the defaults' 1000
    st.fixed_dictionaries({"trials": st.just(1), "workers": st.just(1)}, optional=VALID_FIELDS),
    st.lists(st.sampled_from(sorted(LARGE_FIELDS)), max_size=1).flatmap(
        lambda names: st.fixed_dictionaries({k: LARGE_FIELDS[k] for k in names})),
    st.lists(st.sampled_from(sorted(HOSTILE_FIELDS)), max_size=2, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({k: HOSTILE_FIELDS[k] for k in names})),
).map(lambda parts: {**parts[0], **parts[1], **parts[2]})


def _holds_large_count(doc):
    grid, quasi = doc.get("snapshot_grid"), doc.get("quasi_grid")
    counts = [doc.get(name) for name in ("trials", "n_elements", "n_interferers", "n_snapshots")]
    counts += list(grid) if isinstance(grid, list) else []
    counts += [quasi.get("points")] if isinstance(quasi, dict) else []
    return any(type(v) is int and v in LARGE_COUNTS for v in counts)


# derandomized, so the same configs run, and no warning passes, every time
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=180, deadline=None, database=None, derandomize=True)
@example({"trials": 1, "soi_error_bound_deg": 1e308}, "snr")
@example({"trials": 1, "snr_db_grid": []}, "snr")
@example({"trials": 1, "snapshot_grid": []}, "snapshots")
@example({"trials": 1, "methods": []}, "snr")
@example({"trials": 10**12, "methods": []}, "snr")
@example({"trials": 1, "methods": ["copra", ["optimal"]]}, "snr")
# the largest sample eigenvalue of trial 0 is 0.35: the quasi grid's lower
# end, 5e-324 times it, rounds to zero
@example({"trials": 1, "n_elements": 2, "n_snapshots": 1, "n_interferers": 0,
          "snr_db": -100.0, "seed": 11, "quasi_grid": {"lo_factor": 5e-324}}, "snr")
@given(hostile_configs, st.sampled_from(["snr", "snapshots"]))
def test_every_config_runs_or_is_refused_at_load(doc, kind):
    if _holds_large_count(doc):
        with pytest.raises(ValueError):
            config_from_dict(doc)
        return
    try:
        config_from_dict(doc)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["trial", "--config", path, "--json"]) == 0
        assert main(["sweep", "--kind", kind, "--config", path, "--out", tmp]) == 0


class TestSweepCommand:
    def test_outputs_exist(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--kind", "snr", "--config", cfg,
                   "--out", str(out)])
        assert rc == 0
        assert (out / "sweep.csv").exists()
        assert (out / "sweep.svg").exists()
        assert (out / "meta.json").exists()

    def test_csv_shape_and_header(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--kind", "snapshots", "--config", cfg,
              "--out", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        # 2 grid points x 5 methods
        assert len(lines) == 1 + 2 * 5

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"seed": 9})
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(a)])
        main(["sweep", "--config", cfg, "--out", str(b)])
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep.svg").read_bytes() == (b / "sweep.svg").read_bytes()
        assert (a / "meta.json").read_bytes() == (b / "meta.json").read_bytes()

    def test_seed_flag_changes_results(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["sweep", "--config", cfg, "--out", str(b), "--seed", "2"])
        assert (a / "sweep.csv").read_bytes() != (b / "sweep.csv").read_bytes()

    def test_meta_contents(self, tmp_path):
        cfg = _write_cfg(tmp_path, {"seed": 5})
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 5
        assert meta["trials"] == 3
        assert meta["config"]["n_snapshots"] == 20
        assert set(meta["fallback_rate_per_method"]) == set(
            ExperimentConfig().methods)

    def test_non_finite_means_stay_off_the_chart(self, tmp_path, monkeypatch):
        # a NaN interference-plus-noise covariance fails every trial of every
        # method: every mean is nan
        real = arraysim.interference_noise_lanes
        monkeypatch.setattr(arraysim, "interference_noise_lanes",
                            lambda sl: np.full_like(real(sl), np.nan))
        cfg = _write_cfg(tmp_path, {"trials": 2, "snr_db_grid": [0.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "nan" in (out / "sweep.csv").read_text()
        svg = (out / "sweep.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        assert "<circle" not in svg
        for method in ExperimentConfig().methods:
            assert method in svg

    def test_missing_config_file_errors(self, tmp_path):
        rc = main(["sweep", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1


class TestTrialCommand:
    def test_json_payload(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, {"seed": 3})
        rc = main(["trial", "--config", cfg, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 3
        assert set(payload["sinr_db"]) == set(ExperimentConfig().methods)
        assert payload["n1"] + payload["n2"] == 10

    def test_json_deterministic(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        main(["trial", "--config", cfg, "--json"])
        first = capsys.readouterr().out
        main(["trial", "--config", cfg, "--json"])
        assert capsys.readouterr().out == first

    def test_human_readable_output(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        main(["trial", "--config", cfg])
        out = capsys.readouterr().out
        assert "SOI DOA" in out
        assert "gamma_b" in out
        for method in ExperimentConfig().methods:
            assert method in out

    def test_no_interferers_flag(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        main(["trial", "--config", cfg, "--json", "--no-interferers"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["interferer_doas_deg"] == []


    def test_zero_sinr_is_minus_infinity_db(self, tmp_path, capsys, monkeypatch):
        # a SINR of exactly 0 is a value, not a failure: -inf dB, exit 0
        real = harness._sinr_lanes

        def zero_first(*args):
            values = real(*args)
            values[:, 0] = 0.0
            return values

        monkeypatch.setattr(harness, "_sinr_lanes", zero_first)
        cfg = _write_cfg(tmp_path)
        assert main(["trial", "--config", cfg, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sinr_db"]["sample-mvdr"] == -math.inf
        assert main(["trial", "--config", cfg]) == 0
        assert "-inf dB" in capsys.readouterr().out

class TestPlotCommand:
    def _sweep(self, tmp_path):
        cfg = _write_cfg(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        return out / "sweep.csv", out / "sweep.svg"

    def test_reproduces_sweep_svg(self, tmp_path):
        csv_path, svg_path = self._sweep(tmp_path)
        replot = tmp_path / "replot.svg"
        rc = main(["plot", str(csv_path), str(replot)])
        assert rc == 0
        assert replot.read_bytes() == svg_path.read_bytes()

    def test_svg_has_series_markers(self, tmp_path):
        csv_path, _ = self._sweep(tmp_path)
        out = tmp_path / "p.svg"
        main(["plot", str(csv_path), str(out)])
        text = out.read_text()
        assert text.lstrip().startswith("<?xml")
        assert "<svg" in text
        assert text.count("<polyline") >= 5  # one line per method, plus axes
        assert "<circle" in text
        for method in ExperimentConfig().methods:
            assert method in text

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SystemExit, match="header"):
            main(["plot", str(bad), str(tmp_path / "o.svg")])

    def test_malformed_row_names_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_HEADER) + "\n"
                       + "snr,0,copra,1.5,0.1,3,0\n"
                       + "snr,zero,copra,1.5,0.1,3,0\n")
        with pytest.raises(SystemExit, match="row 3"):
            main(["plot", str(bad), str(tmp_path / "o.svg")])

    @pytest.mark.parametrize("means", [
        [float("nan"), 2.0, 4.0],
        [1.0, 2.0, float("-inf")],
        [float("nan")],
    ])
    def test_non_finite_points_left_out(self, means):
        # a NaN or infinite mean placed first, last or alone: the chart is
        # that of the finite points, or its axes and legend only
        points = [("copra", 10.0 * i, m) for i, m in enumerate(means)]
        finite = [p for p in points if math.isfinite(p[2])]
        svg = _sweep_svg(points, "snr")
        assert "nan" not in svg and "inf" not in svg
        assert svg.count("<circle") == len(finite)
        assert "copra" in svg
        if finite:
            assert svg == _sweep_svg(finite, "snr")

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(SystemExit, match="no data"):
            main(["plot", str(empty), str(tmp_path / "o.svg")])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("kind", ["snr", "snapshots"])
def test_pool_sweep_outputs_equal_serial(tmp_path, kind):
    # two blocks, so two workers take one each: the chart and CSV are the
    # serial run's bytes, and meta.json differs only in config.workers
    path = _write_cfg(tmp_path, {"trials": 2 * harness.BLOCK, "seed": 7,
                                 "snr_db_grid": [0.0, 20.0], "snapshot_grid": [10, 30]})
    out = {}
    for workers in (1, 2):
        out[workers] = tmp_path / str(workers)
        assert main(["sweep", "--kind", kind, "--config", path, "--workers", str(workers),
                     "--out", str(out[workers])]) == 0
    for name in ("sweep.csv", "sweep.svg"):
        assert (out[1] / name).read_bytes() == (out[2] / name).read_bytes(), name
    serial, pooled = (json.loads((out[w] / "meta.json").read_text()) for w in (1, 2))
    assert pooled["config"]["workers"] == 2
    pooled["config"]["workers"] = 1
    assert pooled == serial
