import json

import pytest

from copra_beam.cli import CSV_HEADER, main
from copra_beam.config import ExperimentConfig, config_from_dict, load_config


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
    ])
    def test_bad_values_refused_at_load(self, tmp_path, doc, field):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match=field):
            load_config(str(path))

    def test_quasi_grid_nested(self):
        cfg = config_from_dict({"quasi_grid": {"points": 50}})
        assert cfg.quasi_grid.points == 50
        with pytest.raises(ValueError, match="quasi_grid"):
            config_from_dict({"quasi_grid": {"steps": 50}})


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

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        with pytest.raises(SystemExit, match="no data"):
            main(["plot", str(empty), str(tmp_path / "o.svg")])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
