"""Run a reduced Monte-Carlo SNR sweep through the library API and write the
same CSV/SVG artifacts the command-line frontend produces.

Run:  python3 demos/snr_sweep.py   (writes into demos/out/)
"""

from pathlib import Path

from copra_beam.cli import _sweep_svg, _write_meta, _write_sweep_csv
from copra_beam.config import ExperimentConfig
from copra_beam.harness import run_sweep


def main():
    # 100 trials keeps this demo under a minute; the full protocol uses 1000
    cfg = ExperimentConfig(trials=100,
                           snr_db_grid=(-10.0, 0.0, 10.0, 20.0, 30.0),
                           seed=1)
    result = run_sweep(cfg, "snr")

    out = Path(__file__).parent / "out"
    out.mkdir(exist_ok=True)
    _write_sweep_csv(result, out / "sweep.csv")
    points = [(r.method, r.value, r.mean_sinr_db) for r in result.rows]
    (out / "sweep.svg").write_text(_sweep_svg(points, result.sweep_variable))
    _write_meta(result, out / "meta.json")

    print("mean output SINR (dB) by method:")
    header = "SNR(dB)".rjust(8) + "".join(m.rjust(18) for m in cfg.methods)
    print(header)
    for snr in cfg.snr_db_grid:
        row = ("%8.0f" % snr) + "".join(
            "%18.2f" % result.mean_db(snr, m) for m in cfg.methods)
        print(row)
    print("\nwrote %s, sweep.svg, meta.json" % (out / "sweep.csv"))


if __name__ == "__main__":
    main()
