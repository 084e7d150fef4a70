"""Experiment configuration: defaults, validation, JSON round-trip."""

import dataclasses
import json
from dataclasses import dataclass, field

__all__ = ["ExperimentConfig", "QuasiGridOptions", "load_config", "config_from_dict"]

METHODS = ("sample-mvdr", "diagonal-loading", "copra", "quasi-rls", "optimal")


@dataclass(frozen=True)
class QuasiGridOptions:
    """Geometric grid for the quasi-optimality selector."""

    points: int = 200
    lo_factor: float = 1e-8
    hi_factor: float = 10.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation campaign.

    Defaults reproduce the reference setup: a 10-element half-wavelength
    array, two 30 dB interferers, a +-5 degree look-direction error, 30
    snapshots, 1000 trials per sweep point.
    """

    n_elements: int = 10
    spacing_wavelengths: float = 0.5
    n_interferers: int = 2
    inr_db: float = 30.0
    snr_db: float = 20.0
    soi_error_bound_deg: float = 5.0
    doa_guard_deg: float = 2.0
    trials: int = 1000
    n_snapshots: int = 30
    snr_db_grid: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    snapshot_grid: tuple = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    rho: float = 0.1
    methods: tuple = METHODS
    seed: int = 0
    workers: int = 1
    diagonal_loading: float = 10.0
    quasi_grid: QuasiGridOptions = field(default_factory=QuasiGridOptions)
    gamma_z_policy: str = "averaged"
    mean_domain: str = "linear"

    def __post_init__(self):
        for name in ("n_elements", "trials", "n_snapshots", "workers"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.n_interferers < 0:
            raise ValueError("n_interferers must be >= 0")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1), got %g" % self.rho)
        if self.soi_error_bound_deg < 0:
            raise ValueError("soi_error_bound_deg must be >= 0")
        if not 0.0 <= self.doa_guard_deg < 90.0:
            raise ValueError("doa_guard_deg must lie in [0, 90), got %g"
                             % self.doa_guard_deg)
        if self.spacing_wavelengths <= 0:
            raise ValueError("spacing_wavelengths must be positive")
        if self.diagonal_loading < 0:
            raise ValueError("diagonal_loading must be >= 0")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError("unknown methods: %s" % sorted(unknown))
        if self.gamma_z_policy not in ("averaged", "per-snapshot-median"):
            raise ValueError("gamma_z_policy must be 'averaged' or 'per-snapshot-median'")
        if self.mean_domain not in ("linear", "db"):
            raise ValueError("mean_domain must be 'linear' or 'db'")

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["snr_db_grid"] = list(self.snr_db_grid)
        d["snapshot_grid"] = list(self.snapshot_grid)
        d["methods"] = list(self.methods)
        return d


def config_from_dict(data):
    """Build a validated config from a plain dict; unknown keys are an error."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError("unknown config keys: %s" % sorted(unknown))
    kwargs = dict(data)
    if "quasi_grid" in kwargs and isinstance(kwargs["quasi_grid"], dict):
        qknown = {f.name for f in dataclasses.fields(QuasiGridOptions)}
        qunknown = set(kwargs["quasi_grid"]) - qknown
        if qunknown:
            raise ValueError("unknown quasi_grid keys: %s" % sorted(qunknown))
        kwargs["quasi_grid"] = QuasiGridOptions(**kwargs["quasi_grid"])
    for key in ("snr_db_grid", "methods"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "snapshot_grid" in kwargs:
        kwargs["snapshot_grid"] = tuple(int(v) for v in kwargs["snapshot_grid"])
    return ExperimentConfig(**kwargs)


def load_config(path):
    """Load a JSON config document; unset keys take the defaults."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("config parse failure at line %d: %s"
                             % (exc.lineno, exc.msg)) from exc
    if not isinstance(data, dict):
        raise ValueError("config document must be a JSON object")
    return config_from_dict(data)
