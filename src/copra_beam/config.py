"""Experiment configuration: defaults, validation, JSON round-trip."""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

from .arraysim import ArrayGeometry

__all__ = ["ExperimentConfig", "QuasiGridOptions", "load_config", "config_from_dict"]

METHODS = ("sample-mvdr", "diagonal-loading", "copra", "quasi-rls", "optimal")


def _check_types(obj, prefix=""):
    """Refuse a field declared int or float whose value is not such a number.

    bool is an int to Python but never a count or a level here, and a string
    or None would otherwise surface as a TypeError deep in the checks.
    """
    for f in dataclasses.fields(obj):
        kind = {int: numbers.Integral, float: numbers.Real}.get(f.type)
        value = getattr(obj, f.name)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ValueError("%s%s must be %s, got %r"
                             % (prefix, f.name,
                                "an integer" if f.type is int else "a number", value))


@dataclass(frozen=True)
class QuasiGridOptions:
    """Geometric grid for the quasi-optimality selector."""

    points: int = 200
    lo_factor: float = 1e-8
    hi_factor: float = 10.0

    def __post_init__(self):
        _check_types(self, "quasi_grid.")
        if self.points < 2:
            raise ValueError("quasi_grid.points must be >= 2")
        if not 0.0 < self.lo_factor < self.hi_factor < math.inf:
            raise ValueError("quasi_grid factors must satisfy "
                             "0 < lo_factor < hi_factor < inf")


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

    def __post_init__(self):
        _check_types(self)
        for name, kind in (("snr_db_grid", numbers.Real), ("snapshot_grid", numbers.Integral)):
            if not all(isinstance(v, kind) and not isinstance(v, bool)
                       for v in getattr(self, name)):
                raise ValueError("%s entries must be %s" % (
                    name, "numbers" if kind is numbers.Real else "integers"))
        if not isinstance(self.quasi_grid, QuasiGridOptions):
            raise ValueError("quasi_grid must be an object of grid options")
        for name in ("trials", "n_snapshots", "workers"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if any(v < 1 for v in self.snapshot_grid):
            raise ValueError("snapshot_grid entries must be >= 1")
        ArrayGeometry(self.n_elements, self.spacing_wavelengths)  # checks both
        if self.n_interferers < 0:
            raise ValueError("n_interferers must be >= 0")
        for name in ("snr_db", "inr_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if not all(map(math.isfinite, self.snr_db_grid)):
            raise ValueError("snr_db_grid entries must be finite")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1), got %g" % self.rho)
        if not 0.0 <= self.soi_error_bound_deg < math.inf:
            raise ValueError("soi_error_bound_deg must be finite and >= 0")
        if not 0.0 <= self.doa_guard_deg < 90.0:
            raise ValueError("doa_guard_deg must lie in [0, 90), got %g"
                             % self.doa_guard_deg)
        if not 0.0 <= self.diagonal_loading < math.inf:
            raise ValueError("diagonal_loading must be finite and >= 0")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError("unknown methods: %s" % sorted(unknown))
        if self.gamma_z_policy not in ("averaged", "per-snapshot-median"):
            raise ValueError("gamma_z_policy must be 'averaged' or 'per-snapshot-median'")

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
    for key in ("snr_db_grid", "snapshot_grid", "methods"):
        if key in kwargs:
            if not isinstance(kwargs[key], (list, tuple)):
                raise ValueError("%s must be a list" % key)
            kwargs[key] = tuple(kwargs[key])
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
