"""Uniform linear array signal model: steering vectors, random scenarios,
snapshot synthesis, and covariance construction.

Angles are degrees at the API boundary and radians internally. All randomness
flows through an explicit numpy Generator so trials are reproducible and may
be generated concurrently. A Scenario holds one trial or a block of trials
as lanes along a leading axis. draw_block draws a block once for a whole
sweep: per trial run only its generator's scalar draws (the DOAs with their
guard redraws, then the look error) and one call for all of its Gaussian
draws, sized for the sweep's largest snapshot count; the steering vectors
and powers run once over the block. synthesize_block then forms the
snapshots of one sweep point from a prefix of those draws, summed once over
the block, and Scenario.at_snr sets a point's SOI power without
redrawing. draw_scenario and synthesize_snapshots give one lane of that
block and its snapshots, bit for bit. The covariance functions also take
a block of lanes; each lane gets the bits of a single call.
"""

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from .config import ArrayGeometry  # config validates it without numpy

__all__ = [
    "ArrayGeometry",
    "Scenario",
    "SnapshotSet",
    "steering_vector",
    "draw_scenario",
    "synthesize_snapshots",
    "draw_block",
    "synthesize_block",
    "sample_covariance",
    "true_covariance",
    "interference_noise_lanes",
]


@dataclass(frozen=True)
class Scenario:
    """Sources, powers and the (mismatched) look direction of one trial, or
    of a block of trials with one lane per trial along a leading axis.

    a_presumed is the steering vector the beamformer is given; it differs from
    a_true by the realized look-direction error. In a block the scalars are
    (lanes,) arrays, the interferer DOAs and powers (lanes, n_interferers)
    and the steering vectors (lanes, n_elements). Indexing selects lanes: an
    integer gives that trial, a slice or an index array the block of those
    lanes, and None the one-lane block of a trial.
    """

    geometry: ArrayGeometry
    soi_doa_deg: np.ndarray
    soi_error_deg: np.ndarray
    interferer_doas_deg: np.ndarray
    soi_power: np.ndarray
    interferer_powers: np.ndarray
    noise_power: np.ndarray
    a_true: np.ndarray = field(repr=False)
    a_presumed: np.ndarray = field(repr=False)

    def __getitem__(self, lanes):
        return dataclasses.replace(self, **{
            f.name: np.asarray(getattr(self, f.name))[lanes]
            for f in dataclasses.fields(self) if f.name != "geometry"})

    def at_snr(self, snr_db):
        """The same scenario with the SOI at snr_db; the steering vectors are kept."""
        out = dataclasses.replace(
            self, soi_power=np.full_like(self.soi_power, 10.0 ** (snr_db / 10.0)))
        out.__dict__["a_interferers"] = self.a_interferers
        return out

    @functools.cached_property
    def a_interferers(self):
        """The interferers' steering vectors, from their DOAs, along a new last axis."""
        doas = self.interferer_doas_deg
        if not np.all(np.abs(doas) <= 90.0):
            raise ValueError("interferer DOAs %s outside [-90, 90]" % (doas,))
        return _steering(self.geometry, doas)


@dataclass(frozen=True)
class SnapshotSet:
    """n_elements x n_snapshots matrix of array observations; column t is y[t].

    A (lanes, n_elements, n_snapshots) array holds one set per lane.
    """

    snapshots: np.ndarray


def steering_vector(geometry, doa_deg):
    """Narrowband plane-wave array response for a given direction of arrival.

    Element p has phase 2*pi*spacing*p*sin(doa); element 0 is exactly 1 and
    every entry has unit modulus, so ||a||^2 = n_elements.
    """
    if not -90.0 <= doa_deg <= 90.0:
        raise ValueError("DOA %g deg outside [-90, 90]" % doa_deg)
    return _steering(geometry, doa_deg)


def _steering(geometry, doas_deg):
    """Steering vectors along a new last axis, one per DOA of an array."""
    p = np.arange(geometry.n_elements)
    phase = (2.0 * np.pi * geometry.spacing_wavelengths * p
             * np.sin(np.deg2rad(doas_deg))[..., None])
    return np.exp(1j * phase)


def _check_scenario(n_interferers, snr_db, inr_db, soi_error_bound_deg, doa_guard_deg):
    if n_interferers < 0:
        raise ValueError("n_interferers must be >= 0")
    if soi_error_bound_deg < 0:
        raise ValueError("soi_error_bound_deg must be >= 0")
    if not 0.0 <= doa_guard_deg < 90.0:
        raise ValueError("doa_guard_deg must lie in [0, 90), got %g" % doa_guard_deg)
    for name, val in (("snr_db", snr_db), ("inr_db", inr_db)):
        if not np.isfinite(val):
            raise ValueError("%s must be finite" % name)


def _draw_doa(rng):
    return rng.uniform(-90.0, 90.0)


def _draw_angles(rng, n_interferers, soi_error_bound_deg, doa_guard_deg):
    """One trial's scalar draws, in stream order: the SOI DOA, each interferer
    DOA (redrawn while inside the guard), then the look-direction error.

    Returns the row (SOI DOA, look error, interferer DOAs...).
    """
    soi_doa = _draw_doa(rng)
    interferer_doas = []
    for _ in range(n_interferers):
        doa = _draw_doa(rng)
        while abs(doa - soi_doa) < doa_guard_deg:
            doa = _draw_doa(rng)
        interferer_doas.append(doa)
    if soi_error_bound_deg > 0:
        error = rng.uniform(-soi_error_bound_deg, soi_error_bound_deg)
    else:
        error = 0.0
    return (soi_doa, error, *interferer_doas)


def _scenario_lanes(geometry, angles, snr_db, inr_db):
    """The block of scenarios of the given per-lane rows of angle draws."""
    angles = np.array(angles, dtype=float)
    soi, error, doas = angles[:, 0], angles[:, 1], angles[:, 2:]
    # the look error actually applied, after clipping the look direction
    presumed = np.clip(soi + error, -90.0, 90.0)
    a_true, a_presumed = _steering(geometry, np.vstack([soi, presumed]))
    lanes, n_interferers = doas.shape
    return Scenario(
        geometry=geometry,
        soi_doa_deg=soi,
        soi_error_deg=presumed - soi,
        interferer_doas_deg=doas,
        soi_power=np.full(lanes, 10.0 ** (snr_db / 10.0)),
        interferer_powers=np.full((lanes, n_interferers), 10.0 ** (inr_db / 10.0)),
        noise_power=np.ones(lanes),
        a_true=a_true,
        a_presumed=a_presumed,
    )


def draw_scenario(
    rng,
    geometry=ArrayGeometry(),
    n_interferers=2,
    snr_db=20.0,
    inr_db=30.0,
    soi_error_bound_deg=5.0,
    doa_guard_deg=2.0,
):
    """Draw a random scenario: uniform DOAs, uniform look-direction error.

    SOI and interferer DOAs are i.i.d. uniform on [-90, 90] degrees; interferer
    DOAs closer than doa_guard_deg to the SOI DOA are redrawn so the
    interference never coincides with the look direction; a guard must lie
    in [0, 90) so that every SOI direction leaves the interferers an arc of
    at least 90 - guard degrees. Noise power is fixed at 1, so snr_db and
    inr_db directly set the source powers. Lane 0 of a one-lane draw_block.
    """
    _check_scenario(n_interferers, snr_db, inr_db, soi_error_bound_deg, doa_guard_deg)
    return _scenario_lanes(
        geometry, [_draw_angles(rng, n_interferers, soi_error_bound_deg, doa_guard_deg)],
        snr_db, inr_db)[0]


def _gaussians(rngs, n_elements, n_interferers, n_s):
    """(lanes, draws): all of each trial's standard normal draws, one call each.

    Row i holds, in rngs[i]'s stream order, the real then the imaginary
    parts of the SOI waveform, of each interferer's waveform and of the
    (n_elements, n_s) noise: the stream of one call per part. The stream
    fills in order, so the first 2 (1 + n_interferers + n_elements) m draws
    of a row are the row drawn for m <= n_s snapshots.
    """
    z = np.empty((len(rngs), 2 * (1 + n_interferers + n_elements) * n_s))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return z


def _circular_gaussian(re, im, power, out=None):
    """CN(0, power) samples from standard normal real and imaginary parts."""
    c = np.multiply(1j, im, out=out)
    np.add(re, c, out=c)
    return np.multiply(np.sqrt(power / 2.0), c, out=c)


def synthesize_block(sl, z, n_s):
    """(lanes, n_elements, n_s) snapshots of a block of scenarios from their draws z.

    z holds each lane's Gaussian draws for n_s or more snapshots (see
    draw_block); the first n_s snapshots' worth of each row is used. Sums in
    a fixed order, each over the whole block: the SOI, each interferer, then
    the noise.
    """
    lanes, n_e = sl.a_true.shape
    n_sources = 1 + sl.interferer_doas_deg.shape[1]
    waves = z[:, :2 * n_sources * n_s].reshape(lanes, n_sources, 2, n_s)
    noise = z[:, 2 * n_sources * n_s:2 * (n_sources + n_e) * n_s].reshape(lanes, 2, n_e, n_s)
    powers = np.concatenate([sl.soi_power[:, None], sl.interferer_powers], axis=1)
    scales = np.sqrt(powers).astype(complex)
    a = np.concatenate([sl.a_true[:, None], sl.a_interferers], axis=1)
    s = _circular_gaussian(waves[:, :, 0], waves[:, :, 1], 1.0)
    y = np.zeros((lanes, n_e, n_s), dtype=complex)
    # one C-ordered buffer for every term: left to choose, numpy iterates the
    # outer products in short inner loops once a block passes its buffer
    # size, and each fresh block-sized array costs page faults
    term = np.empty_like(y)
    for k in range(n_sources):
        np.multiply(a[:, k, :, None], s[:, k, None, :], out=term)
        y += np.multiply(scales[:, k, None, None], term, out=term)
    y += _circular_gaussian(noise[:, 0], noise[:, 1], sl.noise_power[:, None, None], out=term)
    return y


def synthesize_snapshots(scenario, n_s, rng):
    """Generate n_s snapshots: SOI + interferers + white noise.

    Source waveforms are i.i.d. circular complex Gaussian CN(0, 1) scaled by
    the square root of each source power; noise is CN(0, noise_power I).
    The one-lane case of draw_block then synthesize_block.
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    sl = scenario[None]
    z = _gaussians([rng], scenario.geometry.n_elements, sl.interferer_doas_deg.shape[1], n_s)
    return SnapshotSet(snapshots=synthesize_block(sl, z, n_s)[0])


def draw_block(
    rngs,
    n_s,
    geometry=ArrayGeometry(),
    n_interferers=2,
    snr_db=20.0,
    inr_db=30.0,
    soi_error_bound_deg=5.0,
    doa_guard_deg=2.0,
):
    """Scenarios and Gaussian draws of a block of trials, one lane per generator.

    Lane i holds what draw_scenario and then synthesize_snapshots draw from
    rngs[i], with the Gaussians drawn for n_s snapshots. For any m <= n_s
    and any SNR, synthesize_block(sl.at_snr(snr_db), z, m) gives, bit for
    bit, the snapshots synthesize_snapshots would draw for m snapshots at
    that SNR from the same substreams, so a sweep draws each trial once.
    Only the scalar draws and one call for all Gaussian draws run per
    trial; the steering vectors and powers run once over the block. Returns
    the block's Scenario and the (lanes, draws) array z.
    """
    _check_scenario(n_interferers, snr_db, inr_db, soi_error_bound_deg, doa_guard_deg)
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    angles = [_draw_angles(rng, n_interferers, soi_error_bound_deg, doa_guard_deg)
              for rng in rngs]
    z = _gaussians(rngs, geometry.n_elements, n_interferers, n_s)
    return _scenario_lanes(geometry, angles, snr_db, inr_db), z


def sample_covariance(snapshot_set):
    """Empirical covariance (1/n_s) sum_t y[t] y[t]^H; Hermitian PSD.

    A set of stacked lanes gives the stack of their covariances.
    """
    y = snapshot_set.snapshots
    if y.shape[-1] < 1:
        raise ValueError("snapshot set is empty")
    c = (y @ y.conj().swapaxes(-1, -2)) / y.shape[-1]
    # symmetrize away the last bits of round-off
    return 0.5 * (c + c.conj().swapaxes(-1, -2))


def _outer(powers, a):
    """powers * a a^H for every lane of a (lanes, n) stack."""
    return powers[:, None, None] * (a[:, :, None] * a.conj()[:, None, :])


def interference_noise_lanes(sl):
    """(lanes, n, n) interference-plus-noise covariances of a block of scenarios."""
    c = sl.noise_power[:, None, None] * np.eye(sl.geometry.n_elements, dtype=complex)
    for k in range(sl.a_interferers.shape[1]):
        c += _outer(sl.interferer_powers[:, k], sl.a_interferers[:, k])
    return c


def true_covariance(scenario):
    """Ensemble covariance of the snapshots: interference + noise + SOI term."""
    sl = scenario[None]
    return (interference_noise_lanes(sl) + _outer(sl.soi_power, sl.a_true))[0]
