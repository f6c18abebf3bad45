"""Sampled waveforms on one time grid: UWB pulse generation, energy
normalization, cross-correlations and energy spectra.

Every signal of the package is a ``Waveform``: a uniformly sampled real
array with its sample step and the time of its first sample.  The
unit-energy pulses p_j, the channel composites u_j, the RAKE templates
v_j and the transmitted blocks are all of this one type, and their
cross-correlations are ``CorrelationFunction`` tables on the same step.
Time is measured in nanoseconds and frequency in gigahertz throughout the
package, so a unit-energy pulse satisfies dt * sum(samples**2) == 1 with
dt in ns.

The pulse family shipped here is the modified Hermite pulse (MHP)

    h_n(t) = He_n(t / tau_p) * exp(-t**2 / (4 * tau_p**2)),

with He_n the probabilists' Hermite polynomial.  Distinct orders are
mutually orthogonal over the real line, which is the property a
multi-pulse radio exploits when it alternates pulse shapes across
frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e

from .errors import (
    DegenerateInputError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)

# Truncate MHPs where |h| falls below this fraction of the peak.  The
# discarded tail energy is far below Monte Carlo resolution.
TRUNCATION_LEVEL = 1e-6

# Slack when deciding that a value lies on a grid or that two grids
# coincide: relative to the sample step for times, in GHz between
# frequency grids.
GRID_TOL = 1e-9


def grid_index(x, dt: float):
    """Nearest grid index for the time(s) ``x`` on a grid of step ``dt``.

    Rounds half away from zero so the result does not depend on banker's
    rounding of the platform.  A scalar gives an int, an array an int64
    array of the same shape, by the same float operations.
    """
    r = x / dt
    if isinstance(r, np.ndarray):
        return np.copysign(np.floor(np.abs(r) + 0.5), r).astype(np.int64)
    n = math.floor(abs(r) + 0.5)
    return n if r >= 0 else -n


def grid_count(x: float, dt: float, what: str = "interval") -> int:
    """Number of samples spanning ``x`` which must be an exact multiple of ``dt``."""
    n = grid_index(x, dt)
    if abs(x - n * dt) > GRID_TOL * dt:
        raise GridMismatchError(f"{what} ({x}) is not a multiple of the sample step {dt}")
    return n


def lookup(values: np.ndarray, idx):
    """values[idx] at integer indices; exactly 0 outside the support."""
    inside = (idx >= 0) & (idx < len(values))
    return np.where(inside, values.take(idx, mode="clip"), 0.0)


@dataclass(frozen=True, eq=False)
class Waveform:
    """A finite-support waveform sampled on a uniform time grid.

    samples : nonempty 1-D array of finite reals
    dt      : sample step (ns)
    t0      : time of the first sample: pulse-local for a pulse or a
              channel composite, absolute for a block or a template
    label   : free-form identifier, e.g. "mhp4"
    """

    samples: np.ndarray
    dt: float
    t0: float
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise InvalidParameterError("waveform needs a nonempty 1-D sample array")
        # min and max propagate NaN and +-inf, and make no sample-sized
        # temporary for a long block
        if not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
            raise InvalidParameterError("waveform samples must be finite")
        if not self.dt > 0:
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def energy(self) -> float:
        return float(self.dt * np.sum(self.samples**2))


@dataclass(frozen=True, eq=False)
class CorrelationFunction:
    """A sampled lag-domain function phi(x) on a uniform lag grid.

    Evaluation outside the stored support returns exactly 0.
    """

    values: np.ndarray
    lag_step: float
    lag0: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not self.lag_step > 0:
            raise InvalidParameterError("lag_step must be positive")
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("correlation values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def evaluate(self, lags):
        """Value at the grid point nearest each lag; 0 outside the support."""
        out = lookup(self.values, grid_index(np.asarray(lags, dtype=float) - self.lag0, self.lag_step))
        return float(out) if np.ndim(lags) == 0 else out

    @property
    def lags(self) -> np.ndarray:
        return self.lag0 + self.lag_step * np.arange(len(self.values))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Squared-magnitude Fourier transform |P(f)|^2 on a uniform frequency grid."""

    freqs: np.ndarray
    magnitude_sq: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        mag = np.asarray(self.magnitude_sq, dtype=float)
        if freqs.shape != mag.shape:
            raise InvalidParameterError("freqs and magnitude_sq must have equal shape")
        if np.any(mag < 0):
            raise InvalidParameterError("magnitude_sq must be nonnegative")
        freqs.setflags(write=False)
        mag.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "magnitude_sq", mag)


def make_mhp(order: int, tau_p: float, dt: float) -> Waveform:
    """Unit-energy modified Hermite pulse of the given order.

    The pulse is sampled on a symmetric grid i*dt, truncated where |h_n|
    falls below TRUNCATION_LEVEL of its peak, then energy-normalized.
    t0 = -(length - 1) * dt / 2.

    Raises InvalidParameterError for a bad order or nonpositive tau_p/dt,
    and ResolutionError when dt is too coarse to resolve the pulse.
    """
    if not isinstance(order, (int, np.integer)) or order < 0 or order > 10:
        raise InvalidParameterError(f"order must be an integer in [0, 10], got {order}")
    if not tau_p > 0:
        raise InvalidParameterError(f"tau_p must be positive, got {tau_p}")
    if not dt > 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    if dt > tau_p:
        raise ResolutionError(f"dt={dt} too coarse for tau_p={tau_p}; need dt <= tau_p")

    coef = np.zeros(order + 1)
    coef[order] = 1.0

    # The envelope exp(-x^2/4) times a degree-10 polynomial is far below
    # any peak fraction of interest beyond x = 16.
    m_max = int(math.ceil(16.0 * tau_p / dt))
    t_half = np.arange(m_max + 1) * dt
    h_half = hermite_e.hermeval(t_half / tau_p, coef) * np.exp(-(t_half**2) / (4 * tau_p**2))
    peak = np.max(np.abs(h_half))
    keep = np.nonzero(np.abs(h_half) >= TRUNCATION_LEVEL * peak)[0]
    m = int(keep[-1])
    if m < 1:
        raise ResolutionError(f"dt={dt} leaves fewer than 3 samples across the pulse")

    t = np.arange(-m, m + 1) * dt
    h = hermite_e.hermeval(t / tau_p, coef) * np.exp(-(t**2) / (4 * tau_p**2))
    pulse = Waveform(h, dt, -m * dt, label=f"mhp{order}")
    return normalize_energy(pulse)


def normalize_energy(p: Waveform) -> Waveform:
    """Scale a waveform to unit energy: dt * sum(samples**2) == 1."""
    e = p.energy
    if e <= 0.0 or not np.isfinite(e):
        raise DegenerateInputError("cannot normalize a waveform with zero energy")
    return Waveform(p.samples / math.sqrt(e), p.dt, p.t0, p.label)


def _common_dt(waves) -> float:
    """The sample step shared by ``waves``; resampling is out of scope."""
    dt = waves[0].dt
    for w in waves[1:]:
        if abs(w.dt - dt) > GRID_TOL * dt:
            raise GridMismatchError(f"sample steps differ: {dt} vs {w.dt} (resampling is out of scope)")
    return dt


def cross_correlation(a: Waveform, b: Waveform) -> CorrelationFunction:
    """Cross-correlation phi_ab(x) = integral a(t - x) b(t) dt.

    The discrete convolution of the sample arrays scaled by dt, taken by
    FFT on a power-of-two length, on a lag grid of step dt covering the
    full overlap support.
    """
    dt = _common_dt((a, b))
    ar = a.samples[::-1]
    bs = b.samples
    n = len(ar) + len(bs) - 1
    nfft = 1 << (n - 1).bit_length()
    vals = np.fft.irfft(np.fft.rfft(ar, nfft) * np.fft.rfft(bs, nfft), nfft)[:n] * dt
    lag0 = b.t0 - a.t0 - (len(a.samples) - 1) * dt
    return CorrelationFunction(vals, dt, lag0)


def pulse_spectrum(p: Waveform, n_freq: int) -> Spectrum:
    """|P(f)|^2 for the discrete-time approximation of the Fourier transform.

    The sample-array DFT is scaled by dt, giving a two-sided spectrum on a
    frequency grid of spacing 1/(n_freq * dt), returned in ascending order.
    """
    if n_freq < len(p.samples):
        raise InvalidParameterError(
            f"n_freq={n_freq} must be at least the pulse length {len(p.samples)}"
        )
    spec = np.fft.fft(p.samples, n_freq) * p.dt
    freqs = np.fft.fftshift(np.fft.fftfreq(n_freq, d=p.dt))
    return Spectrum(freqs, np.fft.fftshift(np.abs(spec) ** 2))
