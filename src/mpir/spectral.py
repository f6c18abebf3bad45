"""Analytic time-average autocorrelation / PSD of the transmitted signal,
and the empirical periodogram estimate used to verify them.

With per-frame polarity randomization the transmitted signal is zero mean
and cyclostationary, and its average PSD is simply the average of the
pulse energy spectra divided by the symbol time:

    Phi_ss(f) = (1 / (N_p * T_s)) * sum_l |P_l(f)|^2.

The empirical estimator averages rectangular-window periodograms over
non-overlapping, symbol-aligned segments; with that alignment the
estimator is unbiased at every frequency, so analytic and empirical
curves may be compared bin by bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InsufficientDataError, InvalidParameterError
from .pulses import GRID_TOL, CorrelationFunction, Waveform, cross_correlation, pulse_spectrum
from .transceiver import _check_pulse_set


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Two-sided power spectral density on a uniform frequency grid (GHz)."""

    freqs: np.ndarray
    psd: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        psd = np.asarray(self.psd, dtype=float)
        if freqs.shape != psd.shape:
            raise InvalidParameterError("freqs and psd must have equal shape")
        if np.any(psd < 0) or not np.all(np.isfinite(psd)):
            raise InvalidParameterError("psd must be finite and nonnegative")
        freqs.setflags(write=False)
        psd.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "psd", psd)


def analytic_autocorrelation(pulses, config) -> CorrelationFunction:
    """(1/(N_p*T_f*N_f)) * sum_l phi_{p_l p_l}(tau) on the common lag grid."""
    dt = _check_pulse_set(pulses, config)
    corrs = [cross_correlation(p, p) for p in pulses]
    half = max((len(c.values) - 1) // 2 for c in corrs)
    total = np.zeros(2 * half + 1)
    for c in corrs:
        h = (len(c.values) - 1) // 2
        total[half - h : half + h + 1] += c.values
    total /= config.pulse_types * config.frame_time * config.frames_per_symbol
    return CorrelationFunction(total, dt, -half * dt)


def analytic_psd(pulses, config, n_freq: int) -> SpectralDensity:
    """Phi_ss(f) = (1/(N_p*T_s)) * sum_l |P_l(f)|^2 on an n_freq-point grid."""
    _check_pulse_set(pulses, config)
    total = None
    freqs = None
    for p in pulses:
        spec = pulse_spectrum(p, n_freq)
        total = spec.magnitude_sq if total is None else total + spec.magnitude_sq
        freqs = spec.freqs
    total = total / (config.pulse_types * config.symbol_time)
    return SpectralDensity(freqs, total)


def empirical_psd(
    signal: Waveform, segment_len: int, n_segments: int, symbol_samples: int | None = None
) -> SpectralDensity:
    """Average of per-segment rectangular-window periodograms.

    Segments of ``signal`` are consecutive and non-overlapping; each
    periodogram is |dt * DFT|^2 / segment_duration.  When
    ``symbol_samples`` is given the segment length must be a whole number
    of symbol periods, which is what makes the estimator unbiased for a
    cyclostationary input.
    """
    samples = signal.samples
    dt = signal.dt
    if segment_len < 2 or n_segments < 1:
        raise InvalidParameterError("segment_len >= 2 and n_segments >= 1 required")
    if symbol_samples is not None and segment_len % symbol_samples != 0:
        raise InvalidParameterError(
            f"segment_len={segment_len} is not a multiple of the symbol length {symbol_samples}"
        )
    if len(samples) < segment_len * n_segments:
        raise InsufficientDataError(
            f"signal has {len(samples)} samples, need {segment_len * n_segments}"
        )
    duration = segment_len * dt
    segs = samples[: segment_len * n_segments].reshape(n_segments, segment_len)
    spectra = np.abs(np.fft.fft(segs, axis=1) * dt) ** 2 / duration
    psd = spectra.mean(axis=0)
    freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, d=dt))
    return SpectralDensity(freqs, np.fft.fftshift(psd))


def band_containing(sd: SpectralDensity, fraction: float = 0.99) -> tuple[float, float]:
    """Smallest symmetric band [-F, F] holding the given fraction of total power."""
    if not 0 < fraction <= 1:
        raise InvalidParameterError("fraction must be in (0, 1]")
    total = np.sum(sd.psd)
    order = np.argsort(np.abs(sd.freqs), kind="stable")
    running = np.cumsum(sd.psd[order])
    cut = np.searchsorted(running, fraction * total)
    cut = min(cut, len(order) - 1)
    f = float(abs(sd.freqs[order[cut]]))
    return (-f, f)


def psd_mismatch(a: SpectralDensity, b: SpectralDensity, band: tuple[float, float]) -> float:
    """Relative L2 distance sqrt(int (a-b)^2) / sqrt(int a^2) over the band."""
    lo, hi = band
    if a.freqs.shape != b.freqs.shape or np.max(np.abs(a.freqs - b.freqs)) > GRID_TOL:
        raise GridMismatchError("spectral densities are not on a common frequency grid")
    sel = (a.freqs >= lo) & (a.freqs <= hi)
    if not np.any(sel):
        raise InvalidParameterError("band selects no frequency bins")
    ref = np.sqrt(np.sum(a.psd[sel] ** 2))
    if ref == 0.0:
        raise InvalidParameterError("reference density is zero over the band")
    return float(np.sqrt(np.sum((a.psd[sel] - b.psd[sel]) ** 2)) / ref)
