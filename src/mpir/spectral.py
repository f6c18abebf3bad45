"""Pulse energy spectra, the analytic time-average autocorrelation / PSD
of the transmitted signal, and the empirical periodogram estimate used to
verify them.  Every frequency-domain quantity is a ``SpectralDensity``.

With per-frame polarity randomization the transmitted signal is zero mean
and cyclostationary, and its average PSD is simply the average of the
pulse energy spectra divided by the symbol time:

    Phi_ss(f) = (1 / (N_p * T_s)) * sum_l |P_l(f)|^2.

The empirical estimator averages rectangular-window periodograms over
non-overlapping, symbol-aligned segments (Welch's estimator without
overlap or taper); with that alignment the estimator is unbiased at every
frequency, so analytic and empirical curves may be compared bin by bin.
It takes its input one piece of whole segments at a time, so a long
block need never be held whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InsufficientDataError, InvalidParameterError
from .pulses import BLOCK_SAMPLES, GRID_TOL, Waveform, _common_dt, cross_correlation
from .transceiver import _check_pulse_set


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Two-sided density on a uniform frequency grid (GHz): a power
    spectral density, or a pulse energy spectrum |P(f)|^2."""

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


def pulse_spectrum(p: Waveform, n_freq: int) -> SpectralDensity:
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
    return SpectralDensity(freqs, np.fft.fftshift(np.abs(spec) ** 2))


def analytic_autocorrelation(pulses, config) -> Waveform:
    """(1/(N_p*T_f*N_f)) * sum_l phi_{p_l p_l}(tau) on the common lag grid."""
    dt = _check_pulse_set(pulses, config)
    corrs = [cross_correlation(p, p) for p in pulses]
    half = max((len(c.samples) - 1) // 2 for c in corrs)
    total = np.zeros(2 * half + 1)
    for c in corrs:
        h = (len(c.samples) - 1) // 2
        total[half - h : half + h + 1] += c.samples
    total /= config.pulse_types * config.frame_time * config.frames_per_symbol
    return Waveform(total, dt, -half * dt)


def analytic_psd(pulses, config, n_freq: int) -> SpectralDensity:
    """Phi_ss(f) = (1/(N_p*T_s)) * sum_l |P_l(f)|^2 on an n_freq-point grid."""
    _check_pulse_set(pulses, config)
    spectra = [pulse_spectrum(p, n_freq) for p in pulses]
    total = sum(spec.psd for spec in spectra) / (config.pulse_types * config.symbol_time)
    return SpectralDensity(spectra[0].freqs, total)


def empirical_psd(
    signal, segment_len: int, n_segments: int, symbol_samples: int | None = None
) -> SpectralDensity:
    """Average of per-segment rectangular-window periodograms.

    ``signal`` is one ``Waveform`` or an iterable of consecutive
    ``Waveform`` pieces on one sample grid.  Each piece contributes its
    whole segments, consecutive and non-overlapping from its first
    sample, until n_segments are taken; the rest of a piece is ignored.
    Each periodogram is |dt * DFT|^2 / segment_duration.  When
    ``symbol_samples`` is given the segment length must be a whole number
    of symbol periods, which is what makes the estimator unbiased for a
    cyclostationary input.  Segments are transformed a chunk of about
    pulses.BLOCK_SAMPLES samples (or one segment, if longer) at a time in
    work arrays allocated once, 1.5 MB for a full chunk, whatever the
    signal length, and their periodograms are added in segment order.
    """
    if segment_len < 2 or n_segments < 1:
        raise InvalidParameterError("segment_len >= 2 and n_segments >= 1 required")
    if symbol_samples is not None and segment_len % symbol_samples != 0:
        raise InvalidParameterError(
            f"segment_len={segment_len} is not a multiple of the symbol length {symbol_samples}"
        )
    pieces = (signal,) if isinstance(signal, Waveform) else signal
    chunk = min(n_segments, max(1, BLOCK_SAMPLES // segment_len))
    spec = np.empty((chunk, segment_len), dtype=complex)
    power = np.empty((chunk, segment_len))
    total = np.zeros(segment_len)
    prev = None
    done = 0
    for piece in pieces:
        if prev is None:
            dt = piece.dt
            duration = segment_len * dt
        else:
            _common_dt((prev, piece))
        prev = piece
        rows = min(len(piece.samples) // segment_len, n_segments - done)
        segs = piece.samples[: rows * segment_len].reshape(rows, segment_len)
        for start in range(0, rows, chunk):
            m = min(chunk, rows - start)
            sp, pw = spec[:m], power[:m]
            sp[...] = segs[start : start + m]  # fft would cast a complex copy
            np.fft.fft(sp, axis=1, out=sp)
            sp *= dt
            np.abs(sp, out=pw)
            pw **= 2
            pw /= duration
            for row in pw:
                total += row
        done += rows
        if done == n_segments:
            break
    if done < n_segments:
        raise InsufficientDataError(
            f"signal holds {done} whole segments of {segment_len} samples, need {n_segments}"
        )
    psd = total / n_segments
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
