"""Transmitted blocks, RAKE templates and the correlation decision
statistic.  The multiuser received signal is not sampled here: the BER
engine (montecarlo) sums its correlations from cross-correlation tables.

Blocks and templates are ``pulses.Waveform`` objects on the common sample
grid of the pulses that built them.  Their t0 field is the absolute time
of the first sample, so they can be aligned exactly by integer grid
arithmetic.  Frame j of a block occupies [j*T_f, (j+1)*T_f); the
time-hopping code shifts the frame's waveform by whole chips inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelRealization, composite_waveform
from .errors import ConfigMismatchError, InfeasibleGeometryError, InvalidParameterError
from .pulses import GRID_TOL, Waveform, _common_dt, grid_count, grid_index

# RAKE combining schemes and path selections SystemConfig accepts;
# select_combiner reads them from a validated SystemConfig
SCHEMES = ("mrc", "egc")
SELECTIONS = ("all", "partial", "selective")


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters.

    n_users          : K, total users including the user of interest
    frames_per_symbol: N_f, frames (pulses) per information bit
    chips_per_frame  : N_c
    hop_positions    : N_h, time-hopping codes take values 0..N_h-1
    pulse_types      : N_p, distinct pulse shapes cycled across frames
    chip_time        : T_c in ns
    interferer_power : received-energy ratio interferer/desired
    scheme           : RAKE combining, one of SCHEMES (select_combiner)
    selection        : RAKE path selection, one of SELECTIONS
    combiner_paths   : paths a partial or selective RAKE combines
    """

    n_users: int
    frames_per_symbol: int
    chips_per_frame: int
    hop_positions: int
    pulse_types: int
    chip_time: float
    interferer_power: float = 5.0
    scheme: str = "mrc"
    selection: str = "all"
    combiner_paths: int | None = None

    def __post_init__(self):
        for name in ("n_users", "frames_per_symbol", "chips_per_frame", "hop_positions", "pulse_types"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1")
        if self.hop_positions > self.chips_per_frame:
            raise InvalidParameterError("hop_positions cannot exceed chips_per_frame")
        if self.frames_per_symbol % self.pulse_types != 0:
            raise InvalidParameterError("frames_per_symbol must be a multiple of pulse_types")
        if not self.chip_time > 0:
            raise InvalidParameterError("chip_time must be positive")
        if not self.interferer_power > 0:
            raise InvalidParameterError("interferer_power must be positive")
        if self.scheme not in SCHEMES:
            raise InvalidParameterError(f"unknown combining scheme {self.scheme!r}")
        if self.selection not in SELECTIONS:
            raise InvalidParameterError(f"unknown path selection {self.selection!r}")
        if self.selection != "all" and (self.combiner_paths is None or self.combiner_paths < 1):
            raise InvalidParameterError(f"selection {self.selection!r} needs combiner_paths >= 1")

    @property
    def frame_time(self) -> float:
        return self.chips_per_frame * self.chip_time

    @property
    def symbol_time(self) -> float:
        return self.frames_per_symbol * self.frame_time

    def chip_samples(self, dt: float) -> int:
        return grid_count(self.chip_time, dt, "chip time")

    def frame_samples(self, dt: float) -> int:
        return self.chips_per_frame * self.chip_samples(dt)

    def symbol_samples(self, dt: float) -> int:
        return self.frames_per_symbol * self.frame_samples(dt)


def _check_pulse_set(pulses, config: SystemConfig) -> float:
    """One unit-energy pulse per pulse type, all on one sample step; returns dt."""
    if len(pulses) != config.pulse_types:
        raise ConfigMismatchError(f"need {config.pulse_types} pulses, got {len(pulses)}")
    dt = _common_dt(pulses)
    for p in pulses:
        if abs(p.energy - 1.0) > 1e-6:
            raise InvalidParameterError(f"pulse {p.label} is not unit energy")
    return dt


def check_pulse_fits(pulses, config: SystemConfig) -> None:
    """Enforce the one-pulse-per-chip geometry: support <= T_c."""
    for p in pulses:
        duration = (len(p.samples) - 1) * p.dt
        if duration > config.chip_time * (1 + GRID_TOL):
            raise ConfigMismatchError(
                f"pulse {p.label} spans {duration:.4f} ns, "
                f"more than one chip ({config.chip_time} ns)"
            )


def _check_frame_separable(waves, config: SystemConfig, dt: float) -> None:
    """A frame's content must not reach into the next frame (no IFI).

    The content is measured from its earliest sample or from the frame
    start, whichever is earlier, so it also stays inside its bit's window.
    The table-driven BER engine and the closed-form MAI variances both
    rest on this bound.
    """
    t0_idx = [grid_index(w.t0, dt) for w in waves]
    _check_frame_span(min(t0_idx), max(k + len(w.samples) for k, w in zip(t0_idx, waves)), config, dt)


def _check_frame_span(start: int, stop: int, config: SystemConfig, dt: float) -> None:
    """_check_frame_separable's bound on content at samples [start, stop) before the hop."""
    extent = stop + (config.hop_positions - 1) * config.chip_samples(dt)
    if extent - min(0, start) > config.frame_samples(dt):
        raise InfeasibleGeometryError(
            "frame content spans more than one frame; the no-inter-frame-"
            "interference bound does not hold for this configuration"
        )


@dataclass(frozen=True, eq=False)
class CodeSequences:
    """Per-frame time-hopping offsets and polarity signs for one user."""

    th: np.ndarray
    polarity: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.th, dtype=np.int64)
        pol = np.asarray(self.polarity, dtype=np.int64)
        if th.shape != pol.shape or th.ndim != 1:
            raise InvalidParameterError("th and polarity must be 1-D arrays of equal length")
        if np.any(th < 0):
            raise InvalidParameterError("time-hopping codes must be nonnegative")
        if not np.all(np.abs(pol) == 1):
            raise InvalidParameterError("polarity codes must be +1 or -1")
        th.setflags(write=False)
        pol.setflags(write=False)
        object.__setattr__(self, "th", th)
        object.__setattr__(self, "polarity", pol)

    def __len__(self) -> int:
        return len(self.th)


def generate_codes(config: SystemConfig, n_frames: int, rng: np.random.Generator) -> CodeSequences:
    """I.i.d. uniform TH codes over {0..N_h-1} and equiprobable +-1 polarity."""
    if n_frames < 1:
        raise InvalidParameterError("n_frames must be >= 1")
    th = rng.integers(0, config.hop_positions, size=n_frames)
    polarity = rng.integers(0, 2, size=n_frames) * 2 - 1
    return CodeSequences(th, polarity)


def select_combiner(chan: ChannelRealization, config: SystemConfig) -> np.ndarray:
    """RAKE weights beta for a known realization under the combiner of ``config``.

    mrc sets beta_l = gain_l, egc sets beta_l = sign(gain_l).  For partial
    (first combiner_paths) or selective (combiner_paths largest |gain|)
    combining the weights of unused paths are set to zero.
    """
    beta = chan.gains.copy() if config.scheme == "mrc" else np.sign(chan.gains)
    if config.selection != "all":
        n = config.combiner_paths
        if n > chan.n_paths:
            raise InvalidParameterError(
                f"selection {config.selection!r} needs combiner_paths <= {chan.n_paths}, got {n}"
            )
        if config.selection == "partial":
            beta[n:] = 0.0
        else:
            beta[np.argsort(np.abs(chan.gains))[::-1][n:]] = 0.0
    return beta


class _DrawSpectra(NamedTuple):
    """The spectra of one channel draw (_draw_spectra); bins are the
    nfft // 2 + 1 rfft bins."""

    dt: float
    first: int  # grid index of every composite's first sample
    window: int  # samples of the pulse window shared by all pulse types
    nfft: int
    weights: np.ndarray  # (bins,) Parseval weights: 1 at DC and Nyquist, 2 elsewhere
    pulses: np.ndarray  # (N_p, bins) P_r
    templates: np.ndarray  # (N_p, bins) P_s B, the template composites v_s
    energy: float  # sum_s E(v_s)
    gains: np.ndarray  # (K, W) h_0 (the desired user), then each interferer's h_k


def _draw_spectra(config: SystemConfig, pulses, desired_chan, interferer_chans) -> _DrawSpectra:
    """The one spectral core of the closed form and the BER engine.

    The select_combiner weights b of ``desired_chan`` and every user's
    gains h_k are added on the sample grid with np.add.at at
    grid_index(delays, dt), as composite_waveform adds paths.  The pulses
    sit on one window from grid index ``first``, so pulse r on the tap
    train of user k is that user's composite u_r, and pulse s on b is the
    template v_s, untrimmed, from ``first``.  nfft is the smallest power of
    two >= 2n - 1 for the composite length n, so every correlation of two
    composites is linear, and Parseval makes a time-domain sum
    dt / nfft * sum_f w_f over the bins; E = sum_s E(v_s) is one.
    """
    dt = _check_pulse_set(pulses, config)
    chans = (desired_chan, desired_chan, *interferer_chans)
    offsets = [grid_index(ch.delays, dt) for ch in chans]
    taps = np.zeros((len(chans), max(o[-1] for o in offsets) + 1))  # row 0 is b, row 1 + k is h_k
    rows = np.repeat(np.arange(len(chans)), [len(o) for o in offsets])
    weights = np.concatenate([select_combiner(desired_chan, config), *(ch.gains for ch in chans[1:])])
    np.add.at(taps, (rows, np.concatenate(offsets)), weights)
    leads = [grid_index(p.t0, dt) for p in pulses]
    first = min(leads)
    window = np.zeros((len(pulses), max(k + len(p.samples) for k, p in zip(leads, pulses)) - first))
    for row, k, p in zip(window, leads, pulses):
        row[k - first : k - first + len(p.samples)] = p.samples
    nfft = 1 << (2 * (taps.shape[1] + window.shape[1] - 1) - 2).bit_length()
    w = np.full(nfft // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    spectra = np.fft.rfft(window, nfft)
    templates = spectra * np.fft.rfft(taps[0], nfft)
    energy = dt / nfft * float(w @ (np.abs(templates) ** 2).sum(axis=0))
    return _DrawSpectra(dt, first, window.shape[1], nfft, w, spectra, templates, energy, taps[1:])


def rake_composites(
    pulses, chan: ChannelRealization, config: SystemConfig
) -> tuple[list[Waveform], list[Waveform]]:
    """(desired, templates): each pulse's received composite over ``chan``
    and its RAKE template composite under the select_combiner weights of
    the combiner ``config`` sets.

    Under mrc over all paths the weights are the channel gains, and one
    list serves as both.
    """
    beta = select_combiner(chan, config)
    desired = [composite_waveform(p, chan, chan.gains) for p in pulses]
    if np.array_equal(beta, chan.gains):
        return desired, desired
    return desired, [composite_waveform(p, chan, beta) for p in pulses]


def _assemble(
    config: SystemConfig,
    waves,
    th: np.ndarray,
    amplitudes: np.ndarray,
    first_frame: int = 0,
) -> Waveform:
    """Place amplitudes[j] * waves[(first_frame+j) % N_p] in consecutive frames.

    Frame first_frame+j starts at absolute time (first_frame+j)*T_f; the
    TH code th[j] shifts the placement by whole chips.  The output array
    covers exactly the union of placed supports.
    """
    if np.any(th >= config.hop_positions):
        raise ConfigMismatchError("a TH code exceeds the hop alphabet of this config")
    dt = _common_dt(waves)
    chip = config.chip_samples(dt)
    frame = config.chips_per_frame * chip
    t0_idx = [grid_index(w.t0, dt) for w in waves]
    n_frames = len(th)

    start_lo = min(t0_idx)
    end_hi = max(k + len(w.samples) for k, w in zip(t0_idx, waves)) + (config.hop_positions - 1) * chip
    guard = -min(0, start_lo)
    length = guard + (n_frames - 1) * frame + max(end_hi, frame)
    out = np.zeros(length)
    for j in range(n_frames):
        a = amplitudes[j]
        if a == 0.0:
            continue
        w = waves[(first_frame + j) % config.pulse_types]
        start = guard + j * frame + th[j] * chip + t0_idx[(first_frame + j) % config.pulse_types]
        out[start : start + len(w.samples)] += a * w.samples
    return Waveform(out, dt, (first_frame * frame - guard) * dt)


def transmit_block(config: SystemConfig, pulses, bits, codes: CodeSequences) -> Waveform:
    """Transmitted waveform for a block of bits.

    s(t) = (1/sqrt(N_f)) sum_j d_j b_{j div N_f} p_{j mod N_p}(t - j*T_f - c_j*T_c),
    with the pulse index cycling through the N_p shapes frame by frame.
    """
    _check_pulse_set(pulses, config)
    check_pulse_fits(pulses, config)
    bits = np.asarray(bits, dtype=float)
    if len(codes) != len(bits) * config.frames_per_symbol:
        raise ConfigMismatchError("codes must supply one entry per frame of the block")
    amps = codes.polarity * np.repeat(bits, config.frames_per_symbol) / math.sqrt(config.frames_per_symbol)
    return _assemble(config, pulses, codes.th, amps)


def rake_template(config: SystemConfig, codes: CodeSequences, combined, bit_index: int) -> Waveform:
    """Template for one bit: sum_j d_j v_{j mod N_p}(t - j*T_f - c_j*T_c)
    over the N_f frames of that bit (no bit value, no 1/sqrt(N_f)).
    The result is trimmed to its nonzero support."""
    nf = config.frames_per_symbol
    if len(combined) != config.pulse_types:
        raise ConfigMismatchError(f"need {config.pulse_types} template composites")
    lo, hi = bit_index * nf, (bit_index + 1) * nf
    if hi > len(codes):
        raise ConfigMismatchError(f"bit {bit_index} is outside the supplied code block")
    block = _assemble(
        config,
        combined,
        codes.th[lo:hi],
        codes.polarity[lo:hi].astype(float),
        first_frame=lo,
    )
    return block.trimmed()


def decision_statistic(received: Waveform, template: Waveform) -> float:
    """Correlator output Y = integral r(t) s(t) dt over the template support.

    The bit decision is sign(Y).  Both waveforms must share the sample
    grid; their relative shift must be a whole number of samples.
    """
    dt = _common_dt((template, received))
    k = grid_count(template.t0 - received.t0, dt, "template alignment")
    lo = max(0, k)
    hi = min(len(received.samples), k + len(template.samples))
    if hi <= lo:
        return 0.0
    seg_r = received.samples[lo:hi]
    seg_t = template.samples[lo - k : hi - k]
    return float(dt * np.dot(seg_r, seg_t))
