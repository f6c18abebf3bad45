"""Transmitted blocks, the multiuser received signal, RAKE templates and
the correlation decision statistic.

Blocks, templates and received signals are ``pulses.Waveform`` objects on
the common sample grid of the pulses that built them.  Their t0 field is
the absolute time of the first sample, so they can be aligned exactly by
integer grid arithmetic.  Frame j of a block occupies [j*T_f, (j+1)*T_f);
the time-hopping code shifts the frame's waveform by whole chips inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ConfigMismatchError, InfeasibleGeometryError, InvalidParameterError
from .pulses import GRID_TOL, Waveform, _common_dt, grid_count, grid_index


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters.

    n_users          : K, total users including the user of interest
    frames_per_symbol: N_f, frames (pulses) per information bit
    chips_per_frame  : N_c
    hop_positions    : N_h, time-hopping codes take values 0..N_h-1
    pulse_types      : N_p, distinct pulse shapes cycled across frames
    chip_time        : T_c in ns
    noise_sigma      : amplitude of the unit-spectral-density white noise
    interferer_power : received-energy ratio interferer/desired
    """

    n_users: int
    frames_per_symbol: int
    chips_per_frame: int
    hop_positions: int
    pulse_types: int
    chip_time: float
    noise_sigma: float = 0.0
    interferer_power: float = 5.0

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
        if self.noise_sigma < 0:
            raise InvalidParameterError("noise_sigma must be nonnegative")
        if not self.interferer_power > 0:
            raise InvalidParameterError("interferer_power must be positive")

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
    chip = config.chip_samples(dt)
    frame = config.frame_samples(dt)
    extent = max(k + len(w.samples) for k, w in zip(t0_idx, waves)) + (config.hop_positions - 1) * chip
    if extent - min(0, *t0_idx) > frame:
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


def select_combiner(
    chan: ChannelRealization,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
) -> np.ndarray:
    """RAKE weights beta for a known realization.

    mrc sets beta_l = gain_l, egc sets beta_l = sign(gain_l).  For partial
    (first n_paths) or selective (n_paths largest |gain|) combining the
    weights of unused paths are set to zero.
    """
    if scheme not in ("mrc", "egc"):
        raise InvalidParameterError(f"unknown combining scheme {scheme!r}")
    if selection not in ("all", "partial", "selective"):
        raise InvalidParameterError(f"unknown path selection {selection!r}")
    beta = chan.gains.copy() if scheme == "mrc" else np.sign(chan.gains)
    if selection != "all":
        if n_paths is None or not 1 <= n_paths <= chan.n_paths:
            raise InvalidParameterError(
                f"selection {selection!r} needs n_paths in [1, {chan.n_paths}]"
            )
        keep = (
            np.arange(n_paths)
            if selection == "partial"
            else np.argsort(np.abs(chan.gains))[::-1][:n_paths]
        )
        mask = np.zeros(chan.n_paths, dtype=bool)
        mask[keep] = True
        beta[~mask] = 0.0
    return beta


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
    return received_block(config, pulses, bits, codes)


def received_block(config: SystemConfig, composites, bits, codes: CodeSequences) -> Waveform:
    """One user's block built from the given frame waveforms (the clean
    pulses in transmit_block, channel-convolved composites at a receiver):
    frame j carries amplitude d_j b_{j div N_f} / sqrt(N_f)."""
    bits = np.asarray(bits, dtype=float)
    if len(composites) != config.pulse_types:
        raise ConfigMismatchError(f"need {config.pulse_types} composites, got {len(composites)}")
    if len(codes) != len(bits) * config.frames_per_symbol:
        raise ConfigMismatchError("codes must supply one entry per frame of the block")
    amps = codes.polarity * np.repeat(bits, config.frames_per_symbol) / math.sqrt(config.frames_per_symbol)
    return _assemble(config, composites, codes.th, amps)


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
    nz = np.flatnonzero(block.samples)
    if len(nz) == 0:
        return block
    return Waveform(
        block.samples[nz[0] : nz[-1] + 1], block.dt, block.t0 + int(nz[0]) * block.dt
    )


def compose_received(
    config: SystemConfig,
    blocks,
    offsets,
    rng: np.random.Generator | None = None,
) -> Waveform:
    """Asynchronous multiuser sum plus white noise.

    blocks[k] is user k's channel-convolved block; offsets[k] is its clock
    offset, 0 for the user of interest and uniform in [0, T_s) for the
    rest.  Offsets are snapped to the sample grid.  Noise samples are
    i.i.d. Gaussian with standard deviation noise_sigma/sqrt(dt), the
    discretization of unit-spectral-density white noise scaled by
    noise_sigma.
    """
    offsets = np.asarray(offsets, dtype=float)
    if len(blocks) != len(offsets):
        raise InvalidParameterError("need one offset per block")
    if offsets[0] != 0.0:
        raise InvalidParameterError("the first (desired) user must have offset 0")
    if np.any(offsets < 0) or np.any(offsets >= config.symbol_time):
        raise InvalidParameterError("offsets must lie in [0, T_s)")
    dt = _common_dt(blocks)
    shifts = [grid_index(b.t0, dt) + grid_index(off, dt) for b, off in zip(blocks, offsets)]
    lo = min(shifts)
    hi = max(s + len(b.samples) for s, b in zip(shifts, blocks))
    out = np.zeros(hi - lo)
    for s, b in zip(shifts, blocks):
        out[s - lo : s - lo + len(b.samples)] += b.samples
    if config.noise_sigma > 0:
        if rng is None:
            raise InvalidParameterError("noise_sigma > 0 requires an rng")
        out += (config.noise_sigma / math.sqrt(dt)) * rng.standard_normal(len(out))
    return Waveform(out, dt, lo * dt)


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
