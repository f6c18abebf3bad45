"""Random multipath channels and per-user composite waveforms.

A channel realization is a tap-delay line: signed log-normal gains with
exponentially decaying mean power, and exponentially distributed path
inter-arrivals. The first path of every user sits at delay 0 in the
user's own clock; inter-user asynchronism is applied separately when the
received signal is composed.

Generated realizations are kept inside the single-frame containment
regime (last delay < T_f - N_h*T_c) by rejection-resampling the whole
realization, so every downstream correlation stays frame-separable.

A composite u(t) = sum_l w_l p(t - delay_l) is a ``pulses.Waveform`` on
the pulse's sample grid, with every delay snapped to that grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleGeometryError, InvalidParameterError
from .pulses import Waveform, grid_index

_MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class ChannelParams:
    """Statistical description of one user's multipath channel.

    n_paths      : number of taps L
    decay_rate   : per-path-index exponential decay of mean tap power
    lognorm_var  : variance of ln|gain| around its path-dependent mean
    mean_arrival : mean path inter-arrival time (ns)
    power_scale  : linear received-energy multiplier (1 desired, 5 interferers)
    """

    n_paths: int
    decay_rate: float
    lognorm_var: float
    mean_arrival: float
    power_scale: float = 1.0

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvalidParameterError("n_paths must be >= 1")
        if not self.decay_rate > 0:
            raise InvalidParameterError("decay_rate must be positive")
        if self.lognorm_var < 0:
            raise InvalidParameterError("lognorm_var must be nonnegative")
        if not self.mean_arrival > 0:
            raise InvalidParameterError("mean_arrival must be positive")
        if not self.power_scale > 0:
            raise InvalidParameterError("power_scale must be positive")

    @property
    def first_tap_power(self) -> float:
        """Mean power of tap 0 that makes the total mean energy equal one."""
        lam, n = self.decay_rate, self.n_paths
        return (1.0 - math.exp(-lam)) / (1.0 - math.exp(-lam * n))


def mean_log_gain(params: ChannelParams, path: int) -> float:
    """Mean of ln|gain| for the given path index.

    mu_l = 0.5 * [ln(first_tap_power) - decay_rate * l - 2 * lognorm_var],
    chosen so that the mean energies e^(2 mu_l + 2 var) decay geometrically
    and sum to one over the taps.
    """
    if not 0 <= path < params.n_paths:
        raise InvalidParameterError(f"path index {path} outside [0, {params.n_paths})")
    return 0.5 * (
        math.log(params.first_tap_power)
        - params.decay_rate * path
        - 2.0 * params.lognorm_var
    )


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the tap-delay line: signed gains and increasing delays (ns)."""

    gains: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        delays = np.asarray(self.delays, dtype=float)
        if gains.shape != delays.shape or gains.ndim != 1:
            raise InvalidParameterError("gains and delays must be 1-D arrays of equal length")
        if delays[0] != 0.0:
            raise InvalidParameterError("first path must sit at delay 0")
        if np.any(np.diff(delays) <= 0) and len(delays) > 1:
            raise InvalidParameterError("delays must be strictly increasing")
        gains.setflags(write=False)
        delays.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "delays", delays)

    @property
    def n_paths(self) -> int:
        return len(self.gains)

    @property
    def energy(self) -> float:
        return float(np.sum(self.gains**2))


def sample_channel(params: ChannelParams, config, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization satisfying the containment bound of ``config``.

    |gain_l| is log-normal with mean ln-gain mean_log_gain(params, l), the
    sign is an independent fair coin, delay increments are exponential with
    mean ``params.mean_arrival`` and the first delay is 0.  Gains carry a
    sqrt(power_scale) factor.  Realizations whose last delay exceeds
    T_f - N_h*T_c are rejected and redrawn as a whole.
    """
    n = params.n_paths
    sigma = math.sqrt(params.lognorm_var)
    # mean_log_gain for every path index, evaluated with the same float operations
    mu = 0.5 * (
        math.log(params.first_tap_power) - params.decay_rate * np.arange(n) - 2.0 * params.lognorm_var
    )
    bound = config.frame_time - config.hop_positions * config.chip_time
    scale = math.sqrt(params.power_scale)

    for _ in range(_MAX_RESAMPLES):
        magnitudes = np.exp(mu + sigma * rng.standard_normal(n))
        signs = rng.integers(0, 2, size=n) * 2 - 1
        delays = np.zeros(n)
        if n > 1:
            delays[1:] = np.cumsum(rng.exponential(params.mean_arrival, size=n - 1))
        if delays[-1] < bound:
            return ChannelRealization(scale * magnitudes * signs, delays)
    raise InfeasibleGeometryError(
        f"no realization with last delay < {bound} ns in {_MAX_RESAMPLES} attempts"
    )


def draw_channels(
    params: ChannelParams, config, rng: np.random.Generator, n_interferers: int
) -> tuple[ChannelRealization, list[ChannelRealization]]:
    """One desired channel, then ``n_interferers`` interferer channels, drawn
    from ``rng`` in that order.  Interferers have their power_scale
    multiplied by config.interferer_power."""
    desired = sample_channel(params, config, rng)
    interferer_params = replace(params, power_scale=params.power_scale * config.interferer_power)
    return desired, [sample_channel(interferer_params, config, rng) for _ in range(n_interferers)]


def composite_waveform(pulse: Waveform, chan: ChannelRealization, weights) -> Waveform:
    """Weighted sum of delayed pulse copies: sum_l weights[l] * pulse(t - delay_l).

    Each delay is snapped to the nearest sample-grid point so all later
    correlations are exact discrete sums.  The support is trimmed to the
    nonzero extent.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != chan.gains.shape:
        raise InvalidParameterError("weights must have one entry per channel path")
    dt = pulse.dt
    offsets = grid_index(chan.delays, dt).tolist()
    out = np.zeros(offsets[-1] + len(pulse.samples))
    for w, k in zip(weights.tolist(), offsets):
        if w != 0.0:
            out[k : k + len(pulse.samples)] += w * pulse.samples
    nz = np.flatnonzero(out)
    if len(nz) == 0:
        return Waveform(np.zeros(1), dt, pulse.t0)
    lead, last = int(nz[0]), int(nz[-1])
    return Waveform(out[lead : last + 1], dt, pulse.t0 + lead * dt)

