"""Random multipath channels and per-user composite waveforms.

A channel realization is a tap-delay line: signed log-normal gains with
exponentially decaying mean power, and exponentially distributed path
inter-arrivals. The first path of every user sits at delay 0 in the
user's own clock; inter-user asynchronism is applied separately when the
received signal is composed.

Generated realizations are kept inside the single-frame containment
regime (last delay < T_f - N_h*T_c) by rejection-resampling the whole
realization, so every downstream correlation stays frame-separable.
``sample_channels`` draws n realizations as (n, L) arrays and redraws
only the rejected rows; ``sample_channel`` is its n = 1 case.

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


def mean_log_gain(params: ChannelParams, path: int | np.ndarray) -> float | np.ndarray:
    """Mean of ln|gain| for the given path index, or for each of an array
    of path indices.

    mu_l = 0.5 * [ln(first_tap_power) - decay_rate * l - 2 * lognorm_var],
    chosen so that the mean energies e^(2 mu_l + 2 var) decay geometrically
    and sum to one over the taps.
    """
    index = np.asarray(path)
    if index.min() < 0 or index.max() >= params.n_paths:
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
        if gains.shape != delays.shape or gains.ndim != 1 or gains.size == 0:
            raise InvalidParameterError("gains and delays must be nonempty 1-D arrays of equal length")
        if delays[0] != 0.0:
            raise InvalidParameterError("first path must sit at delay 0")
        if np.any(np.diff(delays) <= 0):
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


def sample_channels(
    params: ChannelParams, config, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` channel realizations satisfying the containment bound of
    ``config``, as (n, L) arrays of gains and delays.

    |gain_l| is log-normal with mean ln-gain mean_log_gain(params, l), the
    sign is an independent fair coin, delay increments are exponential with
    mean ``params.mean_arrival`` and the first delay is 0.  Gains carry a
    sqrt(power_scale) factor.  Each attempt draws the normals, then the
    signs, then the increments of all pending rows; rows whose last delay
    exceeds T_f - N_h*T_c are redrawn, in row order, as the next attempt.
    """
    n_paths = params.n_paths
    sigma = math.sqrt(params.lognorm_var)
    mu = mean_log_gain(params, np.arange(n_paths))
    bound = config.frame_time - config.hop_positions * config.chip_time
    scale = math.sqrt(params.power_scale)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        gains = rng.standard_normal((m, n_paths))
        gains *= sigma
        gains += mu
        np.exp(gains, out=gains)
        gains *= scale
        signs = rng.integers(0, 2, size=(m, n_paths))
        signs *= 2
        signs -= 1
        gains *= signs
        del signs  # not alive beside the increments and delays
        delays = np.zeros((m, n_paths))
        if n_paths > 1:
            steps = rng.exponential(params.mean_arrival, size=(m, n_paths - 1))
            np.cumsum(steps, axis=1, out=delays[:, 1:])
        return gains, delays

    gains, delays = draw(n)
    rows = np.flatnonzero(delays[:, -1] >= bound)
    attempts = 1
    while len(rows):
        if attempts == _MAX_RESAMPLES:
            raise InfeasibleGeometryError(
                f"no realization with last delay < {bound} ns in {_MAX_RESAMPLES} attempts"
            )
        redrawn_gains, redrawn_delays = draw(len(rows))
        gains[rows] = redrawn_gains
        delays[rows] = redrawn_delays
        rows = rows[redrawn_delays[:, -1] >= bound]
        attempts += 1
    return gains, delays


def sample_channel(params: ChannelParams, config, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization: the n = 1 case of ``sample_channels``."""
    gains, delays = sample_channels(params, config, rng, 1)
    return ChannelRealization(gains[0], delays[0])


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
    nonzero extent.  np.add.at applies the updates in index order, so
    every sample sums its paths in path order.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != chan.gains.shape:
        raise InvalidParameterError("weights must have one entry per channel path")
    offsets = grid_index(chan.delays, pulse.dt)
    n = len(pulse.samples)
    out = np.zeros(offsets[-1] + n)
    np.add.at(out, offsets[:, None] + np.arange(n), np.outer(weights, pulse.samples))
    return Waveform(out, pulse.dt, pulse.t0).trimmed()

