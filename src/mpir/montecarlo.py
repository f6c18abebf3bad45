"""Waveform-level Monte Carlo: BER estimation in the asynchronous K-user
environment, plus the brute-force estimators that validate the
closed-form analysis.

Reproducibility contract: every random quantity is drawn from a
counter-based (Philox) stream keyed by (master_seed, realization_index,
role).  Realizations are independent work units; running them on any
number of workers gives bit-identical estimates because inclusion is
decided by scanning completed realizations in index order.

Decisions come from correlation tables, not from sampled received
signals.  Frames are separable and every offset lies on the sample grid,
so the noise-free correlator output of each bit is an exact sum of
lookups in the cross-correlations phi_{u_r v_s} of the users' channel
composites with the RAKE template composites (the indexing of
estimate_mai_variance).  The noise is still one standard-normal draw per
sample of the bit windows, from the realization's noise stream, and each
bit's unit-noise projection is that draw correlated with the bit's
template frames.  The results equal those of the sample-level waveform
path (transceiver.received_block, compose_received, rake_template and
decision_statistic) up to the order of summation.

An Eb/N0 sweep is simulated once, not once per point.  Noise enters the
correlator output linearly and its stream does not depend on the noise
amplitude, so a realization reduces to per-bit clean decisions D and
unit-noise projections N, and the decision at amplitude sigma is
D + sigma * N.  Every sweep point therefore sees the same channels,
traffic and noise draw, scaled by sigma (common random numbers).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channel import ChannelParams, ChannelRealization, composite_waveform, draw_channels
from .errors import InvalidParameterError
from .pulses import cross_correlation, grid_index, lookup
from .transceiver import (
    SystemConfig,
    _check_frame_separable,
    generate_codes,
    rake_template,
    select_combiner,
)

_ROLE_CHANNEL = 0
_ROLE_TRAFFIC = 1
_ROLE_NOISE = 2

_Z95 = 1.959963984540054


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for the given (seed, path) key."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def wilson_bounds(errors: int, bits: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if bits < 1:
        raise InvalidParameterError("bits must be >= 1")
    p = errors / bits
    denom = 1.0 + z**2 / bits
    center = (p + z**2 / (2 * bits)) / denom
    half = z * math.sqrt(p * (1 - p) / bits + z**2 / (4 * bits**2)) / denom
    return center - half, center + half


def wilson_halfwidth(errors: int, bits: int, z: float = _Z95) -> float:
    lo, hi = wilson_bounds(errors, bits, z)
    return 0.5 * (hi - lo)


@dataclass(frozen=True)
class TrialPlan:
    """How much simulation to run and when to stop.

    A point is reported once min_errors have accumulated (but never before
    min_realizations channel draws), or when the bit budget runs out.
    max_bits defaults to n_realizations * bits_per_realization.
    """

    master_seed: int
    n_realizations: int
    bits_per_realization: int
    min_errors: int = 50
    max_bits: int | None = None
    min_realizations: int = 1

    def __post_init__(self):
        if self.n_realizations < 1 or self.bits_per_realization < 1:
            raise InvalidParameterError("realization and bit counts must be >= 1")
        if self.min_errors < 1 or self.min_realizations < 1:
            raise InvalidParameterError("min_errors and min_realizations must be >= 1")
        if self.master_seed < 0:
            raise InvalidParameterError("master_seed must be a nonnegative integer")

    @property
    def bit_budget(self) -> int:
        return self.max_bits if self.max_bits is not None else self.n_realizations * self.bits_per_realization


@dataclass(frozen=True)
class BerEstimate:
    """Accumulated error counts with a Wilson 95% half-width."""

    errors: int
    bits: int
    ber: float
    ci95: float
    realizations: int = 0
    capped: bool = False

    def ci_bounds(self) -> tuple[float, float]:
        return wilson_bounds(self.errors, self.bits)


def realization_channels(
    config: SystemConfig,
    channel_params: ChannelParams,
    master_seed: int,
    index: int,
) -> tuple[ChannelRealization, list[ChannelRealization]]:
    """The (desired, interferers) channel draw of realization ``index``.

    This is the exact ensemble member run_ber simulates for the same plan
    seed, so conditional closed-form results can be paired realization by
    realization with the waveform simulation.
    """
    rng_ch = rng_stream(master_seed, index, _ROLE_CHANNEL)
    return draw_channels(channel_params, config, rng_ch, config.n_users - 1)


def _add_user(
    acc: np.ndarray,
    config: SystemConfig,
    u_set,
    templates,
    amps: np.ndarray,
    th: np.ndarray,
    shift: int,
    template_th: np.ndarray,
) -> None:
    """Add one user's correlation with every template frame to ``acc``.

    Signal frame m carries amps[m] * u_{m mod N_p} and starts
    m * T_f + shift + th[m] * T_c (in samples); template frame f carries
    v_{f mod N_p} at f * T_f + template_th[f] * T_c.  So
    acc[f] += sum_m amps[m] * phi_{u_r v_s}[(m - f) T_f + shift
    + (th[m] - template_th[f]) T_c + q0_rs], the same indexing as
    estimate_mai_variance; only the few frame distances m - f whose lags
    can reach the tables' support are visited.
    """
    dt = templates[0].dt
    n_p = config.pulse_types
    chip = config.chip_samples(dt)
    frame = config.frame_samples(dt)
    phis = [[cross_correlation(u, v) for v in templates] for u in u_set]
    q0s = [[grid_index(-phi.lag0, dt) for phi in row] for row in phis]
    lag_lo = min(-q0 for row in q0s for q0 in row)
    lag_hi = max(len(phi.values) - q0 for row, q_row in zip(phis, q0s) for phi, q0 in zip(row, q_row))
    # frame distances e whose lags e*T_f + shift + (TH difference)*T_c
    # can land in [lag_lo, lag_hi)
    reach = (config.hop_positions - 1) * chip
    e_lo = -((shift + reach - lag_lo) // frame)
    e_hi = (lag_hi - 1 + reach - shift) // frame
    n_t, n_m = len(acc), len(amps)
    for e in range(e_lo, e_hi + 1):
        f_lo, f_hi = max(0, -e), min(n_t, n_m - e)
        for s in range(n_p):
            first = f_lo + (s - f_lo) % n_p
            if first >= f_hi:
                continue
            f = slice(first, f_hi, n_p)
            m = slice(first + e, f_hi + e, n_p)
            r = (s + e) % n_p
            idx = e * frame + shift + (th[m] - template_th[f]) * chip + q0s[r][s]
            acc[f] += amps[m] * lookup(phis[r][s].values, idx)


def _realization_decisions(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_bits: int,
    master_seed: int,
    index: int,
    scheme: str,
    selection: str,
    n_paths: int | None,
    draw_noise: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bits, D, N) of realization ``index``: the transmitted bits, the
    per-bit clean correlator outputs and the unit-noise projections.

    D is the correlation of the noise-free received signal with each bit's
    RAKE template, summed from cross-correlation lookups frame by frame
    (_add_user); no waveform longer than one composite is built.  N is
    the correlation, scaled by sqrt(dt), of each bit's template with one
    standard-normal draw z of n_bits symbols of samples from the noise
    stream; it is zero, and the stream is not opened, when ``draw_noise``
    is false.
    """
    dt = pulses[0].dt
    n_f = config.frames_per_symbol
    n_p = config.pulse_types
    sym = config.symbol_samples(dt)
    rng_tr = rng_stream(master_seed, index, _ROLE_TRAFFIC)

    desired_chan, interferer_chans = realization_channels(
        config, channel_params, master_seed, index
    )

    beta = select_combiner(desired_chan, scheme, selection, n_paths)
    desired = [composite_waveform(p, desired_chan, desired_chan.gains) for p in pulses]
    templates = [composite_waveform(p, desired_chan, beta) for p in pulses]
    _check_frame_separable(desired, config, dt)
    _check_frame_separable(templates, config, dt)

    bits = rng_tr.integers(0, 2, n_bits) * 2 - 1
    codes = generate_codes(config, n_bits * n_f, rng_tr)

    acc = np.zeros(n_bits * n_f)
    _add_user(acc, config, desired, templates,
              codes.polarity * np.repeat(bits, n_f) / math.sqrt(n_f), codes.th, 0, codes.th)
    for chan in interferer_chans:
        # one extra bit ahead of the window, delayed by an offset in [0, T_s)
        bits_k = rng_tr.integers(0, 2, n_bits + 1) * 2 - 1
        codes_k = generate_codes(config, (n_bits + 1) * n_f, rng_tr)
        offset_idx = int(rng_tr.integers(0, sym))
        u_set = [composite_waveform(p, chan, chan.gains) for p in pulses]
        _add_user(acc, config, u_set, templates,
                  codes_k.polarity * np.repeat(bits_k, n_f) / math.sqrt(n_f),
                  codes_k.th, offset_idx - sym, codes.th)
    clean = (acc * codes.polarity).reshape(n_bits, n_f).sum(axis=1)

    unit_noise = np.zeros(n_bits)
    if draw_noise:
        z = rng_stream(master_seed, index, _ROLE_NOISE).standard_normal(n_bits * sym)
        # z[0] is the sample at frame 0's start, or at the earliest
        # template sample if that comes first
        t0_idx = [grid_index(v.t0, dt) for v in templates]
        starts = (np.arange(n_bits * n_f) * config.frame_samples(dt)
                  + codes.th * config.chip_samples(dt)
                  + np.tile(t0_idx, n_bits * n_f // n_p) - min(0, *t0_idx))
        taps = [v.samples for v in templates]
        proj = np.array([
            z[k : k + len(taps[f % n_p])] @ taps[f % n_p] for f, k in enumerate(starts.tolist())
        ])
        unit_noise = math.sqrt(dt) * (proj * codes.polarity).reshape(n_bits, n_f).sum(axis=1)
    return bits, clean, unit_noise


def _sweep_errors(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_bits: int,
    master_seed: int,
    noise_sigmas: tuple[float, ...],
    scheme: str,
    selection: str,
    n_paths: int | None,
    index: int,
) -> tuple[int, ...]:
    """Bit errors of realization ``index`` at each noise amplitude.

    The realization is reduced once to per-bit clean decisions D, summed
    from the cross-correlation tables of the channel composites, and
    unit-noise projections N of the realization's noise-stream draw (not
    drawn when every sigma is 0).  Bit i is in error at noise amplitude
    sigma when (D_i + sigma * N_i) * b_i <= 0.  D and N equal the
    sample-by-sample correlations of the assembled waveforms up to the
    order of summation, so the error counts are those of the waveform
    engine.
    """
    bits, clean, unit_noise = _realization_decisions(
        config, pulses, channel_params, n_bits, master_seed, index, scheme, selection, n_paths,
        draw_noise=any(s > 0 for s in noise_sigmas),
    )
    return tuple(int(np.count_nonzero((clean + s * unit_noise) * bits <= 0)) for s in noise_sigmas)


def run_realization(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_bits: int,
    master_seed: int,
    index: int,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
) -> tuple[int, int]:
    """Errors and bits for the single realization ``index`` of a plan seed,
    at noise amplitude config.noise_sigma.

    The channels are exactly those of realization_channels(config,
    channel_params, master_seed, index); traffic and noise come from the
    realization's own streams, so a conditional BER can be refined with a
    larger n_bits on the same channel draw.
    """
    (errors,) = _sweep_errors(
        config, pulses, channel_params, n_bits, master_seed, (config.noise_sigma,),
        scheme, selection, n_paths, index,
    )
    return errors, n_bits


def _stopped(errors: int, bits: int, used: int, plan: TrialPlan) -> bool:
    if bits >= plan.bit_budget:
        return True
    return errors >= plan.min_errors and used >= plan.min_realizations


def _scan_stop(results, plan: TrialPlan) -> tuple[int, int, int]:
    """Fold (errors, bits) pairs in index order, honoring the stop rule."""
    errors = bits = used = 0
    for e, b in results:
        errors += e
        bits += b
        used += 1
        if _stopped(errors, bits, used, plan):
            break
    return errors, bits, used


def run_ber_sweep(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    plan: TrialPlan,
    noise_sigmas,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
    threads: int = 1,
) -> list[BerEstimate]:
    """Waveform-level BER of the user of interest at each noise amplitude.

    Per realization: draw desired and interferer channels, offsets, codes
    and bits; sum each bit's noise-free correlator output D from the
    composites' cross-correlation tables and its unit-noise projection N
    from one standard-normal draw of the noise stream; detect the bit by
    the sign of D + sigma * N for every sigma in ``noise_sigmas``
    (config.noise_sigma is not used).  Every point sees the same channels,
    traffic and noise draw, scaled by its sigma, and the error counts are
    those of the sample-level waveform path on the same draws.

    Realizations run in waves of max(1, threads), in process for one
    thread and on a process pool otherwise.  Each point applies the stop
    rule to its own errors, scanning realizations in index order; waves
    continue until every point has stopped.  The estimate at a point is
    the one run_ber gives for that noise_sigma, at any thread count.
    """
    sigmas = tuple(float(s) for s in noise_sigmas)
    if not sigmas:
        raise InvalidParameterError("noise_sigmas must name at least one noise amplitude")
    if not all(s >= 0 and math.isfinite(s) for s in sigmas):
        raise InvalidParameterError(f"noise amplitudes must be finite and nonnegative, got {sigmas}")
    n_bits = plan.bits_per_realization
    worker = partial(
        _sweep_errors, config, pulses, channel_params, n_bits, plan.master_seed, sigmas,
        scheme, selection, n_paths,
    )

    def point_scan(k: int, rows) -> tuple[int, int, int]:
        return _scan_stop(((row[k], n_bits) for row in rows), plan)

    wave = max(1, threads)
    collected: list[tuple[int, ...]] = []
    with ProcessPoolExecutor(max_workers=wave) if wave > 1 else nullcontext() as pool:
        run_wave = pool.map if pool else map
        for start in range(0, plan.n_realizations, wave):
            collected.extend(run_wave(worker, range(start, min(start + wave, plan.n_realizations))))
            if all(_stopped(*point_scan(k, collected), plan) for k in range(len(sigmas))):
                break
    estimates = []
    for k in range(len(sigmas)):
        errors, bits, used = point_scan(k, collected)
        estimates.append(BerEstimate(
            errors=errors,
            bits=bits,
            ber=errors / bits,
            ci95=wilson_halfwidth(errors, bits),
            realizations=used,
            capped=errors < plan.min_errors,
        ))
    return estimates


def run_ber(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    plan: TrialPlan,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
    threads: int = 1,
) -> BerEstimate:
    """Waveform-level BER of the user of interest at config.noise_sigma:
    the one-point sweep run_ber_sweep(..., [config.noise_sigma], ...)[0].
    Deterministic for a fixed plan at any thread count.
    """
    return run_ber_sweep(
        config, pulses, channel_params, plan, [config.noise_sigma],
        scheme, selection, n_paths, threads,
    )[0]


def estimate_mai_variance(
    config: SystemConfig,
    pulses,
    desired_chan: ChannelRealization,
    interferer_chan: ChannelRealization,
    frame: int,
    n_samples: int,
    rng: np.random.Generator,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
) -> float:
    """Brute-force variance of the per-frame MAI sample.

    Draws random codes, bits and an asynchronous offset, evaluates the
    interferer's contribution to frame ``frame`` of the desired user
    directly from the cross-correlation functions, and returns the sample
    variance.  This is the waveform-free oracle for the closed-form
    per-frame MAI variance.
    """
    if n_samples < 2:
        raise InvalidParameterError("n_samples must be >= 2")
    dt = pulses[0].dt
    n_p = config.pulse_types
    n_h = config.hop_positions
    n_f = config.frames_per_symbol
    chip = config.chip_samples(dt)
    frame_len = config.frame_samples(dt)

    beta = select_combiner(desired_chan, scheme, selection, n_paths)
    v = composite_waveform(pulses[frame % n_p], desired_chan, beta)
    u_set = [composite_waveform(p, interferer_chan, interferer_chan.gains) for p in pulses]
    phis = [cross_correlation(u, v) for u in u_set]
    q0s = [grid_index(-phi.lag0, dt) for phi in phis]

    lag_lo = min(-q0 for q0 in q0s)
    lag_hi = max(len(phi.values) - q0 for phi, q0 in zip(phis, q0s))
    m_lo = frame + math.floor((lag_lo - (n_h - 1) * chip - (n_f * frame_len - 1)) / frame_len)
    m_hi = frame + math.ceil((lag_hi + (n_h - 1) * chip) / frame_len)

    tau = rng.integers(0, n_f * frame_len, n_samples)
    c_j = rng.integers(0, n_h, n_samples)
    sym_lo = math.floor(m_lo / n_f)
    sym_hi = math.floor(m_hi / n_f)
    sym_bits = {s: rng.integers(0, 2, n_samples) * 2 - 1 for s in range(sym_lo, sym_hi + 1)}

    acc = np.zeros(n_samples)
    for m in range(m_lo, m_hi + 1):
        r = m % n_p
        c_m = rng.integers(0, n_h, n_samples)
        d_m = rng.integers(0, 2, n_samples) * 2 - 1
        idx = (m - frame) * frame_len + (c_m - c_j) * chip + tau + q0s[r]
        acc += d_m * sym_bits[math.floor(m / n_f)] * lookup(phis[r].values, idx)
    acc *= rng.integers(0, 2, n_samples) * 2 - 1  # template polarity d_j of user 1
    return float(np.var(acc, ddof=1))


def estimate_noise_variance(
    config: SystemConfig,
    templates,
    n_trials: int,
    rng: np.random.Generator,
    noise_std_scale: float = 1.0,
) -> float:
    """Sample variance of the correlator output under a noise-only input.

    ``noise_std_scale`` deliberately mis-scales the per-sample noise
    standard deviation; it exists so a broken discretization convention
    can be demonstrated to fail the validation checks.
    """
    if n_trials < 2:
        raise InvalidParameterError("n_trials must be >= 2")
    dt = templates[0].dt
    codes = generate_codes(config, config.frames_per_symbol, rng)
    tmpl = rake_template(config, codes, templates, 0)
    t = tmpl.samples
    scale = noise_std_scale * config.noise_sigma / math.sqrt(dt)
    outputs = np.empty(n_trials)
    chunk = max(1, min(n_trials, (1 << 22) // max(1, len(t))))
    done = 0
    while done < n_trials:
        take = min(chunk, n_trials - done)
        noise = rng.standard_normal((take, len(t)))
        outputs[done : done + take] = dt * scale * (noise @ t)
        done += take
    return float(np.var(outputs, ddof=1))
