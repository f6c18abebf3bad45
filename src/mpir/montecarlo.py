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
composites u_r = p_r * h_k with the RAKE template composites
v_s = p_s * b, under the combiner the SystemConfig carries (the indexing
of estimate_mai_variance), read from the tap-train spectra of the channel
draw with no composite (_correlation_tables).  These clean outputs equal,
up to rounding, the correlation of each bit's rake_template with the
sampled sum of the users' blocks, the sample-level reference the tests
keep.

The noise is not sampled.  Under frame containment each template frame's
support lies inside its own frame, so the bits' templates project
disjoint sample ranges of the white noise, and each bit's unit-noise
projection is an independent N(0, E_N) with
E_N = (N_f / N_p) * sum_j E(v_j), the analysis.noise_variance closed form
at unit amplitude.  The engine draws that one normal per bit from the
realization's noise stream, so its N is equal in law to the sample-level
projection, not equal to it sample by sample.

An Eb/N0 sweep is simulated once, not once per point.  Noise enters the
correlator output linearly and its stream does not depend on the noise
amplitude, so a realization reduces to per-bit clean decisions D and
unit-noise projections N, and the decision at amplitude sigma is
D + sigma * N.  Every sweep point therefore sees the same channels,
traffic and noise draw, scaled by sigma (common random numbers).  Given
D, bit i errs with probability exactly Q(b_i D_i / (sigma sqrt(E_N))); the
mean of that over bits is the quasi-analytic BER estimate reported next
to the counted one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import _noise_energy, qfunc
from .channel import ChannelParams, ChannelRealization, composite_waveform, draw_channels
from .errors import InvalidParameterError
from .pulses import BLOCK_SAMPLES, cross_correlation, grid_index, lookup
from .transceiver import SystemConfig, _check_frame_span, _draw_spectra
from .transceiver import generate_codes, rake_composites, rake_template

_ROLE_CHANNEL = 0
_ROLE_TRAFFIC = 1
_ROLE_NOISE = 2


def rng_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for the given (seed, path) key."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def wilson_bounds(errors: int, bits: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if bits < 1:
        raise InvalidParameterError("bits must be >= 1")
    p = errors / bits
    z = 1.959963984540054  # two-sided 95% standard normal quantile
    denom = 1.0 + z**2 / bits
    center = (p + z**2 / (2 * bits)) / denom
    half = z * math.sqrt(p * (1 - p) / bits + z**2 / (4 * bits**2)) / denom
    return center - half, center + half


def wilson_halfwidth(errors: int, bits: int) -> float:
    lo, hi = wilson_bounds(errors, bits)
    return 0.5 * (hi - lo)


@dataclass(frozen=True)
class TrialPlan:
    """How much simulation to run and when to stop.

    A point is reported once min_errors have accumulated (but never before
    min_realizations channel draws), or when the bit budget runs out.
    max_bits (>= 1) defaults to n_realizations * bits_per_realization.
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
        if self.max_bits is not None and self.max_bits < 1:
            raise InvalidParameterError("max_bits must be >= 1 when given")
        if self.master_seed < 0:
            raise InvalidParameterError("master_seed must be a nonnegative integer")

    @property
    def bit_budget(self) -> int:
        return self.max_bits if self.max_bits is not None else self.n_realizations * self.bits_per_realization


@dataclass(frozen=True)
class BerEstimate:
    """Accumulated error counts with a Wilson 95% half-width, and the
    quasi-analytic estimate ber_qa over the same realizations with its
    standard error (nan from a single realization)."""

    errors: int
    bits: int
    ber: float
    ci95: float
    realizations: int = 0
    capped: bool = False
    ber_qa: float = math.nan
    ber_qa_stderr: float = math.nan

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


def _correlation_tables(config: SystemConfig, pulses, desired_chan, interferer_chans):
    """(dt, E, tables) of one channel draw, from the spectra of
    transceiver._draw_spectra: the sample step, the template energy
    E = sum_s E(v_s), and ``tables``, which yields for the desired user and
    then each interferer k in turn the (N_p, N_p, 2n - 1) array of
    phi_{u_r v_s} at lags -(n - 1)..n - 1 (n: a composite's length on the
    common window): one rfft of h_k and one batched irfft of
    conj(P_r H_k) P_s B per user, nothing of one user kept for the next.
    The desired composites are checked for frame containment.
    """
    sp = _draw_spectra(config, pulses, desired_chan, interferer_chans)
    dt, nfft = sp.dt, sp.nfft
    last = grid_index(desired_chan.delays[-1], dt)
    _check_frame_span(sp.first, sp.first + sp.window + last, config, dt)  # the desired composites
    n = sp.gains.shape[1] + sp.window - 1
    # the templates delayed by n - 1 samples put lags -(n - 1)..n - 1 at 0..2n - 2
    templates = dt * np.exp(-2j * np.pi / nfft * (np.arange(nfft // 2 + 1) * (n - 1) % nfft)) * sp.templates
    spectra = sp.pulses  # the generator keeps these two, not the whole core
    return dt, sp.energy, (
        np.fft.irfft(np.conj(spectra * np.fft.rfft(h, nfft))[:, None] * templates, nfft)[..., : 2 * n - 1]
        for h in sp.gains
    )


def _add_user(
    acc: np.ndarray,
    config: SystemConfig,
    dt: float,
    phi: np.ndarray,
    amps: np.ndarray,
    th: np.ndarray,
    shift: int,
    template_th: np.ndarray,
) -> None:
    """Add one user's correlation with every template frame to ``acc``.

    phi[r, s] is the table of phi_{u_r v_s} from _correlation_tables, lag 0
    at its middle index q0.  Signal frame m carries amps[m] * u_{m mod N_p}
    and starts m * T_f + shift + th[m] * T_c (in samples); template frame f
    carries v_{f mod N_p} at f * T_f + template_th[f] * T_c.  So
    acc[f] += sum_m amps[m] * phi_{u_r v_s}[(m - f) T_f + shift
    + (th[m] - template_th[f]) T_c + q0], the same indexing as
    estimate_mai_variance; only the few frame distances m - f whose lags
    can reach the tables' support are visited.
    """
    n_p = config.pulse_types
    chip = config.chip_samples(dt)
    frame = config.frame_samples(dt)
    q0 = phi.shape[-1] // 2
    lag_lo, lag_hi = -q0, q0 + 1
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
            idx = e * frame + shift + (th[m] - template_th[f]) * chip + q0
            acc[f] += amps[m] * lookup(phi[r, s], idx)


def _realization_decisions(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_bits: int,
    master_seed: int,
    index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(bits, D, N, E_N) of realization ``index``: the transmitted bits,
    the per-bit clean correlator outputs, the unit-noise projections and
    their variance.

    D is the correlation of the noise-free received signal with each bit's
    RAKE template (the combiner of ``config``), summed frame by frame from
    lookups (_add_user) in the _correlation_tables, one user at a time.
    E_N = (N_f / N_p) * sum_j E(v_j) (analysis.noise_variance) is the
    energy of one bit's template.
    N is sqrt(E_N) times one standard normal per bit from the noise
    stream: equal in law to the correlation, scaled by sqrt(dt), of each
    bit's template with a standard-normal draw per sample, because
    frame containment keeps the bits' template supports disjoint.
    """
    n_f = config.frames_per_symbol
    rng_tr = rng_stream(master_seed, index, _ROLE_TRAFFIC)

    desired_chan, interferer_chans = realization_channels(
        config, channel_params, master_seed, index
    )
    dt, template_energy, tables = _correlation_tables(config, pulses, desired_chan, interferer_chans)
    sym = config.symbol_samples(dt)

    bits = rng_tr.integers(0, 2, n_bits) * 2 - 1
    codes = generate_codes(config, n_bits * n_f, rng_tr)

    acc = np.zeros(n_bits * n_f)
    _add_user(acc, config, dt, next(tables),
              codes.polarity * np.repeat(bits, n_f) / math.sqrt(n_f), codes.th, 0, codes.th)
    for _ in interferer_chans:
        # one extra bit ahead of the window, delayed by an offset in [0, T_s)
        bits_k = rng_tr.integers(0, 2, n_bits + 1) * 2 - 1
        codes_k = generate_codes(config, (n_bits + 1) * n_f, rng_tr)
        offset_idx = int(rng_tr.integers(0, sym))
        _add_user(acc, config, dt, next(tables),
                  codes_k.polarity * np.repeat(bits_k, n_f) / math.sqrt(n_f),
                  codes_k.th, offset_idx - sym, codes.th)
    clean = (acc * codes.polarity).reshape(n_bits, n_f).sum(axis=1)

    noise_energy = _noise_energy(template_energy, config)
    unit_noise = math.sqrt(noise_energy) * rng_stream(master_seed, index, _ROLE_NOISE).standard_normal(n_bits)
    return bits, clean, unit_noise, noise_energy


def _sweep_errors(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_bits: int,
    master_seed: int,
    noise_sigmas: tuple[float, ...],
    index: int,
) -> tuple[tuple[int, float], ...]:
    """(bit errors, mean conditional error probability) of realization
    ``index`` at each noise amplitude.

    Bit i is in error at noise amplitude sigma when
    (D_i + sigma * N_i) * b_i <= 0, with D and N from
    _realization_decisions.  D equals the sample-level correlation up to
    the order of summation and N equals it in law, so the counts are
    distributed as those of the waveform path.  The second entry is the
    mean over bits of Q(b_i D_i / (sigma sqrt(E_N))), the error
    probability given D; at sigma 0 it is the error fraction.  The
    channels are those of realization_channels(config, channel_params,
    master_seed, index) for any n_bits, so a realization's conditional
    BER can be refined with more bits on the same channel draw.
    """
    bits, clean, unit_noise, noise_energy = _realization_decisions(
        config, pulses, channel_params, n_bits, master_seed, index
    )
    margin = clean * bits
    out = []
    for s in noise_sigmas:
        errors = int(np.count_nonzero((clean + s * unit_noise) * bits <= 0))
        if s > 0:
            qa = float(np.mean(qfunc(margin / (s * math.sqrt(noise_energy)))))
        else:
            qa = errors / n_bits
        out.append((errors, qa))
    return tuple(out)


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
    threads: int = 1,
) -> list[BerEstimate]:
    """Waveform-level BER of the user of interest at each noise amplitude.

    Per realization: draw desired and interferer channels, offsets, codes
    and bits; sum each bit's noise-free correlator output D from the
    correlation tables of the tap-train spectra, and draw its unit-noise
    projection N as one N(0, E_N) normal from the noise stream, equal in
    law to the sample-level projection of white noise on the bit's
    template; detect the bit by the sign of D + sigma * N for every sigma
    in ``noise_sigmas``.  Every point sees the same channels, traffic and
    noise draw, scaled by its sigma.  Each
    estimate also carries ber_qa, the mean over the realizations its stop
    rule used of their mean conditional error probability given D, with
    the standard error of that mean.

    Realizations run in waves of min(threads, CPU count, n_realizations)
    (at least one), in process for a wave of one and on a process pool
    otherwise.  Each point applies the stop rule to its own errors,
    scanning realizations in index order; waves continue until every
    point has stopped.  The estimate at a point is the one run_ber gives
    for that noise_sigma, at any thread count.
    """
    sigmas = tuple(float(s) for s in noise_sigmas)
    if not sigmas:
        raise InvalidParameterError("noise_sigmas must name at least one noise amplitude")
    if not all(s >= 0 and math.isfinite(s) for s in sigmas):
        raise InvalidParameterError(f"noise amplitudes must be finite and nonnegative, got {sigmas}")
    n_bits = plan.bits_per_realization
    worker = partial(_sweep_errors, config, pulses, channel_params, n_bits, plan.master_seed, sigmas)

    def point_scan(k: int, rows) -> tuple[int, int, int]:
        return _scan_stop(((row[k][0], n_bits) for row in rows), plan)

    wave = max(1, min(threads, os.cpu_count() or 1, plan.n_realizations))
    collected: list[tuple[tuple[int, float], ...]] = []
    with ProcessPoolExecutor(max_workers=wave) if wave > 1 else nullcontext() as pool:
        run_wave = pool.map if pool else map
        for start in range(0, plan.n_realizations, wave):
            collected.extend(run_wave(worker, range(start, min(start + wave, plan.n_realizations))))
            if all(_stopped(*point_scan(k, collected), plan) for k in range(len(sigmas))):
                break
    estimates = []
    for k in range(len(sigmas)):
        errors, bits, used = point_scan(k, collected)
        qa = np.array([row[k][1] for row in collected[:used]])
        estimates.append(BerEstimate(
            errors=errors,
            bits=bits,
            ber=errors / bits,
            ci95=wilson_halfwidth(errors, bits),
            realizations=used,
            capped=errors < plan.min_errors,
            ber_qa=float(qa.mean()),
            ber_qa_stderr=float(qa.std(ddof=1)) / math.sqrt(used) if used > 1 else math.nan,
        ))
    return estimates


def run_ber(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    plan: TrialPlan,
    noise_sigma: float,
    threads: int = 1,
) -> BerEstimate:
    """Waveform-level BER of the user of interest at noise amplitude
    ``noise_sigma``: the one-point sweep run_ber_sweep(..., [noise_sigma],
    ...)[0].  Deterministic for a fixed plan at any thread count.
    """
    return run_ber_sweep(config, pulses, channel_params, plan, [noise_sigma], threads)[0]


def estimate_mai_variance(
    config: SystemConfig,
    pulses,
    desired_chan: ChannelRealization,
    interferer_chan: ChannelRealization,
    frame: int,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Brute-force variance of the per-frame MAI sample.

    Draws random codes, bits and an asynchronous offset, evaluates the
    interferer's contribution to frame ``frame`` of the desired user's
    RAKE template (the combiner of ``config``) directly from the
    cross-correlation functions, and returns the sample variance.  This
    is the waveform-free oracle for the closed-form per-frame MAI variance.

    Samples are drawn in blocks of pulses.BLOCK_SAMPLES // 4, so beyond
    the n_samples results, centred in place for the variance, the working
    set is a fixed 2 MB or so.  Each block draws, from ``rng`` and for all its
    samples at once: the offsets tau, the template hop c_j, one bit per
    symbol the interfering frames m_lo..m_hi touch, then the hop c_m and
    polarity d_m of each frame m in order, then the template polarity.
    Every sample is i.i.d. whatever the block size, but the values depend
    on it.
    """
    if n_samples < 2:
        raise InvalidParameterError("n_samples must be >= 2")
    dt = pulses[0].dt
    n_p = config.pulse_types
    n_h = config.hop_positions
    n_f = config.frames_per_symbol
    chip = config.chip_samples(dt)
    frame_len = config.frame_samples(dt)

    v = rake_composites(pulses, desired_chan, config)[1][frame % n_p]
    u_set = [composite_waveform(p, interferer_chan, interferer_chan.gains) for p in pulses]
    phis = [cross_correlation(u, v) for u in u_set]
    q0s = [grid_index(-phi.t0, dt) for phi in phis]

    lag_lo = min(-q0 for q0 in q0s)
    lag_hi = max(len(phi.samples) - q0 for phi, q0 in zip(phis, q0s))
    m_lo = frame + math.floor((lag_lo - (n_h - 1) * chip - (n_f * frame_len - 1)) / frame_len)
    m_hi = frame + math.ceil((lag_hi + (n_h - 1) * chip) / frame_len)

    sym_lo = math.floor(m_lo / n_f)
    sym_hi = math.floor(m_hi / n_f)

    block = BLOCK_SAMPLES // 4  # about a dozen block-length arrays are alive at once
    out = np.zeros(n_samples)
    for start in range(0, n_samples, block):
        acc = out[start : start + block]
        n = len(acc)
        tau = rng.integers(0, n_f * frame_len, n)
        c_j = rng.integers(0, n_h, n)
        sym_bits = {s: rng.integers(0, 2, n) * 2 - 1 for s in range(sym_lo, sym_hi + 1)}
        for m in range(m_lo, m_hi + 1):
            r = m % n_p
            c_m = rng.integers(0, n_h, n)
            d_m = rng.integers(0, 2, n) * 2 - 1
            idx = (m - frame) * frame_len + (c_m - c_j) * chip + tau + q0s[r]
            acc += d_m * sym_bits[math.floor(m / n_f)] * lookup(phis[r].samples, idx)
        acc *= rng.integers(0, 2, n) * 2 - 1  # template polarity d_j of user 1
    out -= out.mean()
    return float(out @ out) / (n_samples - 1)


def estimate_noise_variance(
    config: SystemConfig,
    templates,
    n_trials: int,
    rng: np.random.Generator,
) -> float:
    """Sample variance of the correlator output under a noise-only input of
    unit amplitude.

    Each trial draws one N(0, 1/dt) sample per nonzero sample of the
    bit's RAKE template; the noise on the template's exact zeros adds
    exactly 0 to the correlator, so it is not drawn.  Trials are drawn in
    rows of a buffer of at most pulses.BLOCK_SAMPLES doubles (512 kB), or
    one row if that is longer; Philox normals do not depend on how the
    draws are split, so the estimate does not either.
    """
    if n_trials < 2:
        raise InvalidParameterError("n_trials must be >= 2")
    dt = templates[0].dt
    codes = generate_codes(config, config.frames_per_symbol, rng)
    tmpl = rake_template(config, codes, templates, 0)
    t = tmpl.samples[np.flatnonzero(tmpl.samples)]
    scale = 1 / math.sqrt(dt)
    outputs = np.empty(n_trials)
    chunk = max(1, min(n_trials, BLOCK_SAMPLES // max(1, len(t))))
    noise = np.empty((chunk, len(t)))
    done = 0
    while done < n_trials:
        take = min(chunk, n_trials - done)
        rng.standard_normal(out=noise[:take])
        outputs[done : done + take] = dt * scale * (noise[:take] @ t)
        done += take
    outputs -= outputs.mean()
    return float(outputs @ outputs) / (n_trials - 1)
