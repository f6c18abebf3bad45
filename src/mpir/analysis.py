"""Closed-form receiver analysis: MAI variances, output-noise variance and
the approximate bit error probability under the standard Gaussian
approximation.

Conventions used consistently here (and pinned by the Monte Carlo
cross-checks in the test suite):

* ``mai_variance_multi`` returns the per-(interferer, frame-type) matrix
  sigma2[k][j] BEFORE the 1/N_h^2 factor; the BEP denominator applies
  1/(N_f * N_h^2) exactly once.  ``mai_variance_classical`` follows the
  same convention for the single-pulse reduction.
* Under single-frame containment (enforced by sample_channel,
  check_pulse_fits and transceiver._check_frame_separable) every TH and
  delay window of an MAI lag integral covers the whole support of the
  squared cross-correlation, so each variance is a full-support sum of
  phi^2 at the waveform sample step.  That sum is taken in the frequency
  domain by discrete Parseval, one rfft per composite, and both MAI forms
  share it, which makes the single-pulse reduction exact at
  floating-point level.  A geometry outside containment raises
  InfeasibleGeometryError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, composite_waveform, draw_channels
from .errors import ConfigMismatchError, DegenerateInputError, InvalidParameterError
from .pulses import _common_dt
from .transceiver import SystemConfig, _check_frame_separable, decision_statistic, select_combiner

_SQRT_2 = math.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[float])


def qfunc(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = erfc(x / sqrt 2) / 2.

    A scalar gives a Python float; an array gives an array of the same shape.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) / _SQRT_2)
    return 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT_2)


@dataclass(frozen=True, eq=False)
class MaiVariance:
    """Interference variances conditioned on the channel realizations.

    per_frame[k, j] is sigma2_M(k, j) for interferer k and frame type j
    (before the 1/N_h^2 factor).  ``total`` is the BEP-denominator term
    sum(per_frame) / (N_f * N_h^2); ``output_variance`` is the variance
    of the total MAI in the decision statistic, sum / (N_p * N_h^2).
    """

    per_frame: np.ndarray
    total: float
    output_variance: float

    def __post_init__(self):
        per_frame = np.asarray(self.per_frame, dtype=float)
        if np.any(per_frame < 0):
            raise InvalidParameterError("MAI variances cannot be negative")
        per_frame.setflags(write=False)
        object.__setattr__(self, "per_frame", per_frame)


def _mai_mass(interferer_sets, templates, config: SystemConfig) -> np.ndarray:
    """sigma2_M(k, j) for every interferer composite set k and template j.

    Frame containment puts the whole support of phi_{u_r v_j} inside every
    TH and delay window of the lag integral, so
    sigma2_M(k, j) = N_h^2 / (N_p T_f) * sum_r dt * sum_x phi_{u_r v_j}^2[x],
    with N_p = len(templates).  By discrete Parseval on nfft >= len(u) +
    len(v) - 1 points, sum_x phi^2[x] = dt^2 / nfft * sum_f w_f |U_r(f)|^2
    |V_j(f)|^2 over the rfft bins, w_f = 1 at DC and Nyquist, 2 elsewhere.
    """
    interferers = [u for u_set in interferer_sets for u in u_set]
    dt = _common_dt([*templates, *interferers])
    _check_frame_separable([*templates, *interferers], config, dt)
    n_v = max(len(v.samples) for v in templates)
    n_u = max((len(u.samples) for u in interferers), default=1)
    nfft = 1 << (n_v + n_u - 2).bit_length()  # smallest power of two >= n_v + n_u - 1
    w = np.full(nfft // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    v_power = np.array([w * np.abs(np.fft.rfft(v.samples, nfft)) ** 2 for v in templates])
    scale = config.hop_positions**2 * dt**3 / (len(templates) * config.frame_time * nfft)
    per_frame = np.zeros((len(interferer_sets), len(templates)))
    for k, u_set in enumerate(interferer_sets):
        u_power = sum(np.abs(np.fft.rfft(u.samples, nfft)) ** 2 for u in u_set)
        per_frame[k] = v_power @ u_power * scale
    return per_frame


def mai_variance_multi(interferer_sets, templates, config: SystemConfig) -> MaiVariance:
    """Conditional MAI variances for every (interferer, frame type) pair.

    interferer_sets[k] holds the N_p received composites of interferer k;
    templates holds the N_p RAKE template composites of the desired user.
    """
    n_p = config.pulse_types
    if len(templates) != n_p:
        raise ConfigMismatchError(f"need {n_p} templates, got {len(templates)}")
    for k, u_set in enumerate(interferer_sets):
        if len(u_set) != n_p:
            raise ConfigMismatchError(f"interferer {k} must supply {n_p} composites")
    per_frame = _mai_mass(interferer_sets, templates, config)
    scale = config.frames_per_symbol * config.hop_positions**2
    total = float(per_frame.sum() / scale)
    out_var = float(per_frame.sum() / (n_p * config.hop_positions**2))
    return MaiVariance(per_frame, total, out_var)


def mai_variance_classical(u, v, config: SystemConfig) -> float:
    """Single-pulse MAI variance sigma2_M(k) for one interferer.

    (1/T_f) sum_{|l|<N_h} (N_h - |l|) int_{-T_f}^{T_f} phi_uv^2(l T_c + tau) dtau,
    which frame containment reduces to (N_h^2 / T_f) int phi_uv^2(x) dx,
    evaluated by the same spectral sum as mai_variance_multi.  The 1/N_h^2
    factor is NOT included here; bep_single applies 1/(N_f N_h^2) to the
    sum over interferers, consistently with mai_variance_multi.
    """
    return float(_mai_mass([[u]], [v], config)[0, 0])


def noise_variance(templates, config: SystemConfig) -> float:
    """Variance of the correlator output noise:
    noise_sigma^2 * (N_f / N_p) * sum_j phi_{v_j}(0)."""
    if len(templates) != config.pulse_types:
        raise ConfigMismatchError(f"need {config.pulse_types} templates")
    energy = sum(v.energy for v in templates)
    return config.noise_sigma**2 * config.frames_per_symbol / config.pulse_types * energy


@dataclass(frozen=True)
class BepResult:
    """One conditional bit-error-probability evaluation.

    signal_term is the numerator, mai_term and noise_term the two
    denominator variance contributions, pe = Q(signal / sqrt(mai + noise)).
    """

    signal_term: float
    mai_term: float
    noise_term: float
    pe: float


def _bep_from_terms(signal: float, mai: float, noise: float) -> BepResult:
    denom = mai + noise
    if denom <= 0.0:
        raise DegenerateInputError("BEP denominator is zero: no interference and no noise")
    return BepResult(signal, mai, noise, qfunc(signal / math.sqrt(denom)))


def bep_multi(desired, templates, mai, config: SystemConfig) -> BepResult:
    """Approximate BEP of the N_p-pulse system, conditioned on the channels.

    pe = Q( (1/sqrt N_p) sum_j phi_{u_j v_j}(0)
            / sqrt(mai_total + noise_sigma^2 sum_j phi_{v_j}(0)) ),
    with mai_total the (1/(N_f N_h^2))-scaled sum from mai_variance_multi.
    """
    n_p = config.pulse_types
    if len(desired) != n_p or len(templates) != n_p:
        raise ConfigMismatchError(f"need {n_p} desired composites and templates")
    signal = sum(decision_statistic(u, v) for u, v in zip(desired, templates)) / math.sqrt(n_p)
    mai_term = float(mai.total) if isinstance(mai, MaiVariance) else float(mai)
    noise_term = config.noise_sigma**2 * sum(v.energy for v in templates)
    return _bep_from_terms(signal, mai_term, noise_term)


def bep_single(u, v, interferer_variances, config: SystemConfig) -> BepResult:
    """Single-pulse BEP:
    pe = Q( phi_uv(0) / sqrt((1/(N_f N_h^2)) sum_k sigma2_M(k)
                             + noise_sigma^2 phi_v(0)) )."""
    signal = decision_statistic(u, v)
    var_sum = float(np.sum(np.asarray(interferer_variances, dtype=float)))
    mai_term = var_sum / (config.frames_per_symbol * config.hop_positions**2)
    noise_term = config.noise_sigma**2 * v.energy
    return _bep_from_terms(signal, mai_term, noise_term)


@dataclass(frozen=True, eq=False)
class AveragedBep:
    """Channel-ensemble average of the conditional BEP over a noise sweep."""

    noise_sigmas: np.ndarray
    pe: np.ndarray
    stderr: np.ndarray
    n_realizations: int
    mean_mai_output_variance: float


def conditional_bep_terms(
    config: SystemConfig,
    pulses,
    desired_chan,
    interferer_chans,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
):
    """(signal, MaiVariance, template-energy) for one set of realizations.

    The noise term for noise amplitude s is s**2 times the returned
    template energy, so a noise sweep can reuse these terms.
    """
    beta = select_combiner(desired_chan, scheme, selection, n_paths)
    desired = [composite_waveform(p, desired_chan, desired_chan.gains) for p in pulses]
    templates = [composite_waveform(p, desired_chan, beta) for p in pulses]
    interferer_sets = [
        [composite_waveform(p, ch, ch.gains) for p in pulses] for ch in interferer_chans
    ]
    n_p = config.pulse_types
    signal = sum(decision_statistic(u, v) for u, v in zip(desired, templates)) / math.sqrt(n_p)
    mai = mai_variance_multi(interferer_sets, templates, config)
    energy = sum(v.energy for v in templates)
    return signal, mai, energy


def bep_averaged(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_realizations: int,
    rng: np.random.Generator,
    scheme: str = "mrc",
    selection: str = "all",
    n_paths: int | None = None,
    noise_sigmas=None,
) -> AveragedBep:
    """Mean conditional BEP over independent channel draws.

    Each realization draws one desired channel from channel_params and
    n_users - 1 interferer channels with power_scale multiplied by
    config.interferer_power.  The same ensemble is reused for every noise
    amplitude in the sweep.
    """
    if n_realizations < 1:
        raise InvalidParameterError("n_realizations must be >= 1")
    sigmas = np.atleast_1d(
        np.asarray(noise_sigmas if noise_sigmas is not None else [config.noise_sigma], dtype=float)
    )
    pes = np.zeros((n_realizations, len(sigmas)))
    mai_out = np.zeros(n_realizations)
    for i in range(n_realizations):
        desired, interferers = draw_channels(channel_params, config, rng, config.n_users - 1)
        signal, mai, energy = conditional_bep_terms(
            config, pulses, desired, interferers, scheme, selection, n_paths
        )
        mai_out[i] = mai.output_variance
        denom = mai.total + sigmas**2 * energy
        if np.any(denom <= 0.0):
            raise DegenerateInputError("BEP denominator is zero")
        pes[i] = qfunc(signal / np.sqrt(denom))
    pe = pes.mean(axis=0)
    stderr = (
        pes.std(axis=0, ddof=1) / math.sqrt(n_realizations)
        if n_realizations > 1
        else np.zeros(len(sigmas))
    )
    return AveragedBep(sigmas, pe, stderr, n_realizations, float(mai_out.mean()))
