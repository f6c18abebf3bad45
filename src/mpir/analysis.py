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
  phi^2 at the waveform sample step.  ``mai_variance_multi`` takes that
  sum by discrete Parseval on the pulse and tap-train spectra of the
  channel draw, with no composite; ``mai_variance_classical`` takes it in
  the time domain on the cross-correlation table.  Being separate, the
  single-pulse reduction holds to rounding (below 1e-15 relative), and a
  fault in either shows.  A geometry outside containment raises
  InfeasibleGeometryError.
* The RAKE combiner is a SystemConfig setting (scheme, selection,
  combiner_paths).  conditional_bep_terms reads the signal, the template
  energy and the MAI from the tap-train spectra of transceiver._draw_spectra,
  the spectral core the BER engine reads too, with no composite.
* sga_bep is the one evaluation of Q(signal / sqrt(mai + s^2 energy)).
  bep_averaged runs conditional_bep_terms then sga_bep per realization;
  bep_single is the classical reference that path reduces to at N_p = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, draw_channels
from .errors import ConfigMismatchError, DegenerateInputError, InvalidParameterError
from .pulses import _common_dt, cross_correlation
from .transceiver import SystemConfig, _check_frame_separable, _check_frame_span, _draw_spectra
from .transceiver import decision_statistic

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
        per_frame.setflags(write=False)
        object.__setattr__(self, "per_frame", per_frame)


def mai_variance_multi(config: SystemConfig, pulses, desired_chan, interferer_chans) -> MaiVariance:
    """Conditional MAI variances for every (interferer, frame type) pair
    on one channel draw, under the RAKE combiner of ``config``: the
    MaiVariance of conditional_bep_terms, which derives it."""
    return conditional_bep_terms(config, pulses, desired_chan, interferer_chans)[1]


def mai_variance_classical(u, v, config: SystemConfig) -> float:
    """Single-pulse MAI variance sigma2_M(k) for one interferer.

    (1/T_f) sum_{|l|<N_h} (N_h - |l|) int_{-T_f}^{T_f} phi_uv^2(l T_c + tau) dtau,
    which frame containment reduces to (N_h^2 / T_f) int phi_uv^2(x) dx,
    evaluated here in the time domain on the pulses.cross_correlation
    table, independently of mai_variance_multi's spectral sum.  The 1/N_h^2
    factor is NOT included here; bep_single applies 1/(N_f N_h^2) to the
    sum over interferers, consistently with mai_variance_multi.
    """
    dt = _common_dt((v, u))
    _check_frame_separable((v, u), config, dt)
    phi = cross_correlation(u, v).samples
    return config.hop_positions**2 / config.frame_time * dt * float(np.dot(phi, phi))


def noise_variance(templates, config: SystemConfig) -> float:
    """Variance of the correlator output noise at unit noise amplitude:
    (N_f / N_p) * sum_j phi_{v_j}(0), the energy of one bit's template."""
    if len(templates) != config.pulse_types:
        raise ConfigMismatchError(f"need {config.pulse_types} templates")
    return _noise_energy(sum(v.energy for v in templates), config)


def _noise_energy(template_energy: float, config: SystemConfig) -> float:
    """(N_f / N_p) times the templates' energy sum_j E(v_j)."""
    return config.frames_per_symbol / config.pulse_types * template_energy


def sga_bep(signal: float, mai: float, energy: float, noise_sigmas):
    """Standard-Gaussian-approximation BEP at each noise amplitude s:
    Q(signal / sqrt(mai + s^2 * energy)).

    ``mai`` is the (1/(N_f N_h^2))-scaled MAI sum (MaiVariance.total) and
    ``energy`` the template energy sum_j phi_{v_j}(0), so s^2 * energy is the
    noise term.  The root is taken as hypot(sqrt(mai), s sqrt(energy)), so
    no s^2 overflows for a finite s.  A scalar s gives a float; an array
    gives an array of the same shape, equal bit for bit to the scalar calls.
    """
    denom = np.hypot(math.sqrt(mai), np.multiply(noise_sigmas, math.sqrt(energy)))
    if np.any(denom <= 0.0):
        raise DegenerateInputError("BEP denominator is zero: no interference and no noise")
    return qfunc(signal / denom)


def bep_single(u, v, interferer_variances, config: SystemConfig, noise_sigma: float) -> float:
    """Classical single-pulse BEP, the reference the N_p = 1 case of the
    multi-pulse expression reduces to:
    pe = Q( phi_uv(0) / sqrt((1/(N_f N_h^2)) sum_k sigma2_M(k)
                             + noise_sigma^2 phi_v(0)) )."""
    var_sum = float(np.sum(np.asarray(interferer_variances, dtype=float)))
    mai = var_sum / (config.frames_per_symbol * config.hop_positions**2)
    return sga_bep(decision_statistic(u, v), mai, v.energy, noise_sigma)


@dataclass(frozen=True, eq=False)
class AveragedBep:
    """Channel-ensemble average of the conditional BEP over a noise sweep."""

    noise_sigmas: np.ndarray
    pe: np.ndarray
    stderr: np.ndarray
    n_realizations: int
    mean_mai_output_variance: float


def conditional_bep_terms(config: SystemConfig, pulses, desired_chan, interferer_chans):
    """(signal, MaiVariance, template-energy) for one set of realizations,
    under the RAKE combiner of ``config``, with no composite.

    u_r = p_r * h_k and v_j = p_j * b are the composites of user k (k = 0
    desired) and the templates, read from the spectra P_r, H_k and
    T_j = P_j B of transceiver._draw_spectra, where Parseval makes a
    time-domain sum dt / nfft * sum_f w_f over the rfft bins:
    signal = sum_j phi_{u_j v_j}(0) / sqrt(N_p)
           = sum_j dt/nfft sum_f w_f Re(P_j H_0 conj T_j) / sqrt(N_p),
    and the energy is the core's sum_j E(v_j).
    Frame containment puts the whole support of phi_{u_r v_j} inside every
    window of the MAI lag integral, so sigma2_M(k, j) = N_h^2 / (N_p T_f)
    * sum_r dt * sum_x phi_{u_r v_j}^2[x], where sum_x phi^2[x] = dt^2 / nfft
    * sum_f w_f |P_r H_k|^2 |T_j|^2.  The noise term for noise amplitude s
    is s**2 times the returned energy, so a noise sweep can reuse these terms.
    """
    sp = _draw_spectra(config, pulses, desired_chan, interferer_chans)
    dt, nfft = sp.dt, sp.nfft
    _check_frame_span(sp.first, sp.first + sp.gains.shape[1] + sp.window - 1, config, dt)  # every composite
    spectra = np.fft.rfft(sp.gains, nfft)  # row 0 is H_0, row k is H_k
    signal = dt / nfft * float(sp.weights @ (sp.pulses * spectra[0] * np.conj(sp.templates)).real.sum(axis=0))
    tap_power = np.abs(spectra[1:])
    del spectra  # the complex spectra, twice |.|'s size, are not kept beside its square
    tap_power **= 2
    template_power = sp.weights * np.abs(sp.templates) ** 2
    scale = config.hop_positions**2 * dt**3 / (config.pulse_types * config.frame_time * nfft)
    per_frame = (tap_power * (np.abs(sp.pulses) ** 2).sum(axis=0)) @ template_power.T * scale
    total = float(per_frame.sum() / (config.frames_per_symbol * config.hop_positions**2))
    out_var = float(per_frame.sum() / (config.pulse_types * config.hop_positions**2))
    return signal / math.sqrt(config.pulse_types), MaiVariance(per_frame, total, out_var), sp.energy


def bep_averaged(
    config: SystemConfig,
    pulses,
    channel_params: ChannelParams,
    n_realizations: int,
    rng: np.random.Generator,
    noise_sigmas,
) -> AveragedBep:
    """Mean conditional BEP over independent channel draws, under the RAKE
    combiner of ``config``.

    Each realization draws one desired channel from channel_params and
    n_users - 1 interferer channels with power_scale multiplied by
    config.interferer_power.  The same ensemble is reused for every noise
    amplitude in ``noise_sigmas``.
    """
    if n_realizations < 1:
        raise InvalidParameterError("n_realizations must be >= 1")
    sigmas = np.atleast_1d(np.asarray(noise_sigmas, dtype=float))
    pes = np.zeros((n_realizations, len(sigmas)))
    mai_out = np.zeros(n_realizations)
    for i in range(n_realizations):
        desired, interferers = draw_channels(channel_params, config, rng, config.n_users - 1)
        signal, mai, energy = conditional_bep_terms(config, pulses, desired, interferers)
        mai_out[i] = mai.output_variance
        pes[i] = sga_bep(signal, mai.total, energy, sigmas)
    pe = pes.mean(axis=0)
    stderr = (
        pes.std(axis=0, ddof=1) / math.sqrt(n_realizations)
        if n_realizations > 1
        else np.zeros(len(sigmas))
    )
    return AveragedBep(sigmas, pe, stderr, n_realizations, float(mai_out.mean()))
