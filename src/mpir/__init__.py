"""Multi-pulse impulse-radio UWB link simulator and analysis library.

Modules by concern: pulses (the sampled Waveform type, pulses and
correlations), spectral (average PSD, analytic and empirical), channel
(multipath generation and composites), transceiver (signal assembly and
RAKE detection), analysis (closed-form MAI/noise/BEP), montecarlo
(correlation-table BER and oracle estimators), cli (batch experiments).
"""

from .analysis import BepResult, MaiVariance, bep_averaged, bep_multi, bep_single, qfunc
from .channel import ChannelParams, ChannelRealization, composite_waveform, sample_channel
from .montecarlo import BerEstimate, TrialPlan, rng_stream, run_ber, run_ber_sweep
from .pulses import CorrelationFunction, Spectrum, Waveform, cross_correlation, make_mhp, normalize_energy, pulse_spectrum
from .spectral import SpectralDensity, analytic_autocorrelation, analytic_psd, empirical_psd, psd_mismatch
from .transceiver import CodeSequences, SystemConfig, decision_statistic, generate_codes, select_combiner, transmit_block

__version__ = "0.1.0"
