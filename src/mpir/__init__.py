"""Multi-pulse impulse-radio UWB link simulator and analysis library.

Modules by concern: pulses (the sampled Waveform type for time and lag
grids, pulses and correlations), spectral (the SpectralDensity type for
frequency grids, pulse spectra, average PSD analytic and empirical), channel
(multipath generation and composites), transceiver (signal assembly and
RAKE detection), analysis (closed-form MAI/noise/BEP), montecarlo
(correlation-table BER and oracle estimators), cli (batch experiments).
"""

from .analysis import MaiVariance, bep_averaged, qfunc, sga_bep
from .channel import ChannelParams, ChannelRealization, composite_waveform, sample_channel, sample_channels
from .montecarlo import BerEstimate, TrialPlan, rng_stream, run_ber, run_ber_sweep
from .pulses import Waveform, cross_correlation, make_mhp
from .spectral import SpectralDensity, analytic_psd, empirical_psd, psd_mismatch
from .transceiver import CodeSequences, SystemConfig, generate_codes, transmit_block

__version__ = "0.1.0"
