import math
from dataclasses import replace

import numpy as np
import pytest

from mpir.errors import ConfigMismatchError, GridMismatchError, InsufficientDataError
from mpir.montecarlo import rng_stream
from mpir.pulses import Waveform, grid_index, make_mhp
from mpir.spectral import (
    SpectralDensity,
    analytic_autocorrelation,
    analytic_psd,
    band_containing,
    empirical_psd,
    psd_mismatch,
)
from mpir.transceiver import SystemConfig, generate_codes, transmit_block

DT = 0.02


def single_pulse_config(**kw):
    defaults = dict(
        n_users=1, frames_per_symbol=2, chips_per_frame=8,
        hop_positions=2, pulse_types=1, chip_time=1.0, noise_sigma=0.0,
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


def aligned_signal(config, pulses, n_symbols, rng):
    """Noise-free single-user block trimmed so segments start on a frame origin."""
    bits = rng.integers(0, 2, n_symbols) * 2 - 1
    codes = generate_codes(config, n_symbols * config.frames_per_symbol, rng)
    block = transmit_block(config, pulses, bits, codes)
    trim = -grid_index(block.t0, DT) + min(grid_index(p.t0, DT) for p in pulses)
    return Waveform(block.samples[trim:], DT, 0.0)


class TestAnalyticAutocorrelation:
    def test_single_pulse_peak_value(self, mhp4):
        cfg = single_pulse_config()
        ac = analytic_autocorrelation([mhp4], cfg)
        peak = ac.values[np.argmin(np.abs(ac.lags))]
        assert peak == pytest.approx(
            1.0 / (cfg.frame_time * cfg.frames_per_symbol), rel=1e-9
        )

    def test_even_in_lag(self, mhp4, mhp5):
        cfg = single_pulse_config(pulse_types=2)
        ac = analytic_autocorrelation([mhp4, mhp5], cfg)
        assert np.max(np.abs(ac.values - ac.values[::-1])) < 1e-12

    def test_pair_is_mean_of_singles(self, mhp4, mhp5):
        cfg2 = single_pulse_config(pulse_types=2)
        cfg1 = single_pulse_config()
        pair = analytic_autocorrelation([mhp4, mhp5], cfg2)
        s4 = analytic_autocorrelation([mhp4], cfg1)
        s5 = analytic_autocorrelation([mhp5], cfg1)

        def embed(ac, lags):
            out = np.zeros(len(lags))
            half_in = (len(ac.values) - 1) // 2
            half_out = (len(lags) - 1) // 2
            out[half_out - half_in : half_out + half_in + 1] = ac.values
            return out

        want = 0.5 * (embed(s4, pair.lags) + embed(s5, pair.lags))
        assert np.allclose(pair.values, want, atol=1e-15)

    def test_peak_dominates(self, mhp4):
        ac = analytic_autocorrelation([mhp4], single_pulse_config())
        peak = ac.values[np.argmin(np.abs(ac.lags))]
        assert np.all(peak >= np.abs(ac.values) - 1e-15)

    def test_pulse_count_checked(self, mhp4):
        with pytest.raises(ConfigMismatchError):
            analytic_autocorrelation([mhp4], single_pulse_config(pulse_types=2))


class TestAnalyticPsd:
    def test_total_power_is_inverse_symbol_time(self, mhp4, mhp5):
        cfg = single_pulse_config(pulse_types=2)
        sd = analytic_psd([mhp4, mhp5], cfg, 2048)
        df = sd.freqs[1] - sd.freqs[0]
        assert np.sum(sd.psd) * df == pytest.approx(1.0 / cfg.symbol_time, rel=5e-3)

    def test_single_pulse_equals_scaled_spectrum(self, mhp4):
        from mpir.pulses import pulse_spectrum

        cfg = single_pulse_config()
        sd = analytic_psd([mhp4], cfg, 1024)
        spec = pulse_spectrum(mhp4, 1024)
        assert np.allclose(sd.psd, spec.magnitude_sq / cfg.symbol_time, rtol=1e-12)

    def test_pair_is_pointwise_mean(self, mhp4, mhp5):
        cfg2 = single_pulse_config(pulse_types=2)
        cfg1 = single_pulse_config()
        pair = analytic_psd([mhp4, mhp5], cfg2, 1024)
        s4 = analytic_psd([mhp4], cfg1, 1024)
        s5 = analytic_psd([mhp5], cfg1, 1024)
        assert np.allclose(pair.psd, 0.5 * (s4.psd + s5.psd), rtol=1e-12)

    def test_wiener_khinchin_consistency(self, mhp4, mhp5):
        # transform of the average autocorrelation equals the average PSD
        cfg = single_pulse_config(pulse_types=2)
        ac = analytic_autocorrelation([mhp4, mhp5], cfg)
        n = 4096
        sd = analytic_psd([mhp4, mhp5], cfg, n)
        raw = np.fft.fft(ac.values, n) * DT
        phase = np.exp(-2j * np.pi * np.fft.fftfreq(n, DT) * ac.lags[0])
        transformed = np.fft.fftshift((raw * phase).real)
        num = np.sqrt(np.sum((transformed - sd.psd) ** 2))
        den = np.sqrt(np.sum(sd.psd**2))
        assert num / den < 1e-3


class TestEmpiricalPsd:
    def test_zero_signal_gives_zero_psd(self):
        sig = Waveform(np.zeros(4000), DT, 0.0)
        sd = empirical_psd(sig, 400, 10)
        assert np.all(sd.psd == 0.0)

    def test_matches_analytic_for_reference_pair(self, mhp4, mhp5):
        cfg = single_pulse_config(
            pulse_types=2, chips_per_frame=40, hop_positions=3
        )
        rng = rng_stream(21, 0)
        n_sym = 300
        sig = aligned_signal(cfg, [mhp4, mhp5], n_sym, rng)
        seg = cfg.symbol_samples(DT)
        emp = empirical_psd(sig, seg, n_sym, symbol_samples=seg)
        ana = analytic_psd([mhp4, mhp5], cfg, seg)
        band = band_containing(ana, 0.99)
        assert psd_mismatch(ana, emp, band) < 0.10

    def test_more_segments_reduce_mismatch(self, mhp4):
        # statistical: average over 20 seeds, doubling segments cannot hurt
        cfg = single_pulse_config(chips_per_frame=10, hop_positions=2)
        seg = cfg.symbol_samples(DT)
        ana = analytic_psd([mhp4], cfg, seg)
        band = band_containing(ana, 0.99)
        short, long = [], []
        for seed in range(20):
            rng = rng_stream(400 + seed, 0)
            sig = aligned_signal(cfg, [mhp4], 120, rng)
            half = Waveform(sig.samples[: 60 * seg], DT, 0.0)
            short.append(psd_mismatch(ana, empirical_psd(half, seg, 60), band))
            long.append(psd_mismatch(ana, empirical_psd(sig, seg, 120), band))
        assert np.mean(long) <= np.mean(short)

    def test_insufficient_data(self):
        sig = Waveform(np.zeros(100), DT, 0.0)
        with pytest.raises(InsufficientDataError):
            empirical_psd(sig, 50, 3)

    def test_symbol_alignment_checked(self):
        from mpir.errors import InvalidParameterError

        sig = Waveform(np.zeros(4000), DT, 0.0)
        with pytest.raises(InvalidParameterError):
            empirical_psd(sig, 300, 2, symbol_samples=400)


class TestCyclostationarity:
    def test_ensemble_autocorrelation_periodic(self, mhp4, mhp5):
        # N_f = 4, N_p = 2: the process period N_p*T_f is shorter than the
        # symbol; the ensemble autocorrelation at (t, t+tau) must match at
        # (t + N_p*T_f, tau) within Monte Carlo resolution.
        cfg = single_pulse_config(
            frames_per_symbol=4, pulse_types=2, chips_per_frame=6, hop_positions=2
        )
        pulses = [mhp4, mhp5]
        period = cfg.pulse_types * cfg.frame_samples(DT)
        probes = [(35, 10), (317, 3), (512, 40)]
        n_draws = 10_000
        rng = rng_stream(22, 0)
        prods = {p: ([], []) for p in probes}
        for _ in range(n_draws):
            sig = aligned_signal(cfg, pulses, 2, rng)
            s = sig.samples
            for (t_idx, lag_idx), (first, second) in prods.items():
                first.append(s[t_idx + lag_idx] * s[t_idx])
                second.append(s[t_idx + period + lag_idx] * s[t_idx + period])
        for probe, (first, second) in prods.items():
            a, b = np.array(first), np.array(second)
            diff = a.mean() - b.mean()
            se = math.sqrt(a.var() / n_draws + b.var() / n_draws)
            assert abs(diff) <= 3 * max(se, 1e-12), probe


class TestPsdMismatch:
    def test_identical_is_zero(self, mhp4):
        sd = analytic_psd([mhp4], single_pulse_config(), 512)
        assert psd_mismatch(sd, sd, (-5.0, 5.0)) == 0.0

    def test_scaling_by_1p1_gives_0p1(self, mhp4):
        sd = analytic_psd([mhp4], single_pulse_config(), 512)
        scaled = SpectralDensity(sd.freqs, 1.1 * sd.psd)
        assert psd_mismatch(sd, scaled, (-5.0, 5.0)) == pytest.approx(0.1, abs=1e-12)

    def test_grid_mismatch_rejected(self, mhp4):
        a = analytic_psd([mhp4], single_pulse_config(), 512)
        b = analytic_psd([mhp4], single_pulse_config(), 1024)
        with pytest.raises(GridMismatchError):
            psd_mismatch(a, b, (-5.0, 5.0))

    def test_band_containing_monotone(self, mhp4):
        sd = analytic_psd([mhp4], single_pulse_config(), 2048)
        lo99, hi99 = band_containing(sd, 0.99)
        lo50, hi50 = band_containing(sd, 0.50)
        assert hi50 <= hi99
        assert lo99 == -hi99

    def test_band_containing_returns_python_floats(self, mhp4):
        # psd.csv formats the band edges with repr; numpy scalars would
        # print as np.float64(...)
        lo, hi = band_containing(analytic_psd([mhp4], single_pulse_config(), 512), 0.99)
        assert type(lo) is float and type(hi) is float
