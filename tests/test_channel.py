import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpir.channel import (
    ChannelParams,
    ChannelRealization,
    channel_from_csv,
    channel_to_csv,
    composite_waveform,
    mean_log_gain,
    sample_channel,
)
from mpir.errors import InfeasibleGeometryError, InvalidParameterError
from mpir.montecarlo import rng_stream
from mpir.pulses import grid_index, make_mhp
from mpir.transceiver import SystemConfig


def wide_open_config():
    """A config whose containment bound never rejects (T_f = 1e6 ns)."""
    return SystemConfig(
        n_users=2, frames_per_symbol=1, chips_per_frame=1_000_000,
        hop_positions=1, pulse_types=1, chip_time=1.0,
    )


class TestMeanLogGain:
    def test_reference_value(self, reference_channel):
        # direct evaluation of the closed form with independent arithmetic
        lam, var, n = 0.5, 1.0, 20
        omega0 = (1 - math.exp(-lam)) / (1 - math.exp(-lam * n))
        want = 0.5 * (math.log(omega0) - 0.0 - 2 * var)
        got = mean_log_gain(reference_channel, 0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-1.4663534, abs=2e-6)

    def test_affine_in_path_index(self, reference_channel):
        for l in range(reference_channel.n_paths - 1):
            step = mean_log_gain(reference_channel, l) - mean_log_gain(reference_channel, l + 1)
            assert step == pytest.approx(reference_channel.decay_rate / 2, abs=1e-12)

    def test_mean_energies_sum_to_one(self, reference_channel):
        # geometric-series oracle: sum_l e^(2 mu_l + 2 var) == 1
        total = sum(
            math.exp(2 * mean_log_gain(reference_channel, l) + 2 * reference_channel.lognorm_var)
            for l in range(reference_channel.n_paths)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_path(self, reference_channel):
        with pytest.raises(InvalidParameterError):
            mean_log_gain(reference_channel, 20)
        with pytest.raises(InvalidParameterError):
            mean_log_gain(reference_channel, -1)


class TestSampleChannel:
    def test_mean_energy_near_one(self, reference_channel, reference_config):
        rng = rng_stream(77, 0)
        n = 20_000
        energies = [
            sample_channel(reference_channel, reference_config, rng).energy for _ in range(n)
        ]
        assert np.mean(energies) == pytest.approx(1.0, abs=0.05)

    def test_delays_structure(self, reference_channel, reference_config):
        rng = rng_stream(77, 1)
        chan = sample_channel(reference_channel, reference_config, rng)
        assert chan.delays[0] == 0.0
        assert np.all(np.diff(chan.delays) > 0)
        bound = reference_config.frame_time - reference_config.hop_positions * reference_config.chip_time
        assert chan.delays[-1] < bound

    def test_unconditioned_mean_last_delay(self, reference_channel):
        # without the containment filter, E[last delay] = (L-1) * mean_arrival
        rng = rng_stream(77, 2)
        cfg = wide_open_config()
        n = 20_000
        last = [sample_channel(reference_channel, cfg, rng).delays[-1] for _ in range(n)]
        assert np.mean(last) == pytest.approx(28.5, rel=0.01)

    def test_exponential_decay_profile(self, reference_channel):
        rng = rng_stream(77, 3)
        cfg = wide_open_config()
        n = 100_000
        gains = np.array([sample_channel(reference_channel, cfg, rng).gains for _ in range(n)])
        mean_sq = (gains**2).mean(axis=0)
        ratios = mean_sq[:-1] / mean_sq[1:]
        geo_mean = math.exp(np.mean(np.log(ratios)))
        assert geo_mean == pytest.approx(math.exp(reference_channel.decay_rate), rel=0.05)
        assert np.all(np.abs(ratios / math.exp(reference_channel.decay_rate) - 1) < 0.25)

    def test_sign_symmetry(self, reference_channel):
        rng = rng_stream(77, 4)
        cfg = wide_open_config()
        n = 30_000
        gains = np.array([sample_channel(reference_channel, cfg, rng).gains for _ in range(n)])
        std = gains.std(axis=0)
        assert np.all(np.abs(gains.mean(axis=0)) < 4 * std / math.sqrt(n))

    def test_power_scale_multiplies_energy(self, reference_channel, reference_config):
        rng = rng_stream(77, 5)
        strong = replace(reference_channel, power_scale=5.0)
        n = 20_000
        energies = [sample_channel(strong, reference_config, rng).energy for _ in range(n)]
        assert np.mean(energies) == pytest.approx(5.0, rel=0.05)

    @given(seed=st.integers(0, 2**32 - 1), n_paths=st.integers(1, 40),
           decay=st.floats(0.01, 3.0), var=st.floats(0.0, 2.0), scale=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_path_means_are_mean_log_gain(self, seed, n_paths, decay, var, scale):
        # the gains are drawn around mean_log_gain(params, l) for every l,
        # bit for bit: replay the draw with the per-path scalar means
        params = ChannelParams(n_paths, decay, var, mean_arrival=1.0, power_scale=scale)
        chan = sample_channel(params, wide_open_config(), np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        mu = np.array([mean_log_gain(params, l) for l in range(n_paths)])
        magnitudes = np.exp(mu + math.sqrt(var) * rng.standard_normal(n_paths))
        signs = rng.integers(0, 2, size=n_paths) * 2 - 1
        assert np.array_equal(chan.gains, math.sqrt(scale) * magnitudes * signs)

    def test_infeasible_geometry(self, reference_channel):
        # frame shorter than any 20-path spread can realistically satisfy
        cfg = SystemConfig(
            n_users=2, frames_per_symbol=1, chips_per_frame=2,
            hop_positions=1, pulse_types=1, chip_time=1.0,
        )
        with pytest.raises(InfeasibleGeometryError):
            sample_channel(reference_channel, cfg, rng_stream(77, 6))


class TestCompositeWaveform:
    def test_single_path_identity(self, mhp4):
        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        comp = composite_waveform(mhp4, chan, np.array([1.0]))
        assert np.array_equal(comp.samples, mhp4.samples)
        assert comp.t0 == mhp4.t0

    def test_disjoint_paths_double_energy(self, mhp4):
        span = (len(mhp4.samples) + 5) * mhp4.dt
        chan = ChannelRealization(np.array([1.0, 1.0]), np.array([0.0, span]))
        comp = composite_waveform(mhp4, chan, chan.gains)
        assert comp.energy == pytest.approx(2 * mhp4.energy, rel=1e-12)

    def test_matches_naive_shift_and_add(self, mhp4, reference_channel, reference_config):
        rng = rng_stream(78, 0)
        chan = sample_channel(reference_channel, reference_config, rng)
        comp = composite_waveform(mhp4, chan, chan.gains)
        # naive per-path oracle on the untrimmed grid
        dt = mhp4.dt
        offs = [round(d / dt) for d in chan.delays]
        full = np.zeros(max(offs) + len(mhp4.samples))
        for w, k in zip(chan.gains, offs):
            for i, s in enumerate(mhp4.samples):
                full[k + i] += w * s
        nz = np.flatnonzero(full)
        assert np.array_equal(comp.samples, full[nz[0] : nz[-1] + 1])
        assert comp.t0 == pytest.approx(mhp4.t0 + nz[0] * dt)

    @given(seed=st.integers(0, 2**32 - 1), dt=st.sampled_from([0.02, 2.0**-6]),
           ties=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_delay_snapping_matches_grid_index(self, seed, dt, ties):
        # composites are bit-identical to snapping each delay with
        # grid_index, including delays on exact half-sample ties (exact
        # for the power-of-two step)
        rng = np.random.default_rng(seed)
        pulse = make_mhp(4, 0.05, dt)
        n = 8
        idx = np.sort(rng.choice(np.arange(1, 400), n - 1, replace=False))
        frac = rng.uniform(0.0, 1.0, n - 1)
        frac[rng.permutation(n - 1)[:ties]] = 0.5
        delays = np.concatenate(([0.0], (idx + frac) * dt))
        if dt == 2.0**-6:
            assert np.count_nonzero(delays / dt % 1 == 0.5) >= ties
        chan = ChannelRealization(rng.normal(size=n), delays)
        weights = rng.normal(size=n)
        weights[rng.integers(0, n)] = 0.0

        offsets = [grid_index(d, dt) for d in chan.delays]
        full = np.zeros(offsets[-1] + len(pulse.samples))
        for w, k in zip(weights, offsets):
            if w != 0.0:
                full[k : k + len(pulse.samples)] += w * pulse.samples
        nz = np.flatnonzero(full)
        comp = composite_waveform(pulse, chan, weights)
        assert np.array_equal(comp.samples, full[nz[0] : nz[-1] + 1])
        assert comp.t0 == pulse.t0 + int(nz[0]) * dt

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_weights(self, seed):
        rng = np.random.default_rng(seed)
        pulse = None
        from mpir.pulses import make_mhp

        pulse = make_mhp(2, 0.05, 0.02)
        delays = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 5.0, 4))))
        chan = ChannelRealization(rng.normal(size=5), delays)
        w1 = rng.normal(size=5)
        w2 = rng.normal(size=5)
        a = composite_waveform(pulse, chan, w1)
        b = composite_waveform(pulse, chan, w2)
        c = composite_waveform(pulse, chan, w1 + w2)

        def on_common(comp, n, lead):
            out = np.zeros(n)
            k = round((comp.t0 - pulse.t0) / pulse.dt) - lead
            out[k : k + len(comp.samples)] = comp.samples
            return out

        lead = min(round((x.t0 - pulse.t0) / pulse.dt) for x in (a, b, c))
        n = 2048
        assert np.allclose(
            on_common(c, n, lead), on_common(a, n, lead) + on_common(b, n, lead), atol=1e-12
        )

    def test_weight_length_checked(self, mhp4):
        chan = ChannelRealization(np.array([1.0, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidParameterError):
            composite_waveform(mhp4, chan, np.array([1.0]))


class TestSerialization:
    def test_round_trip_exact(self, reference_channel, reference_config):
        chan = sample_channel(reference_channel, reference_config, rng_stream(79, 0))
        back = channel_from_csv(channel_to_csv(chan))
        assert np.array_equal(back.gains, chan.gains)
        assert np.array_equal(back.delays, chan.delays)

    def test_header_required(self):
        with pytest.raises(InvalidParameterError):
            channel_from_csv("0,1.0,0.0\n")
