import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpir import montecarlo
from mpir.analysis import qfunc
from mpir.channel import ChannelParams, composite_waveform
from mpir.errors import InfeasibleGeometryError, InvalidParameterError
from mpir.montecarlo import (
    BerEstimate,
    TrialPlan,
    estimate_mai_variance,
    estimate_noise_variance,
    realization_channels,
    rng_stream,
    run_ber,
    run_ber_sweep,
    wilson_bounds,
    wilson_halfwidth,
)
from mpir.pulses import grid_index, lookup, make_mhp
from mpir.transceiver import (
    SystemConfig,
    _assemble,
    compose_received,
    generate_codes,
    received_block,
    select_combiner,
)

DT = 0.02


def awgn_config(noise_sigma=1.0):
    return SystemConfig(
        n_users=1, frames_per_symbol=1, chips_per_frame=8,
        hop_positions=1, pulse_types=1, chip_time=1.0,
        noise_sigma=noise_sigma, interferer_power=1.0,
    )


def awgn_channel():
    # L=1, lognorm_var=0 makes |gain| exactly 1; the random sign does not
    # affect MRC detection
    return ChannelParams(n_paths=1, decay_rate=1.0, lognorm_var=0.0, mean_arrival=1.0)


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(9, 1, 2).standard_normal(8)
        b = rng_stream(9, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = rng_stream(9, 1, 2).standard_normal(8)
        b = rng_stream(9, 1, 3).standard_normal(8)
        c = rng_stream(10, 1, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_counter_based_bit_generator(self):
        assert type(rng_stream(0).bit_generator).__name__ == "Philox"


class TestWilson:
    def test_halfwidth_positive_and_shrinking(self):
        wide = wilson_halfwidth(10, 100)
        narrow = wilson_halfwidth(100, 1000)
        assert 0 < narrow < wide

    def test_coverage_on_synthetic_bernoulli(self):
        # the 95% interval must cover the true p in >= 93% of 1000 repeats
        p = 0.04
        n = 2000
        rng = np.random.default_rng(55)
        errors = rng.binomial(n, p, size=1000)
        covered = 0
        for e in errors:
            lo, hi = wilson_bounds(int(e), n)
            covered += lo <= p <= hi
        assert covered >= 930

    def test_input_validation(self):
        with pytest.raises(InvalidParameterError):
            wilson_bounds(0, 0)


class TestTrialPlan:
    def test_defaults(self):
        plan = TrialPlan(master_seed=1, n_realizations=4, bits_per_realization=100)
        assert plan.bit_budget == 400
        assert plan.min_errors == 50

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            TrialPlan(master_seed=1, n_realizations=0, bits_per_realization=10)
        with pytest.raises(InvalidParameterError):
            TrialPlan(master_seed=-1, n_realizations=1, bits_per_realization=10)


class TestRunBer:
    def test_noise_free_single_user_is_error_free(self, mhp4):
        cfg = awgn_config(noise_sigma=0.0)
        plan = TrialPlan(master_seed=2, n_realizations=2, bits_per_realization=500)
        est = run_ber(cfg, [mhp4], awgn_channel(), plan)
        assert est.errors == 0
        assert est.ber == 0.0
        assert est.capped  # never reached min_errors

    def test_awgn_matches_q_function(self, mhp4):
        # sigma = 1 gives BER Q(1); check the Wilson interval covers it
        plan = TrialPlan(
            master_seed=3, n_realizations=4, bits_per_realization=25_000,
            min_errors=10**9,
        )
        est = run_ber(awgn_config(1.0), [mhp4], awgn_channel(), plan)
        assert est.bits == 100_000
        lo, hi = est.ci_bounds()
        assert lo <= qfunc(1.0) <= hi

    def test_seed_determinism(self, mhp4, reference_channel, reference_config):
        cfg = replace(reference_config, noise_sigma=0.3, n_users=4)
        pulses = [mhp4, make_mhp(5, 0.05, DT)]
        plan = TrialPlan(master_seed=4, n_realizations=3, bits_per_realization=40,
                         min_errors=10**9)
        a = run_ber(cfg, pulses, reference_channel, plan)
        b = run_ber(cfg, pulses, reference_channel, plan)
        assert a == b

    def test_thread_count_does_not_change_result(self, mhp4, reference_channel, reference_config):
        cfg = replace(reference_config, noise_sigma=0.4, n_users=3)
        pulses = [mhp4, make_mhp(5, 0.05, DT)]
        plan = TrialPlan(master_seed=5, n_realizations=5, bits_per_realization=30,
                         min_errors=20, min_realizations=2)
        serial = run_ber(cfg, pulses, reference_channel, plan, threads=1)
        parallel = run_ber(cfg, pulses, reference_channel, plan, threads=3)
        assert serial == parallel

    def test_early_stop_at_min_errors(self, mhp4):
        # high noise gives ~Q(0.5) errors; min_errors tiny => stops early
        plan = TrialPlan(master_seed=6, n_realizations=50, bits_per_realization=100,
                         min_errors=10, min_realizations=1)
        est = run_ber(awgn_config(2.0), [mhp4], awgn_channel(), plan)
        assert est.errors >= 10
        assert est.realizations < 50
        assert not est.capped

    def test_min_realizations_enforced(self, mhp4):
        plan = TrialPlan(master_seed=6, n_realizations=50, bits_per_realization=100,
                         min_errors=10, min_realizations=7)
        est = run_ber(awgn_config(2.0), [mhp4], awgn_channel(), plan)
        assert est.realizations >= 7


class TestRunBerSweep:
    SIGMAS = (0.0, 0.2, 0.5, 1.0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_per_point_run_ber(self, mhp4, mhp5, reference_channel, reference_config,
                                       threads):
        # one fused sweep keeps simulating after its high-noise points have
        # stopped; each point must still report exactly the estimate that a
        # separate serial run at its noise amplitude reports
        cfg = replace(reference_config, n_users=3)
        pulses = [mhp4, mhp5]
        plan = TrialPlan(master_seed=8, n_realizations=8, bits_per_realization=30,
                         min_errors=6, min_realizations=2)
        fused = run_ber_sweep(cfg, pulses, reference_channel, plan, self.SIGMAS, threads=threads)
        per_point = [
            run_ber(replace(cfg, noise_sigma=s), pulses, reference_channel, plan)
            for s in self.SIGMAS
        ]
        assert fused == per_point
        assert len({est.realizations for est in fused}) >= 3

    def test_noise_free_point_is_error_free(self, mhp4):
        plan = TrialPlan(master_seed=2, n_realizations=2, bits_per_realization=500)
        quiet, noisy = run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, [0.0, 2.0])
        assert quiet == run_ber(awgn_config(0.0), [mhp4], awgn_channel(), plan)
        assert quiet.errors == 0
        assert quiet.ber == 0.0
        assert quiet.capped
        assert noisy.errors > 0

    def test_noise_free_sweep_draws_no_noise(self, mhp4, monkeypatch):
        roles = []

        def recording_stream(seed, *path):
            roles.append(path[-1])
            return rng_stream(seed, *path)

        monkeypatch.setattr(montecarlo, "rng_stream", recording_stream)
        plan = TrialPlan(master_seed=2, n_realizations=2, bits_per_realization=50)
        run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, [0.0, 0.0])
        assert roles
        assert montecarlo._ROLE_NOISE not in roles

    @pytest.mark.parametrize("sigmas", [[], [-0.1], [float("nan")], [0.5, float("inf")]])
    def test_invalid_noise_sigmas_rejected(self, mhp4, sigmas):
        plan = TrialPlan(master_seed=2, n_realizations=1, bits_per_realization=10)
        with pytest.raises(InvalidParameterError):
            run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, sigmas)


def _on_window(wave, start, n):
    """Samples of ``wave`` on the absolute sample range [start, start + n), zero-padded."""
    out = np.zeros(n)
    k = grid_index(wave.t0, wave.dt) - start
    lo, hi = max(0, k), min(n, k + len(wave.samples))
    out[lo:hi] = wave.samples[lo - k : hi - k]
    return out


def reference_decisions(config, pulses, channel_params, n_bits, seed, index,
                        scheme, selection, n_paths):
    """(bits, D, N) of one realization from the sample-level waveform path.

    Every block is assembled sample by sample (received_block, _assemble),
    the users are added on the receiver's clock (compose_received) and
    each bit's decision is the dot product with the template over its
    symbol window, starting at the template block's first sample.  The
    draws follow the table engine's order.
    """
    dt = pulses[0].dt
    n_f = config.frames_per_symbol
    sym = config.symbol_samples(dt)
    rng_tr = rng_stream(seed, index, montecarlo._ROLE_TRAFFIC)
    desired_chan, interferer_chans = realization_channels(config, channel_params, seed, index)
    beta = select_combiner(desired_chan, scheme, selection, n_paths)
    desired = [composite_waveform(p, desired_chan, desired_chan.gains) for p in pulses]
    templates = [composite_waveform(p, desired_chan, beta) for p in pulses]

    bits = rng_tr.integers(0, 2, n_bits) * 2 - 1
    codes = generate_codes(config, n_bits * n_f, rng_tr)
    blocks = [received_block(config, desired, bits, codes)]
    offsets = [0.0]
    for chan in interferer_chans:
        bits_k = rng_tr.integers(0, 2, n_bits + 1) * 2 - 1
        codes_k = generate_codes(config, (n_bits + 1) * n_f, rng_tr)
        offset_idx = int(rng_tr.integers(0, sym))
        u_set = [composite_waveform(p, chan, chan.gains) for p in pulses]
        block = received_block(config, u_set, bits_k, codes_k)
        blocks.append(replace(block, t0=block.t0 - sym * dt))  # starts one bit early
        offsets.append(offset_idx * dt)
    received = compose_received(replace(config, noise_sigma=0.0), blocks, offsets)

    template_block = _assemble(config, templates, codes.th, codes.polarity.astype(float))
    start = grid_index(template_block.t0, dt)
    n_win = n_bits * sym
    template = _on_window(template_block, start, n_win)
    clean = dt * (_on_window(received, start, n_win) * template).reshape(n_bits, sym).sum(axis=1)
    z = rng_stream(seed, index, montecarlo._ROLE_NOISE).standard_normal(n_win)
    unit_noise = math.sqrt(dt) * (z * template).reshape(n_bits, sym).sum(axis=1)
    return bits, clean, unit_noise


def _first_path_dropped(config, channel_params, seed, scheme, n_paths):
    """The first realization index whose selective template drops path 0
    and so starts after the frame start."""
    for index in range(200):
        desired, _ = realization_channels(config, channel_params, seed, index)
        beta = select_combiner(desired, scheme, "selective", n_paths)
        if beta[0] == 0.0 and desired.delays[beta != 0.0][0] > 1.0:
            return index
    raise AssertionError("no realization drops the first path")


class TestTableEngine:
    """The correlation-table engine against the sample-level waveform path."""

    SIGMAS = (0.0, 0.05, 0.2, 0.5, 1.0)
    CHANNEL = ChannelParams(n_paths=12, decay_rate=0.4, lognorm_var=1.0, mean_arrival=1.5)

    # (pulse types, frames per symbol, hop positions, users, scheme, selection)
    CASES = [
        (1, 2, 3, 3, "mrc", "all"),
        (1, 1, 1, 1, "egc", "partial"),
        (2, 2, 3, 3, "egc", "partial"),
        (2, 4, 1, 3, "mrc", "selective"),
        (2, 2, 3, 1, "mrc", "all"),
        (3, 3, 1, 3, "egc", "all"),
        (3, 3, 3, 3, "mrc", "selective"),
        (3, 6, 3, 1, "egc", "selective"),
    ]

    @pytest.mark.parametrize("n_p,n_f,n_h,users,scheme,selection", CASES)
    def test_decisions_match_waveform_path(self, n_p, n_f, n_h, users, scheme, selection):
        config = SystemConfig(
            n_users=users, frames_per_symbol=n_f, chips_per_frame=40, hop_positions=n_h,
            pulse_types=n_p, chip_time=1.0, interferer_power=5.0,
        )
        pulses = [make_mhp(order, 0.05, DT) for order in (4, 5, 3)[:n_p]]
        n_paths = None if selection == "all" else 3
        seed, n_bits = 11, 12
        indices = [0, 1]
        if selection == "selective":
            indices.append(_first_path_dropped(config, self.CHANNEL, seed, scheme, n_paths))
        for index in indices:
            args = (config, pulses, self.CHANNEL, n_bits, seed, index, scheme, selection, n_paths)
            bits, clean, unit_noise = montecarlo._realization_decisions(*args)
            ref_bits, ref_clean, ref_noise = reference_decisions(*args)
            assert np.array_equal(bits, ref_bits)
            np.testing.assert_allclose(clean, ref_clean, rtol=0,
                                       atol=1e-9 * np.max(np.abs(ref_clean)))
            np.testing.assert_allclose(unit_noise, ref_noise, rtol=0,
                                       atol=1e-9 * np.max(np.abs(ref_noise)))
            ref_errors = tuple(
                int(np.count_nonzero((ref_clean + s * ref_noise) * ref_bits <= 0))
                for s in self.SIGMAS
            )
            errors = montecarlo._sweep_errors(
                config, pulses, self.CHANNEL, n_bits, seed, self.SIGMAS,
                scheme, selection, n_paths, index,
            )
            assert errors == ref_errors

    def test_template_leaving_its_bit_window_rejected(self, reference_config):
        # a template that starts after its frame start (first path not
        # combined) must still end inside the frame: bit i's decision sums
        # only template frames of bit i
        from mpir.pulses import Waveform

        frame = reference_config.frame_samples(DT)
        reach = (reference_config.hop_positions - 1) * reference_config.chip_samples(DT)
        length = frame - reach - 100
        fits = Waveform(np.ones(length), DT, 100 * DT)
        montecarlo._check_frame_separable([fits], reference_config, DT)
        late = Waveform(np.ones(length), DT, 101 * DT)
        with pytest.raises(InfeasibleGeometryError):
            montecarlo._check_frame_separable([late], reference_config, DT)

    def test_noise_projection_not_drawn_without_noise(self, mhp4, reference_config,
                                                      reference_channel):
        cfg = replace(reference_config, pulse_types=1, n_users=2)
        args = (cfg, [mhp4], reference_channel, 8, 3, 0, "mrc", "all", None)
        bits, clean, unit_noise = montecarlo._realization_decisions(*args, draw_noise=False)
        _, clean_drawn, _ = montecarlo._realization_decisions(*args)
        assert not unit_noise.any()
        assert np.array_equal(clean, clean_drawn)


class TestPhiAt:
    def test_zero_outside_support(self):
        values = np.array([1.0, -2.0, 3.0])
        out = lookup(values, np.array([-5, -1, 0, 1, 2, 3, 40]))
        assert out.tolist() == [0.0, 0.0, 1.0, -2.0, 3.0, 0.0, 0.0]


class TestSweepProperties:
    @given(
        n_realizations=st.integers(1, 5),
        min_errors=st.integers(1, 40),
        min_realizations=st.integers(1, 5),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=4, deadline=None)
    def test_thread_count_never_changes_estimates(self, n_realizations, min_errors,
                                                  min_realizations, seed):
        cfg = SystemConfig(
            n_users=3, frames_per_symbol=2, chips_per_frame=40, hop_positions=3,
            pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
        channel = ChannelParams(n_paths=12, decay_rate=0.4, lognorm_var=1.0, mean_arrival=1.5)
        plan = TrialPlan(master_seed=seed, n_realizations=n_realizations,
                         bits_per_realization=20, min_errors=min_errors,
                         min_realizations=min_realizations)
        sigmas = [0.0, 0.3, 1.0]
        serial = run_ber_sweep(cfg, pulses, channel, plan, sigmas, threads=1)
        parallel = run_ber_sweep(cfg, pulses, channel, plan, sigmas, threads=2)
        assert serial == parallel


class TestEstimateMaiVariance:
    def _instance(self, seed):
        cfg = SystemConfig(
            n_users=2, frames_per_symbol=2, chips_per_frame=40,
            hop_positions=3, pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        params = ChannelParams(n_paths=12, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
        pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
        rng = rng_stream(seed, 0)
        from mpir.channel import sample_channel

        desired = sample_channel(params, cfg, rng)
        interferer = sample_channel(replace(params, power_scale=5.0), cfg, rng)
        return cfg, pulses, desired, interferer

    def test_zero_interferer_gains(self, mhp4):
        cfg, pulses, desired, interferer = self._instance(60)
        from mpir.channel import ChannelRealization

        silent = ChannelRealization(np.zeros(3), np.array([0.0, 1.0, 2.0]))
        est = estimate_mai_variance(cfg, pulses, desired, silent, 0, 10_000, rng_stream(60, 1))
        assert est == 0.0

    def test_quadratic_in_gains(self):
        cfg, pulses, desired, interferer = self._instance(61)
        from mpir.channel import ChannelRealization

        doubled = ChannelRealization(2.0 * interferer.gains, interferer.delays)
        a = estimate_mai_variance(cfg, pulses, desired, interferer, 0, 200_000, rng_stream(61, 1))
        b = estimate_mai_variance(cfg, pulses, desired, doubled, 0, 200_000, rng_stream(61, 1))
        assert b == pytest.approx(4.0 * a, rel=1e-9)  # same draws, scaled values

    def test_needs_enough_samples(self):
        cfg, pulses, desired, interferer = self._instance(62)
        with pytest.raises(InvalidParameterError):
            estimate_mai_variance(cfg, pulses, desired, interferer, 0, 1, rng_stream(62, 1))


class TestEstimateNoiseVariance:
    def test_zero_noise(self, mhp4):
        cfg = awgn_config(0.0)
        from mpir.channel import ChannelRealization, composite_waveform

        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        v = [composite_waveform(mhp4, chan, np.array([1.0]))]
        assert estimate_noise_variance(cfg, v, 100, rng_stream(63, 0)) == 0.0

    def test_doubling_sigma_quadruples_variance(self, mhp4):
        from mpir.channel import ChannelRealization, composite_waveform

        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        v = [composite_waveform(mhp4, chan, np.array([1.0]))]
        a = estimate_noise_variance(awgn_config(0.5), v, 50_000, rng_stream(64, 0))
        b = estimate_noise_variance(awgn_config(1.0), v, 50_000, rng_stream(64, 0))
        assert b == pytest.approx(4.0 * a, rel=1e-9)  # same noise draws, rescaled

    def test_broken_scale_detected(self, mhp4):
        # the deliberate mis-scaling hook must shift the variance away from
        # the closed form (negative control for the validation suite)
        from mpir.analysis import noise_variance
        from mpir.channel import ChannelRealization, composite_waveform

        cfg = awgn_config(1.0)
        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        v = [composite_waveform(mhp4, chan, np.array([1.0]))]
        closed = noise_variance(v, cfg)
        broken = estimate_noise_variance(cfg, v, 50_000, rng_stream(65, 0), noise_std_scale=1.2)
        assert abs(broken - closed) / closed > 0.3


class TestBerEstimate:
    def test_fields_consistent(self):
        est = BerEstimate(errors=5, bits=100, ber=0.05, ci95=wilson_halfwidth(5, 100))
        lo, hi = est.ci_bounds()
        assert lo < 0.05 < hi
