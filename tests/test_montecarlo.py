import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from mpir import montecarlo
from mpir.analysis import qfunc
from mpir.channel import ChannelParams, ChannelRealization, composite_waveform, sample_channel
from mpir.cli import ebn0_db_to_noise_sigma
from mpir.errors import ConfigMismatchError, GridMismatchError, InfeasibleGeometryError, InvalidParameterError
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
from mpir.pulses import BLOCK_SAMPLES, Waveform, cross_correlation, grid_index, lookup, make_mhp
from mpir.transceiver import (
    SystemConfig, _assemble, generate_codes, rake_composites, rake_template, select_combiner,
)

from conftest import compose_received, received_block

DT = 0.02
MAI_BLOCK = BLOCK_SAMPLES // 4  # draws per block of estimate_mai_variance


def awgn_config():
    return SystemConfig(
        n_users=1, frames_per_symbol=1, chips_per_frame=8,
        hop_positions=1, pulse_types=1, chip_time=1.0, interferer_power=1.0,
    )


def awgn_channel():
    # L=1, lognorm_var=0 makes |gain| exactly 1; the random sign does not
    # affect MRC detection
    return ChannelParams(n_paths=1, decay_rate=1.0, lognorm_var=0.0, mean_arrival=1.0)


def two_user_instance(seed):
    """Double-pulse system, one desired and one 5x interferer channel of 12 paths."""
    cfg = SystemConfig(
        n_users=2, frames_per_symbol=2, chips_per_frame=40,
        hop_positions=3, pulse_types=2, chip_time=1.0, interferer_power=5.0,
    )
    params = ChannelParams(n_paths=12, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
    pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
    rng = rng_stream(seed, 0)
    desired = sample_channel(params, cfg, rng)
    interferer = sample_channel(replace(params, power_scale=5.0), cfg, rng)
    return cfg, pulses, desired, interferer


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
        plan = TrialPlan(master_seed=2, n_realizations=2, bits_per_realization=500)
        est = run_ber(awgn_config(), [mhp4], awgn_channel(), plan, 0.0)
        assert est.errors == 0
        assert est.ber == 0.0
        assert est.capped  # never reached min_errors

    def test_awgn_matches_q_function(self, mhp4):
        # sigma = 1 gives BER Q(1); check the Wilson interval covers it
        plan = TrialPlan(
            master_seed=3, n_realizations=4, bits_per_realization=25_000,
            min_errors=10**9,
        )
        est = run_ber(awgn_config(), [mhp4], awgn_channel(), plan, 1.0)
        assert est.bits == 100_000
        lo, hi = est.ci_bounds()
        assert lo <= qfunc(1.0) <= hi

    def test_seed_determinism(self, mhp4, reference_channel, reference_config):
        cfg = replace(reference_config, n_users=4)
        pulses = [mhp4, make_mhp(5, 0.05, DT)]
        plan = TrialPlan(master_seed=4, n_realizations=3, bits_per_realization=40,
                         min_errors=10**9)
        a = run_ber(cfg, pulses, reference_channel, plan, 0.3)
        b = run_ber(cfg, pulses, reference_channel, plan, 0.3)
        assert a == b

    def test_thread_count_does_not_change_result(self, mhp4, reference_channel, reference_config):
        cfg = replace(reference_config, n_users=3)
        pulses = [mhp4, make_mhp(5, 0.05, DT)]
        plan = TrialPlan(master_seed=5, n_realizations=5, bits_per_realization=30,
                         min_errors=20, min_realizations=2)
        serial = run_ber(cfg, pulses, reference_channel, plan, 0.4, threads=1)
        parallel = run_ber(cfg, pulses, reference_channel, plan, 0.4, threads=3)
        assert serial == parallel

    def test_early_stop_at_min_errors(self, mhp4):
        # high noise gives ~Q(0.5) errors; min_errors tiny => stops early
        plan = TrialPlan(master_seed=6, n_realizations=50, bits_per_realization=100,
                         min_errors=10, min_realizations=1)
        est = run_ber(awgn_config(), [mhp4], awgn_channel(), plan, 2.0)
        assert est.errors >= 10
        assert est.realizations < 50
        assert not est.capped

    def test_min_realizations_enforced(self, mhp4):
        plan = TrialPlan(master_seed=6, n_realizations=50, bits_per_realization=100,
                         min_errors=10, min_realizations=7)
        est = run_ber(awgn_config(), [mhp4], awgn_channel(), plan, 2.0)
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
            run_ber(cfg, pulses, reference_channel, plan, s)
            for s in self.SIGMAS
        ]
        assert fused == per_point
        assert len({est.realizations for est in fused}) >= 3

    def test_noise_free_point_is_error_free(self, mhp4):
        plan = TrialPlan(master_seed=2, n_realizations=2, bits_per_realization=500)
        quiet, noisy = run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, [0.0, 2.0])
        assert quiet == run_ber(awgn_config(), [mhp4], awgn_channel(), plan, 0.0)
        assert quiet.errors == 0
        assert quiet.ber == 0.0
        assert quiet.capped
        assert noisy.errors > 0

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


def reference_decisions(config, pulses, channel_params, n_bits, seed, index):
    """(bits, D, N, E) of one realization from the sample-level waveform path,
    under the RAKE combiner of ``config``.

    Every block is assembled sample by sample (conftest.received_block),
    the users are added on the receiver's clock (compose_received) and
    each bit's decision is the dot product with the template over its
    symbol window, starting at the template block's first sample.  The
    bits, codes and channels follow the table engine's draws.  N projects
    one standard-normal draw per window sample, the noise stream's first
    n_bits symbols of samples, onto each bit's template; E is the
    template energy dt * sum(template**2) of each bit's window.
    """
    dt = pulses[0].dt
    n_f = config.frames_per_symbol
    sym = config.symbol_samples(dt)
    rng_tr = rng_stream(seed, index, montecarlo._ROLE_TRAFFIC)
    desired_chan, interferer_chans = realization_channels(config, channel_params, seed, index)
    beta = select_combiner(desired_chan, config)
    desired = [composite_waveform(p, desired_chan, desired_chan.gains) for p in pulses]
    templates = [composite_waveform(p, desired_chan, beta) for p in pulses]

    bits = rng_tr.integers(0, 2, n_bits) * 2 - 1
    codes = generate_codes(config, n_bits * n_f, rng_tr)
    blocks = [received_block(config, desired, bits, codes)]
    offsets = [0]
    for chan in interferer_chans:
        bits_k = rng_tr.integers(0, 2, n_bits + 1) * 2 - 1
        codes_k = generate_codes(config, (n_bits + 1) * n_f, rng_tr)
        offset_idx = int(rng_tr.integers(0, sym))
        u_set = [composite_waveform(p, chan, chan.gains) for p in pulses]
        blocks.append(received_block(config, u_set, bits_k, codes_k))
        offsets.append(offset_idx - sym)  # starts one bit early
    received = compose_received(blocks, offsets)

    template_block = _assemble(config, templates, codes.th, codes.polarity.astype(float))
    start = grid_index(template_block.t0, dt)
    n_win = n_bits * sym
    template = _on_window(template_block, start, n_win)
    clean = dt * (_on_window(received, start, n_win) * template).reshape(n_bits, sym).sum(axis=1)
    z = rng_stream(seed, index, montecarlo._ROLE_NOISE).standard_normal(n_win)
    unit_noise = math.sqrt(dt) * (z * template).reshape(n_bits, sym).sum(axis=1)
    energy = dt * (template**2).reshape(n_bits, sym).sum(axis=1)
    return bits, clean, unit_noise, energy


def _first_path_dropped(config, channel_params, seed, scheme, n_paths):
    """The first realization index whose selective template drops path 0
    and so starts after the frame start."""
    for index in range(200):
        desired, _ = realization_channels(config, channel_params, seed, index)
        beta = select_combiner(desired, replace(config, scheme=scheme, selection="selective",
                                                combiner_paths=n_paths))
        if beta[0] == 0.0 and desired.delays[beta != 0.0][0] > 1.0:
            return index
    raise AssertionError("no realization drops the first path")


class TestTableEngine:
    """The correlation-table engine against the sample-level waveform path."""

    SIGMAS = (0.0, 0.05, 0.2, 0.5, 1.0)
    CHANNEL = ChannelParams(n_paths=12, decay_rate=0.4, lognorm_var=1.0, mean_arrival=1.5)

    # (order, width in ns) of pulse types 1..4; the fourth is narrower, so
    # it differs from the others in sample count and t0
    PULSES = ((4, 0.05), (5, 0.05), (3, 0.05), (2, 0.04))

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
        (4, 4, 3, 3, "egc", "selective"),
    ]

    @pytest.mark.parametrize("n_p,n_f,n_h,users,scheme,selection", CASES)
    def test_decisions_match_waveform_path(self, n_p, n_f, n_h, users, scheme, selection):
        n_paths = None if selection == "all" else 3
        config = SystemConfig(
            n_users=users, frames_per_symbol=n_f, chips_per_frame=40, hop_positions=n_h,
            pulse_types=n_p, chip_time=1.0, interferer_power=5.0,
            scheme=scheme, selection=selection, combiner_paths=n_paths,
        )
        pulses = [make_mhp(order, width, DT) for order, width in self.PULSES[:n_p]]
        seed, n_bits = 11, 12
        indices = [0, 1]
        if selection == "selective":
            indices.append(_first_path_dropped(config, self.CHANNEL, seed, scheme, n_paths))
        for index in indices:
            args = (config, pulses, self.CHANNEL, n_bits, seed, index)
            bits, clean, unit_noise, noise_energy = montecarlo._realization_decisions(*args)
            ref_bits, ref_clean, _, ref_energy = reference_decisions(*args)
            assert np.array_equal(bits, ref_bits)
            np.testing.assert_allclose(clean, ref_clean, rtol=0,
                                       atol=1e-9 * np.max(np.abs(ref_clean)))
            # every bit's window of the sample-level template holds the
            # energy E_N that scales the engine's noise draw
            np.testing.assert_allclose(ref_energy, noise_energy, rtol=1e-12, atol=0)
            counts = tuple(
                int(np.count_nonzero((clean + s * unit_noise) * bits <= 0)) for s in self.SIGMAS
            )
            swept = montecarlo._sweep_errors(
                config, pulses, self.CHANNEL, n_bits, seed, self.SIGMAS, index
            )
            assert tuple(errors for errors, _ in swept) == counts

    def test_tables_match_composite_cross_correlations(self):
        # every user's table, lag by lag, against pulses.cross_correlation of
        # the user's composite with the template composite; the pulses differ
        # in width, and two paths of each channel share one grid sample
        config = SystemConfig(
            n_users=3, frames_per_symbol=2, chips_per_frame=40, hop_positions=3,
            pulse_types=2, chip_time=1.0, interferer_power=5.0,
            scheme="mrc", selection="partial", combiner_paths=3,
        )
        pulses = [make_mhp(4, 0.05, DT), make_mhp(2, 0.04, DT)]
        desired = ChannelRealization(np.array([0.5, 0.9, 0.6, -0.3]), np.array([0.0, 3.0, 3.005, 7.5]))
        interferers = [
            ChannelRealization(np.array([1.2, -0.7, 0.4, 0.9, -0.2]),
                               np.array([0.0, 1.0, 1.004, 2.5, 9.0])),
            ChannelRealization(np.array([-0.8, 0.3]), np.array([0.0, 30.0])),
        ]
        beta = select_combiner(desired, config)
        templates = [composite_waveform(p, desired, beta) for p in pulses]
        dt, energy, tables = montecarlo._correlation_tables(config, pulses, desired, interferers)
        assert dt == DT
        assert energy == pytest.approx(sum(v.energy for v in templates), rel=1e-12)
        users = [desired, *interferers]
        for chan, phi in zip(users, tables, strict=True):
            for r, p in enumerate(pulses):
                u = composite_waveform(p, chan, chan.gains)
                for s, v in enumerate(templates):
                    ref = cross_correlation(u, v)
                    lo = phi.shape[-1] // 2 + grid_index(ref.t0, DT)  # lag 0 in the middle
                    assert 0 <= lo and lo + len(ref.samples) <= phi.shape[-1]
                    want = np.zeros(phi.shape[-1])
                    want[lo : lo + len(ref.samples)] = ref.samples
                    np.testing.assert_allclose(phi[r, s], want, rtol=0,
                                               atol=1e-12 * np.max(np.abs(want)))

    def test_desired_composites_leaving_their_frame_rejected(self):
        # pulses wider than the frame's slack: the desired composites reach
        # into the next frame, where no table lookup would see them
        config = SystemConfig(
            n_users=2, frames_per_symbol=2, chips_per_frame=4, hop_positions=3,
            pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        pulses = [make_mhp(4, 0.3, DT), make_mhp(5, 0.3, DT)]
        one_path = ChannelParams(n_paths=1, decay_rate=1.0, lognorm_var=0.0, mean_arrival=1.0)
        with pytest.raises(InfeasibleGeometryError):
            montecarlo._realization_decisions(config, pulses, one_path, 4, 11, 0)

    @pytest.mark.parametrize("steps, error", [
        ((DT, DT / 2), GridMismatchError),  # pulses on different sample steps
        ((DT, DT, DT), ConfigMismatchError),  # one pulse more than N_p = 2
    ])
    def test_pulse_set_checked(self, steps, error):
        config = SystemConfig(
            n_users=3, frames_per_symbol=2, chips_per_frame=40, hop_positions=3,
            pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        pulses = [make_mhp(order, 0.05, step) for order, step in zip((4, 5, 3), steps)]
        plan = TrialPlan(master_seed=1, n_realizations=1, bits_per_realization=4, min_errors=1)
        with pytest.raises(error):
            run_ber(config, pulses, self.CHANNEL, plan, 0.5)

    def test_noise_projection_law_matches_waveform_path(self, mhp4, mhp5):
        # the engine draws each bit's N from N(0, E_N); the sample-level
        # projections of per-sample white noise onto the bit templates
        # must follow that law (2,000 bits over 8 channel draws)
        config = SystemConfig(
            n_users=1, frames_per_symbol=2, chips_per_frame=40, hop_positions=3,
            pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        drawn, projected = [], []
        for index in range(8):
            args = (config, [mhp4, mhp5], self.CHANNEL, 250, 13, index)
            _, _, unit_noise, noise_energy = montecarlo._realization_decisions(*args)
            _, _, ref_noise, ref_energy = reference_decisions(*args)
            drawn.append(unit_noise / math.sqrt(noise_energy))
            projected.append(ref_noise / np.sqrt(ref_energy))
        drawn, projected = np.concatenate(drawn), np.concatenate(projected)
        assert len(projected) == 2000
        assert ks_2samp(drawn, projected).pvalue > 0.01

    def test_template_leaving_its_bit_window_rejected(self, reference_config):
        # a template that starts after its frame start (first path not
        # combined) must still end inside the frame: bit i's decision sums
        # only template frames of bit i
        from mpir.pulses import Waveform
        from mpir.transceiver import _check_frame_separable

        frame = reference_config.frame_samples(DT)
        reach = (reference_config.hop_positions - 1) * reference_config.chip_samples(DT)
        length = frame - reach - 100
        fits = Waveform(np.ones(length), DT, 100 * DT)
        _check_frame_separable([fits], reference_config, DT)
        late = Waveform(np.ones(length), DT, 101 * DT)
        with pytest.raises(InfeasibleGeometryError):
            _check_frame_separable([late], reference_config, DT)


class TestQuasiAnalytic:
    DB = (0.0, 2.0, 4.0, 6.0, 10.0)

    def test_awgn_equals_q_function(self, mhp4):
        # one user, one path: b_i D_i is the same for every bit, so the
        # quasi-analytic estimate is Q(sqrt(2 Eb/N0)) with no spread
        plan = TrialPlan(master_seed=21, n_realizations=3, bits_per_realization=200,
                         min_errors=10**9)
        sigmas = [ebn0_db_to_noise_sigma(db) for db in self.DB]
        for db, est in zip(self.DB, run_ber_sweep(awgn_config(), [mhp4], awgn_channel(),
                                                  plan, sigmas)):
            want = qfunc(math.sqrt(2.0 * 10 ** (db / 10)))
            assert est.ber_qa == pytest.approx(want, rel=1e-12, abs=0)
            assert est.ber_qa_stderr == pytest.approx(0.0, abs=1e-12 * want)

    def test_noise_free_point_counts_errors(self, mhp4, mhp5, reference_config,
                                            reference_channel):
        # with no noise a bit errs exactly when b_i D_i <= 0
        plan = TrialPlan(master_seed=22, n_realizations=4, bits_per_realization=100,
                         min_errors=10**9)
        (est,) = run_ber_sweep(reference_config, [mhp4, mhp5], reference_channel, plan, [0.0])
        assert est.errors > 0
        assert est.ber_qa == pytest.approx(est.ber, rel=1e-15)

    def test_single_realization_has_no_stderr(self, mhp4):
        plan = TrialPlan(master_seed=23, n_realizations=1, bits_per_realization=50)
        (est,) = run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, [1.0])
        assert est.realizations == 1
        assert math.isnan(est.ber_qa_stderr)
        assert est.ber_qa == pytest.approx(qfunc(1.0), rel=1e-12)

    def test_inside_counted_wilson_interval(self, mhp4, mhp5, reference_config,
                                            reference_channel):
        # the 20-user double-pulse system over the A5/A6 sweep: given the
        # channels and traffic, the counted errors scatter around the
        # quasi-analytic estimate by the noise alone
        plan = TrialPlan(master_seed=24, n_realizations=12, bits_per_realization=400,
                         min_errors=10**9)
        db_sweep = (0.0, 4.0, 8.0, 12.0, 16.0, 24.0)
        estimates = run_ber_sweep(
            reference_config, [mhp4, mhp5], reference_channel, plan,
            [ebn0_db_to_noise_sigma(db) for db in db_sweep],
        )
        for db, est in zip(db_sweep, estimates):
            lo, hi = est.ci_bounds()
            assert lo <= est.ber_qa <= hi, f"{db} dB: {est.ber_qa:.5f} outside [{lo:.5f}, {hi:.5f}]"
            assert est.ber_qa_stderr > 0


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
        # the combiner is part of the config, so it must cross the process pool
        for config in (cfg, replace(cfg, scheme="egc", selection="partial", combiner_paths=3)):
            serial = run_ber_sweep(config, pulses, channel, plan, sigmas, threads=1)
            parallel = run_ber_sweep(config, pulses, channel, plan, sigmas, threads=2)
            assert serial == parallel

    def test_waves_never_exceed_the_cpu_count(self, mhp4, monkeypatch):
        # a huge --threads must not fork one interpreter per thread; the
        # pool is replaced by an in-process fake, so no process starts
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
        plan = TrialPlan(master_seed=31, n_realizations=4, bits_per_realization=20,
                         min_errors=10**9)
        sigmas = [0.5, 1.0]
        one = run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, sigmas, threads=1)
        many = run_ber_sweep(awgn_config(), [mhp4], awgn_channel(), plan, sigmas, threads=10**6)
        assert all(n <= (os.cpu_count() or 1) for n in asked), asked
        assert many == one


class TestEstimateMaiVariance:
    def test_zero_interferer_gains(self, mhp4):
        cfg, pulses, desired, interferer = two_user_instance(60)
        from mpir.channel import ChannelRealization

        silent = ChannelRealization(np.zeros(3), np.array([0.0, 1.0, 2.0]))
        est = estimate_mai_variance(cfg, pulses, desired, silent, 0, 10_000, rng_stream(60, 1))
        assert est == 0.0

    def test_quadratic_in_gains(self):
        cfg, pulses, desired, interferer = two_user_instance(61)
        from mpir.channel import ChannelRealization

        doubled = ChannelRealization(2.0 * interferer.gains, interferer.delays)
        a = estimate_mai_variance(cfg, pulses, desired, interferer, 0, 200_000, rng_stream(61, 1))
        b = estimate_mai_variance(cfg, pulses, desired, doubled, 0, 200_000, rng_stream(61, 1))
        assert b == pytest.approx(4.0 * a, rel=1e-9)  # same draws, scaled values

    def test_needs_enough_samples(self):
        cfg, pulses, desired, interferer = two_user_instance(62)
        with pytest.raises(InvalidParameterError):
            estimate_mai_variance(cfg, pulses, desired, interferer, 0, 1, rng_stream(62, 1))

    @pytest.mark.parametrize("n_samples", [2, MAI_BLOCK - 1, MAI_BLOCK, MAI_BLOCK + 3])
    def test_block_edges(self, n_samples):
        # one short block, one exactly full block and a full block with a
        # three-sample tail all give a finite variance, the same on replay
        cfg, pulses, desired, interferer = two_user_instance(69)
        a = estimate_mai_variance(cfg, pulses, desired, interferer, 1, n_samples, rng_stream(69, 1))
        b = estimate_mai_variance(cfg, pulses, desired, interferer, 1, n_samples, rng_stream(69, 1))
        assert math.isfinite(a) and a >= 0
        assert a == b

    def test_memory_does_not_grow_with_the_budget(self):
        # tracemalloc counts numpy's buffers; at 10^6 draws the 8 MB result
        # array, centred in place, is all that may grow with the budget,
        # the blocks' own arrays take a fixed 2 MB or so
        cfg, pulses, desired, interferer = two_user_instance(70)
        tracemalloc.start()
        try:
            estimate_mai_variance(cfg, pulses, desired, interferer, 0, 10**6, rng_stream(70, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


class TestEstimateNoiseVariance:
    @staticmethod
    def _weighted_template(pulse, weight):
        from mpir.channel import ChannelRealization, composite_waveform

        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        return [composite_waveform(pulse, chan, np.array([weight]))]

    def test_zero_noise(self, mhp4):
        # a zero-weight template projects every noise draw onto exactly 0
        v = self._weighted_template(mhp4, 0.0)
        assert estimate_noise_variance(awgn_config(), v, 100, rng_stream(63, 0)) == 0.0

    def test_doubling_sigma_quadruples_variance(self, mhp4):
        # scaling the template by 2 scales each output, as doubling the
        # noise amplitude would, by exactly 2
        a = estimate_noise_variance(awgn_config(), self._weighted_template(mhp4, 0.5), 50_000,
                                    rng_stream(64, 0))
        b = estimate_noise_variance(awgn_config(), self._weighted_template(mhp4, 1.0), 50_000,
                                    rng_stream(64, 0))
        assert b == pytest.approx(4.0 * a, rel=1e-9)  # same noise draws, rescaled

    def test_broken_scale_detected(self, mhp4):
        # an estimate on a template mis-scaled by 1.2 must land well away
        # from the closed form of the true template (negative control for
        # the validation suite)
        from mpir.analysis import noise_variance

        cfg = awgn_config()
        closed = noise_variance(self._weighted_template(mhp4, 1.0), cfg)
        broken = estimate_noise_variance(cfg, self._weighted_template(mhp4, 1.2), 50_000,
                                         rng_stream(65, 0))
        assert abs(broken - closed) / closed > 0.3

    @staticmethod
    def _double_pulse_templates(seed):
        cfg, pulses, desired, _ = two_user_instance(seed)
        return cfg, rake_composites(pulses, desired, cfg)[1]

    @pytest.mark.parametrize("n_trials", [7, 5000])
    def test_draws_only_on_template_support(self, n_trials):
        # replay: the codes, then n_trials rows of one normal per nonzero
        # RAKE-template sample; the template's exact zeros draw nothing
        cfg, v = self._double_pulse_templates(66)
        est = estimate_noise_variance(cfg, v, n_trials, rng_stream(66, 1))
        rng = rng_stream(66, 1)
        tmpl = rake_template(cfg, generate_codes(cfg, cfg.frames_per_symbol, rng), v, 0)
        support = tmpl.samples[tmpl.samples != 0]
        assert len(support) < len(tmpl.samples)
        outputs = DT / math.sqrt(DT) * (
            rng.standard_normal((n_trials, len(support))) @ support
        )
        assert est == pytest.approx(float(np.var(outputs, ddof=1)), rel=1e-12)

    def test_zero_padded_templates_are_bit_identical(self):
        # composites that gain zero samples at either end have the same
        # support, so the estimator draws and returns exactly the same
        cfg, v = self._double_pulse_templates(67)
        padded = [
            Waveform(np.concatenate((np.zeros(lead), w.samples, np.zeros(9))),
                     w.dt, w.t0 - lead * w.dt)
            for w, lead in zip(v, (4, 11))
        ]
        want = estimate_noise_variance(cfg, v, 3000, rng_stream(67, 1))
        assert estimate_noise_variance(cfg, padded, 3000, rng_stream(67, 1)) == want


    def test_draw_buffer_is_capped(self):
        # tracemalloc counts numpy's buffers; a 20,000-trial estimate used
        # to fill one 4M-double (32 MB) buffer
        cfg, v = self._double_pulse_templates(68)
        tracemalloc.start()
        try:
            estimate_noise_variance(cfg, v, 20_000, rng_stream(68, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

class TestBerEstimate:
    def test_fields_consistent(self):
        est = BerEstimate(errors=5, bits=100, ber=0.05, ci95=wilson_halfwidth(5, 100))
        lo, hi = est.ci_bounds()
        assert lo < 0.05 < hi
