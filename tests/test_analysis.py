import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from mpir.analysis import (
    bep_averaged,
    bep_single,
    conditional_bep_terms,
    mai_variance_classical,
    mai_variance_multi,
    noise_variance,
    qfunc,
    sga_bep,
)
from mpir.channel import ChannelParams, ChannelRealization, composite_waveform, sample_channel
from mpir.errors import DegenerateInputError, InfeasibleGeometryError
from mpir.montecarlo import rng_stream
from mpir.pulses import cross_correlation, grid_index, make_mhp
from mpir.transceiver import SystemConfig, decision_statistic, rake_composites, select_combiner

DT = 0.02


class TestQFunc:
    def test_reference_points(self):
        assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
        assert qfunc(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)

    def test_against_scipy_on_working_range(self):
        x = np.linspace(0.0, 8.0, 3203)
        ours = qfunc(x)
        ref = 0.5 * scipy.special.erfc(x / math.sqrt(2))
        assert np.max(np.abs(ours - ref) / ref) < 1e-12

    def test_negative_arguments(self):
        x = np.linspace(-6.0, 0.0, 601)
        ref = 0.5 * scipy.special.erfc(x / math.sqrt(2))
        assert np.max(np.abs(qfunc(x) - ref)) < 1e-13

    def test_monotone_decreasing(self):
        x = np.sort(np.random.default_rng(3).uniform(-2, 10, 4000))
        y = qfunc(x)
        assert np.all(np.diff(y) < 0)

    def test_deep_tail_finite(self):
        assert 0.0 < qfunc(12.0) < 1e-30

    def test_scalar_returns_python_float(self):
        assert type(qfunc(1.5)) is float
        assert type(qfunc(np.float64(1.5))) is float
        assert type(qfunc(np.array(1.5))) is float

    def test_array_equals_scalar_calls(self):
        x = np.linspace(-9.0, 40.0, 977)
        assert qfunc(x).tolist() == [qfunc(v) for v in x]

    def test_saturates_far_out(self):
        assert qfunc(40.0) == 0.0
        assert qfunc(-40.0) == 1.0


def _reference_instance(seed, n_interferers=1):
    cfg = SystemConfig(
        n_users=1 + n_interferers, frames_per_symbol=2, chips_per_frame=40,
        hop_positions=3, pulse_types=2, chip_time=1.0, interferer_power=5.0,
    )
    params = ChannelParams(n_paths=20, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
    pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
    rng = rng_stream(seed, 0)
    desired = sample_channel(params, cfg, rng)
    strong = replace(params, power_scale=5.0)
    interferers = [sample_channel(strong, cfg, rng) for _ in range(n_interferers)]
    return cfg, pulses, desired, interferers


def _windowed_sigma2(u_set, template, j, config):
    """Reference sigma2_M(k, j) as the TH- and delay-window sum of phi^2:

    (1/(T_f N_p)) sum_{m=j-N_p..j} sum_{|l|<N_h} (N_h - |l|)
        int_0^{N_p T_f} phi_{u_m v_j}^2((m-j) T_f + l T_c + tau) dtau,

    each window a difference of prefix sums of phi^2 on the lag grid.
    """
    dt = template.dt
    n_p, n_h = config.pulse_types, config.hop_positions
    chip, frame = config.chip_samples(dt), config.frame_samples(dt)
    tables = []
    for u in u_set:
        phi = cross_correlation(u, template)
        tables.append((np.concatenate(([0.0], np.cumsum(phi.samples**2))), grid_index(-phi.t0, dt)))
    total = 0.0
    for m in range(j - n_p, j + 1):
        cs, q0 = tables[m % n_p]
        for l in range(1 - n_h, n_h):
            start = (m - j) * frame + l * chip + q0
            lo, hi = max(start, 0), min(start + n_p * frame, len(cs) - 1)
            if hi > lo:
                total += (n_h - abs(l)) * (cs[hi] - cs[lo])
    return total * dt / (config.frame_time * n_p)


def _limit_instance(seed, n_p, n_h, past=0):
    """Composites of random channels, the last interferer's last path placed
    ``past`` samples beyond the frame-containment limit (0: at the limit)."""
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(
        n_users=3, frames_per_symbol=2 * n_p, chips_per_frame=8,
        hop_positions=n_h, pulse_types=n_p, chip_time=1.0,
    )
    pulses = [make_mhp(4 + i, 0.05, DT) for i in range(n_p)]
    chip, frame = cfg.chip_samples(DT), cfg.frame_samples(DT)
    limit = frame - (n_h - 1) * chip - max(len(p.samples) for p in pulses)

    def channel(n_paths, last=None):
        offsets = np.sort(rng.choice(np.arange(1, limit + 1), n_paths - 1, replace=False))
        if last is not None:
            offsets[-1] = last
        delays = (offsets + rng.uniform(-0.4, 0.4, n_paths - 1)) * DT
        return ChannelRealization(rng.normal(size=n_paths), np.concatenate(([0.0], delays)))

    desired = channel(int(rng.integers(1, 8)))
    interferers = [channel(int(rng.integers(2, 8))), channel(int(rng.integers(2, 8)), limit + past)]
    return cfg, pulses, desired, interferers


class TestMaiVariance:
    @given(seed=st.integers(0, 2**32 - 1), n_p=st.integers(1, 3), n_h=st.sampled_from([1, 3]),
           scheme=st.sampled_from(["mrc", "egc"]), selective=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_windowed_sum_up_to_containment_limit(self, seed, n_p, n_h, scheme, selective):
        cfg, pulses, desired, interferers = _limit_instance(seed, n_p, n_h)
        n_sel = desired.n_paths // 2 + 1
        combiner = replace(cfg, scheme=scheme, selection="selective" if selective else "all",
                           combiner_paths=n_sel)
        beta = select_combiner(desired, combiner)
        v = [composite_waveform(p, desired, beta) for p in pulses]
        sets = [[composite_waveform(p, ch, ch.gains) for p in pulses] for ch in interferers]
        want = np.array([[_windowed_sigma2(u, v[j], j, cfg) for j in range(n_p)] for u in sets])
        got = mai_variance_multi(combiner, pulses, desired, interferers).per_frame
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if n_p == 1:
            classical = mai_variance_classical(sets[1][0], v[0], cfg)
            assert classical == pytest.approx(want[1, 0], rel=1e-12, abs=0)

    def test_paths_on_one_grid_sample_add(self):
        # two paths of the desired channel and two of an interferer snap to
        # one grid sample; the tap trains must sum them, as the composites do
        cfg, pulses, _, _ = _limit_instance(7, 2, 3)
        desired = ChannelRealization(np.array([0.8, -0.5, 0.6]), np.array([0.0, 9.8, 10.2]) * DT)
        interferers = [
            ChannelRealization(np.array([1.1, 0.4, -0.9, 0.3]), np.array([0.0, 30.7, 31.3, 50.0]) * DT),
            ChannelRealization(np.array([-0.7, 1.2]), np.array([0.0, 42.0]) * DT),
        ]
        v = [composite_waveform(p, desired, desired.gains) for p in pulses]
        sets = [[composite_waveform(p, ch, ch.gains) for p in pulses] for ch in interferers]
        want = np.array([[_windowed_sigma2(u, v[j], j, cfg) for j in range(2)] for u in sets])
        got = mai_variance_multi(cfg, pulses, desired, interferers).per_frame
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_past_containment_limit_rejected(self):
        cfg, pulses, desired, interferers = _limit_instance(5, 2, 3, past=1)
        v = [composite_waveform(p, desired, desired.gains) for p in pulses]
        sets = [[composite_waveform(p, ch, ch.gains) for p in pulses] for ch in interferers]
        with pytest.raises(InfeasibleGeometryError):
            mai_variance_multi(cfg, pulses, desired, interferers)
        with pytest.raises(InfeasibleGeometryError):
            mai_variance_classical(sets[1][0], v[0], replace(cfg, pulse_types=1))

    def test_orthogonal_supports_give_zero(self, mhp4):
        cfg = SystemConfig(
            n_users=2, frames_per_symbol=1, chips_per_frame=2000,
            hop_positions=1, pulse_types=1, chip_time=1.0,
        )
        near = ChannelRealization(np.array([1.0]), np.array([0.0]))
        u = composite_waveform(mhp4, near, np.array([1.0]))
        v = composite_waveform(mhp4, near, np.array([1.0]))
        # place the interferer composite far beyond any template overlap:
        # the correlation support is tiny compared to the frame, so the
        # tau integral sees the full support either way; zero comes from
        # zero gains instead.
        silent_chan = ChannelRealization(np.array([0.0]), np.array([0.0]))
        silent = composite_waveform(mhp4, silent_chan, silent_chan.gains)
        out = mai_variance_multi(cfg, [mhp4], near, [silent_chan])
        assert out.total == 0.0
        assert mai_variance_classical(silent, v, cfg) == 0.0

    def test_quadratic_scaling_in_interferer_gain(self):
        cfg, pulses, desired, interferers = _reference_instance(31)
        _, v = rake_composites(pulses, desired, cfg)
        loud = ChannelRealization(3.0 * interferers[0].gains, interferers[0].delays)
        u = [composite_waveform(p, interferers[0], interferers[0].gains) for p in pulses]
        u3 = [composite_waveform(p, loud, loud.gains) for p in pulses]
        base = mai_variance_multi(cfg, pulses, desired, interferers)
        scaled = mai_variance_multi(cfg, pulses, desired, [loud])
        assert np.allclose(scaled.per_frame, 9.0 * base.per_frame, rtol=1e-12)
        c_base = mai_variance_classical(u[0], v[0], replace(cfg, pulse_types=1))
        c_scaled = mai_variance_classical(u3[0], v[0], replace(cfg, pulse_types=1))
        assert c_scaled == pytest.approx(9.0 * c_base, rel=1e-12)

    def test_single_pulse_reduction_matches_classical(self):
        cfg, pulses, desired, interferers = _reference_instance(32)
        single = replace(cfg, pulse_types=1)
        _, (v,) = rake_composites(pulses[:1], desired, single)
        u = composite_waveform(pulses[0], interferers[0], interferers[0].gains)
        multi = mai_variance_multi(single, pulses[:1], desired, interferers)
        classical = mai_variance_classical(u, v, single)
        assert multi.per_frame[0, 0] == pytest.approx(classical, rel=1e-9)

    def test_matches_monte_carlo_oracle(self):
        from mpir.montecarlo import estimate_mai_variance

        cfg, pulses, desired, interferers = _reference_instance(33)
        out = mai_variance_multi(cfg, pulses, desired, interferers)
        est = estimate_mai_variance(
            cfg, pulses, desired, interferers[0], 0, 300_000, rng_stream(33, 9)
        )
        closed = out.per_frame[0, 0] / cfg.hop_positions**2
        assert est == pytest.approx(closed, rel=0.04)

    def test_refinement_in_dt_below_2e_3(self):
        # halving the sample step changes the lag integrals by < 0.2%.
        # Delays are pinned to the coarse grid first: re-snapping them at the
        # finer grid would change the quantized channel itself, which is a
        # modeling choice, not integration error.
        params = ChannelParams(n_paths=8, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
        cfg = SystemConfig(
            n_users=2, frames_per_symbol=2, chips_per_frame=40,
            hop_positions=3, pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        rng = rng_stream(34, 0)

        def snapped(chan):
            return ChannelRealization(chan.gains, np.round(chan.delays / DT) * DT)

        desired = snapped(sample_channel(params, cfg, rng))
        interferer = snapped(sample_channel(replace(params, power_scale=5.0), cfg, rng))
        results = []
        for dt in (DT, DT / 2):
            pulses = [make_mhp(4, 0.05, dt), make_mhp(5, 0.05, dt)]
            results.append(mai_variance_multi(cfg, pulses, desired, [interferer]).total)
        assert results[1] == pytest.approx(results[0], rel=2e-3)


    @given(seed=st.integers(0, 10_000), n_interferers=st.integers(1, 3),
           flip=st.integers(0, 2))
    @settings(max_examples=8, deadline=None)
    def test_invariant_under_interferer_polarity_flip(self, seed, n_interferers, flip):
        cfg, pulses, desired, interferers = _reference_instance(seed, n_interferers)
        k = flip % n_interferers
        flipped = list(interferers)
        flipped[k] = ChannelRealization(-interferers[k].gains, interferers[k].delays)
        base = mai_variance_multi(cfg, pulses, desired, interferers)
        out = mai_variance_multi(cfg, pulses, desired, flipped)
        np.testing.assert_allclose(out.per_frame, base.per_frame, rtol=1e-12, atol=0)
        assert out.total == pytest.approx(base.total, rel=1e-12)


class TestNoiseVariance:
    def test_zero_noise(self):
        # an all-zero template passes no noise
        cfg, pulses, desired, _ = _reference_instance(35)
        v = [composite_waveform(p, desired, np.zeros(desired.n_paths)) for p in pulses]
        assert noise_variance(v, cfg) == 0.0

    def test_single_path_unit_gain(self, mhp4):
        cfg = SystemConfig(
            n_users=1, frames_per_symbol=4, chips_per_frame=8,
            hop_positions=1, pulse_types=1, chip_time=1.0,
        )
        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        v = [composite_waveform(mhp4, chan, np.array([1.0]))]
        want = cfg.frames_per_symbol  # phi_v(0) == pulse energy == 1
        assert noise_variance(v, cfg) == pytest.approx(want, rel=1e-9)

    def test_matches_monte_carlo(self):
        from mpir.montecarlo import estimate_noise_variance

        cfg, pulses, desired, _ = _reference_instance(36)
        _, v = rake_composites(pulses, desired, cfg)
        closed = noise_variance(v, cfg)
        est = estimate_noise_variance(cfg, v, 30_000, rng_stream(36, 1))
        assert est == pytest.approx(closed, rel=0.03)


class TestBep:
    def test_zero_signal_gives_half(self):
        cfg, pulses, desired, interferers = _reference_instance(37)
        _, v = rake_composites(pulses, desired, cfg)
        zero_u = [composite_waveform(p, desired, np.zeros(desired.n_paths)) for p in pulses]
        signal = sum(decision_statistic(u, w) for u, w in zip(zero_u, v))
        assert sga_bep(signal, 0.0, sum(w.energy for w in v), 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_awgn_single_path_is_q_of_one(self, mhp4):
        # K=1, sigma=1, one unit path: numerator 1, denominator 1
        cfg = SystemConfig(
            n_users=1, frames_per_symbol=2, chips_per_frame=8,
            hop_positions=1, pulse_types=1, chip_time=1.0,
        )
        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        u = composite_waveform(mhp4, chan, np.array([1.0]))
        assert bep_single(u, u, [0.0], cfg, 1.0) == pytest.approx(qfunc(1.0), rel=1e-9)

    def test_duplicated_pulse_equals_single(self, mhp4):
        # N_p = 2 with the same pulse in both slots reduces to the
        # single-pulse expression on the same channel
        cfg2 = SystemConfig(
            n_users=2, frames_per_symbol=2, chips_per_frame=40,
            hop_positions=3, pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        cfg1 = replace(cfg2, pulse_types=1)
        params = ChannelParams(n_paths=10, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
        rng = rng_stream(38, 0)
        desired = sample_channel(params, cfg2, rng)
        interferer = sample_channel(replace(params, power_scale=5.0), cfg2, rng)
        (u,), (v,) = rake_composites([mhp4], desired, cfg1)
        ui = composite_waveform(mhp4, interferer, interferer.gains)
        signal, mai, energy = conditional_bep_terms(cfg2, [mhp4, mhp4], desired, [interferer])
        two = sga_bep(signal, mai.total, energy, 0.4)
        one = bep_single(u, v, [mai_variance_classical(ui, v, cfg1)], cfg1, 0.4)
        assert two == pytest.approx(one, rel=1e-12)

    def test_monotonicity_in_terms(self):
        signal, mai, energy, sigma = 0.8, 0.05, 0.02, 1.0
        pe0 = sga_bep(signal, mai, energy, sigma)
        assert sga_bep(signal * 1.05, mai, energy, sigma) < pe0
        assert sga_bep(signal, mai * 1.2, energy, sigma) > pe0
        assert sga_bep(signal, mai, energy * 1.2, sigma) > pe0
        assert sga_bep(signal, mai, energy, sigma * 1.1) > pe0

    def test_zero_denominator_rejected(self, mhp4):
        cfg = SystemConfig(
            n_users=1, frames_per_symbol=1, chips_per_frame=8,
            hop_positions=1, pulse_types=1, chip_time=1.0,
        )
        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        u = composite_waveform(mhp4, chan, np.array([1.0]))
        with pytest.raises(DegenerateInputError):
            bep_single(u, u, [0.0], cfg, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_reduction_identity_random_configs(self, seed):
        # the multi-pulse expression with one pulse type must equal the
        # single-pulse expression to 1e-12 (acceptance A7 runs the
        # 100-config version; this covers random geometry broadly)
        rng = np.random.default_rng(seed)
        n_c = int(rng.integers(6, 20))
        n_h = int(rng.integers(1, min(4, n_c)))
        n_f = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.05, 1.0))
        cfg = SystemConfig(
            n_users=2, frames_per_symbol=n_f, chips_per_frame=n_c,
            hop_positions=n_h, pulse_types=1, chip_time=1.0, interferer_power=5.0,
        )
        order = int(rng.integers(0, 6))
        pulse = make_mhp(order, 0.05, DT)
        params = ChannelParams(
            n_paths=int(rng.integers(1, 6)),
            decay_rate=float(rng.uniform(0.2, 1.5)),
            lognorm_var=float(rng.uniform(0.0, 1.5)),
            mean_arrival=float(rng.uniform(0.3, 1.5)),
        )
        srng = np.random.default_rng(seed + 1)
        desired = sample_channel(params, cfg, srng)
        interferer = sample_channel(replace(params, power_scale=5.0), cfg, srng)
        (u,), (v,) = rake_composites([pulse], desired, cfg)
        ui = composite_waveform(pulse, interferer, interferer.gains)
        signal, mai, energy = conditional_bep_terms(cfg, [pulse], desired, [interferer])
        sigma2 = mai_variance_classical(ui, v, cfg)
        single = bep_single(u, v, [sigma2], cfg, sigma)
        assert sga_bep(signal, mai.total, energy, sigma) == pytest.approx(single, rel=1e-12)
        assert signal == pytest.approx(decision_statistic(u, v), rel=1e-12)
        assert mai.total == pytest.approx(sigma2 / (n_f * n_h**2), rel=1e-12)


class TestSgaBep:
    SIGMAS = np.array([0.05, 0.3, 0.5, 1.0 / 3.0, 0.9, 2.5])

    def test_array_equals_scalar_calls_bit_for_bit(self):
        cfg, pulses, desired, interferers = _reference_instance(43, n_interferers=3)
        signal, mai, energy = conditional_bep_terms(cfg, pulses, desired, interferers)
        out = sga_bep(signal, mai.total, energy, self.SIGMAS)
        one_by_one = [sga_bep(signal, mai.total, energy, float(s)) for s in self.SIGMAS]
        assert all(type(pe) is float for pe in one_by_one)
        assert out.shape == self.SIGMAS.shape
        assert out.tolist() == one_by_one

    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_zero_denominator_at_any_sigma_rejected(self, at):
        sigmas = self.SIGMAS.copy()
        sigmas[at] = 0.0
        with pytest.raises(DegenerateInputError):
            sga_bep(0.7, 0.0, 1.3, sigmas)

    def test_bep_averaged_rejects_a_noise_free_point_without_mai(self):
        # one user, so no interferer and a zero MAI term: sigma = 0 leaves
        # the denominator at exactly zero
        cfg = SystemConfig(
            n_users=1, frames_per_symbol=2, chips_per_frame=20,
            hop_positions=2, pulse_types=2, chip_time=1.0,
        )
        params = ChannelParams(n_paths=4, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.0)
        pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
        bep_averaged(cfg, pulses, params, 2, rng_stream(44, 0), [0.5, 0.2])
        with pytest.raises(DegenerateInputError):
            bep_averaged(cfg, pulses, params, 2, rng_stream(44, 0), [0.5, 0.0])


class TestConditionalBepTerms:
    @pytest.mark.parametrize("scheme,selection,n_paths", [
        ("mrc", "all", None), ("egc", "all", None), ("mrc", "selective", 3), ("egc", "partial", 3),
    ])
    def test_terms_use_the_combiner_templates(self, scheme, selection, n_paths):
        # under mrc over all paths the desired composites serve as the
        # templates; every other combiner builds its own
        cfg, pulses, desired, interferers = _reference_instance(42, n_interferers=2)
        combiner = replace(cfg, scheme=scheme, selection=selection, combiner_paths=n_paths)
        beta = select_combiner(desired, combiner)
        u = [composite_waveform(p, desired, desired.gains) for p in pulses]
        v = [composite_waveform(p, desired, beta) for p in pulses]
        sets = [[composite_waveform(p, ch, ch.gains) for p in pulses] for ch in interferers]
        sig, mai, energy = conditional_bep_terms(combiner, pulses, desired, interferers)
        # the spectral sums against the time-domain composites: two paths
        # that share no code agree to rounding
        want_sig = sum(decision_statistic(a, b) for a, b in zip(u, v)) / math.sqrt(2)
        assert sig == pytest.approx(want_sig, rel=1e-13)
        assert np.array_equal(mai.per_frame, mai_variance_multi(combiner, pulses, desired, interferers).per_frame)
        want = [[_windowed_sigma2(u_set, v[j], j, cfg) for j in range(2)] for u_set in sets]
        np.testing.assert_allclose(mai.per_frame, want, rtol=1e-12, atol=0)
        assert energy == pytest.approx(sum(w.energy for w in v), rel=1e-13)


class TestBepAveraged:
    def test_single_realization_matches_conditional(self):
        cfg, pulses, desired, interferers = _reference_instance(39, n_interferers=19)
        params = ChannelParams(n_paths=20, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
        out = bep_averaged(cfg, pulses, params, 1, rng_stream(40, 0), [0.5])
        # redraw the same ensemble and evaluate the conditional expression
        rng = rng_stream(40, 0)
        desired2 = sample_channel(params, cfg, rng)
        strong = replace(params, power_scale=5.0)
        interferers2 = [sample_channel(strong, cfg, rng) for _ in range(19)]
        sig, mai, energy = conditional_bep_terms(cfg, pulses, desired2, interferers2)
        assert out.pe[0] == pytest.approx(sga_bep(sig, mai.total, energy, 0.5), rel=1e-12)
        assert out.stderr[0] == 0.0

    def test_stderr_shrinks_with_n(self):
        params = ChannelParams(n_paths=6, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.0)
        cfg = SystemConfig(
            n_users=3, frames_per_symbol=2, chips_per_frame=20,
            hop_positions=2, pulse_types=2, chip_time=1.0, interferer_power=5.0,
        )
        pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
        small = bep_averaged(cfg, pulses, params, 24, rng_stream(41, 0), [0.4])
        large = bep_averaged(cfg, pulses, params, 96, rng_stream(41, 1), [0.4])
        # ratio should be ~2 = sqrt(96/24); allow wide statistical slack
        assert large.stderr[0] < small.stderr[0]
        assert large.stderr[0] == pytest.approx(small.stderr[0] / 2, rel=0.6)
