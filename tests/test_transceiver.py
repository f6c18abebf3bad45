import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpir.channel import ChannelRealization, composite_waveform
from mpir.errors import (
    ConfigMismatchError,
    GridMismatchError,
    InfeasibleGeometryError,
    InvalidParameterError,
)
from mpir.montecarlo import rng_stream
from mpir.channel import sample_channel
from mpir.pulses import grid_index
from mpir.transceiver import (
    CodeSequences,
    SystemConfig,
    check_pulse_fits,
    compose_received,
    decision_statistic,
    generate_codes,
    rake_template,
    received_block,
    select_combiner,
    transmit_block,
)

DT = 0.02


def small_config(**kw):
    defaults = dict(
        n_users=1, frames_per_symbol=2, chips_per_frame=8,
        hop_positions=2, pulse_types=1, chip_time=1.0, noise_sigma=0.0,
    )
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestSystemConfig:
    def test_derived_times(self):
        cfg = small_config()
        assert cfg.frame_time == 8.0
        assert cfg.symbol_time == 16.0
        assert cfg.symbol_samples(DT) == 2 * 8 * 50

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            small_config(hop_positions=9)  # exceeds chips_per_frame
        with pytest.raises(InvalidParameterError):
            small_config(frames_per_symbol=3, pulse_types=2)  # not a multiple
        with pytest.raises(InvalidParameterError):
            small_config(n_users=0)
        with pytest.raises(InvalidParameterError):
            small_config(noise_sigma=-1.0)

    def test_pulse_fit_enforced_at_configuration(self, mhp4):
        cfg = small_config(chip_time=0.5)  # pulse spans 0.92 ns > half-ns chip
        with pytest.raises(ConfigMismatchError):
            check_pulse_fits([mhp4], cfg)
        check_pulse_fits([mhp4], small_config())  # 1 ns chip is fine


class TestGenerateCodes:
    def test_singleton_alphabet(self, rng):
        cfg = small_config(hop_positions=1)
        codes = generate_codes(cfg, 1000, rng)
        assert np.all(codes.th == 0)

    def test_uniform_histogram(self):
        cfg = small_config(hop_positions=3, chips_per_frame=8)
        codes = generate_codes(cfg, 10**6, rng_stream(5, 0))
        counts = np.bincount(codes.th, minlength=3) / 10**6
        assert np.all(np.abs(counts - 1 / 3) < 0.005)

    def test_polarity_mean(self):
        cfg = small_config()
        codes = generate_codes(cfg, 10**6, rng_stream(5, 1))
        assert abs(codes.polarity.mean()) < 4 / math.sqrt(10**6)

    def test_code_validation(self):
        with pytest.raises(InvalidParameterError):
            CodeSequences(np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(InvalidParameterError):
            CodeSequences(np.array([-1, 0]), np.array([1, 1]))


class TestSelectCombiner:
    def chan(self):
        gains = np.array([0.5, -1.2, 0.8, -0.1])
        delays = np.array([0.0, 1.0, 2.5, 4.0])
        return ChannelRealization(gains, delays)

    def test_all_rake_mrc_equals_gains(self):
        beta = select_combiner(self.chan(), "mrc", "all")
        assert np.array_equal(beta, self.chan().gains)

    def test_egc_signs(self):
        beta = select_combiner(self.chan(), "egc", "all")
        assert np.array_equal(beta, np.sign(self.chan().gains))

    def test_selective_one_keeps_largest(self):
        beta = select_combiner(self.chan(), "mrc", "selective", 1)
        assert np.count_nonzero(beta) == 1
        assert beta[1] == -1.2

    def test_partial_keeps_first(self):
        beta = select_combiner(self.chan(), "mrc", "partial", 2)
        assert np.array_equal(beta, [0.5, -1.2, 0.0, 0.0])

    def test_selective_captures_at_least_partial(self, reference_channel, reference_config):
        rng = rng_stream(6, 0)
        for _ in range(100):
            chan = sample_channel(reference_channel, reference_config, rng)
            part = select_combiner(chan, "mrc", "partial", 5)
            sel = select_combiner(chan, "mrc", "selective", 5)
            assert np.dot(sel, chan.gains) >= np.dot(part, chan.gains) - 1e-12

    def test_m_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            select_combiner(self.chan(), "mrc", "selective", 5)
        with pytest.raises(InvalidParameterError):
            select_combiner(self.chan(), "bogus")


class TestTransmitBlock:
    def test_single_frame_is_scaled_pulse(self, mhp4):
        cfg = small_config(frames_per_symbol=1, hop_positions=1)
        codes = CodeSequences(np.array([0]), np.array([1]))
        block = transmit_block(cfg, [mhp4], np.array([1.0]), codes)
        nz = np.flatnonzero(block.samples)
        assert np.allclose(block.samples[nz[0] : nz[-1] + 1], mhp4.samples)
        # pulse array sits at the frame origin plus its own t0
        assert block.t0 + nz[0] * DT == pytest.approx(mhp4.t0)

    def test_symbol_energy_is_one(self, mhp4):
        cfg = small_config(frames_per_symbol=4, chips_per_frame=8, hop_positions=2)
        codes = generate_codes(cfg, 4, rng_stream(7, 0))
        block = transmit_block(cfg, [mhp4], np.array([1.0]), codes)
        assert block.energy == pytest.approx(1.0, abs=1e-9)

    def test_two_pulse_cycling_sample_exact(self, mhp4, mhp5):
        cfg = small_config(frames_per_symbol=2, pulse_types=2, hop_positions=1)
        codes = CodeSequences(np.array([0, 0]), np.array([1, 1]))
        block = transmit_block(cfg, [mhp4, mhp5], np.array([1.0]), codes)
        frame = cfg.frame_samples(DT)
        scale = 1 / math.sqrt(2)
        # hand-placed oracle: pulse 0 in frame 0, pulse 1 in frame 1
        guard = -grid_index(block.t0, DT)
        want = np.zeros(len(block.samples))
        for j, p in enumerate((mhp4, mhp5)):
            k = guard + j * frame + grid_index(p.t0, DT)
            want[k : k + len(p.samples)] += scale * p.samples
        assert np.array_equal(block.samples, want)

    def test_requires_unit_energy(self, mhp4):
        cfg = small_config(frames_per_symbol=1, hop_positions=1)
        bad = replace(mhp4, samples=2 * mhp4.samples)
        codes = CodeSequences(np.array([0]), np.array([1]))
        with pytest.raises(InvalidParameterError):
            transmit_block(cfg, [bad], np.array([1.0]), codes)

    def test_wrong_lengths(self, mhp4):
        cfg = small_config()
        codes = generate_codes(cfg, 4, rng_stream(7, 1))
        with pytest.raises(ConfigMismatchError):
            transmit_block(cfg, [mhp4], np.array([1.0]), codes)  # needs 2 frames
        with pytest.raises(ConfigMismatchError):
            transmit_block(cfg, [mhp4, mhp4], np.array([1.0, 1.0]), codes)


class TestComposeReceived:
    def test_single_user_no_noise_identity(self, mhp4):
        cfg = small_config()
        codes = generate_codes(cfg, 2, rng_stream(8, 0))
        block = transmit_block(cfg, [mhp4], np.array([1.0]), codes)
        out = compose_received(cfg, [block], np.array([0.0]))
        assert np.array_equal(out.samples, block.samples)
        assert out.t0 == pytest.approx(block.t0)

    def test_noise_sample_variance_convention(self, mhp4):
        # per-sample std must be noise_sigma / sqrt(dt)
        cfg = small_config(noise_sigma=0.5)
        zero = replace(
            transmit_block(cfg, [mhp4], np.array([1.0]),
                           generate_codes(cfg, 2, rng_stream(8, 1))),
        )
        zero = replace(zero, samples=np.zeros(10**6))
        out = compose_received(cfg, [zero], np.array([0.0]), rng_stream(8, 2))
        want = cfg.noise_sigma**2 / DT
        assert np.var(out.samples) == pytest.approx(want, rel=0.02)

    def test_two_users_disjoint_supports(self, mhp4):
        cfg = small_config(n_users=2)
        codes = generate_codes(cfg, 2, rng_stream(8, 3))
        b1 = transmit_block(cfg, [mhp4], np.array([1.0]), codes)
        b2 = transmit_block(cfg, [mhp4], np.array([-1.0]), codes)
        off = cfg.symbol_time / 2
        out = compose_received(cfg, [b1, b2], np.array([0.0, off]))
        k = grid_index(off, DT)
        recon = np.zeros(len(out.samples))
        recon[: len(b1.samples)] += b1.samples
        recon[k : k + len(b2.samples)] += b2.samples
        assert np.array_equal(out.samples, recon)

    def test_offset_validation(self, mhp4):
        cfg = small_config()
        codes = generate_codes(cfg, 2, rng_stream(8, 4))
        block = transmit_block(cfg, [mhp4], np.array([1.0]), codes)
        with pytest.raises(InvalidParameterError):
            compose_received(cfg, [block], np.array([1.0]))  # desired must be 0
        with pytest.raises(InvalidParameterError):
            compose_received(cfg, [block, block], np.array([0.0, cfg.symbol_time]))


class TestRakeTemplateAndDecision:
    def _setup(self, seed=9, n_bits=3):
        cfg = SystemConfig(
            n_users=1, frames_per_symbol=2, chips_per_frame=40,
            hop_positions=3, pulse_types=2, chip_time=1.0, noise_sigma=0.0,
        )
        from mpir.pulses import make_mhp

        pulses = [make_mhp(4, 0.05, DT), make_mhp(5, 0.05, DT)]
        params_rng = rng_stream(seed, 0)
        from mpir.channel import ChannelParams

        params = ChannelParams(n_paths=6, decay_rate=0.6, lognorm_var=0.8, mean_arrival=2.0)
        chan = sample_channel(params, cfg, params_rng)
        beta = select_combiner(chan, "mrc", "all")
        u = [composite_waveform(p, chan, chan.gains) for p in pulses]
        v = [composite_waveform(p, chan, beta) for p in pulses]
        rng = rng_stream(seed, 1)
        bits = rng.integers(0, 2, n_bits) * 2 - 1
        codes = generate_codes(cfg, n_bits * 2, rng)
        return cfg, pulses, chan, u, v, bits, codes

    def test_template_single_frame(self, mhp4):
        cfg = small_config(frames_per_symbol=1, hop_positions=1)
        codes = CodeSequences(np.array([0]), np.array([1]))
        chan = ChannelRealization(np.array([1.0]), np.array([0.0]))
        v = [composite_waveform(mhp4, chan, np.array([1.0]))]
        tmpl = rake_template(cfg, codes, v, 0)
        nz = np.flatnonzero(tmpl.samples)
        assert np.allclose(tmpl.samples[nz[0] : nz[-1] + 1], mhp4.samples)

    def test_polarity_flip_negates_template(self):
        cfg, pulses, chan, u, v, bits, codes = self._setup()
        flipped = CodeSequences(codes.th, -codes.polarity)
        t1 = rake_template(cfg, codes, v, 1)
        t2 = rake_template(cfg, flipped, v, 1)
        assert np.array_equal(t1.samples, -t2.samples)

    def test_template_stays_within_symbol(self):
        cfg, pulses, chan, u, v, bits, codes = self._setup()
        tmpl = rake_template(cfg, codes, v, 1)
        start = tmpl.t0
        end = tmpl.t0 + (len(tmpl.samples) - 1) * DT
        assert start >= 1 * cfg.symbol_time + min(w.t0 for w in v) - 1e-9
        assert end < 2 * cfg.symbol_time + min(w.t0 for w in v)

    def test_received_equals_template_gives_energy(self):
        cfg, pulses, chan, u, v, bits, codes = self._setup()
        tmpl = rake_template(cfg, codes, v, 0)
        y = decision_statistic(tmpl, tmpl)
        assert y == pytest.approx(tmpl.energy, rel=1e-12)

    def test_matches_naive_inner_product(self):
        cfg, pulses, chan, u, v, bits, codes = self._setup()
        rx = received_block(cfg, u, bits, codes)
        tmpl = rake_template(cfg, codes, v, 1)
        y = decision_statistic(rx, tmpl)
        # naive loop with explicit alignment
        k = round((tmpl.t0 - rx.t0) / DT)
        total = 0.0
        for i, tv in enumerate(tmpl.samples):
            j = k + i
            if 0 <= j < len(rx.samples):
                total += rx.samples[j] * tv
        total *= DT
        assert y == pytest.approx(total, rel=1e-12)

    def test_desired_term_identity(self):
        # with one user and no noise, Y/b == (1/sqrt N_f) sum_j phi_{u_j v_j}(0)
        cfg, pulses, chan, u, v, bits, codes = self._setup(n_bits=4)
        rx = received_block(cfg, u, bits, codes)
        received = compose_received(cfg, [rx], np.array([0.0]))
        n_f = cfg.frames_per_symbol
        for i, b in enumerate(bits):
            tmpl = rake_template(cfg, codes, v, i)
            y = decision_statistic(received, tmpl)
            phi_sum = sum(decision_statistic(u[j % 2], v[j % 2]) for j in range(n_f))
            want = b * phi_sum / math.sqrt(n_f)
            assert y == pytest.approx(want, rel=1e-9)
            assert math.copysign(1, y) == b

    @given(
        seed=st.integers(0, 2**32),
        shift=st.integers(-60, 60),
        alpha=st.floats(-10, 10),
        beta=st.floats(-10, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_in_received_signal(self, seed, shift, alpha, beta):
        # Y(alpha*r1 + beta*r2) = alpha*Y(r1) + beta*Y(r2) for one template,
        # whatever the template's alignment with the received window
        from mpir.pulses import Waveform

        rng = np.random.default_rng(seed)
        r1, r2 = rng.standard_normal((2, 100))
        tmpl = Waveform(rng.standard_normal(30), DT, shift * DT)
        combined = decision_statistic(Waveform(alpha * r1 + beta * r2, DT, 0.0), tmpl)
        parts = (alpha * decision_statistic(Waveform(r1, DT, 0.0), tmpl)
                 + beta * decision_statistic(Waveform(r2, DT, 0.0), tmpl))
        scale = (abs(alpha) + abs(beta)) * DT * np.linalg.norm(tmpl.samples) * 20
        assert combined == pytest.approx(parts, rel=1e-9, abs=1e-12 * scale)

    def test_grid_mismatch_rejected(self, mhp4):
        a = mhp4
        from mpir.pulses import make_mhp

        b = make_mhp(4, 0.05, 0.01)
        from mpir.pulses import Waveform

        with pytest.raises(GridMismatchError):
            decision_statistic(
                Waveform(a.samples, a.dt, 0.0), Waveform(b.samples, b.dt, 0.0)
            )

    def test_polarity_flip_of_interferer_negates_mai(self):
        # matched seeds: negating one interferer's polarity sequence flips
        # the sign of its contribution to Y and changes nothing else, so
        # |Y - desired| is invariant
        cfg, pulses, chan, u, v, bits, codes = self._setup(seed=12, n_bits=2)
        cfg2 = replace(cfg, n_users=2)
        rng = rng_stream(12, 5)
        from mpir.channel import ChannelParams

        params = ChannelParams(n_paths=5, decay_rate=0.5, lognorm_var=1.0, mean_arrival=2.0)
        ichan = sample_channel(params, cfg2, rng)
        ui = [composite_waveform(p, ichan, ichan.gains) for p in pulses]
        bits_i = np.array([1.0, -1.0])
        codes_i = generate_codes(cfg2, 4, rng)
        flipped_i = CodeSequences(codes_i.th, -codes_i.polarity)
        off = np.array([0.0, 2.5])  # small shift keeps supports overlapping
        rx_d = received_block(cfg2, u, bits, codes)
        y_parts = []
        for ci in (codes_i, flipped_i):
            blk_i = received_block(cfg2, ui, bits_i, ci)
            rx = compose_received(cfg2, [rx_d, blk_i], off)
            tmpl = rake_template(cfg2, codes, v, 0)
            y_parts.append(decision_statistic(rx, tmpl))
        desired_only = decision_statistic(
            compose_received(cfg2, [rx_d], np.array([0.0])), rake_template(cfg2, codes, v, 0)
        )
        mai_a = y_parts[0] - desired_only
        mai_b = y_parts[1] - desired_only
        assert mai_a == pytest.approx(-mai_b, rel=1e-9)
        assert abs(mai_a) > 0

    def test_frame_separability(self):
        # zeroing all template frames but one changes only that frame's
        # contribution: Y decomposes as the sum of per-frame correlators
        cfg, pulses, chan, u, v, bits, codes = self._setup(seed=13, n_bits=2)
        rx = compose_received(cfg, [received_block(cfg, u, bits, codes)], np.array([0.0]))
        full = decision_statistic(rx, rake_template(cfg, codes, v, 1))
        from mpir.transceiver import _assemble

        parts = 0.0
        n_f = cfg.frames_per_symbol
        for j in range(n_f):
            frame_idx = n_f + j  # bit 1
            single = _assemble(
                cfg,
                v,
                codes.th[frame_idx : frame_idx + 1],
                codes.polarity[frame_idx : frame_idx + 1].astype(float),
                first_frame=frame_idx,
            )
            parts += decision_statistic(rx, single)
        assert full == pytest.approx(parts, rel=1e-12)
