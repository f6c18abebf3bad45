import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpir.errors import (
    DegenerateInputError,
    GridMismatchError,
    InvalidParameterError,
    ResolutionError,
)
from mpir.pulses import (
    CorrelationFunction,
    Waveform,
    cross_correlation,
    grid_index,
    make_mhp,
    normalize_energy,
    pulse_spectrum,
)

DT = 0.02
TAU = 0.05


def naive_correlation(a, b, lag_samples):
    """O(N^2) double-loop evaluation of phi_ab at an integer lag."""
    total = 0.0
    for j, bv in enumerate(b.samples):
        i = j - lag_samples
        if 0 <= i < len(a.samples):
            total += a.samples[i] * bv
    return total * a.dt


class TestMakeMhp:
    def test_order0_positive_and_symmetric(self):
        p = make_mhp(0, TAU, DT)
        assert np.all(p.samples > 0)
        assert np.array_equal(p.samples, p.samples[::-1])

    def test_unit_energy(self):
        for order in range(6):
            p = make_mhp(order, TAU, DT)
            assert p.energy == pytest.approx(1.0, rel=1e-9)

    def test_t0_centers_the_grid(self):
        p = make_mhp(3, TAU, DT)
        assert p.t0 == pytest.approx(-(len(p.samples) - 1) * DT / 2)

    def test_order4_zero_crossings_match_hermite_roots(self):
        # He_4 roots are +-sqrt(3 +- sqrt 6); scaled by tau_p they are the
        # interior sign changes of the pulse.
        tau_p = 0.08
        p = make_mhp(4, tau_p, DT)
        t = p.t0 + DT * np.arange(len(p.samples))
        signs = np.sign(p.samples)
        flips = t[:-1][signs[:-1] * signs[1:] < 0]
        expected = np.sort(
            np.array([s * math.sqrt(3 + pm * math.sqrt(6)) * tau_p
                      for s in (-1, 1) for pm in (-1, 1)])
        )
        assert len(flips) == 4
        assert np.allclose(flips, expected, atol=DT)

    def test_order4_peak_location_matches_dense_oracle(self):
        tau_p = 0.08
        p = make_mhp(4, tau_p, DT)
        t = p.t0 + DT * np.arange(len(p.samples))
        # dense evaluation of |He_4(x) exp(-x^2/4)|
        x = np.linspace(-10, 10, 200001)
        h = (x**4 - 6 * x**2 + 3) * np.exp(-(x**2) / 4)
        x_peak = abs(x[np.argmax(np.abs(h))]) * tau_p
        got = abs(t[np.argmax(np.abs(p.samples))])
        assert got == pytest.approx(x_peak, abs=DT)

    def test_truncation_level(self):
        p = make_mhp(5, TAU, DT)
        peak = np.max(np.abs(p.samples))
        assert abs(p.samples[0]) >= 1e-6 * peak / 2
        assert abs(p.samples[0]) <= 1e-5 * peak

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            make_mhp(-1, TAU, DT)
        with pytest.raises(InvalidParameterError):
            make_mhp(11, TAU, DT)
        with pytest.raises(InvalidParameterError):
            make_mhp(4, -0.1, DT)
        with pytest.raises(InvalidParameterError):
            make_mhp(4, TAU, 0.0)

    def test_too_coarse_dt(self):
        with pytest.raises(ResolutionError):
            make_mhp(4, TAU, 2 * TAU)


class TestNormalizeEnergy:
    def test_scales_by_half_for_energy_four(self):
        raw = Waveform(np.array([1.0, 1.0, 1.0, 1.0]), dt=1.0, t0=0.0)
        assert raw.energy == pytest.approx(4.0)
        out = normalize_energy(raw)
        assert np.allclose(out.samples, raw.samples / 2.0)

    def test_idempotent(self, mhp4):
        again = normalize_energy(mhp4)
        assert np.max(np.abs(again.samples - mhp4.samples)) < 1e-12

    def test_trapezoid_oracle(self):
        p = make_mhp(5, TAU, DT)
        # independent trapezoid-rule integration of the squared samples
        energy = np.trapezoid(p.samples**2, dx=DT)
        # endpoints are at the 1e-6 truncation level so trapezoid == rectangle
        assert energy == pytest.approx(1.0, abs=1e-9)

    def test_zero_pulse_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize_energy(Waveform(np.zeros(8), dt=0.1, t0=0.0))


class TestCrossCorrelation:
    def test_self_correlation_at_zero_is_energy(self, mhp4):
        c = cross_correlation(mhp4, mhp4)
        assert c.evaluate(0.0) == pytest.approx(mhp4.energy, rel=1e-12)

    def test_opposite_parity_orthogonal_at_zero(self, mhp4, mhp5):
        c = cross_correlation(mhp4, mhp5)
        assert abs(c.evaluate(0.0)) < 1e-6

    def test_nonzero_lag_matches_double_loop(self, mhp4, mhp5):
        c = cross_correlation(mhp4, mhp5)
        lag_samples = 3  # 0.06 ns, nearest grid lag to 0.05 ns
        want = naive_correlation(mhp4, mhp5, lag_samples)
        assert want != 0.0
        assert c.evaluate(lag_samples * DT) == pytest.approx(want, rel=1e-10)

    def test_mismatched_dt_rejected(self, mhp4):
        other = make_mhp(4, TAU, 0.01)
        with pytest.raises(GridMismatchError):
            cross_correlation(mhp4, other)

    def test_outside_support_is_zero(self, mhp4):
        c = cross_correlation(mhp4, mhp4)
        assert c.evaluate(1e3) == 0.0
        assert c.evaluate(-1e3) == 0.0

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(-60, 60))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_under_argument_swap(self, na, nb, k):
        a = make_mhp(na, TAU, DT)
        b = make_mhp(nb, TAU, DT)
        ab = cross_correlation(a, b)
        ba = cross_correlation(b, a)
        x = k * DT
        assert ab.evaluate(x) == pytest.approx(ba.evaluate(-x), abs=1e-13)

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_cauchy_schwarz(self, na, nb):
        a = make_mhp(na, TAU, DT)
        b = make_mhp(nb, TAU, DT)
        c = cross_correlation(a, b)
        bound = math.sqrt(a.energy * b.energy)
        assert np.max(np.abs(c.values)) <= bound * (1 + 1e-9)


class TestPulseSpectrum:
    def test_parseval(self, mhp4):
        spec = pulse_spectrum(mhp4, 4 * len(mhp4.samples))
        df = spec.freqs[1] - spec.freqs[0]
        assert np.sum(spec.magnitude_sq) * df == pytest.approx(1.0, rel=1e-3)

    def test_even_pulse_has_real_transform(self, mhp4):
        n = 512
        # phase-corrected continuous transform: even pulse => real spectrum,
        # so magnitude_sq is just the squared real part
        freqs = np.fft.fftfreq(n, d=DT)
        raw = np.fft.fft(mhp4.samples, n) * DT
        phased = raw * np.exp(-2j * np.pi * freqs * mhp4.t0)
        assert np.max(np.abs(phased.imag)) < 1e-9 * np.max(np.abs(phased.real))
        spec = pulse_spectrum(mhp4, n)
        assert np.allclose(spec.magnitude_sq, np.fft.fftshift(phased.real**2), rtol=1e-9)

    def test_symmetric_in_frequency(self, mhp5):
        spec = pulse_spectrum(mhp5, 4 * len(mhp5.samples))
        for f in (0.5, 1.0, 2.5):
            i_pos = np.argmin(np.abs(spec.freqs - f))
            i_neg = np.argmin(np.abs(spec.freqs + f))
            assert spec.magnitude_sq[i_pos] == pytest.approx(spec.magnitude_sq[i_neg], rel=1e-9)

    def test_peak_frequency_matches_quadrature_oracle(self):
        tau_p = 0.08
        p = make_mhp(4, tau_p, DT)
        n = 4096
        spec = pulse_spectrum(p, n)
        f_peak = abs(spec.freqs[np.argmax(spec.magnitude_sq)])
        # brute-force quadrature of |int h(t) exp(-2 pi i f t) dt|^2 on a fine grid
        t = p.t0 + DT * np.arange(len(p.samples))
        f_grid = np.linspace(0.1, 6.0, 2**12)
        transform = np.array(
            [abs(np.sum(p.samples * np.exp(-2j * np.pi * f * t)) * DT) for f in f_grid]
        )
        f_oracle = f_grid[np.argmax(transform)]
        assert f_peak == pytest.approx(f_oracle, abs=1.5 / (n * DT))

    def test_n_freq_too_small_rejected(self, mhp4):
        with pytest.raises(InvalidParameterError):
            pulse_spectrum(mhp4, len(mhp4.samples) // 2)


class TestCorrelationFunction:
    def test_lags_property(self):
        c = CorrelationFunction(np.arange(5.0), lag_step=0.5, lag0=-1.0)
        assert np.allclose(c.lags, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert c.evaluate(0.0) == 2.0
        assert c.evaluate(10.0) == 0.0

    def test_vector_evaluation(self):
        c = CorrelationFunction(np.arange(5.0), lag_step=0.5, lag0=-1.0)
        out = c.evaluate(np.array([-1.0, 0.26, 99.0]))
        assert np.allclose(out, [0.0, 3.0, 0.0])


class TestWaveform:
    @pytest.mark.parametrize(
        "samples, dt",
        [
            ([1.0, np.nan, 1.0], DT),
            ([1.0, np.inf], DT),
            ([-np.inf, 1.0], DT),
            ([], DT),
            ([[1.0, 2.0], [3.0, 4.0]], DT),
            ([1.0, 2.0], 0.0),
            ([1.0, 2.0], -DT),
        ],
        ids=["nan", "inf", "minus-inf", "empty", "2-d", "zero-dt", "negative-dt"],
    )
    def test_rejects_malformed(self, samples, dt):
        with pytest.raises(InvalidParameterError):
            Waveform(np.array(samples, dtype=float), dt, 0.0)

    def test_single_sample_accepted(self):
        w = Waveform(np.array([2.0]), DT, 0.0)
        assert w.energy == pytest.approx(4.0 * DT)
        assert w.label == ""


class TestGridIndex:
    def test_scalar_rounds_half_away_from_zero(self):
        assert grid_index(0.5, 1.0) == 1
        assert grid_index(-0.5, 1.0) == -1
        assert grid_index(2.5, 1.0) == 3
        assert grid_index(-2.5, 1.0) == -3
        assert grid_index(0.49, 1.0) == 0
        assert type(grid_index(0.3, 1.0)) is int

    @given(
        k=st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=30),
        frac=st.lists(st.sampled_from([0.0, 0.5, -0.5, 0.25, 0.4999, 0.5001]), min_size=1, max_size=30),
        dt=st.sampled_from([0.02, 2.0**-6, 1.0, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_array_equals_scalar(self, k, frac, dt):
        # times on the grid, between grid points and on the +-(k + 0.5) dt
        # ties; each time is formed as x = (k + f) * dt, as callers do
        n = min(len(k), len(frac))
        x = (np.array(k[:n]) + np.array(frac[:n])) * dt
        got = grid_index(x, dt)
        assert got.dtype == np.int64
        assert got.tolist() == [grid_index(float(v), dt) for v in x]
        assert grid_index(-x, dt).tolist() == [-i for i in got.tolist()]
