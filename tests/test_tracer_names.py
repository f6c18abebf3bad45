"""The benchmark tracer (benchmarks/tracer.py) wraps mpir functions by
module and name and reads attributes of their arguments and results to
compute work counts.  Renaming or deleting one of those functions, or one
of the attributes the counters read, breaks every traced benchmark run, so
each name must still resolve to a function and each counter must still
turn a real call into integer counts."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mpir import ChannelParams, SystemConfig, TrialPlan, make_mhp
from mpir.channel import sample_channel
from mpir.montecarlo import estimate_noise_variance, run_ber
from mpir.pulses import cross_correlation
from mpir.spectral import empirical_psd
from mpir.transceiver import (
    CodeSequences, _assemble, generate_codes, rake_composites, rake_template, transmit_block,
)

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced_names():
    # the tracer also records montecarlo.rake_template's output length
    return [*_load_tracer().span_names(), "montecarlo.rake_template"]


def test_traced_names_resolve_to_functions():
    names = _traced_names()
    missing = []
    for name in names:
        module, _, fn = name.partition(".")
        if not callable(getattr(importlib.import_module(f"mpir.{module}"), fn, None)):
            missing.append(name)
    assert not missing, f"benchmarks/tracer.py wraps names mpir no longer has: {missing}"


@pytest.fixture(scope="module")
def calls():
    """Span name -> (function, args) of one small real call per counter."""
    config = SystemConfig(n_users=2, frames_per_symbol=2, chips_per_frame=20, hop_positions=2,
                          pulse_types=2, chip_time=1.0, interferer_power=5.0)
    pulses = [make_mhp(4, 0.05, 0.02), make_mhp(5, 0.05, 0.02)]
    channel = ChannelParams(n_paths=4, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5)
    rng = np.random.default_rng(7)
    codes = generate_codes(config, 8, rng)
    _, templates = rake_composites(pulses, sample_channel(channel, config, rng), config)
    nf = config.frames_per_symbol
    sym = config.frame_samples(0.02) * nf
    # cli streams the PSD block to empirical_psd as a generator of pieces
    pieces = (
        transmit_block(config, pulses, np.ones(1), CodeSequences(codes.th[f : f + nf], codes.polarity[f : f + nf]))
        for f in (0, nf)
    )
    plan = TrialPlan(master_seed=1, n_realizations=1, bits_per_realization=4, min_errors=1)
    return {
        "montecarlo.run_ber": (run_ber, (config, pulses, channel, plan, 0.5)),
        "transceiver._assemble": (_assemble, (config, pulses, codes.th, codes.polarity.astype(float))),
        "pulses.cross_correlation": (cross_correlation, (pulses[0], pulses[1])),
        "montecarlo.estimate_noise_variance": (estimate_noise_variance, (config, templates, 10, rng)),
        "spectral.empirical_psd": (empirical_psd, (pieces, sym, 2)),
        "montecarlo.rake_template": (rake_template, (config, codes, templates, 0)),
    }


def test_counters_read_real_results(calls):
    tracer = _load_tracer()
    t = tracer.Tracer()
    fn, args = calls["montecarlo.rake_template"]
    template = t._record_template(fn)(*args)
    assert type(t._template_len) is int and t._template_len == len(template.samples) > 0
    assert set(t._counters) == set(tracer.COMPUTED) <= set(calls)
    for name, count in t._counters.items():
        fn, args = calls[name]
        counts = count(args, {}, fn(*args))
        assert list(counts) == [c for c, _ in tracer.COMPUTED[name]], name
        for key, value in counts.items():
            assert isinstance(value, (int, np.integer)) and not isinstance(value, bool), (name, key)
            assert value >= 0, (name, key)
