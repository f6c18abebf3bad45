import math
from dataclasses import replace

import numpy as np
import pytest

from mpir import ChannelParams, SystemConfig, make_mhp
from mpir.pulses import Waveform, _common_dt, grid_index
from mpir.transceiver import _assemble

DT = 0.02
TAU_P = 0.05


@pytest.fixture(scope="session")
def mhp4():
    return make_mhp(4, TAU_P, DT)


@pytest.fixture(scope="session")
def mhp5():
    return make_mhp(5, TAU_P, DT)


@pytest.fixture(scope="session")
def reference_config():
    """The 20-user double-pulse system the experiments in this suite use:
    K=20, N_f=2, N_c=40, N_h=3, T_c=1 ns, interferers at 5x power."""
    return SystemConfig(
        n_users=20,
        frames_per_symbol=2,
        chips_per_frame=40,
        hop_positions=3,
        pulse_types=2,
        chip_time=1.0,
        interferer_power=5.0,
    )


@pytest.fixture(scope="session")
def reference_config_single(reference_config):
    return replace(reference_config, pulse_types=1)


@pytest.fixture(scope="session")
def reference_channel():
    """L=20 taps, decay 0.5, log-variance 1, mean arrival 1.5 ns."""
    return ChannelParams(
        n_paths=20, decay_rate=0.5, lognorm_var=1.0, mean_arrival=1.5, power_scale=1.0
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The sample-level reference receiver.  The package decides bits from
# correlation tables (montecarlo._add_user); these two functions build the
# sampled received signal those decisions must agree with.


def received_block(config, composites, bits, codes):
    """One user's block built sample by sample from its frame waveforms:
    frame j carries amplitude d_j b_{j div N_f} / sqrt(N_f)."""
    n_f = config.frames_per_symbol
    amps = codes.polarity * np.repeat(np.asarray(bits, dtype=float), n_f) / math.sqrt(n_f)
    return _assemble(config, composites, codes.th, amps)


def compose_received(blocks, offsets):
    """Noise-free sum of the blocks, block k delayed by offsets[k] samples."""
    dt = _common_dt(blocks)
    shifts = [grid_index(b.t0, dt) + off for b, off in zip(blocks, offsets)]
    lo = min(shifts)
    out = np.zeros(max(s + len(b.samples) for s, b in zip(shifts, blocks)) - lo)
    for s, b in zip(shifts, blocks):
        out[s - lo : s - lo + len(b.samples)] += b.samples
    return Waveform(out, dt, lo * dt)
