"""Batch front-end: psd / bep / sim / validate subcommands driven by a JSON
experiment file.

Output files are plain CSV with a '#'-prefixed metadata header that embeds
the fully resolved configuration and the master seed, so a result can
always be traced back to the exact experiment that produced it.  For a
fixed (config, seed) the files are byte-identical at any worker count.

The experiment file (schema mpir-experiment/1, all times in ns) is
described by CONFIG_TABLE below, and README.md shows an example.  Every
key is typed and checked when the config is parsed: unknown keys are
rejected; numbers must be finite JSON numbers, never strings or booleans;
integer keys must hold integral numbers; null is accepted only for
combiner.paths and trials.max_bits.  --threads must be >= 1.  Each
violation exits 2 with one "error:" line on stderr.  The output header
keeps each value as written (integer keys as ints), defaults filled in.

The number of pulse entries sets the pulse-type count N_p.  Eb/N0 maps
to the noise amplitude via noise_sigma = sqrt(10**(-ebn0_db/10) / 2),
i.e. unit received bit energy and N0/2 = noise_sigma**2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, errors, montecarlo, spectral
from .channel import ChannelParams, composite_waveform, draw_channels, sample_channels
from .montecarlo import TrialPlan, rng_stream
from .pulses import BLOCK_SAMPLES, Waveform, make_mhp
from .transceiver import (
    SCHEMES,
    SELECTIONS,
    CodeSequences,
    SystemConfig,
    check_pulse_fits,
    generate_codes,
    rake_composites,
    transmit_block,
)

SCHEMA = "mpir-experiment/1"
REQUIRED = object()  # the default of a key the experiment file must set

# The experiment file: key -> (type, default), with one nested table per
# section.  A type is int, float, a tuple of the allowed strings, a table,
# or [type] for a list.  null is accepted only where the default is None.
CONFIG_TABLE = {
    "schema": ((SCHEMA,), REQUIRED),
    "system": ({
        "users": (int, REQUIRED), "frames_per_symbol": (int, REQUIRED),
        "chips_per_frame": (int, REQUIRED), "hop_positions": (int, REQUIRED),
        "chip_time_ns": (float, REQUIRED), "interferer_power": (float, 5.0),
    }, {}),
    "pulses": ([{"kind": (("mhp",), "mhp"), "order": (int, REQUIRED), "width_ns": (float, 0.05)}],
               REQUIRED),
    "sample_step_ns": (float, REQUIRED),
    "channel": ({
        "paths": (int, REQUIRED), "decay_rate": (float, REQUIRED),
        "lognorm_var": (float, REQUIRED), "mean_arrival_ns": (float, REQUIRED),
    }, {}),
    "combiner": ({"scheme": (SCHEMES, "mrc"), "selection": (SELECTIONS, "all"), "paths": (int, None)}, {}),
    "sweep_ebn0_db": ([float], []),
    "trials": ({
        "master_seed": (int, REQUIRED), "channel_realizations": (int, REQUIRED),
        "bits_per_realization": (int, REQUIRED), "min_errors": (int, 50),
        "min_realizations": (int, 1), "max_bits": (int, None),
    }, {}),
    "theory_realizations": (int, 500),
    "psd": ({"symbols": (int, 2000), "segment_symbols": (int, 1)}, {}),
}


class ConfigError(ValueError):
    """A problem with the experiment file."""


# Malformed config or arguments: main reports them on one line, exit code 2.
_INPUT_ERRORS = (
    ConfigError, FileNotFoundError, errors.InvalidParameterError, errors.ResolutionError,
    errors.DegenerateInputError, errors.GridMismatchError, errors.ConfigMismatchError,
    errors.InsufficientDataError, errors.InfeasibleGeometryError,
)


def ebn0_db_to_noise_sigma(ebn0_db: float) -> float:
    """Unit bit energy, N0/2 = sigma^2  =>  sigma = sqrt(10^(-db/10) / 2)."""
    return math.sqrt(0.5 * 10.0 ** (-ebn0_db / 10.0))


def _check(value, kind, where: str):
    """``value`` checked against ``kind`` of CONFIG_TABLE: unknown keys are
    rejected and defaults filled in; an integral number in an int key
    becomes an int, every other value is kept as written."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigError(f"unknown {'top-level ' if where == 'config' else ''}key(s) {unknown} in {where}")
        out = {}
        for key, (sub, default) in kind.items():
            item = value.get(key, default)
            if item is REQUIRED:
                raise ConfigError(f"missing required key {where}.{key}")
            out[key] = None if item is None and default is None else _check(item, sub, f"{where}.{key}")
        return out
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return [_check(item, kind[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{where} must be one of {list(kind)}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if kind is int:
        if value != int(value):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the resolved raw dict."""

    system: SystemConfig
    pulse_specs: tuple
    sample_step: float
    channel: ChannelParams
    sweep_ebn0_db: tuple
    plan: TrialPlan
    theory_realizations: int
    psd_symbols: int
    psd_segment_symbols: int
    resolved: dict

    def make_pulses(self):
        pulses = [make_mhp(spec["order"], spec["width_ns"], self.sample_step) for spec in self.pulse_specs]
        check_pulse_fits(pulses, self.system)
        return pulses


def parse_config(raw: dict) -> ExperimentConfig:
    resolved = _check(raw, CONFIG_TABLE, "config")
    sys_d, chan_d, comb_d, trials_d, psd_d = (
        resolved[key] for key in ("system", "channel", "combiner", "trials", "psd")
    )
    if not resolved["pulses"]:
        raise ConfigError("config.pulses must be a nonempty list")
    if resolved["theory_realizations"] < 1:
        raise ConfigError("config.theory_realizations must be >= 1")
    if not 1 <= psd_d["segment_symbols"] <= psd_d["symbols"]:
        raise ConfigError("config.psd needs 1 <= segment_symbols <= symbols")
    if comb_d["selection"] != "all" and not 1 <= (comb_d["paths"] or 0) <= chan_d["paths"]:
        raise ConfigError(f"config.combiner.selection {comb_d['selection']!r} needs "
                          f"config.combiner.paths in [1, {chan_d['paths']}]")
    try:
        system = SystemConfig(
            n_users=sys_d["users"],
            frames_per_symbol=sys_d["frames_per_symbol"],
            chips_per_frame=sys_d["chips_per_frame"],
            hop_positions=sys_d["hop_positions"],
            pulse_types=len(resolved["pulses"]),
            chip_time=sys_d["chip_time_ns"],
            interferer_power=sys_d["interferer_power"],
            scheme=comb_d["scheme"],
            selection=comb_d["selection"],
            combiner_paths=comb_d["paths"],
        )
        channel = ChannelParams(
            chan_d["paths"], chan_d["decay_rate"], chan_d["lognorm_var"], chan_d["mean_arrival_ns"]
        )
        plan = TrialPlan(
            master_seed=trials_d["master_seed"],
            n_realizations=trials_d["channel_realizations"],
            bits_per_realization=trials_d["bits_per_realization"],
            min_errors=trials_d["min_errors"],
            max_bits=trials_d["max_bits"],
            min_realizations=trials_d["min_realizations"],
        )
    except errors.InvalidParameterError as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if resolved["sample_step_ns"] > 0 and not math.isfinite(system.symbol_time / resolved["sample_step_ns"]):
        raise ConfigError("config.system and sample_step_ns give a symbol too many samples to count")
    try:  # the lowest Eb/N0 gives the largest noise amplitude
        ebn0_db_to_noise_sigma(min(resolved["sweep_ebn0_db"], default=0.0))
    except OverflowError:
        raise ConfigError("config.sweep_ebn0_db holds an Eb/N0 too low for a finite noise amplitude") from None
    return ExperimentConfig(
        system=system,
        pulse_specs=tuple(resolved["pulses"]),
        sample_step=resolved["sample_step_ns"],
        channel=channel,
        sweep_ebn0_db=tuple(resolved["sweep_ebn0_db"]),
        plan=plan,
        theory_realizations=resolved["theory_realizations"],
        psd_symbols=psd_d["symbols"],
        psd_segment_symbols=psd_d["segment_symbols"],
        resolved=resolved,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _header(cfg: ExperimentConfig, seed: int, command: str, extra: dict | None = None) -> str:
    lines = [
        f"# mpir {command} output",
        f"# schema: {SCHEMA}",
        f"# master_seed: {seed}",
        f"# config: {json.dumps(cfg.resolved, sort_keys=True, separators=(',', ':'))}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key}: {value}")
    return "\n".join(lines) + "\n"


def _write_rows(path: Path, header: str, columns: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        fh.write(columns + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")


def _psd_experiment(cfg: ExperimentConfig, pulses, n_sym: int, segment_symbols: int,
                    rng: np.random.Generator):
    """(analytic, empirical, band, mismatch) for n_sym random symbols of the
    noise-free single-user signal, in periodogram segments of
    segment_symbols symbols.

    All bits and codes are drawn first.  The block is then assembled and
    transformed one piece of whole segments (about pulses.BLOCK_SAMPLES
    samples) at a time and never held whole; symbols no segment uses are
    not assembled.  Each piece starts at the earliest pulse sample of its
    first frame, so every segment is symbol-aligned.  A pulse filling a
    whole chip at the last hop position ends one sample past its frame,
    inside the next segment; so each piece after the first is assembled
    from one symbol earlier, and that symbol's samples dropped, which
    makes its segments equal those of the whole block.
    """
    config = cfg.system
    nf = config.frames_per_symbol
    sym = config.symbol_samples(cfg.sample_step)
    seg_len = segment_symbols * sym
    n_seg = n_sym // segment_symbols
    n_used = n_seg * segment_symbols
    bits = rng.integers(0, 2, n_sym) * 2 - 1
    codes = generate_codes(config, n_sym * nf, rng)
    step = max(1, BLOCK_SAMPLES // seg_len) * segment_symbols

    def pieces():
        for a in range(0, n_used, step):
            lo, b = max(a - 1, 0), min(a + step, n_used)
            f = slice(lo * nf, b * nf)
            block = transmit_block(config, pulses, bits[lo:b], CodeSequences(codes.th[f], codes.polarity[f]))
            lead = (a - lo) * sym
            yield Waveform(block.samples[lead:], block.dt, block.t0 + lead * block.dt)

    empirical = spectral.empirical_psd(pieces(), seg_len, n_seg, symbol_samples=sym)
    analytic = spectral.analytic_psd(pulses, config, seg_len)
    band = spectral.band_containing(analytic, 0.99)
    return analytic, empirical, band, spectral.psd_mismatch(analytic, empirical, band)


def cmd_psd(cfg: ExperimentConfig, out_dir: Path, seed: int) -> Path:
    """Analytic vs empirical PSD of the noise-free single-user signal."""
    pulses = cfg.make_pulses()
    analytic, empirical, band, mismatch = _psd_experiment(
        cfg, pulses, cfg.psd_symbols, cfg.psd_segment_symbols, rng_stream(seed, 0)
    )

    sel = analytic.freqs >= 0.0
    rows = []
    for f, pa, pe in zip(analytic.freqs[sel], analytic.psd[sel], empirical.psd[sel]):
        one_sided = 2.0 if f > 0 else 1.0
        rows.append((float(f), float(one_sided * pa), float(one_sided * pe)))
    out = out_dir / "psd.csv"
    header = _header(cfg, seed, "psd", {
        "mismatch_rel_l2": repr(float(mismatch)),
        "band_ghz": f"{band[0]!r},{band[1]!r}",
        "note": "one-sided PSD (2x two-sided for f>0); internal representation is two-sided",
    })
    _write_rows(out, header, "freq_GHz,psd_analytic,psd_empirical", rows)
    return out


def cmd_bep(cfg: ExperimentConfig, out_dir: Path, seed: int) -> Path:
    """Channel-averaged theory BEP across the Eb/N0 sweep."""
    if not cfg.sweep_ebn0_db:
        raise ConfigError("sweep_ebn0_db is empty: nothing to compute")
    pulses = cfg.make_pulses()
    sigmas = [ebn0_db_to_noise_sigma(db) for db in cfg.sweep_ebn0_db]
    averaged = analysis.bep_averaged(
        cfg.system, pulses, cfg.channel, cfg.theory_realizations, rng_stream(seed, 1), sigmas
    )
    rows = [
        (float(db), float(pe), float(se))
        for db, pe, se in zip(cfg.sweep_ebn0_db, averaged.pe, averaged.stderr)
    ]
    out = out_dir / "bep.csv"
    header = _header(cfg, seed, "bep", {
        "theory_realizations": averaged.n_realizations,
        "mean_mai_output_variance": repr(averaged.mean_mai_output_variance),
    })
    _write_rows(out, header, "ebn0_db,pe_theory,stderr", rows)
    return out


def cmd_sim(cfg: ExperimentConfig, out_dir: Path, seed: int, threads: int = 1) -> Path:
    """Simulated BER across the Eb/N0 sweep, simulated as one fused sweep:
    the counted estimate with its Wilson half-width and the quasi-analytic
    one with its standard error; the per-point progress lines follow once
    it is done."""
    if not cfg.sweep_ebn0_db:
        raise ConfigError("sweep_ebn0_db is empty: nothing to simulate")
    pulses = cfg.make_pulses()
    plan = replace(cfg.plan, master_seed=seed)
    estimates = montecarlo.run_ber_sweep(
        cfg.system, pulses, cfg.channel, plan,
        [ebn0_db_to_noise_sigma(db) for db in cfg.sweep_ebn0_db], threads=threads,
    )
    rows = []
    capped_points = []
    for db, est in zip(cfg.sweep_ebn0_db, estimates):
        if est.capped:
            capped_points.append(float(db))
        print(
            f"{db:g} dB: ber {est.ber:.6g} ({est.errors}/{est.bits}, "
            f"{est.realizations} realizations{', capped' if est.capped else ''})",
            file=sys.stderr,
        )
        rows.append((float(db), float(est.ber), float(est.ci95), est.bits, est.errors,
                     float(est.ber_qa), float(est.ber_qa_stderr)))
    out = out_dir / "ber.csv"
    header = _header(cfg, seed, "sim", {
        "capped_points_ebn0_db": json.dumps(capped_points),
    })
    _write_rows(out, header, "ebn0_db,ber,ci95_halfwidth,bits,errors,ber_qa,ber_qa_stderr", rows)
    return out


def _validate_checks(cfg: ExperimentConfig, seed: int):
    """Run the oracle suite on a reduced budget; yield (name, ok, detail)."""
    pulses = cfg.make_pulses()
    config = cfg.system

    # 1. analytic vs empirical PSD; 800 one-symbol segments, whatever
    # psd.segment_symbols says, put the periodogram noise floor near 3%,
    # well under the 5% gate
    *_, mism = _psd_experiment(cfg, pulses, 800, 1, rng_stream(seed, 10))
    yield "psd analytic/empirical mismatch <= 0.05", mism <= 0.05, f"measured {mism:.4f}"

    # 2. channel energy normalization: 20,000 draws per power scale on one
    # stream, in sample_channels calls of BLOCK_SAMPLES // L rows (about
    # 1 MB of gains and delays each); no draw stays bound after its sum
    rng = rng_stream(seed, 11)
    n_draws = 20000
    rows = max(1, BLOCK_SAMPLES // cfg.channel.n_paths)
    for scale, label in ((1.0, "desired"), (config.interferer_power, "interferer")):
        params = replace(cfg.channel, power_scale=scale)
        total = 0.0
        for start in range(0, n_draws, rows):
            total += float(np.sum(sample_channels(params, config, rng, min(rows, n_draws - start))[0] ** 2))
        mean_e = total / n_draws
        ok = abs(mean_e / scale - 1.0) <= 0.05
        yield f"channel mean energy ({label}) within 5%", ok, f"measured {mean_e:.4f}, target {scale}"

    # 3. per-frame MAI variance: closed form vs brute force
    desired, (interferer,) = draw_channels(cfg.channel, config, rng_stream(seed, 12), 1)
    mai = analysis.mai_variance_multi(config, pulses, desired, [interferer])
    est = montecarlo.estimate_mai_variance(
        config, pulses, desired, interferer, 0, 200_000, rng_stream(seed, 13)
    )
    closed = mai.per_frame[0, 0] / config.hop_positions**2
    rel = abs(est - closed) / closed
    yield "MAI variance closed form vs Monte Carlo within 5%", rel <= 0.05, (
        f"closed {closed:.5g}, mc {est:.5g}, rel {rel:.4f}"
    )

    # 4. output-noise variance convention, at unit noise amplitude
    rng = rng_stream(seed, 14)
    received, templates = rake_composites(pulses, desired, config)
    closed_n = analysis.noise_variance(templates, config)
    est_n = montecarlo.estimate_noise_variance(config, templates, 20_000, rng)
    rel_n = abs(est_n - closed_n) / closed_n
    yield "noise variance closed form vs Monte Carlo within 5%", rel_n <= 0.05, (
        f"closed {closed_n:.5g}, mc {est_n:.5g}, rel {rel_n:.4f}"
    )

    # 5. single-pulse reduction identity: mpir bep's path at N_p = 1 vs the classical form
    single = replace(config, pulse_types=1)
    signal, mai, energy = analysis.conditional_bep_terms(single, pulses[:1], desired, [interferer])
    multi = analysis.sga_bep(signal, mai.total, energy, 0.3)
    u_int = composite_waveform(pulses[0], interferer, interferer.gains)
    v0 = templates[0]
    one = analysis.bep_single(received[0], v0, [analysis.mai_variance_classical(u_int, v0, single)], single, 0.3)
    diff = abs(multi - one) / max(one, 1e-300)
    # the two paths share no code, so they agree to rounding, which moves
    # with the FFT and BLAS builds; below 1e-13 the report prints the bound
    shown = "< 1e-13" if diff < 1e-13 else f"{diff:.2e}"  # a nan still prints as nan
    yield "single-pulse reduction identity <= 1e-12", diff <= 1e-12, f"relative diff {shown}"


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, seed: int) -> int:
    """Run the oracle suite, print one pass/fail line per check."""
    failures = 0
    lines = []
    for name, ok, detail in _validate_checks(cfg, seed):
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}: {detail}"
        lines.append(line)
        print(line)
        failures += 0 if ok else 1
    report = out_dir / "validate.txt"
    report.write_text(_header(cfg, seed, "validate") + "\n".join(lines) + "\n")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mpir", description="Multi-pulse impulse-radio UWB experiments")
    parser.add_argument("command", choices=["psd", "bep", "sim", "validate"])
    parser.add_argument("--config", required=True, help="path to the experiment JSON file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default="out", help="output directory (created if missing)")
    parser.add_argument("--threads", type=int, default=1, help="worker count for sim; does not affect results")
    args = parser.parse_args(argv)

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.plan.master_seed
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "psd":
            path = cmd_psd(cfg, out_dir, seed)
        elif args.command == "bep":
            path = cmd_bep(cfg, out_dir, seed)
        elif args.command == "sim":
            path = cmd_sim(cfg, out_dir, seed, args.threads)
        else:
            return cmd_validate(cfg, out_dir, seed)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error writing results: {exc}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
