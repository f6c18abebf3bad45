"""Batch front-end: psd / bep / sim / validate subcommands driven by a JSON
experiment file.

Output files are plain CSV with a '#'-prefixed metadata header that embeds
the fully resolved configuration and the master seed, so a result can
always be traced back to the exact experiment that produced it.  For a
fixed (config, seed) the files are byte-identical at any worker count.

Config schema (version mpir-experiment/1, all times in ns):

    {
      "schema": "mpir-experiment/1",
      "system": {"users": 20, "frames_per_symbol": 2, "chips_per_frame": 40,
                 "hop_positions": 3, "chip_time_ns": 1.0, "interferer_power": 5.0},
      "pulses": [{"kind": "mhp", "order": 4, "width_ns": 0.05},
                 {"kind": "mhp", "order": 5, "width_ns": 0.05}],
      "sample_step_ns": 0.02,
      "channel": {"paths": 20, "decay_rate": 0.5, "lognorm_var": 1.0,
                  "mean_arrival_ns": 1.5},
      "combiner": {"scheme": "mrc", "selection": "all", "paths": null},
      "sweep_ebn0_db": [0, 4, 8, 12, 16, 24],
      "trials": {"master_seed": 1234, "channel_realizations": 64,
                 "bits_per_realization": 500, "min_errors": 50,
                 "min_realizations": 1, "max_bits": null},
      "theory_realizations": 500,
      "psd": {"symbols": 2000, "segment_symbols": 1}
    }

Unknown keys anywhere are rejected.  The number of pulse entries sets the
pulse-type count N_p.  Eb/N0 maps to the noise amplitude via
noise_sigma = sqrt(10**(-ebn0_db/10) / 2), i.e. unit received bit energy
and N0/2 = noise_sigma**2.
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
from .channel import ChannelParams, composite_waveform, draw_channels, sample_channel
from .montecarlo import TrialPlan, rng_stream
from .pulses import make_mhp
from .transceiver import (
    SystemConfig,
    check_pulse_fits,
    generate_codes,
    select_combiner,
    transmit_block,
)

SCHEMA = "mpir-experiment/1"


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


def _section(raw: dict, key: str, allowed: dict, where: str) -> dict:
    """Pull a mapping section, fill defaults, reject unknown keys.

    ``allowed`` maps key -> default; a default of Ellipsis marks a
    required key.
    """
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{where}.{key} must be an object")
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) {sorted(extra)} in {where}.{key}")
    out = {}
    for name, default in allowed.items():
        if name in section:
            out[name] = section[name]
        elif default is Ellipsis:
            raise ConfigError(f"missing required key {where}.{key}.{name}")
        else:
            out[name] = default
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the resolved raw dict."""

    system: SystemConfig
    pulse_specs: tuple
    sample_step: float
    channel: ChannelParams
    scheme: str
    selection: str
    combiner_paths: int | None
    sweep_ebn0_db: tuple
    plan: TrialPlan
    theory_realizations: int
    psd_symbols: int
    psd_segment_symbols: int
    resolved: dict

    def make_pulses(self):
        pulses = []
        for spec in self.pulse_specs:
            pulses.append(make_mhp(int(spec["order"]), float(spec["width_ns"]), self.sample_step))
        check_pulse_fits(pulses, self.system)
        return pulses


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    top_allowed = {
        "schema", "system", "pulses", "sample_step_ns", "channel", "combiner",
        "sweep_ebn0_db", "trials", "theory_realizations", "psd",
    }
    extra = set(raw) - top_allowed
    if extra:
        raise ConfigError(f"unknown top-level key(s) {sorted(extra)}")
    if raw.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}, got {raw.get('schema')!r}")

    sys_d = _section(raw, "system", {
        "users": ..., "frames_per_symbol": ..., "chips_per_frame": ...,
        "hop_positions": ..., "chip_time_ns": ..., "interferer_power": 5.0,
    }, "config")
    pulses = raw.get("pulses")
    if not isinstance(pulses, list) or not pulses:
        raise ConfigError("config.pulses must be a nonempty list")
    pulse_specs = []
    for i, p in enumerate(pulses):
        spec = _section({"p": p}, "p", {"kind": "mhp", "order": ..., "width_ns": 0.05},
                        f"config.pulses[{i}]")
        if spec["kind"] != "mhp":
            raise ConfigError(f"unsupported pulse kind {spec['kind']!r} in config.pulses[{i}]")
        pulse_specs.append(spec)
    if "sample_step_ns" not in raw:
        raise ConfigError("missing required key config.sample_step_ns")
    sample_step = float(raw["sample_step_ns"])

    chan_d = _section(raw, "channel", {
        "paths": ..., "decay_rate": ..., "lognorm_var": ..., "mean_arrival_ns": ...,
    }, "config")
    comb_d = _section(raw, "combiner", {"scheme": "mrc", "selection": "all", "paths": None}, "config")
    trials_d = _section(raw, "trials", {
        "master_seed": ..., "channel_realizations": ..., "bits_per_realization": ...,
        "min_errors": 50, "min_realizations": 1, "max_bits": None,
    }, "config")
    psd_d = _section(raw, "psd", {"symbols": 2000, "segment_symbols": 1}, "config")

    sweep = raw.get("sweep_ebn0_db", [])
    if not isinstance(sweep, list):
        raise ConfigError("config.sweep_ebn0_db must be a list of dB values")

    try:
        system = SystemConfig(
            n_users=int(sys_d["users"]),
            frames_per_symbol=int(sys_d["frames_per_symbol"]),
            chips_per_frame=int(sys_d["chips_per_frame"]),
            hop_positions=int(sys_d["hop_positions"]),
            pulse_types=len(pulse_specs),
            chip_time=float(sys_d["chip_time_ns"]),
            noise_sigma=0.0,
            interferer_power=float(sys_d["interferer_power"]),
        )
        channel = ChannelParams(
            n_paths=int(chan_d["paths"]),
            decay_rate=float(chan_d["decay_rate"]),
            lognorm_var=float(chan_d["lognorm_var"]),
            mean_arrival=float(chan_d["mean_arrival_ns"]),
            power_scale=1.0,
        )
        plan = TrialPlan(
            master_seed=int(trials_d["master_seed"]),
            n_realizations=int(trials_d["channel_realizations"]),
            bits_per_realization=int(trials_d["bits_per_realization"]),
            min_errors=int(trials_d["min_errors"]),
            max_bits=None if trials_d["max_bits"] is None else int(trials_d["max_bits"]),
            min_realizations=int(trials_d["min_realizations"]),
        )
        sweep_db = tuple(float(x) for x in sweep)
        theory_realizations = int(raw.get("theory_realizations", 500))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if any(math.isnan(db) for db in sweep_db):
        raise ConfigError("config.sweep_ebn0_db entries must be numbers, got NaN")
    if theory_realizations < 1:
        raise ConfigError("config.theory_realizations must be >= 1")

    resolved = {
        "schema": SCHEMA,
        "system": sys_d,
        "pulses": pulse_specs,
        "sample_step_ns": sample_step,
        "channel": chan_d,
        "combiner": comb_d,
        "sweep_ebn0_db": list(sweep),
        "trials": trials_d,
        "theory_realizations": theory_realizations,
        "psd": psd_d,
    }
    return ExperimentConfig(
        system=system,
        pulse_specs=tuple(pulse_specs),
        sample_step=sample_step,
        channel=channel,
        scheme=str(comb_d["scheme"]),
        selection=str(comb_d["selection"]),
        combiner_paths=None if comb_d["paths"] is None else int(comb_d["paths"]),
        sweep_ebn0_db=sweep_db,
        plan=plan,
        theory_realizations=theory_realizations,
        psd_symbols=int(psd_d["symbols"]),
        psd_segment_symbols=int(psd_d["segment_symbols"]),
        resolved=resolved,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
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


def _psd_experiment(cfg: ExperimentConfig, pulses, n_sym: int, rng: np.random.Generator):
    """(analytic, empirical, band, mismatch) for n_sym random symbols of the
    noise-free single-user signal.

    The transmitted block starts at the earliest pulse sample of frame 0,
    so every periodogram segment is symbol-aligned.
    """
    config = cfg.system
    sym = config.symbol_samples(cfg.sample_step)
    seg_len = cfg.psd_segment_symbols * sym
    bits = rng.integers(0, 2, n_sym) * 2 - 1
    codes = generate_codes(config, n_sym * config.frames_per_symbol, rng)
    block = transmit_block(config, pulses, bits, codes)
    empirical = spectral.empirical_psd(block, seg_len, n_sym // cfg.psd_segment_symbols, symbol_samples=sym)
    analytic = spectral.analytic_psd(pulses, config, seg_len)
    band = spectral.band_containing(analytic, 0.99)
    return analytic, empirical, band, spectral.psd_mismatch(analytic, empirical, band)


def cmd_psd(cfg: ExperimentConfig, out_dir: Path, seed: int) -> Path:
    """Analytic vs empirical PSD of the noise-free single-user signal."""
    pulses = cfg.make_pulses()
    analytic, empirical, band, mismatch = _psd_experiment(cfg, pulses, cfg.psd_symbols, rng_stream(seed, 0))

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
        cfg.system, pulses, cfg.channel, cfg.theory_realizations,
        rng_stream(seed, 1), cfg.scheme, cfg.selection, cfg.combiner_paths,
        noise_sigmas=sigmas,
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
    """Waveform-level simulated BER across the Eb/N0 sweep, simulated as
    one fused sweep; the per-point progress lines follow once it is done."""
    if not cfg.sweep_ebn0_db:
        raise ConfigError("sweep_ebn0_db is empty: nothing to simulate")
    pulses = cfg.make_pulses()
    plan = replace(cfg.plan, master_seed=seed)
    estimates = montecarlo.run_ber_sweep(
        cfg.system, pulses, cfg.channel, plan,
        [ebn0_db_to_noise_sigma(db) for db in cfg.sweep_ebn0_db],
        cfg.scheme, cfg.selection, cfg.combiner_paths, threads=threads,
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
        rows.append((float(db), float(est.ber), float(est.ci95), est.bits, est.errors))
    out = out_dir / "ber.csv"
    header = _header(cfg, seed, "sim", {
        "capped_points_ebn0_db": json.dumps(capped_points),
    })
    _write_rows(out, header, "ebn0_db,ber,ci95_halfwidth,bits,errors", rows)
    return out


def _validate_checks(cfg: ExperimentConfig, seed: int, noise_std_scale: float = 1.0):
    """Run the oracle suite on a reduced budget; yield (name, ok, detail)."""
    pulses = cfg.make_pulses()
    config = cfg.system

    # 1. analytic vs empirical PSD; 800 one-symbol segments put the
    # periodogram noise floor near 3%, well under the 5% gate
    *_, mism = _psd_experiment(cfg, pulses, 800, rng_stream(seed, 10))
    yield "psd analytic/empirical mismatch <= 0.05", mism <= 0.05, f"measured {mism:.4f}"

    # 2. channel energy normalization
    rng = rng_stream(seed, 11)
    n_draws = 20000
    for scale, label in ((1.0, "desired"), (config.interferer_power, "interferer")):
        params = replace(cfg.channel, power_scale=scale)
        mean_e = float(np.mean([sample_channel(params, config, rng).energy for _ in range(n_draws)]))
        ok = abs(mean_e / scale - 1.0) <= 0.05
        yield f"channel mean energy ({label}) within 5%", ok, f"measured {mean_e:.4f}, target {scale}"

    # 3. per-frame MAI variance: closed form vs brute force
    desired, (interferer,) = draw_channels(cfg.channel, config, rng_stream(seed, 12), 1)
    _, mai, _ = analysis.conditional_bep_terms(
        config, pulses, desired, [interferer], cfg.scheme, cfg.selection, cfg.combiner_paths
    )
    est = montecarlo.estimate_mai_variance(
        config, pulses, desired, interferer, 0, 200_000, rng_stream(seed, 13),
        cfg.scheme, cfg.selection, cfg.combiner_paths,
    )
    closed = mai.per_frame[0, 0] / config.hop_positions**2
    rel = abs(est - closed) / closed
    yield "MAI variance closed form vs Monte Carlo within 5%", rel <= 0.05, (
        f"closed {closed:.5g}, mc {est:.5g}, rel {rel:.4f}"
    )

    # 4. output-noise variance convention
    noisy = replace(config, noise_sigma=1.0)
    rng = rng_stream(seed, 14)
    beta = select_combiner(desired, cfg.scheme, cfg.selection, cfg.combiner_paths)
    templates = [composite_waveform(p, desired, beta) for p in pulses]
    closed_n = analysis.noise_variance(templates, noisy)
    est_n = montecarlo.estimate_noise_variance(noisy, templates, 20_000, rng, noise_std_scale)
    rel_n = abs(est_n - closed_n) / closed_n
    yield "noise variance closed form vs Monte Carlo within 5%", rel_n <= 0.05, (
        f"closed {closed_n:.5g}, mc {est_n:.5g}, rel {rel_n:.4f}"
    )

    # 5. single-pulse reduction identity
    single = replace(config, pulse_types=1, noise_sigma=0.3)
    u0 = composite_waveform(pulses[0], desired, desired.gains)
    v0 = templates[0]
    u_int = composite_waveform(pulses[0], interferer, interferer.gains)
    multi = analysis.bep_multi(
        [u0], [v0], analysis.mai_variance_multi([[u_int]], [v0], single), single
    )
    one = analysis.bep_single(u0, v0, [analysis.mai_variance_classical(u_int, v0, single)], single)
    diff = abs(multi.pe - one.pe) / max(one.pe, 1e-300)
    yield "single-pulse reduction identity <= 1e-12", diff <= 1e-12, f"relative diff {diff:.2e}"


def cmd_validate(cfg: ExperimentConfig, out_dir: Path, seed: int, noise_std_scale: float = 1.0) -> int:
    """Run the oracle suite, print one pass/fail line per check."""
    failures = 0
    lines = []
    for name, ok, detail in _validate_checks(cfg, seed, noise_std_scale):
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
