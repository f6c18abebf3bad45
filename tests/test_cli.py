import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mpir import montecarlo
from mpir.analysis import qfunc
from mpir.cli import (
    ConfigError,
    _validate_checks,
    cmd_bep,
    cmd_psd,
    cmd_sim,
    cmd_validate,
    ebn0_db_to_noise_sigma,
    load_config,
    main,
    parse_config,
)


def small_raw(**overrides):
    raw = {
        "schema": "mpir-experiment/1",
        "system": {
            "users": 2, "frames_per_symbol": 2, "chips_per_frame": 20,
            "hop_positions": 2, "chip_time_ns": 1.0, "interferer_power": 5.0,
        },
        "pulses": [
            {"kind": "mhp", "order": 4, "width_ns": 0.05},
            {"kind": "mhp", "order": 5, "width_ns": 0.05},
        ],
        "sample_step_ns": 0.02,
        "channel": {
            "paths": 6, "decay_rate": 0.5, "lognorm_var": 1.0, "mean_arrival_ns": 1.5,
        },
        "combiner": {"scheme": "mrc", "selection": "all", "paths": None},
        "sweep_ebn0_db": [0.0, 6.0],
        "trials": {
            "master_seed": 77, "channel_realizations": 4,
            "bits_per_realization": 60, "min_errors": 10, "min_realizations": 2,
        },
        "theory_realizations": 8,
        "psd": {"symbols": 64, "segment_symbols": 1},
    }
    raw.update(overrides)
    return raw


def small_raw_with(*path, value):
    """small_raw() with the value at ``path`` (keys and list indices) replaced."""
    raw = small_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def write_config(tmp_path, raw):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    return path


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_raw()))
        assert cfg.system.n_users == 2
        assert cfg.system.pulse_types == 2
        assert cfg.plan.master_seed == 77
        assert cfg.sweep_ebn0_db == (0.0, 6.0)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config(small_raw(bogus=1))

    def test_unknown_nested_key_rejected(self):
        raw = small_raw()
        raw["system"]["extra"] = 3
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(raw)

    def test_missing_required_key(self):
        raw = small_raw()
        del raw["system"]["users"]
        with pytest.raises(ConfigError, match="missing required"):
            parse_config(raw)

    def test_schema_checked(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config(small_raw(schema="nope/9"))

    def test_invalid_parameter_surfaces_as_config_error(self):
        raw = small_raw()
        raw["system"]["hop_positions"] = 100  # exceeds chips_per_frame
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.json")

    def test_ebn0_mapping(self):
        # Eb = 1, N0/2 = sigma^2: 0 dB -> sigma = sqrt(1/2)
        assert ebn0_db_to_noise_sigma(0.0) == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert ebn0_db_to_noise_sigma(10.0) == pytest.approx(math.sqrt(0.05), rel=1e-12)


class TestCmdPsd:
    def test_writes_csv_with_mismatch(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_raw()))
        out = cmd_psd(cfg, tmp_path, seed=77)
        text = out.read_text()
        assert text.startswith("# mpir psd output")
        mismatch_line = [ln for ln in text.splitlines() if ln.startswith("# mismatch_rel_l2:")]
        assert len(mismatch_line) == 1
        mismatch = float(mismatch_line[0].split(":")[1])
        assert 0 <= mismatch < 0.5
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows[0] == "freq_GHz,psd_analytic,psd_empirical"
        first = rows[1].split(",")
        assert float(first[0]) == 0.0

    def test_deterministic_bytes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_raw()))
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = cmd_psd(cfg, tmp_path / "a", seed=77)
        b = cmd_psd(cfg, tmp_path / "b", seed=77)
        assert a.read_bytes() == b.read_bytes()

    def test_single_pulse_run(self, tmp_path):
        raw = small_raw()
        raw["pulses"] = [{"kind": "mhp", "order": 4, "width_ns": 0.05}]
        raw["psd"] = {"symbols": 128, "segment_symbols": 1}
        cfg = load_config(write_config(tmp_path, raw))
        out = cmd_psd(cfg, tmp_path, seed=3)
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) > 100


class TestCmdBep:
    def test_zero_mai_reduces_to_matched_filter_bound(self, tmp_path):
        # K=1 and a deterministic single-path channel: pe == Q(sqrt(2 Eb/N0))
        raw = small_raw()
        raw["system"]["users"] = 1
        raw["channel"] = {
            "paths": 1, "decay_rate": 1.0, "lognorm_var": 0.0, "mean_arrival_ns": 1.0,
        }
        raw["pulses"] = [{"kind": "mhp", "order": 4, "width_ns": 0.05}]
        raw["sweep_ebn0_db"] = [0.0, 4.0, 8.0]
        cfg = load_config(write_config(tmp_path, raw))
        out = cmd_bep(cfg, tmp_path, seed=5)
        rows = [
            ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("ebn0")
        ]
        for db_s, pe_s, se_s in rows:
            want = qfunc(math.sqrt(2.0 * 10 ** (float(db_s) / 10)))
            assert float(pe_s) == pytest.approx(want, rel=1e-9)
            assert float(se_s) == pytest.approx(0.0, abs=1e-12)

    def test_empty_sweep_is_usage_error(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_raw(sweep_ebn0_db=[])))
        with pytest.raises(ConfigError, match="empty"):
            cmd_bep(cfg, tmp_path, seed=5)

    def test_lowest_accepted_ebn0_runs_without_warnings(self, tmp_path):
        # just above the overflow rejection the noise amplitude is about
        # 1e154, so s^2 * energy would overflow; the BEP must still be 1/2
        raw = json.loads((Path(__file__).parent / "golden" / "config.json").read_text())
        raw["sweep_ebn0_db"] = [-3082, 0]
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        rows = [ln for ln in (tmp_path / "o" / "bep.csv").read_text().splitlines()
                if ln and not ln.startswith(("#", "ebn0"))]
        assert float(rows[0].split(",")[1]) == 0.5


class TestCmdSim:
    def test_csv_schema_and_determinism(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_raw()))
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        out1 = cmd_sim(cfg, tmp_path / "r1", seed=77)
        out2 = cmd_sim(cfg, tmp_path / "r2", seed=77, threads=2)
        assert out1.read_bytes() == out2.read_bytes()
        rows = [
            ln for ln in out1.read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert rows[0] == "ebn0_db,ber,ci95_halfwidth,bits,errors,ber_qa,ber_qa_stderr"
        assert len(rows) == 1 + len(cfg.sweep_ebn0_db)
        db, ber, ci, bits, errors, ber_qa, ber_qa_stderr = rows[1].split(",")
        assert int(bits) > 0
        assert 0 <= float(ber) <= 1
        assert 0 <= float(ber_qa) <= 1
        assert float(ber_qa_stderr) >= 0  # min_realizations 2: never nan

    def test_different_seed_changes_output(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_raw()))
        (tmp_path / "s1").mkdir()
        (tmp_path / "s2").mkdir()
        a = cmd_sim(cfg, tmp_path / "s1", seed=77)
        b = cmd_sim(cfg, tmp_path / "s2", seed=78)
        assert a.read_bytes() != b.read_bytes()


class TestCmdValidate:
    def test_default_config_passes(self, tmp_path, capsys):
        cfg = load_config(write_config(tmp_path, small_raw()))
        code = cmd_validate(cfg, tmp_path, seed=11)
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 5
        assert (tmp_path / "validate.txt").exists()

    def test_broken_noise_convention_fails(self, tmp_path, capsys, monkeypatch):
        # a noise estimator whose per-sample standard deviation is 1.3x too
        # large returns 1.3^2 times the variance; check 4 must catch it
        true_estimate = montecarlo.estimate_noise_variance
        monkeypatch.setattr(montecarlo, "estimate_noise_variance",
                            lambda *args: 1.3**2 * true_estimate(*args))
        cfg = load_config(write_config(tmp_path, small_raw()))
        code = cmd_validate(cfg, tmp_path, seed=11)
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] noise variance" in out

    def test_every_check_peaks_below_6_mb(self):
        # every oracle draws in fixed-size blocks, so no check's traced
        # peak grows with its budget; tracing from the first check on also
        # counts any draw a check leaves bound for the next
        cfg = load_config(Path(__file__).parents[1] / "configs" / "twenty_user_double_pulse.json")
        checks = _validate_checks(cfg, seed=1)
        peaks = {}
        tracemalloc.start()
        try:
            while True:
                tracemalloc.reset_peak()
                try:
                    name, _, _ = next(checks)
                except StopIteration:
                    break
                peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert len(peaks) == 6
        assert max(peaks.values()) < 6, f"peaks in MB: {peaks}"

    def test_psd_check_ignores_segment_symbols(self, tmp_path, capsys):
        # check 1 always takes 800 one-symbol segments; segment_symbols
        # above 800 used to leave it no segment at all (exit 2)
        raw = json.loads((Path(__file__).parent / "golden" / "config.json").read_text())
        check1 = []
        for segment_symbols in (1, 1000):
            raw["psd"] = {"symbols": 2000, "segment_symbols": segment_symbols}
            out = tmp_path / str(segment_symbols)
            out.mkdir()
            argv = ["validate", "--config", str(write_config(out, raw)), "--out", str(out), "--seed", "5"]
            code = main(argv)
            assert code in (0, 1), capsys.readouterr().err
            check1.append([line for line in capsys.readouterr().out.splitlines() if "] psd " in line])
        assert len(check1[0]) == 1 and check1[0] == check1[1]

class TestMain:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sim", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["non-utf8", "directory", "deep-array"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "non-utf8":
            path.write_bytes(b'{"schema": "\xff"}')
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["bep", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_psd_end_to_end(self, tmp_path):
        path = write_config(tmp_path, small_raw())
        code = main(["psd", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "psd.csv").exists()

    def test_empty_sweep_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, small_raw(sweep_ebn0_db=[]))
        code = main(["bep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, raw, extra",
        [
            ("sim", small_raw(), ["--seed", "-1"]),
            ("psd", small_raw(), ["--seed", "-1"]),
            ("bep", small_raw(sweep_ebn0_db=[0, "x"]), []),
            ("sim", small_raw(sweep_ebn0_db=[0, float("nan")]), []),
            ("bep", small_raw(theory_realizations=0), []),
            ("psd", small_raw(pulses=[{"kind": "mhp", "order": 4, "width_ns": 0.5}] * 2), []),
            ("psd", small_raw_with("pulses", 0, "order", value="abc"), []),
            ("psd", small_raw_with("pulses", 0, "width_ns", value="x"), []),
            ("psd", small_raw_with("psd", "symbols", value="x"), []),
            ("bep", small_raw_with("combiner", "paths", value="x"), []),
            ("psd", small_raw(sample_step_ns="x"), []),
            ("psd", small_raw(sample_step_ns=None), []),
            ("psd", small_raw_with("psd", "segment_symbols", value=0), []),
            ("psd", small_raw_with("system", "users", value=1.5), []),
            ("psd", small_raw_with("system", "users", value=True), []),
            ("psd", small_raw_with("pulses", 0, "order", value=4.7), []),
            ("bep", small_raw_with("psd", "symbols", value=0), []),
            ("psd", small_raw_with("combiner", "scheme", value="zzz"), []),
            ("sim", small_raw(), ["--threads", "0"]),
            ("sim", small_raw(), ["--threads", "-1"]),
            ("sim", small_raw_with("trials", "max_bits", value=0), []),
            ("sim", small_raw_with("trials", "max_bits", value=-5), []),
            ("bep", small_raw(sweep_ebn0_db=[0, -3100]), []),
            ("sim", small_raw(sweep_ebn0_db=[-3100]), []),
            ("psd", small_raw_with("system", "chip_time_ns", value=1e308), []),
            ("validate", small_raw_with("system", "chip_time_ns", value=1e308), []),
        ],
        ids=["sim-negative-seed", "psd-negative-seed", "non-numeric-sweep", "nan-sweep",
             "zero-theory-realizations", "pulse-wider-than-chip", "string-order", "string-width",
             "string-psd-symbols", "string-combiner-paths", "string-sample-step",
             "null-sample-step", "zero-segment-symbols", "fractional-users", "bool-users",
             "fractional-order", "zero-psd-symbols", "unknown-scheme", "zero-threads",
             "negative-threads", "zero-max-bits", "negative-max-bits", "bep-overflowing-sweep",
             "sim-overflowing-sweep", "psd-overflowing-chip-time", "validate-overflowing-chip-time"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, raw, extra):
        path = write_config(tmp_path, raw)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_integer_in_float_key_and_defaults_resolve_as_written(self):
        raw = small_raw()
        raw["system"] = {"users": 2, "frames_per_symbol": 2, "chips_per_frame": 20,
                         "hop_positions": 2, "chip_time_ns": 1}
        raw["pulses"] = [{"order": 4}, {"order": 5}]
        raw["trials"] = {"master_seed": 77, "channel_realizations": 4, "bits_per_realization": 60}
        for key in ("combiner", "sweep_ebn0_db", "theory_realizations", "psd"):
            del raw[key]
        cfg = parse_config(raw)
        assert cfg.system.chip_time == 1
        want = {
            "schema": "mpir-experiment/1",
            "system": {**raw["system"], "interferer_power": 5.0},
            "pulses": [{"kind": "mhp", "order": 4, "width_ns": 0.05},
                       {"kind": "mhp", "order": 5, "width_ns": 0.05}],
            "sample_step_ns": 0.02,
            "channel": raw["channel"],
            "combiner": {"scheme": "mrc", "selection": "all", "paths": None},
            "sweep_ebn0_db": [],
            "trials": {**raw["trials"], "min_errors": 50, "min_realizations": 1, "max_bits": None},
            "theory_realizations": 500,
            "psd": {"symbols": 2000, "segment_symbols": 1},
        }
        # compared as JSON text, so 1 and 1.0 differ, as in the output header
        assert json.dumps(cfg.resolved, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_header_embeds_config_and_seed(self, tmp_path):
        path = write_config(tmp_path, small_raw())
        main(["psd", "--config", str(path), "--seed", "123", "--out", str(tmp_path / "h")])
        text = (tmp_path / "h" / "psd.csv").read_text()
        assert "# master_seed: 123" in text
        config_line = [ln for ln in text.splitlines() if ln.startswith("# config:")][0]
        embedded = json.loads(config_line.split(": ", 1)[1])
        assert embedded["system"]["users"] == 2
