import json
import math
from pathlib import Path

import numpy as np
import pytest

from mpir.analysis import qfunc
from mpir.cli import (
    ConfigError,
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
        assert rows[0] == "ebn0_db,ber,ci95_halfwidth,bits,errors"
        assert len(rows) == 1 + len(cfg.sweep_ebn0_db)
        db, ber, ci, bits, errors = rows[1].split(",")
        assert int(bits) > 0
        assert 0 <= float(ber) <= 1

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

    def test_broken_noise_convention_fails(self, tmp_path, capsys):
        cfg = load_config(write_config(tmp_path, small_raw()))
        code = cmd_validate(cfg, tmp_path, seed=11, noise_std_scale=1.3)
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] noise variance" in out


class TestMain:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sim", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

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
        ],
        ids=["sim-negative-seed", "psd-negative-seed", "non-numeric-sweep", "nan-sweep",
             "zero-theory-realizations", "pulse-wider-than-chip"],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, raw, extra):
        path = write_config(tmp_path, raw)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_header_embeds_config_and_seed(self, tmp_path):
        path = write_config(tmp_path, small_raw())
        main(["psd", "--config", str(path), "--seed", "123", "--out", str(tmp_path / "h")])
        text = (tmp_path / "h" / "psd.csv").read_text()
        assert "# master_seed: 123" in text
        config_line = [ln for ln in text.splitlines() if ln.startswith("# config:")][0]
        embedded = json.loads(config_line.split(": ", 1)[1])
        assert embedded["system"]["users"] == 2
