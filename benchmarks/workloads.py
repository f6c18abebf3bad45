"""What each benchmark workload runs and how its outputs are checked.

A workload is a list of ``mpir`` command lines over the two shipped
experiments (``configs/``), rewritten with reduced budgets.  One *pass*
runs every command of the workload once, for both experiments; a run
repeats passes with the same seed, so every pass does identical work.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

CONFIGS = {
    "double": "configs/twenty_user_double_pulse.json",
    "single": "configs/twenty_user_single_pulse.json",
}

# Budgets written over both shipped experiments.  Every sweep point runs
# all three realizations of 400 bits (min_realizations = budget), so a pass
# always simulates 36 (realization, point) pairs whatever the seed or the
# order in which the engine draws random numbers.  The stop rule then
# decides only the outcome: on most seeds the low-Eb/N0 points reach
# min_errors and the high ones exhaust the budget and report as capped.
BUDGETS = {
    "trials": {
        "channel_realizations": 3,
        "bits_per_realization": 400,
        "min_errors": 100,
        "min_realizations": 3,
        "max_bits": None,
    },
    "theory_realizations": 100,
}

# workload -> the mpir subcommands one pass runs on each experiment
WORKLOADS = {
    "sim_sweep": ("sim",),
    "theory_curve": ("bep",),
    "oracle_check": ("psd", "validate"),
}

# what one unit of work_per_s is, per workload
WORK_UNITS = {
    "sim_sweep": "simulated bits, summed over sweep points and experiments",
    "theory_curve": "theory realizations, summed over experiments",
    "oracle_check": "mpir commands",
}

OUTPUT_FILE = {"sim": "ber.csv", "bep": "bep.csv", "psd": "psd.csv", "validate": "validate.txt"}


def write_experiments(root: Path, dest: Path) -> dict[str, Path]:
    """Write the reduced-budget copies of both shipped experiments."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rel in CONFIGS.items():
        raw = json.loads((root / rel).read_text())
        for key, value in BUDGETS.items():
            if isinstance(value, dict):
                raw[key] = {**raw[key], **value}
            else:
                raw[key] = value
        paths[name] = dest / f"{name}.json"
        paths[name].write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return paths


def pass_commands(workload: str, experiments: dict[str, Path], out: Path, seed: int):
    """(subcommand, experiment, argv) for every command of one pass."""
    commands = []
    for name, path in experiments.items():
        for sub in WORKLOADS[workload]:
            argv = [sub, "--config", str(path), "--out", str(out / name),
                    "--seed", str(seed), "--threads", "1"]
            commands.append((sub, name, argv))
    return commands


def read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, float]]]:
    """The '# key: value' header and the numeric rows of an mpir CSV."""
    header, rows, columns = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(": ")
            header[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, map(float, line.split(",")))))
    return header, rows


def _check_ber(path: Path, n_points: int):
    _, rows = read_csv(path)
    ok = len(rows) == n_points and all(0 < r["bits"] and r["errors"] <= r["bits"] for r in rows)
    return ok, f"{len(rows)} rows, bits {[int(r['bits']) for r in rows]}"


def _check_bep_falls(path: Path):
    _, rows = read_csv(path)
    pe = [r["pe_theory"] for r in sorted(rows, key=lambda r: r["ebn0_db"])]
    ok = len(pe) > 1 and all(b < a for a, b in zip(pe, pe[1:]))
    return ok, f"pe {pe}"


def _check_double_below_single(double: Path, single: Path):
    _, d = read_csv(double)
    _, s = read_csv(single)
    ok = len(d) == len(s) and all(a["pe_theory"] < b["pe_theory"] for a, b in zip(d, s))
    return ok, f"double {[r['pe_theory'] for r in d]} single {[r['pe_theory'] for r in s]}"


def _check_psd_mismatch(path: Path):
    header, _ = read_csv(path)
    mismatch = float(header["mismatch_rel_l2"])
    return mismatch <= 0.05, f"mismatch_rel_l2 {mismatch:.4f}"


# ``mpir validate`` reports six oracles.  The single-pulse reduction
# identity is exact; the other five compare Monte Carlo estimates, drawn
# with budgets fixed inside mpir.cli, against 5% gates, and a correct
# program misses one of those gates on some seeds (README, "Output checks").
VALIDATE_ORACLES = 6
EXACT_ORACLE = "single-pulse reduction identity"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf", re.IGNORECASE)


def validate_report(path: Path) -> list[tuple[bool, str, str]]:
    """(passed, oracle, detail) for every oracle line of a validate.txt."""
    oracles = []
    for line in path.read_text().splitlines():
        if line.startswith(("[PASS] ", "[FAIL] ")):
            name, _, detail = line[7:].partition(": ")
            oracles.append((line.startswith("[PASS]"), name, detail))
    return oracles


def missed_gates(workload: str, out: Path) -> list[str]:
    """The validate oracles of one pass that missed their gate, as "[experiment] oracle"."""
    if "validate" not in WORKLOADS[workload]:
        return []
    missed = []
    for name in CONFIGS:
        try:
            report = validate_report(out / name / "validate.txt")
        except OSError:
            continue  # output_checks fails the pass for a missing report
        missed += [f"[{name}] {oracle}" for ok, oracle, _ in report if not ok]
    return missed


def _check_validate(path: Path, code):
    oracles = validate_report(path)
    missed = [name for ok, name, _ in oracles if not ok]
    numbers = [float(x) for _, _, detail in oracles for x in NUMBER.findall(detail)]
    exact = [ok for ok, name, _ in oracles if name.startswith(EXACT_ORACLE)]
    ok = (len(oracles) == VALIDATE_ORACLES and exact == [True]
          and code == (1 if missed else 0)
          and len(numbers) >= len(oracles) and all(math.isfinite(x) for x in numbers))
    return ok, f"exit code {code}, {len(oracles)} oracles, gates missed {missed}"


def _safe(check, *args):
    """Run one check; an output that cannot be read fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError) as exc:
        return False, f"unreadable output: {exc!r}"


def output_checks(workload: str, out: Path, n_points: int, exit_codes: dict):
    """Yield (name, ok, detail) for the outputs of one pass.

    ``exit_codes`` maps (subcommand, experiment) to the command's exit code.
    """
    subs = WORKLOADS[workload]
    for name in CONFIGS:
        if "sim" in subs:
            yield (f"ber.csv rows [{name}]", *_safe(_check_ber, out / name / "ber.csv", n_points))
        if "bep" in subs:
            yield (f"bep.csv falls with Eb/N0 [{name}]",
                   *_safe(_check_bep_falls, out / name / "bep.csv"))
        if "psd" in subs:
            yield (f"psd mismatch <= 0.05 [{name}]",
                   *_safe(_check_psd_mismatch, out / name / "psd.csv"))
        if "validate" in subs:
            yield (f"validate runs every oracle, exact identity holds [{name}]",
                   *_safe(_check_validate, out / name / "validate.txt",
                          exit_codes[("validate", name)]))
    if "bep" in subs:
        yield ("double-pulse theory below single-pulse", *_safe(
            _check_double_below_single, out / "double" / "bep.csv", out / "single" / "bep.csv"))


def pass_work(workload: str, out: Path, n_commands: int) -> float:
    """Units of work one pass did (see WORK_UNITS); 0 if its outputs cannot be read."""
    try:
        if workload == "sim_sweep":
            return sum(r["bits"] for name in CONFIGS for r in read_csv(out / name / "ber.csv")[1])
        if workload == "theory_curve":
            return sum(int(read_csv(out / name / "bep.csv")[0]["theory_realizations"])
                       for name in CONFIGS)
    except (OSError, ValueError, KeyError):
        return 0.0
    return n_commands
