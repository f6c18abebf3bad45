"""Tests of the benchmark harness itself (not of mpir).

    python3 -m pytest benchmarks/test_benchmarks.py

Runs every workload once per trace mode at the smallest time budget (one
pass each), about two minutes in all.  The runs write under .bench_out/.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

SEED = 11


def _bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    workload = request.param
    return workload, _bench(workload, 0), _bench(workload, 1)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_metric_is_emitted_with_its_unit(runs):
    _, untraced, traced = runs
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == _declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == {name: unit for name, unit, _ in run.per_layer_metrics()}


def test_traced_outputs_are_byte_identical_to_untraced(runs):
    workload, _, _ = runs
    base = run.OUT / workload
    for name in workloads.CONFIGS:
        for sub in workloads.WORKLOADS[workload]:
            rel = Path(name) / workloads.OUTPUT_FILE[sub]
            assert (base / "traced" / rel).read_bytes() == (base / "untraced" / rel).read_bytes()


def test_seed_reaches_every_command(runs):
    workload, _, _ = runs
    for mode in ("untraced", "traced"):
        for name in workloads.CONFIGS:
            for sub in workloads.WORKLOADS[workload]:
                path = run.OUT / workload / mode / name / workloads.OUTPUT_FILE[sub]
                assert f"# master_seed: {SEED}\n" in path.read_text()


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    run_ber, assemble, qfunc = (tracer.names.index(n) for n in (
        "montecarlo.run_ber", "transceiver._assemble", "analysis.qfunc"))
    # run_ber [0, 10] holds _assemble [1, 4], which holds qfunc [2, 3]
    tracer.spans += [[-1, run_ber, 0.0, 10.0, None], [0, assemble, 1.0, 4.0, None],
                     [1, qfunc, 2.0, 3.0, None]]
    agg = tracer.aggregate(0, 3)
    assert agg["montecarlo.run_ber"]["self_s"] == 7.0
    assert agg["transceiver._assemble"]["self_s"] == 2.0
    assert agg["analysis.qfunc"]["self_s"] == 1.0
    assert agg["montecarlo.run_ber"]["total_s"] == 10.0


VALIDATE_REPORT = """# mpir validate output
[PASS] psd analytic/empirical mismatch <= 0.05: measured 0.0058
[PASS] channel mean energy (desired) within 5%: measured 1.0045, target 1.0
[{energy}] channel mean energy (interferer) within 5%: measured 5.2630, target 5.0
[PASS] MAI variance closed form vs Monte Carlo within 5%: closed 0.00028754, mc 0.00028222, rel 0.0185
[PASS] noise variance closed form vs Monte Carlo within 5%: closed 1.4669, mc {noise}, rel 0.0100
[{identity}] single-pulse reduction identity <= 1e-12: relative diff 0.00e+00
"""


@pytest.mark.parametrize("energy, noise, identity, code, ok", [
    ("PASS", "1.4816", "PASS", 0, True),
    ("FAIL", "1.4816", "PASS", 1, True),   # a statistical gate missed: not a failure
    ("FAIL", "1.4816", "PASS", 0, False),  # exit code disagrees with the report
    ("PASS", "1.4816", "FAIL", 1, False),  # the exact identity broke
    ("PASS", "nan", "PASS", 0, False),     # an estimate is not a number
    ("PASS", "1.4816", "PASS", 2, False),  # the command itself failed
])
def test_validate_check(tmp_path, energy, noise, identity, code, ok):
    (tmp_path / "double").mkdir()
    (tmp_path / "single").mkdir()
    report = VALIDATE_REPORT.format(energy=energy, noise=noise, identity=identity)
    (tmp_path / "double" / "validate.txt").write_text(report)
    (tmp_path / "single" / "validate.txt").write_text(VALIDATE_REPORT.format(
        energy="PASS", noise="1.4816", identity="PASS"))
    codes = {("validate", "double"): code, ("validate", "single"): 0}
    (tmp_path / "double" / "psd.csv").write_text("# mismatch_rel_l2: 0.01\nf,psd\n")
    (tmp_path / "single" / "psd.csv").write_text("# mismatch_rel_l2: 0.01\nf,psd\n")
    results = {name: passed for name, passed, _ in
               workloads.output_checks("oracle_check", tmp_path, 6, codes)}
    assert results == {
        "psd mismatch <= 0.05 [double]": True,
        "psd mismatch <= 0.05 [single]": True,
        "validate runs every oracle, exact identity holds [double]": ok,
        "validate runs every oracle, exact identity holds [single]": True,
    }
    missed = ["[double] channel mean energy (interferer) within 5%"] if energy == "FAIL" else []
    if identity == "FAIL":
        missed.append("[double] single-pulse reduction identity <= 1e-12")
    assert workloads.missed_gates("oracle_check", tmp_path) == missed


def test_missing_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sim_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
