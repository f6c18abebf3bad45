"""Benchmark of the mpir command line on the two shipped experiments.

    python3 benchmarks/run.py --workload {sim_sweep,theory_curve,oracle_check,all}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/mpir`` and ``configs/``.
Each run writes reduced-budget copies of both experiments, times a fresh
interpreter's set-up several times, then starts one fresh interpreter
(worker.py) that drives ``mpir.cli.main`` for about S seconds and checks
every output.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it runs the workload once untraced and once traced, half the
time each, and reports the per-layer metrics.  Outputs, spans and a result
record with the environment go to ``.bench_out/``.  The last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import workloads
from tracer import COMPUTED, span_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
DEADLINE_S = 170.0  # a run must end within 180 s

# Pin BLAS to one thread, like the program's own --threads 1, so runs on a
# shared machine do not contend with themselves.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    metrics = []
    for name in span_names():
        metrics += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        metrics += [(f"{name}.{count}", "computed", better) for count, better in COMPUTED.get(name, ())]
    metrics += [("montecarlo.run_ber.ms_per_realization", "ms", "lower"),
                ("trace.overhead_s", "s", "lower")]
    return metrics


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    """Machine, toolchain and source identity recorded with every result."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "seed": seed,
    }


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def time_setup(experiments: Path, probes: int, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter until mpir is ready, per probe.

    The probe prints the CLOCK_MONOTONIC time at which it was ready; that
    clock is shared by all processes.  One untimed probe runs first so every
    timed one finds the bytecode cache the way a user's second command would.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "setup", "--src", str(ROOT / "src"),
           "--experiments", str(experiments)]
    times = []
    for _ in range(probes + 1):
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                                  timeout=_remaining(deadline))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe did not finish in time") from exc
        word, _, ready = done.stdout.partition(" ")
        if done.returncode != 0 or word != "ready":
            raise BenchError(f"set-up probe exited {done.returncode}:\n{done.stderr[-4000:]}")
        times.append(float(ready) - started)
    return times[1:]


def run_worker(workload: str, seed: int, seconds: float, experiments: Path, out: Path,
               traced: bool, deadline: float) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "run", "--src", str(ROOT / "src"),
           "--experiments", str(experiments), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(out)] + (["--traced"] if traced else [])
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in time") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload} worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _pass_wall(p: dict) -> float:
    return sum(p["wall_s"].values())


def end_to_end(workload: str, result: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and per-command details that are not bounded."""
    passes = result["passes"]
    walls = [_pass_wall(p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "work_per_s": statistics.median(p["work"] / w for p, w in zip(passes, walls)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    details = {"work_unit": workloads.WORK_UNITS[workload], "setup_probe_s": setup_times,
               "pass_wall_s": walls, "pass_command_s": [p["wall_s"] for p in passes],
               "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    for sub in workloads.WORKLOADS[workload]:
        details[f"{sub}.wall_s"] = statistics.median(p["wall_s"][sub] for p in passes)
    if "validate" in workloads.WORKLOADS[workload]:
        # statistical gates missed by a correct program on this seed; not failures
        details["validate.gates_missed"] = passes[0]["gates_missed"]
    return metrics, details


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the names of counts that did not repeat."""
    layers = traced["layers"]
    first = layers[0]
    metrics, unsteady = {}, []
    for name, _, _ in per_layer_metrics():
        span, _, key = name.rpartition(".")
        if name == "montecarlo.run_ber.ms_per_realization":
            per_pass = [1000.0 * l[span]["total_s"] / l[span]["realizations"]
                        for l in layers if l[span]["realizations"]]
            metrics[name] = statistics.median(per_pass) if per_pass else 0.0
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(_pass_wall(p) for p in traced["passes"])
                             - statistics.median(_pass_wall(p) for p in untraced["passes"]))
        elif key == "self_s":
            metrics[name] = statistics.median(l[span][key] for l in layers)
        else:
            metrics[name] = first[span][key]
            if any(l[span][key] != first[span][key] for l in layers):
                unsteady.append(name)
    return metrics, unsteady


def differing_outputs(workload: str, a: Path, b: Path) -> list[str]:
    """Output files of the workload that are missing or differ between two run directories."""
    differ = []
    for name in workloads.CONFIGS:
        for sub in workloads.WORKLOADS[workload]:
            rel = Path(name) / workloads.OUTPUT_FILE[sub]
            if not ((a / rel).is_file() and (b / rel).is_file()
                    and (a / rel).read_bytes() == (b / rel).read_bytes()):
                differ.append(str(rel))
    return differ


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    experiments = OUT / "experiments"
    workloads.write_experiments(ROOT, experiments)
    base = OUT / workload
    env = environment(seed)
    extra_ops, extra_failures = 0, []  # checks made here, beyond the worker's own
    if not trace:
        # probes before and after the workload, so set-up is sampled across the run
        setup_times = time_setup(experiments, SETUP_PROBES // 2, deadline)
        result = run_worker(workload, seed, seconds, experiments, base / "untraced", False, deadline)
        setup_times += time_setup(experiments, SETUP_PROBES - SETUP_PROBES // 2, deadline)
        metrics, details = end_to_end(workload, result, setup_times)
        units = dict(END_TO_END)
        runs = [result]
    else:
        untraced = run_worker(workload, seed, seconds / 2, experiments, base / "untraced", False,
                              deadline)
        traced = run_worker(workload, seed, seconds / 2, experiments, base / "traced", True,
                            deadline)
        metrics, unsteady = per_layer(untraced, traced)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        details = {"spans_file": traced["spans_file"]}
        runs = [untraced, traced]
        extra_ops += 1
        if unsteady:
            extra_failures.append(f"counts differ between traced passes: {unsteady}")
        files = len(workloads.CONFIGS) * len(workloads.WORKLOADS[workload])
        extra_ops += files
        extra_failures += [f"traced output differs from untraced: {rel}"
                           for rel in differing_outputs(workload, base / "untraced", base / "traced")]
    env["blas_threads"] = runs[0]["blas_threads"]
    attempted = sum(p["ops"] for r in runs for p in r["passes"]) + extra_ops
    failed = sum(p["failed"] for r in runs for p in r["passes"]) + len(extra_failures)
    record = {
        "workload": workload,
        "trace": int(trace),
        "environment": env,
        "details": details,
        "failures": [f for r in runs for f in r["failures"]] + extra_failures,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (base / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [rel for rel in ("src/mpir/cli.py", *workloads.CONFIGS.values())
               if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: {ROOT} is not an mpir checkout; missing {missing}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prefix = len(names) > 1
    for rec in records:
        print(f"# {rec['workload']}: environment {json.dumps(rec['environment'])}")
        for name, value in rec["details"].items():
            print(f"# {rec['workload']}: {name} = {value}")
        for failure in rec["failures"]:
            print(f"# {rec['workload']}: FAILED {failure}")
        for name, m in rec["metrics"].items():
            print(f"{rec['workload']:<13} {name:<52} {m['value']:>16.6f} {m['unit']}")
        print(f"{rec['workload']:<13} {'ops':<52} {rec['attempted']:>16d} count")
        print(f"{rec['workload']:<13} {'ops_failed':<52} {rec['failed']:>16d} count")
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
