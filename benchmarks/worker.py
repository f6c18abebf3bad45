"""One workload run in a fresh interpreter; started by run.py.

    python3 worker.py setup --src SRC --experiments DIR
    python3 worker.py run   --src SRC --experiments DIR --workload W --seed N
                            --seconds S --out DIR [--traced]

``setup`` imports mpir from SRC, loads both experiments, builds their
pulses and prints "ready <CLOCK_MONOTONIC seconds>".  ``run`` repeats passes of the workload's
commands through ``mpir.cli.main`` for about S seconds (always at least
one pass), checks each pass's outputs and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def import_mpir(src: Path):
    """Import mpir from ``src`` and nowhere else."""
    sys.path.insert(0, str(src))
    import mpir

    if Path(mpir.__file__).resolve().parent != (src / "mpir").resolve():
        raise SystemExit(f"mpir imported from {mpir.__file__}, not from {src}")
    return mpir


def setup(args) -> None:
    import_mpir(args.src)
    from mpir import cli

    for path in sorted(args.experiments.glob("*.json")):
        cli.load_config(path).make_pulses()
    import time

    print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _run_command(cli, argv):
    """(exit code, captured output) of one mpir command; exceptions count as failures."""
    import contextlib
    import io
    import traceback

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed op, reported with its traceback
            traceback.print_exc()
            code = None
    return code, captured.getvalue()


def run(args) -> None:
    # imported here, not at the top, so the set-up probe loads only mpir
    import json
    import resource
    from time import perf_counter

    import workloads

    import_mpir(args.src)
    from mpir import cli

    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    experiments = {name: args.experiments / f"{name}.json" for name in workloads.CONFIGS}
    n_points = len(json.loads(experiments["double"].read_text())["sweep_ebn0_db"])
    commands = workloads.pass_commands(args.workload, experiments, args.out, args.seed)

    passes, failures = [], []
    started = perf_counter()
    while True:
        pass_start = perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        wall, codes, ops, failed = {}, {}, 0, 0
        for sub, name, argv in commands:
            t0 = perf_counter()
            code, output = _run_command(cli, argv)
            wall[sub] = wall.get(sub, 0.0) + perf_counter() - t0
            codes[(sub, name)] = code
            ok = code == 0 or (sub == "validate" and code == 1)  # 1: an oracle check failed
            ops += 1
            if not ok:
                failed += 1
                failures.append(f"{' '.join(argv)} -> exit {code}\n{output[-2000:]}")
        spans = (first_span, len(tracer.spans)) if tracer else None
        for check, ok, detail in workloads.output_checks(args.workload, args.out, n_points, codes):
            ops += 1
            if not ok:
                failed += 1
                failures.append(f"check failed: {check}: {detail}")
        work = workloads.pass_work(args.workload, args.out, len(commands))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append({"wall_s": wall, "work": work, "ops": ops, "failed": failed, "spans": spans,
                       "gates_missed": workloads.missed_gates(args.workload, args.out),
                       "peak_rss_mb": rss_mb})
        # start another pass only if one as long as this one still fits
        now = perf_counter()
        if (now - started) + (now - pass_start) > args.seconds:
            break

    result = {
        "passes": passes,
        "failures": failures,
        # after the first pass: later passes grow the heap a little more, and
        # how many passes fit depends on the machine's speed
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "blas_threads": _blas_threads(),
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = [tracer.aggregate(*p["spans"]) for p in passes]
        tracer.write_spans(args.out / "spans.csv")
        result["spans_file"] = str(args.out / "spans.csv")
    print(json.dumps(result))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--experiments", type=Path, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    setup(args) if args.mode == "setup" else run(args)


if __name__ == "__main__":
    main()
