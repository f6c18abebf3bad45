"""Span tracer that wraps mpir's public entry points from outside the package.

``Tracer.install`` replaces each function in TRACED by a wrapper in every
``mpir`` module namespace that holds it, so a function imported by name
(``from .transceiver import _assemble``) is traced where it is called.
Spans stay in memory as [parent, name, start, end, counts] and are written
out once, when the run ends.  A span's self time is its duration minus the
durations of its direct child spans.

Some wrappers also compute work counts from the call's arguments and
result.  They are derived from what the program returned, never timed, so
they repeat exactly for a given seed and commit.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "pulses": ("make_mhp", "cross_correlation"),
    "channel": ("sample_channel", "composite_waveform"),
    "transceiver": ("generate_codes", "select_combiner", "transmit_block", "_assemble"),
    "spectral": ("empirical_psd", "analytic_psd"),
    "analysis": ("qfunc", "conditional_bep_terms", "mai_variance_multi", "bep_averaged"),
    "montecarlo": ("run_ber", "realization_channels", "estimate_mai_variance",
                   "estimate_noise_variance"),
    "cli": ("load_config", "cmd_sim", "cmd_bep", "cmd_psd", "cmd_validate"),
}

# Computed work counts: span name -> (count name, better), in report order.
COMPUTED = {
    "montecarlo.run_ber": (("realizations", "higher"), ("bits", "higher"), ("errors", "higher"),
                           ("points_stopped_on_errors", "higher"),
                           ("points_budget_exhausted", "lower")),
    "transceiver._assemble": (("samples_written", "lower"),),
    "pulses.cross_correlation": (("fft_calls", "lower"), ("direct_calls", "lower")),
    "montecarlo.estimate_noise_variance": (("normals_drawn", "lower"),),
    "spectral.empirical_psd": (("samples", "lower"),),
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._template_len = 0
        self._counters = {
            "montecarlo.run_ber": self._count_run_ber,
            "transceiver._assemble": self._count_assemble,
            "pulses.cross_correlation": self._count_cross_correlation,
            "montecarlo.estimate_noise_variance": self._count_noise_variance,
            "spectral.empirical_psd": self._count_empirical_psd,
        }

    # -- computed counts ---------------------------------------------------

    @staticmethod
    def _count_run_ber(args, kwargs, est):
        return {"realizations": est.realizations, "bits": est.bits, "errors": est.errors,
                "points_stopped_on_errors": int(not est.capped),
                "points_budget_exhausted": int(est.capped)}

    @staticmethod
    def _count_assemble(args, kwargs, wave):
        return {"samples_written": len(wave.samples)}

    @staticmethod
    def _count_cross_correlation(args, kwargs, phi):
        fft = len(phi.values) > 256  # the branch pulses.cross_correlation takes
        return {"fft_calls": int(fft), "direct_calls": int(not fft)}

    def _count_noise_variance(self, args, kwargs, _):
        n_trials = kwargs["n_trials"] if "n_trials" in kwargs else args[2]
        return {"normals_drawn": n_trials * self._template_len}

    @staticmethod
    def _count_empirical_psd(args, kwargs, _):
        segment_len = kwargs["segment_len"] if "segment_len" in kwargs else args[1]
        n_segments = kwargs["n_segments"] if "n_segments" in kwargs else args[2]
        return {"samples": segment_len * n_segments}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, index: int, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, index, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def _record_template(self, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._template_len = len(result.samples)
            return result

        return recorded

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mpir" or mod_name.startswith("mpir.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every function in TRACED wherever mpir holds a reference to it."""
        for mod, fns in TRACED.items():
            module = importlib.import_module(f"mpir.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                original = getattr(module, fn)
                wrapper = self._wrap(self.names.index(name), original, self._counters.get(name))
                self._replace_everywhere(original, wrapper)
        # the noise estimator draws n_trials x len(template) normals; the
        # template is built inside it, so record its length on the way out
        montecarlo = importlib.import_module("mpir.montecarlo")
        self._patches.append((montecarlo, "rake_template", montecarlo.rake_template))
        montecarlo.rake_template = self._record_template(montecarlo.rake_template)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict:
        """Calls, total and self seconds, and computed counts of spans[lo:hi]."""
        child = defaultdict(float)
        for parent, _, start, end, _ in self.spans[lo:hi]:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        counts = {name: dict.fromkeys((c for c, _ in spec), 0) for name, spec in COMPUTED.items()}
        for sid in range(lo, hi):
            _, index, start, end, span_counts = self.spans[sid]
            name = self.names[index]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child[sid]
            for key, value in (span_counts or {}).items():
                counts[name][key] += value
        for name, values in counts.items():
            out[name].update(values)
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for sid, (parent, index, start, end, _) in enumerate(self.spans):
                writer.writerow([sid, parent, self.names[index],
                                 f"{start - origin:.9f}", f"{end - origin:.9f}"])
