"""Run one asdcong CLI invocation in this process with the layers wrapped.

The wrappers live here, not in the package: each replaces a public function
under every name that an asdcong module bound at import time (`engine` and
`cli` import functions by name, so patching only the defining module would
record nothing).  A span's time is inclusive of the layers it calls; a
recursive call of the same function is part of its outermost span.

Usage: python3 tracer.py MODE STATS_PATH ARG...
  MODE "full"  wraps every layer function the benchmark reports on;
  MODE "light" wraps only engine.evaluate_case and engine.run_cases, whose
               few thousand calls cost milliseconds, to time case evaluation.
The CLI's own output goes where it normally does; the counters are written
to STATS_PATH as JSON.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

from stats import TermLog

LIGHT = ("engine.evaluate_case", "engine.run_cases")
FULL = (
    *LIGHT,
    "engine.enumerate_cases",
    "series.s_sum_mod",
    "series.s_sum_exact",
    "series.central_binomial_stream",
    "series.apery",
    "lucas.lucas_u",
    "lucas.lucas_u_mod",
    "exactcore.rat_congruent",
    "exactcore.binomial",
    "padic.from_rational",
    "padic.required_guard",
    "report.Report.to_json_text",
)


class Span:
    """Calls, inclusive seconds and the longest single call of one function."""

    __slots__ = ("calls", "s", "max_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.max_s = 0.0
        self.active = False

    def as_dict(self) -> dict:
        return {"calls": self.calls, "s": self.s, "max_s": self.max_s}


def timed(original, span: Span, hook=None):
    def wrapper(*args, **kwargs):
        if span.active:
            return original(*args, **kwargs)
        span.active = True
        t0 = perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            span.active = False
            span.calls += 1
            span.s += dt
            if dt > span.max_s:
                span.max_s = dt
        if hook is not None:
            hook(result, *args, **kwargs)
        return result

    return wrapper


def timed_generator(original, span: Span, hook=None):
    """Time a generator function by the time spent producing its items."""

    def wrapper(*args, **kwargs):
        span.calls += 1
        if hook is not None:
            hook(None, *args, **kwargs)
        inner = original(*args, **kwargs)

        def items():
            while True:
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    span.s += perf_counter() - t0
                    return
                span.s += perf_counter() - t0
                yield item

        return items()

    return wrapper


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.missing: list[str] = []
        self.paths: Counter = Counter()
        self.mod_log = TermLog()
        self.exact_log = TermLog()
        self.stream_terms = 0
        self.guard_max = 0
        self.report_bytes = 0

    # Hooks see the wrapped function's arguments under its own parameter names.
    def _s_sum_mod(self, result, N, spec, ctx):
        self.mod_log.add((ctx.p, spec.m, spec.variant), N, ctx.prec)

    def _s_sum_exact(self, result, N, spec):
        self.exact_log.add((spec.m, spec.variant), N)

    def _stream(self, result, ctx, k_max):
        self.stream_terms += k_max + 1

    def _guard(self, result, *args, **kwargs):
        self.guard_max = max(self.guard_max, result)

    def _case(self, result, *args, **kwargs):
        self.paths[getattr(result, "path", "unknown")] += 1

    def _report(self, result, *args, **kwargs):
        self.report_bytes += len(result.encode("utf-8"))

    def install(self, names) -> None:
        import asdcong.cli  # noqa: F401  (loads every submodule)

        hooks = {
            "series.s_sum_mod": self._s_sum_mod,
            "series.s_sum_exact": self._s_sum_exact,
            "series.central_binomial_stream": self._stream,
            "padic.required_guard": self._guard,
            "engine.evaluate_case": self._case,
            "report.to_json_text": self._report,
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "asdcong"]
        for qualname in names:
            module_name, *owner_path, attr = qualname.split(".")
            owner = sys.modules.get(f"asdcong.{module_name}")
            for part in owner_path:
                owner = getattr(owner, part, None)
            key = f"{module_name}.{attr}"
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(key)
                continue
            span = self.spans[key] = Span()
            make = timed_generator if key == "series.central_binomial_stream" else timed
            wrapper = make(original, span, hooks.get(key))
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def as_dict(self, wall_s: float) -> dict:
        return {
            "wall_s": wall_s,
            "spans": {name: span.as_dict() for name, span in self.spans.items()},
            "missing": self.missing,
            "paths": dict(self.paths),
            "s_sum_mod": {
                "terms": self.mod_log.terms,
                "useful_ratio": self.mod_log.useful_ratio,
                "prec_weighted": self.mod_log.prec_weighted,
            },
            "s_sum_exact": {
                "terms": self.exact_log.terms,
                "useful_ratio": self.exact_log.useful_ratio,
            },
            "central_binomial_stream": {"terms": self.stream_terms},
            "required_guard_max": self.guard_max,
            "report_bytes": self.report_bytes,
        }


def main(argv: list[str]) -> int:
    mode, stats_path, *cli_argv = argv
    tracer = Tracer()
    tracer.install(FULL if mode == "full" else LIGHT)
    import asdcong.cli

    t0 = perf_counter()
    code = asdcong.cli.main(cli_argv)
    wall_s = perf_counter() - t0
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.as_dict(wall_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
