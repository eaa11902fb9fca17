"""Benchmark of the asdcong CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with nothing traced: set-up time
in fresh probe processes, then whole CLI invocations, one at a time (a
closed loop with one client), for S seconds; cli_rss.py runs each as
`python3 -m asdcong` would and records its peak RSS.  Times are scaled
to a reference machine speed sampled during each of them (speed.py); the raw
times are kept in the result file.  --trace 1 runs the same command
in-process at --jobs 1 under the wrappers of tracer.py, twice, and reports
the per-layer metrics; the two runs must give identical counts.  Every
invocation's output is checked against the recorded verdicts.

The package is imported from ./src of the checkout, never from an installed
copy.  A result file goes to .perfbench/results/, and the last line on
stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from speed import SpeedProbe, SpeedProbeError
from workloads import WORKLOADS, Workload, check_output, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 15
# Every process a run starts is killed once the run has taken this long, so
# a hung invocation fails the run instead of stalling it.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "engine.enumerate_cases.s": "s",
    "engine.cases": "count",
    "engine.path.both": "count",
    "engine.path.oracle": "count",
    "engine.path.modular": "count",
    "engine.evaluate_case.calls": "count",
    "engine.evaluate_case.s": "s",
    "engine.evaluate_case.max_s": "s",
    "engine.pool.efficiency": "ratio",
    "series.s_sum_mod.calls": "count",
    "series.s_sum_mod.terms": "count",
    "series.s_sum_mod.s": "s",
    "series.s_sum_mod.ns_per_term": "ns",
    "series.s_sum_mod.prec_weighted": "digits",
    "series.s_sum_mod.useful_ratio": "ratio",
    "series.s_sum_exact.calls": "count",
    "series.s_sum_exact.terms": "count",
    "series.s_sum_exact.s": "s",
    "series.s_sum_exact.useful_ratio": "ratio",
    "series.central_binomial_stream.calls": "count",
    "series.central_binomial_stream.terms": "count",
    "series.central_binomial_stream.s": "s",
    "series.apery.calls": "count",
    "series.apery.s": "s",
    "lucas.lucas_u.calls": "count",
    "lucas.lucas_u.s": "s",
    "lucas.lucas_u_mod.calls": "count",
    "lucas.lucas_u_mod.s": "s",
    "exactcore.rat_congruent.calls": "count",
    "exactcore.rat_congruent.s": "s",
    "exactcore.binomial.calls": "count",
    "exactcore.binomial.s": "s",
    "padic.from_rational.calls": "count",
    "padic.from_rational.s": "s",
    "padic.required_guard.max": "digits",
    "report.to_json_text.s": "s",
    "report.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Layer metrics that are counts of work, deterministic in the case grid: two
# traced runs of the same code must agree on every one of them exactly.
COUNT_METRICS = tuple(
    name
    for name, unit in LAYER_UNITS.items()
    if unit in ("count", "bytes", "digits") or name.endswith("useful_ratio")
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONNOUSERSITE"] = "1"
    return env


def read_first(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(x) for x in handle.read().split()[:3]]
    except OSError:
        return []


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], out: Path, err: Path, timeout: float, cpus=None) -> tuple[float, int]:
    """Run one process to completion: (wall seconds, exit code).

    The child gets its own process group, so a timeout kills its workers
    too, but stays in this session: the scheduler then weighs it against
    the speed calibrators by their nice values.
    """
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env(), process_group=0)
        if cpus:
            os.sched_setaffinity(proc.pid, cpus)
        killer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        return time.perf_counter() - t0, code


class Run:
    """One benchmark run: its scratch directory and its tally of operations."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w = w
        self.seed = seed
        self.tmp = STATE / f"tmp-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.errors.append(f"{what}: {reason}")
            print(f"FAILED {self.w.name} {what}: {reason}", file=sys.stderr)

    def cli(self, command: list[str], what: str, cpus=None) -> tuple[float, str | None]:
        """Run an asdcong command line and check its output: (wall seconds,
        why the output is wrong or None)."""
        report = self.tmp / "report.json"
        report.unlink(missing_ok=True)
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        wall, code = run_child(command, out, err, self.deadline - time.monotonic(), cpus)
        reason = check_output(
            self.w,
            code,
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
            report,
        )
        self.record(what, reason)
        return wall, reason

    def setup_s(self, argv: list[str], probe: SpeedProbe, cpus: list[int]) -> tuple[list[float], float]:
        """Set-up times of fresh probe processes, and the CPU speed over them.

        One speed covers the whole series: a single probe is too short for
        the calibrator to sample it evenly.
        """
        out, err = self.tmp / "probe.out", self.tmp / "probe.err"
        probe_argv = [sys.executable, str(HERE / "setup_probe.py"), *argv]
        times = []
        # The first probe also compiles the bytecode; it is not counted.
        for i in range(SETUP_PROBES + 1):
            if i == 1:
                before = probe.snapshot()[:1]
            _, code = run_child(probe_argv, out, err, self.deadline - time.monotonic(), cpus[:1])
            try:
                result = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
            except (ValueError, IndexError):
                result = None
            if code != 0 or result is None:
                tail = err.read_text(encoding="utf-8", errors="replace").strip().splitlines() or [""]
                self.record(f"setup probe {i}", f"exit code {code}: {tail[-1]}")
                continue
            if not Path(result["module"]).resolve().is_relative_to(SRC):
                raise BenchError(f"asdcong was imported from {result['module']}, not from {SRC}")
            self.record(f"setup probe {i}", None)
            if i:
                times.append(result["setup_s"])
        if not times:
            raise BenchError("every set-up probe failed")
        return times, probe.speed(before, probe.snapshot()[:1])

    def end_to_end(self, seconds: int) -> dict:
        jobs = self.w.jobs(nproc())
        argv = self.w.cli_argv(self.seed, jobs, self.tmp / "report.json")
        rss_path = self.tmp / "rss"
        command = [sys.executable, str(HERE / "cli_rss.py"), str(rss_path), *argv]
        # Single-process runs stay on the CPU whose calibrator samples them.
        cpus = sorted(os.sched_getaffinity(0))[:jobs]
        probe = SpeedProbe(cpus, self.tmp)
        walls, speeds, rss = [], [], []
        try:
            setup, setup_speed = self.setup_s(argv, probe, cpus)
            start = time.perf_counter()
            while not walls or (time.perf_counter() - start < seconds and time.monotonic() < self.deadline):
                rss_path.unlink(missing_ok=True)
                before = probe.snapshot()
                wall, _ = self.cli(command, f"invocation {len(walls)}", cpus if jobs == 1 else None)
                speeds.append(probe.speed(before, probe.snapshot()))
                walls.append(wall)
                if rss_path.exists():
                    rss.append(int(rss_path.read_text(encoding="ascii")) / 1024)
        finally:
            probe.close()
        if not rss:
            raise BenchError("no invocation recorded its peak RSS")
        return {
            "metrics": {
                "wall_s": median(normalised(walls, speeds)),
                "setup_s": median(normalised(setup, [setup_speed] * len(setup))),
                "peak_rss_mb": median(rss),
            },
            "samples": {
                "wall_s_raw": walls,
                "speed": speeds,
                "setup_s_raw": setup,
                "setup_speed": setup_speed,
                "peak_rss_mb": rss,
            },
        }

    def traced_cli(self, mode: str, jobs: int, what: str) -> dict | None:
        argv = self.w.cli_argv(self.seed, jobs, self.tmp / "report.json")
        stats_path = self.tmp / "trace.json"
        stats_path.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "tracer.py"), mode, str(stats_path), *argv]
        _, reason = self.cli(command, what)
        if reason is not None:
            return None
        trace = json.loads(stats_path.read_text(encoding="utf-8"))
        for name in trace["missing"]:
            print(f"note: {name} not found, its metrics read 0", file=sys.stderr)
        return trace

    def traced(self) -> dict:
        jobs = self.w.jobs(nproc())
        light = self.traced_cli("light", 1, "light run at --jobs 1")
        full = [self.traced_cli("full", 1, f"traced run {i}") for i in range(2)]
        pool = self.traced_cli("light", jobs, f"light run at --jobs {jobs}") if jobs > 1 else light
        if light is None or pool is None or None in full:
            raise BenchError("a traced run failed; see the FAILED lines above")
        layers = [layer_metrics(trace) for trace in full]
        differ = [f"{n}: {layers[0][n]} vs {layers[1][n]}" for n in COUNT_METRICS if layers[0][n] != layers[1][n]]
        self.record("count check of the two traced runs", "; ".join(differ) if differ else None)
        metrics = {
            name: layers[0][name] if name in COUNT_METRICS else median([layer[name] for layer in layers])
            for name in layers[0]
        }
        eval_s = light["spans"].get("engine.evaluate_case", {}).get("s", 0.0)
        pool_s = pool["spans"].get("engine.run_cases", {}).get("s", 0.0)
        metrics["engine.pool.efficiency"] = eval_s / (jobs * pool_s) if pool_s else 0.0
        metrics["trace.overhead_s"] = median([t["wall_s"] for t in full]) - light["wall_s"]
        return {
            "metrics": metrics,
            "samples": {"traced_wall_s": [t["wall_s"] for t in full], "light_wall_s": light["wall_s"]},
        }


def normalised(times: list[float], speeds: list[float]) -> list[float]:
    """Times scaled to the reference speed.  A window the calibrator never
    ran in (speed NaN) takes the median speed of the others."""
    known = [v for v in speeds if v == v]
    if not known:
        raise BenchError("the speed calibrator never ran during the measurements")
    fill = median(known)
    return [t * (v if v == v else fill) for t, v in zip(times, speeds)]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one full traced run."""
    spans = trace["spans"]

    def span(name: str, stat: str) -> float:
        return spans.get(name, {}).get(stat, 0)

    paths = trace["paths"]
    mod, exact = trace["s_sum_mod"], trace["s_sum_exact"]
    metrics = {
        "engine.enumerate_cases.s": span("engine.enumerate_cases", "s"),
        "engine.cases": sum(paths.values()),
        "engine.path.both": paths.get("both", 0),
        "engine.path.oracle": paths.get("oracle", 0),
        "engine.path.modular": paths.get("modular", 0),
        "series.s_sum_mod.terms": mod["terms"],
        "series.s_sum_mod.ns_per_term": span("series.s_sum_mod", "s") / mod["terms"] * 1e9 if mod["terms"] else 0.0,
        "series.s_sum_mod.prec_weighted": mod["prec_weighted"],
        "series.s_sum_mod.useful_ratio": mod["useful_ratio"],
        "series.s_sum_exact.terms": exact["terms"],
        "series.s_sum_exact.useful_ratio": exact["useful_ratio"],
        "series.central_binomial_stream.terms": trace["central_binomial_stream"]["terms"],
        "padic.required_guard.max": trace["required_guard_max"],
        "report.bytes": trace["report_bytes"],
    }
    for name in LAYER_UNITS:
        qualname, _, stat = name.rpartition(".")
        if name not in metrics and stat in ("calls", "s", "max_s"):
            metrics[name] = span(qualname, stat)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "asdcong" / "__init__.py").is_file():
        print(f"error: no asdcong source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    cpus = nproc()
    env = {
        "nproc": cpus,
        "jobs": run.w.jobs(cpus),
        "python": platform.python_version(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "loadavg_before": loadavg(),
    }
    started = time.time()
    run.tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = run.traced() if args.trace else run.end_to_end(args.seconds)
    except (BenchError, SpeedProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
    env["loadavg_after"] = loadavg()

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    failed = len(run.errors)
    summary = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": run.w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "env": env,
        "samples": result["samples"],
        "errors": run.errors,
        **summary,
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    path = results / f"{run.w.name}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{run.w.name}  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        raw = median(result["samples"]["wall_s_raw"])
        print(f"{run.w.name}  {'wall_s, not scaled to reference speed':40s} {raw:.6g} s")
    print(f"{run.w.name}  {'error_rate':40s} {failed / summary['attempted']:.6g} ratio"
          f"  ({failed} of {summary['attempted']} operations failed)")
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
