"""The benchmark's workloads and the check applied to every invocation.

Each workload is one `asdcong` command line with a fixed case grid; the seed
only reaches the `lemma-2-5` sequences, whose verdicts do not depend on it.
The expected outputs below were recorded from the package as it stood when
the benchmark was written; a run whose output differs counts as failed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from stats import verdict_digest


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    max_jobs: int
    writes_report: bool
    cases: int
    digest: str | None = None

    def jobs(self, nproc: int) -> int:
        return max(1, min(self.max_jobs, nproc))

    def cli_argv(self, seed: int, jobs: int, out: Path | None) -> list[str]:
        argv = [*self.argv, "--jobs", str(jobs), "--seed", str(seed)]
        if self.writes_report:
            argv += ["--out", str(out)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # The default sweep every user runs: 4916 small cases across all
        # thirteen suites, mostly on the exact oracle, single-threaded.
        Workload(
            "verify-default",
            ("verify",),
            max_jobs=1,
            writes_report=True,
            cases=4916,
            digest="0759e7b9f562d7ec03ddba76bc5df289e0d968fc19c43840dbe3c5bb39bdcb30",
        ),
        # The counterexample hunt: 342 thm-main cases up to index 89373 on
        # both paths, the only workload that uses the process pool.
        Workload(
            "scan-wide",
            ("scan", "--suite", "thm-main", "--primes", "3..50", "--max-index", "100000"),
            max_jobs=2,
            writes_report=False,
            cases=342,
        ),
        # Scale in alpha: 60 cases on the modular stream alone, at working
        # precision up to 33 digits; oracle, report and pool do almost nothing.
        Workload(
            "modular-deep",
            (
                "verify", "--suite", "thm-main", "--primes", "3", "--m", "1,2",
                "--n", "1..3", "--alpha", "1..10", "--max-index", "200000",
                "--oracle-cutoff", "0", "--crosscheck-cutoff", "0",
            ),
            max_jobs=1,
            writes_report=True,
            cases=60,
            digest="93c9c3fcf64eabb78945b004761c5a5a958e491d682190df1f7280ea84b181f9",
        ),
    )
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_output(w: Workload, returncode: int, stdout: str, stderr: str, report: Path | None) -> str | None:
    """Why this invocation's output is wrong, or None when it is as expected."""
    if "EngineSelfCheckError" in stderr:
        return "EngineSelfCheckError: " + stderr.strip().splitlines()[-1]
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {returncode}: {tail[0]}"
    if not w.writes_report:
        return f"scan printed hits: {stdout.strip().splitlines()[0]}" if stdout.strip() else None
    try:
        cases = json.loads(report.read_text(encoding="utf-8"))["cases"]
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if len(cases) != w.cases:
        return f"report has {len(cases)} cases, expected {w.cases}"
    digest = verdict_digest(cases)
    if digest != w.digest:
        return f"verdict digest {digest[:12]} differs from the recorded {w.digest[:12]}"
    return None
