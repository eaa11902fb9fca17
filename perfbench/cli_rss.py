"""Run the asdcong CLI in this process, then record its peak RSS.

    python3 cli_rss.py RSS_PATH ARG...   (ARG... are the arguments of `asdcong`)

Runs the package's entry point as `python3 -m asdcong ARG...` would, and on
exit writes to RSS_PATH the peak resident set size in KiB of this process
and of the pool workers it reaped, whichever is larger.  The harness cannot
take this from wait4 alone: Linux starts a child's ru_maxrss at the RSS of
the process that spawned it, so the harness's own size would show through.
"""

from __future__ import annotations

import os
import resource
import runpy
import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> None:
    rss_path, *args = sys.argv[1:]
    # Look like `python3 -m asdcong`: the working directory first on the
    # path instead of this script's directory.
    sys.path[0] = os.getcwd()
    sys.argv = ["asdcong", *args]
    try:
        runpy.run_module("asdcong", run_name="__main__", alter_sys=True)
    finally:
        with open(rss_path, "w", encoding="ascii") as handle:
            handle.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    main()
