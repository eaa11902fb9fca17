"""Time asdcong's set-up in a fresh process.

Set-up is everything a CLI invocation does before it evaluates its first
case: importing the package, parsing the arguments and enumerating the
case grid.  The probe runs the real CLI entry point and stops it at the
first call of `run_cases` (or `evaluate_case`), the boundary where case
evaluation begins.

Usage: python3 setup_probe.py ARG...   (the arguments of `asdcong`)
Prints one JSON line: {"setup_s": float, "module": path of asdcong}.
"""

from __future__ import annotations

import json
import sys
import time


class _SetupDone(Exception):
    pass


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import asdcong
    import asdcong.cli

    def boundary(*args, **kwargs):
        raise _SetupDone(time.perf_counter())

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "asdcong"]:
        for name in ("run_cases", "evaluate_case"):
            if name in vars(module):
                setattr(module, name, boundary)
    try:
        asdcong.cli.main(argv)
        t1 = time.perf_counter()
    except _SetupDone as done:
        t1 = done.args[0]
    print(json.dumps({"setup_s": t1 - t0, "module": asdcong.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
