"""Machine speed, sampled while an invocation runs.

On a shared machine the speed of a CPU changes by tens of percent from one
second to the next with the load other tenants put on it, so a raw wall
time says as much about the neighbours as about the program.  One
calibrator process per CPU the workload uses repeats a fixed chunk of work
at the lowest priority (nice 19), taking about 1.5% of a CPU the benchmark
keeps busy, and counts chunks against its own CPU time.  Its rate over an
invocation's window, relative to `REFERENCE_RATE`, is the speed of that CPU
during the window; a time multiplied by it is the time at reference speed.
The calibrators must share the benchmark's session: with autogroup
scheduling, nice values only order processes within one session.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# Chunks per CPU-second of a warm loop on an unloaded core of the machine the
# benchmark was written on; it only sets the scale of the scaled times.
REFERENCE_RATE = 19000.0
# A calibrator pauses after each BURST_NS of CPU time.  On a CPU the
# benchmark keeps busy it gets a burst only every hundred milliseconds or so
# and the pause hardly matters; on an idle CPU it runs at most a tenth of
# the time, so idle gaps do not outweigh the busy periods in its rate.
BURST_NS = 2_000_000
PAUSE_S = 0.02
_MOD = 3**33


def _chunk() -> int:
    """A fixed piece of work: forty steps of the modular stream's own
    arithmetic, big-integer products and inverses modulo 3^33."""
    u = 1
    for k in range(1, 41):
        num = 3 * k + 1
        u = u * 2 * num % _MOD * pow(num + 3, -1, _MOD) % _MOD
    return u


_COUNTERS = struct.Struct("qq")  # chunks done, CPU nanoseconds spent on them


def spin(cpu: int, path: str) -> None:
    """Calibrator main loop: publish (chunks, CPU ns) through the mapped file.

    It returns once the benchmark that started it is gone, so a killed run
    leaves no calibrator behind.
    """
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    chunks = 0
    with open(path, "r+b") as handle, mmap.mmap(handle.fileno(), _COUNTERS.size) as counters:
        burst_end = time.process_time_ns() + BURST_NS
        while True:
            _chunk()
            chunks += 1
            now = time.process_time_ns()
            _COUNTERS.pack_into(counters, 0, chunks, now)
            if now >= burst_end:
                if os.getppid() != parent:
                    return
                time.sleep(PAUSE_S)
                burst_end = time.process_time_ns() + BURST_NS


class SpeedProbeError(RuntimeError):
    """A calibrator did not start or has stopped."""


class SpeedProbe:
    """Calibrator processes on the given CPUs, sharing their counters through
    small mapped files in `directory`; `speed()` between two snapshots."""

    def __init__(self, cpus, directory: Path) -> None:
        self.maps: list[mmap.mmap] = []
        self.procs: list[subprocess.Popen] = []
        try:
            for cpu in cpus:
                path = directory / f"speed-{cpu}"
                path.write_bytes(bytes(_COUNTERS.size))
                with open(path, "r+b") as handle:
                    self.maps.append(mmap.mmap(handle.fileno(), _COUNTERS.size))
                self.procs.append(
                    subprocess.Popen([sys.executable, __file__, str(cpu), str(path)], stdout=subprocess.DEVNULL)
                )
            deadline = time.monotonic() + 30
            while not all(chunks for chunks, _ in self.snapshot()):
                if time.monotonic() > deadline:
                    raise SpeedProbeError("the speed calibrators did not start")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def snapshot(self) -> list[tuple[int, int]]:
        if any(proc.poll() is not None for proc in self.procs):
            raise SpeedProbeError("a speed calibrator has stopped")
        return [_COUNTERS.unpack_from(m) for m in self.maps]

    @staticmethod
    def speed(before, after) -> float:
        """Mean rate of the calibrators between two snapshots, over REFERENCE_RATE."""
        rates = []
        for (i0, t0), (i1, t1) in zip(before, after):
            if t1 > t0:
                rates.append((i1 - i0) / ((t1 - t0) / 1e9))
        return sum(rates) / len(rates) / REFERENCE_RATE if rates else float("nan")

    def close(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for m in self.maps:
            m.close()


if __name__ == "__main__":
    spin(int(sys.argv[1]), sys.argv[2])
