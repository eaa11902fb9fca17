"""Forked worker processes for a sweep's independent calls.

`forked(calls, workers)` runs the calls on this process and `workers - 1`
processes forked from it, which hold the calls already: nothing is sent to
them but call numbers, through one shared pipe from which every process
takes its next number whenever it gets free.  A forked worker sends back
its results, or the exception that stopped it, pickled, once the numbers
run out.

Forking a worker costs 2-5 ms.  A concurrent.futures pool of two cost 35-50
ms more (CPython 3.11, shared 2-CPU x86-64 machine): 15-30 ms to import,
10-20 ms to start and stop, and 0.15 ms to send each call.  Workers that
started from a fresh interpreter would each pay the package's 40-60 ms
import first.  `engine.pool_size` forks only where no other thread runs.
"""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence

Calls = Sequence[Callable[[], object]]


@contextmanager
def forked(calls: Calls, workers: int) -> Iterator[Callable[[], list]]:
    """Fork `workers - 1` workers for `calls`, and yield a function that
    runs calls here while numbers are left, then returns the results of all
    calls in order.  A worker's exception is raised here.  On leaving, every
    worker is stopped and reaped.
    """
    read_end, write_end = os.pipe()
    children: list[tuple[int, BinaryIO]] = []
    with open(read_end, "rb", buffering=0) as numbers, open(write_end, "wb", buffering=0) as given:
        try:
            for _ in range(workers - 1):
                results, sent = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(results)
                    os.close(sent)
                    raise
                if not pid:
                    _serve(calls, numbers, given, sent)
                os.close(sent)
                children.append((pid, open(results, "rb")))
            # 512 bytes at a time: POSIX keeps a pipe write that small whole,
            # so no worker reads part of a number.
            for first in range(0, len(calls), 128):
                given.write(b"".join(i.to_bytes(4, "little") for i in range(first, min(first + 128, len(calls)))))
            given.close()
            yield lambda: _gathered(calls, numbers, children)
        finally:
            for pid, results in children:
                results.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(calls: Calls, numbers: BinaryIO, given: BinaryIO, sent: int) -> NoReturn:
    """A forked worker: run the calls whose numbers it reads, send their
    results, or the exception that stopped it, and exit."""
    try:
        given.close()
        done = {}
        try:
            while number := numbers.read(4):
                i = int.from_bytes(number, "little")
                done[i] = calls[i]()
            payload = pickle.dumps((True, done))
        except BaseException as error:
            payload = pickle.dumps((False, error))
        with open(sent, "wb") as stream:
            stream.write(payload)
    finally:
        os._exit(0)


def _gathered(calls: Calls, numbers: BinaryIO, children: Sequence[tuple[int, BinaryIO]]) -> list:
    results = [None] * len(calls)
    while number := numbers.read(4):
        i = int.from_bytes(number, "little")
        results[i] = calls[i]()
    for _, stream in children:
        payload = stream.read()
        if not payload:
            raise ChildProcessError("a worker process ended without sending its results")
        finished, value = pickle.loads(payload)
        if not finished:
            raise value
        for i, result in value.items():
            results[i] = result
    return results
