"""Work split over the CPUs of the affinity mask, in forked children.

`ingest.write_csv`, `ingest.load_csv` and the `report` command split their
work into contiguous ranges. The caller handles the first range itself,
and one child per other range writes its result to an anonymous file that
the caller reads back. `forked` kills and reaps every child and closes
every file on every way out, interrupts included, and a child leaves only
through `os._exit`, so it runs no exit handler and flushes no buffer it
inherited. While children run, NumPy's OpenBLAS computes on one thread
in every process (`_one_blas_thread`).
"""

from __future__ import annotations

import ctypes
import os
import signal
import tempfile
from contextlib import contextmanager, nullcontext
from functools import lru_cache


def cpus() -> int:
    """The number of CPUs this process may run on; 1 without `os.fork`."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _openblas():
    """(set, get) of the thread count of the OpenBLAS this process has
    loaded (NumPy's), or None where none is found: off Linux, or with
    another BLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the plain build, and the 64-bit-integer builds of NumPy's wheels
        for prefix, suffix in (("openblas", ""), ("scipy_openblas", "64_"),
                               ("openblas", "64_")):
            try:
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextmanager
def _one_blas_thread():
    """The block with OpenBLAS on one thread, its count restored after.

    An OpenBLAS worker thread spins for a while after each call, waiting
    for the next. With one process per CPU, each process's workers spin on
    the CPUs that the other processes compute on: on a 2-vCPU Xeon a
    forked report of 3,000 rows (default epochs, 30 trees) took 5.7 s
    against 2.9 s in one process, and 1.8 s with one BLAS thread. Set
    before the fork, the count holds in the children too."""
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


def _fork(fn, directory):
    """(pid, file) of a forked child that runs `fn(file)` on an anonymous
    binary file in `directory` and exits 0, or 1 if `fn` raises; (None,
    None) when the file or the child cannot be made."""
    try:
        part = tempfile.TemporaryFile(dir=directory)
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        part.close()
        return None, None
    if pid == 0:
        code = 1
        try:
            fn(part)
            part.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, part


@contextmanager
def forked(jobs, directory):
    """A [pid, file] from `_fork` for each job, in order. On leaving, every
    child that `exited` has not reaped is killed and reaped, and every file
    is closed. With any job, the block runs on one BLAS thread."""
    children = []
    with _one_blas_thread() if jobs else nullcontext():
        try:
            for job in jobs:
                children.append(list(_fork(job, directory)))
            yield children
        finally:
            for pid, part in children:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                if part is not None:
                    part.close()


def exited(child: list) -> bool:
    """Reap `child`, a [pid, file] of `forked`: whether it exited 0. A
    child that was never forked did not."""
    pid, child[0] = child[0], None
    return pid is not None and os.waitpid(pid, 0)[1] == 0
