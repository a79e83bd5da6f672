"""Host speed, sampled by a tiny fixed kernel while the timed calls run.

A shared host runs the same work up to 1.7 times faster or slower from
one moment to the next, and slow or fast stretches can last minutes, so
the seconds a run takes move with the host more than with the program.
`Sampler` runs a fixed kernel of about half a millisecond from a SIGALRM
handler every PERIOD_S of wall time while a timed unit runs. The handler
runs in the main thread between bytecodes, so each sample sees the host
as the program sees it at that moment. A unit's time in reference units
is its seconds, less the time spent in the handler, divided by the mean
kernel time around it: the host's drift cancels and the program's speed
remains. The kernel does the kinds of work the program does (a JSON
decode with a recursive walk, small NumPy matrix products, float
formatting) and nothing in it depends on the program.
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np

PERIOD_S = 0.02
MIN_SAMPLES = 5  # a unit shorter than this many periods borrows neighbours'


def _tree(depth: int) -> dict:
    if depth == 0:
        return {"v": 1.5}
    return {"f": depth % 7, "t": depth * 0.37,
            "l": _tree(depth - 1), "r": _tree(depth - 1)}


_DOC = json.dumps(_tree(5))
_MATRIX = np.random.default_rng(0).random((32, 32))


def _walk(node: dict) -> int:
    return 1 if "v" in node else 1 + _walk(node["l"]) + _walk(node["r"])


def kernel() -> None:
    _walk(json.loads(_DOC))
    m = _MATRIX
    for _ in range(4):
        m = np.tanh(m @ _MATRIX * 0.01)
    ",".join(f"{i * 0.37:.6g}" for i in range(300))


class Sampler:
    """Times `kernel` every PERIOD_S between `start` and `stop`.

    `samples` holds (end time, seconds) of every kernel run, in order.
    """

    def __init__(self):
        self.samples = []

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def inside(samples, t0: float, t1: float) -> float:
    """Seconds of kernel runs that ended within [t0, t1]."""
    return sum(s for end, s in samples if t0 <= end <= t1)


def kernel_around(samples, t0: float, t1: float) -> float:
    """Mean kernel time over [t0, t1], or over the MIN_SAMPLES nearest to it
    when fewer ran inside."""
    def distance(sample):
        end = sample[0]
        return max(t0 - end, end - t1, 0.0)

    near = sorted(samples, key=distance)
    count = max(MIN_SAMPLES, sum(1 for s in near if distance(s) == 0.0))
    chosen = near[:count]
    if not chosen:
        raise ValueError("no kernel samples")
    return sum(s for _, s in chosen) / len(chosen)
