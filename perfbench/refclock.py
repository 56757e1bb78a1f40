"""A software reference clock, for hosts whose speed is not steady.

The reference host has no hardware performance counters, and its speed
flips between levels about 1.5x apart for seconds to minutes at a time
(README.md, "Noise"). `RefClock` samples that speed while the program runs:
every `PERIOD_S` of wall time a SIGALRM handler times one fixed chunk of
interpreter work in the main thread: it cuts tuple contexts from a list,
counts them in a dict and dumps them as JSON, like n-gram training and
transcript writing do. `seconds(wall_s, samples)` scales a wall time by the
mean host speed sampled during it, `REFERENCE_CHUNK_S` over each chunk's
time: the time the same work would have taken with the host at its
reference speed.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

PERIOD_S = 0.025
# About the median duration of one chunk sampled during benchmark runs on
# the reference host (2 vCPU Intel Xeon under KVM, Python 3.11).
REFERENCE_CHUNK_S = 300e-6
_VALUES = list(range(50))


def chunk() -> None:
    contexts = [tuple(_VALUES[i % 40:i % 40 + 4]) for i in range(150)]
    counts: dict[tuple, int] = {}
    for context in contexts:
        counts[context] = counts.get(context, 0) + 1
    json.dumps(contexts)


class RefClock:
    """Chunk durations, sampled every PERIOD_S between `start()` and `stop()`."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def seconds(wall_s: float, samples: list[float]) -> float:
    """`wall_s` at the reference speed, given the chunk durations sampled
    during it; `wall_s` itself when there are none."""
    if not samples:
        return wall_s
    return wall_s * statistics.fmean(REFERENCE_CHUNK_S / x for x in samples)
