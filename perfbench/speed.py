"""Host-speed probe: scale measured times to a fixed reference speed.

The benchmark runs on a vCPU of a shared host whose speed swings by up
to 2x between regimes that last from a fraction of a second to minutes
(another tenant on the same physical core, frequency changes).  Raw host
seconds of one run therefore say more about the regimes the run fell
into than about the program.

:class:`SpeedProbe` samples the host's speed all through a timed
interval: an interval timer interrupts the program every
:data:`TICK_S` seconds, and the signal handler times one small frozen
pure-Python kernel, taking in turn a different mix of what the program
does (small-dict updates with tuple keys; a heap-driven shortest-path
search over dict adjacency; look-ups scattered over a table bigger than
the per-core caches).  A few more samples are taken right before and
right after the interval, so a short interval has samples too.  A
sample's speed is the kernel's reference time over its measured time;
the interval's scaled time is its host time, less the time the handler
took, times the mean speed of its samples: seconds at the reference
speed.

The kernels belong to the benchmark, not to the program, so a change to
the program moves the scaled time just as it moves host time at a
steady speed.  The reference times are fixed constants, roughly each
kernel's time on a 2-vCPU Intel Xeon VM with Python 3.11; only ratios
between runs of this benchmark on one host mean anything.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Callable, Dict, List, Tuple, TypeVar

clock = time.perf_counter
T = TypeVar("T")

#: Seconds between two samples inside a timed interval.
TICK_S = 0.02
#: Samples of every kernel right before and right after an interval.
EDGE_ROUNDS = 2


def _build():
    rng = random.Random(20040701)
    table = {(i, i * 7 % 1009): float(i) for i in range(50_000)}
    keys = list(table)
    rng.shuffle(keys)
    size = 150
    adjacency: Dict[int, Dict[int, int]] = {u: {} for u in range(size)}
    for u in range(size):
        for _ in range(3):
            v = rng.randrange(size)
            if v != u:
                weight = rng.randint(1, 20)
                adjacency[u][v] = weight
                adjacency[v][u] = weight
    return table, keys[:800], adjacency


_TABLE, _KEYS, _ADJACENCY = _build()


def dict_updates() -> int:
    counts: Dict[Tuple[int, int], int] = {}
    for i in range(1_200):
        key = (i & 255, i & 7)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def shortest_paths() -> int:
    dist = {0: 0}
    parent = {}
    heap = [(0, 0)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, weight in _ADJACENCY[u].items():
            candidate = d + weight
            if candidate < dist.get(v, 1 << 60):
                dist[v] = candidate
                parent[v] = (u, candidate)
                heapq.heappush(heap, (candidate, v))
    return len(parent)


def table_scan() -> float:
    table = _TABLE
    heap: List[Tuple[float, Tuple[int, int]]] = []
    total = 0.0
    for j, key in enumerate(_KEYS):
        value = table[key]
        total += value
        if j % 4 == 0:
            heapq.heappush(heap, (value, key))
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


#: Kernel and its reference time in seconds.
KERNELS: Tuple[Tuple[Callable[[], object], float], ...] = (
    (dict_updates, 0.00023),
    (shortest_paths, 0.00021),
    (table_scan, 0.00021),
)


class SpeedProbe:
    """Times intervals while sampling host speed, and scales their times."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.speeds: List[float] = []
        self.scaled: List[float] = []
        self._samples: List[float] = []
        self._handler_s = 0.0
        self._next = 0

    def _sample(self) -> None:
        kernel, reference = KERNELS[self._next]
        self._next = (self._next + 1) % len(KERNELS)
        start = clock()
        kernel()
        self._samples.append(reference / (clock() - start))

    def _tick(self, _signum, _frame) -> None:
        start = clock()
        self._sample()
        self._handler_s += clock() - start

    def time(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` while sampling speed; record its host and scaled time."""
        self._samples = []
        self._handler_s = 0.0
        for _ in range(EDGE_ROUNDS * len(KERNELS)):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            start = clock()
            result = fn()
            raw = clock() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(EDGE_ROUNDS * len(KERNELS)):
            self._sample()
        speed = statistics.fmean(self._samples)
        self.raw.append(raw)
        self.speeds.append(speed)
        self.scaled.append((raw - self._handler_s) * speed)
        return result
