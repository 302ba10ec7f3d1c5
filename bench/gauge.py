"""Reference time: wall time corrected for the machine's speed at the moment.

On a shared VM the same work runs up to twice as slow for a second or more at
a time, and CPU time drifts with wall time, so medians alone do not make two
runs agree. ``Gauge`` times ``calibration_loop`` ``GAUGE_TIMINGS`` times
between pieces of work (graphs, set-up items) and scales the wall time of a
piece by ``CALIBRATION_REF_S`` over the median of the timings right before
and right after it. A reference second is the time in which the loop runs
1 / CALIBRATION_REF_S times. A change to the library moves reference time; a
slower machine does not.
"""

from __future__ import annotations

import heapq
import statistics
import time
from fractions import Fraction

CALIBRATION_REF_S = 0.02
GAUGE_TIMINGS = 3
# Pieces of work that end sooner than this after the last timings share them
# with the next piece, so cheap graphs are not drowned in calibration.
GAUGE_EVERY_S = 0.1

# A fixed circulant graph with small rational weights for calibration_loop.
_CAL_N = 24
_CAL_ADJ: dict = {v: {} for v in range(_CAL_N)}
for _i in range(_CAL_N):
    for _k in (1, 2, 5):
        _j = (_i + _k) % _CAL_N
        _CAL_ADJ[_i][_j] = _CAL_ADJ[_j][_i] = Fraction(1 + _i * _j % 7, 1 + (_i + _j) % 5)


def calibration_loop():
    """The library's kind of work in the benchmark's own frozen code, so that
    it never changes with the library: Dijkstra in exact fractions from every
    vertex of a fixed graph, then a depth-first walk over its short simple
    paths. Tracks the machine's speed better than arithmetic alone."""
    total = Fraction(0)
    for source in range(_CAL_N):
        dist = {source: Fraction(0)}
        heap = [(Fraction(0), source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _CAL_ADJ[u].items():
                if v not in dist or d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        total += sum(dist.values(), Fraction(0))
    stack = [(0,)]
    paths = 0
    while stack:
        path = stack.pop()
        paths += 1
        if len(path) < 7:
            stack.extend(path + (v,) for v in _CAL_ADJ[path[-1]] if v not in path)
    return total, paths


class Gauge:
    """Converts wall seconds into reference seconds."""

    def __init__(self):
        self.refresh()

    def refresh(self) -> None:
        """Fresh timings for the piece of work about to start."""
        timings = []
        for _ in range(GAUGE_TIMINGS):
            start = time.perf_counter()
            calibration_loop()
            timings.append(time.perf_counter() - start)
        self._timings = timings
        self._taken = time.perf_counter()

    def scale_after(self) -> float:
        """Scale for the piece of work that has just ended: from the timings
        before it and, once ``GAUGE_EVERY_S`` has passed since those, from
        fresh timings after it, which then serve the next piece too."""
        before = self._timings
        if time.perf_counter() - self._taken < GAUGE_EVERY_S:
            return CALIBRATION_REF_S / statistics.median(before)
        self.refresh()
        return CALIBRATION_REF_S / statistics.median(before + self._timings)
