"""CPU-speed reference that every benchmark time is normalised by.

On a shared host the same Python loop can take anywhere from 14 to 23 ms
depending on what else the CPU is doing, in phases that last seconds, and
process CPU time moves with it (the slowdown is not stolen time).  So each
timed call is bracketed by probes of a fixed reference computation, a
Dijkstra on a seeded graph written here so that no spedac change can
alter it, and its raw seconds are scaled by NOMINAL_S / (mean of the two
probes).  The result reads as seconds on a CPU that runs the reference in
NOMINAL_S, which is about this 2-core Xeon's typical speed.
"""

from __future__ import annotations

import heapq
import math
import random
from time import perf_counter

NOMINAL_S = 1e-3
VERTICES = 700
PROBE_REPEATS = 3


class Speed:
    """Probes the reference and scales raw seconds to nominal ones."""

    def __init__(self) -> None:
        rng = random.Random("perfbench/reference")
        self.adj = [[(rng.randrange(VERTICES), rng.randint(1, 50)) for _ in range(4)]
                    for _ in range(VERTICES)]
        self.last = self.probe()

    def _reference(self) -> int:
        dist = {0: 0}
        heap = [(0, 0)]
        adj = self.adj
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return len(dist)

    def probe(self) -> float:
        """Fastest of a few reference runs: the CPU's speed right now."""
        best = math.inf
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            self._reference()
            best = min(best, perf_counter() - start)
        return best

    def scale(self, raw: float) -> float:
        """Nominal seconds of a call that just took ``raw`` seconds."""
        before, self.last = self.last, self.probe()
        return raw * 2 * NOMINAL_S / (before + self.last)
