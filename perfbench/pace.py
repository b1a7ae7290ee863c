"""Machine pace: a fixed pure-Python reference task timed during a pass.

Other tenants of a shared machine change its speed by tens of percent.
On a shared 2-vCPU x86-64 virtual machine (Python 3.11), one command
timed in back-to-back rounds differed by a median factor of 1.15-1.5,
whole runs of the same work by 30%, and the speed changed within a
tenth of a second.  So while a pass runs, an interval timer interrupts
it every `EVERY_S` seconds to time this short reference task (traced
passes time it between commands instead, so that it never falls inside
a span).  A command's time is its wall-clock time minus the
interruptions, rescaled by the reference times during and right around
it: the time it takes when the reference task takes `NOMINAL_S`.  On
that machine the rescaled times of one command spread about a third as
much as its wall-clock times.  Both are recorded.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.004
EVERY_S = 0.05
WINDOW_S = 0.05


def _reference_graph():
    rng = random.Random(1)
    adj = [set() for _ in range(400)]
    for v in range(1, 400):
        for u in (rng.randrange(v), rng.randrange(400)):
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
    return [frozenset(a) for a in adj]


_GRAPH = _reference_graph()


def reference():
    """Breadth-first layers of a fixed graph, keyed by sorted tuples: the
    set, dict and tuple work that the program's graph code does."""
    acc = 0
    for root in range(0, len(_GRAPH), 20):
        dist, queue = {root: 0}, [root]
        for v in queue:
            for w in _GRAPH[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        layers = {}
        for v, d in dist.items():
            layers.setdefault(d, []).append(v)
        acc += hash(tuple(tuple(sorted(layer)) for _, layer in sorted(layers.items()))) & 7
    return acc


class Pace:
    """Reference-task timings of one process: (start, end) pairs."""

    def __init__(self):
        self.samples = []

    def sample(self, *_signal_args):
        t0 = perf_counter()
        reference()
        self.samples.append((t0, perf_counter()))

    def tick(self):
        """Time the reference task if the last timing is EVERY_S old; for
        calling between commands instead of interrupting them."""
        if not self.samples or perf_counter() - self.samples[-1][1] > EVERY_S:
            self.sample()

    def start(self):
        """Time the reference task now and every EVERY_S seconds until `stop`."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def own_time(self, t0, t1):
        """Wall-clock seconds in [t0, t1] not spent on the reference task."""
        spent = sum(max(0.0, min(t1, e) - max(t0, s)) for s, e in self.samples)
        return t1 - t0 - spent

    def scale(self, t0, t1):
        """Factor from wall-clock seconds in [t0, t1] to nominal seconds."""
        near = [e - s for s, e in self.samples if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        return NOMINAL_S / statistics.median(near or [e - s for s, e in self.samples])
