"""Speed probe: a fixed reference computation sampled during the timed part.

The benchmark runs on a shared machine whose cores change speed by up to
1.7x for seconds to minutes at a time, so raw wall times of the same code
spread more between runs than a regression worth catching. The probe
measures the core's speed while the program runs: a wall-clock timer
interrupts the timed part every PERIOD_S seconds and runs a reference
computation, a fixed mix of interpreter, standard-library and small-array
numpy work that resembles harris but calls none of it, and times each run.

Program time is the wall time minus the time spent in the probe. Divided by
the mean probe time of the same repetition, it gives the repetition's time
in probe units (unit ``probe``): how many runs of the reference computation
would take as long. A change to harris moves this figure as it moves wall
time; a change in the machine's speed moves program and probe together and
mostly cancels. Selection latencies on ingest-serve are divided by the time
of a routing pass alone: a selection slows by more than general interpreter
work when the core's hyperthread sibling is busy, and by about as much as
the routing pass. The routing pass is timed the second time it runs in a
sample, so that it finds warm caches, as a selection in the serving loop
does.
"""

from __future__ import annotations

import csv
import io
import json
import re
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.08

_rng = np.random.default_rng(7)
_X = _rng.random((150, 40))
_Y = _rng.random((150, 8))
_XL = _X.tolist()
_YL = _Y[:, 0].tolist()
_JSON = json.dumps({"rows": [{"id": i, "name": f"i{i:06d}", "v": [1.5, 2.5, None]}
                             for i in range(40)]})
_CSV = "\n".join(",".join(f"{v:.5f}" for v in row) for row in _X[:30])


def _tree(depth: int):
    """A random binary tree of (feature, threshold, left, right) tuples with
    length-8 arrays at its leaves."""
    if depth == 0:
        return _rng.random(8)
    return (int(_rng.integers(40)), float(_rng.random()), _tree(depth - 1), _tree(depth - 1))


_TREES = [_tree(6) for _ in range(10)]


def general() -> float:
    """Interpreter, standard-library and small-array numpy work, 1-2 ms on a
    shared Intel Xeon core."""
    text = json.dumps(json.loads(_JSON), sort_keys=True)
    rows = list(csv.reader(io.StringIO(_CSV)))
    acc = len(re.findall(r'"name": "i(\d+)"', text)) + len(sorted(rows, key=lambda r: r[3]))
    n = len(_XL)
    for f in (1, 7, 13):  # pure-Python best split over three features
        order = sorted(range(n), key=lambda i: _XL[i][f])
        total, total_sq, left, left_sq = sum(_YL), sum(y * y for y in _YL), 0.0, 0.0
        for c, i in enumerate(order[:-1], 1):
            y = _YL[i]
            left += y
            left_sq += y * y
            right = total - left
            acc = min(acc, (left_sq - left * left / c)
                      + (total_sq - left_sq - right * right / (n - c)))
    for f in range(0, 40, 4):  # small-array numpy: sort, cumulate, count levels
        order = np.argsort(_X[:, f], kind="stable")
        acc += float(np.cumsum(_Y[order], axis=0)[-1].sum())
        acc += len(np.unique(_X[order, f]))
    return acc


def route() -> int:
    """Route 24 rows down ten trees and average the leaves, as one selection
    from a forest does; about 1 ms."""
    acc = 0
    for x in _X[:24]:
        rows = []
        for node in _TREES:
            while isinstance(node, tuple):
                node = node[2] if x[node[0]] <= node[1] else node[3]
            rows.append(node)
        acc += int(np.argmin(np.mean(rows, axis=0)))
    return acc


class Probe:
    """Context manager: runs the reference computation every PERIOD_S seconds
    inside it and keeps the time of each run (``samples``) and of its warm
    routing pass (``route_samples``).

    ``spent`` is the total time of the samples so far, so a caller can take
    the probe's time out of any interval it measures. A disabled probe
    installs no timer and reads 0 throughout.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.route_samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        general()
        route()  # the first pass after the program ran finds cold caches
        t1 = time.perf_counter()
        route()
        t2 = time.perf_counter()
        self.samples.append(t2 - t0)
        self.route_samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        self.samples, self.route_samples, self.spent = [], [], 0.0
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        """Mean probe time inside the last ``with`` block. Wall time and this
        mean both count the time the core was taken away, so their ratio
        cancels it. A block too short to be sampled is sampled once, after it."""
        if not self.samples:
            spent = self.spent
            self.sample()
            self.spent = spent
        return statistics.fmean(self.samples)
