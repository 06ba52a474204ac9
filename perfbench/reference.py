"""A fixed pure-Python reference loop that measures the host's speed.

HostProbe times one `reference_work()` call every `period` seconds from a
timer signal while the code it wraps runs, and the runner scales the time
of that code by REF_S over the mean probe call.  The loop does the kind of
work the engine does: exact `Fraction` elimination, tuple keys sorted with
a sign, and a fresh dict of a thousand tuple keys read in random order, so
that other tenants contending for the core or for its caches slow it about
as much as they slow the jobs.  It never imports nlie: a change to the
engine cannot change the scale.
"""
from __future__ import annotations

import itertools
import random
import resource
import signal
import time
from fractions import Fraction

# one call takes about this long on a quiet 2-vCPU Xeon under Python 3.11;
# every time the benchmark reports is in seconds of a host that fast
REF_S = 0.002
DIM = 5

_rng = random.Random(12345)
MATRIX = tuple(tuple(_rng.randint(-2, 2) for _ in range(7)) for _ in range(8))
KEYS = tuple(itertools.combinations(range(DIM), 3))
TABLE = {k: tuple(Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(4))
         for k in KEYS}
WIDE_KEYS = tuple((_rng.randrange(30), _rng.randrange(30), _rng.randrange(30))
                  for _ in range(1000))
WIDE_VALUES = tuple(_rng.randint(-5, 5) for _ in WIDE_KEYS)
WIDE_ORDER = tuple(_rng.sample(range(len(WIDE_KEYS)), len(WIDE_KEYS)))


def sort_with_sign(t: tuple) -> tuple[int, tuple]:
    t, sign = list(t), 1
    for i in range(len(t)):
        for j in range(len(t) - 1 - i):
            if t[j] > t[j + 1]:
                t[j], t[j + 1] = t[j + 1], t[j]
                sign = -sign
    return sign, tuple(t)


def reference_work() -> tuple[int, int, int]:
    """Rank of MATRIX over Q, a sign-twisted contraction of TABLE, and a
    dict built from WIDE_KEYS read back in a shuffled order."""
    m = [[Fraction(x) for x in row] for row in MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    acc: dict[tuple, tuple] = {}
    zero = (Fraction(0),) * 4
    for a in range(DIM):
        for k in KEYS:
            sign, key = sort_with_sign((a,) + k[:2])
            v = TABLE.get(key)
            if v is not None:
                acc[k] = tuple(x + sign * y for x, y in zip(acc.get(k, zero), v))
    wide: dict[tuple, int] = {}
    for k, v in zip(WIDE_KEYS, WIDE_VALUES):
        wide[k] = wide.get(k, 0) + v
    total = 0
    for i in WIDE_ORDER:
        a, b, c = WIDE_KEYS[i]
        total += wide.get((b, a, c), wide[a, b, c])
    return r, len(acc), total


def cpu_now() -> float:
    """CPU seconds of this process and of its children that have ended."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class HostProbe:
    """Times one reference call every `period` seconds of wall time from
    SIGALRM while active; `wall` and `cpu` add up what the calls took, so
    callers can leave the probe's time out of their own."""

    def __init__(self, period: float):
        self.period = period
        self.calls: list[tuple[float, float]] = []
        self.wall = self.cpu = 0.0

    def probe(self, *_signal_args) -> None:
        c0, t0 = cpu_now(), time.perf_counter()
        reference_work()
        wall, cpu = time.perf_counter() - t0, cpu_now() - c0
        self.calls.append((wall, cpu))
        self.wall += wall
        self.cpu += cpu

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
