"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same job can take 1.5 times longer from one minute to
the next, while the code does not change.  The benchmark therefore runs a
short, fixed piece of pure-Python work (a *reference slice*) between blocks
of jobs, and scales each job's wall time by how long the slices next to it
took:

    normalised seconds = wall seconds * REFERENCE_SECONDS / slice seconds

``REFERENCE_SECONDS`` is a constant within the range of a slice's time on
the baseline machine (see README.md), so normalised seconds compare from
run to run and are roughly wall seconds.  The slice does not import
``ornaments``: a change to the program cannot change it.  Its work resembles the program's: rational
elimination with ``fractions.Fraction``, small tuples, dicts and integer
arithmetic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# One slice took 0.2-0.4 s on the baseline machine, depending on its load.
REFERENCE_SECONDS = 0.25
UNITS_PER_SLICE = 25


def _unit():
    rng = random.Random(12345)
    total = Fraction(0)
    n = 5
    for _ in range(12):
        a = [[Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n + 1)]
             for _ in range(n)]
        for c in range(n):
            pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
            if pivot is None:
                continue
            a[c], a[pivot] = a[pivot], a[c]
            for r in range(n):
                if r != c and a[r][c] != 0:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        total += a[0][n]
    seen = {}
    for i in range(4000):
        key = (i * 7919 % 10007, i % 13)
        seen[key] = seen.get(key, 0) + i
    ints = [rng.randint(-10**6, 10**6) for _ in range(3000)]
    acc = 0
    for x, y in zip(ints, ints[1:]):
        acc += (x * y) // (abs(x) + 1)
    return total, len(seen), acc


class Pace:
    """Reference slices taken between blocks of work, and the factor that
    turns a block's wall seconds into normalised seconds.

    Block ``b`` is the work done between slices ``b`` and ``b + 1``, and
    its factor uses the mean of those two: the nearest in time, as the
    machine's speed can change within seconds."""

    def __init__(self):
        self.slices = []
        self.result = None

    def take(self):
        """Run one slice and keep its wall seconds.  Every unit's result is
        checked against the first one, so that a slice cannot do less."""
        start = time.perf_counter()
        results = [_unit() for _ in range(UNITS_PER_SLICE)]
        self.slices.append(time.perf_counter() - start)
        if self.result is None:
            self.result = results[0]
        if any(r != self.result for r in results):
            raise RuntimeError("reference slice gave another result")

    @property
    def block(self):
        """The block that starts now: the one after the last slice."""
        return len(self.slices) - 1

    def factor(self, block):
        before, after = self.slices[block:block + 2]
        return REFERENCE_SECONDS / ((before + after) / 2)
