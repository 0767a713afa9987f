"""The yardstick: a fixed exact-arithmetic computation timed next to every job.

Wall time on a shared machine drifts by up to half between runs, and the
drift hits allocation-heavy Fraction code (which is what dequiv runs) more
than it hits a tight integer loop.  The yardstick is a small computation of
the same kind: a 7x7 rational matrix product followed by Gauss-Jordan
elimination, written here so that it never changes with dequiv.  Every job
is bracketed by two yardstick runs, and a job's cost in yardsticks is its
time divided by the mean of the two.

The gated end-to-end metrics are in this unit.  Editing this file changes
the unit of every recorded result, so never edit it; add a new file instead.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

SIZE = 7
_rng = random.Random(20071)
MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(SIZE))
               for _ in range(SIZE))
del _rng


def compute(a=MATRIX):
    """Reduced row echelon form of a @ a, over the rationals."""
    cols = tuple(zip(*a))
    rows = [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in cols] for r in a]
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [inv * x for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                c0 = rows[r][col]
                rows[r] = [x - c0 * y for x, y in zip(rows[r], rows[col])]
    return rows


def measure():
    """One timed run of the yardstick: (wall seconds, CPU seconds)."""
    w0, c0 = time.perf_counter(), time.process_time()
    compute()
    return time.perf_counter() - w0, time.process_time() - c0
