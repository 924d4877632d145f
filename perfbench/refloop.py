"""The fixed pure-Python reference loop that times are scaled by.

It does the kind of work the engine does most, Fraction arithmetic and
tuple-keyed dict updates, and it imports nothing from ``diffalg``.  On a
box whose speed drifts, a job's time divided by this loop's time measured
in the same process holds far steadier than either time alone.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

# nominal duration of reference_loop() in seconds; times are reported as
# measured * R0 / R, where R is the mean duration of the loop timed twice
# just before and twice just after the round
R0 = 0.025

_ROUNDS = 2400


def reference_loop() -> int:
    """Run the fixed loop once and return a checksum of its result."""
    table: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(1, 3)
    for i in range(_ROUNDS):
        key = (i % 37, i % 11)
        step = Fraction(i % 7 + 1, i % 5 + 2)
        acc = acc * step + Fraction(1, i % 13 + 1)
        if acc.denominator > 10 ** 12:
            acc = Fraction(acc.numerator % 1009 + 1, acc.denominator % 997 + 1)
        table[key] = table.get(key, Fraction(0)) + acc - step
    return sum(v.numerator % 1009 for v in table.values())


def time_reference() -> float:
    """Duration of one reference loop; refuses to run beside other threads."""
    if threading.active_count() != 1:
        raise RuntimeError("the reference loop runs only while no other thread is alive")
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
