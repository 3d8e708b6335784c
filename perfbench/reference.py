"""A fixed reference task that measures how fast the host runs right now.

The host the benchmark runs on is shared: its speed for the same
single-threaded Python work drifts by up to about 1.8x over minutes, as
other tenants come and go.  Raw timings of one run then say as much about
the neighbours as about the program.  The benchmark therefore times this
task, which never changes and shares no code with ``intervalstream``, in
the same process right before and right after each measured call, and
rescales the call's time to a host on which the task takes ``NOMINAL_S``.

The task does the kinds of work the program does: it writes interval text
lines, parses them into small objects, sorts them, runs an earliest-finish sweep, counts with a
dict, tests every pair of a prefix for overlap through a function call, and
reduces polynomials modulo a prime on an object-dtype numpy array.  Its
inputs are built once, from a fixed seed, when the module is imported, and
kept compact: everything the task allocates is freed when it returns, so it
adds little to the peak memory of the process it runs in.
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter

import numpy as np

NOMINAL_S = 0.25        # the task's time on the unloaded 2-core host the bounds were set on

_rng = random.Random(20150109)
_COUNT = 50000
_LEFTS = array("l", (_rng.randrange(1, 1 << 20) for _ in range(_COUNT)))
_LENGTHS = array("l", (_rng.randrange(1 << 12) for _ in range(_COUNT)))
_PAIR_PREFIX = 1000
_PRIME = (1 << 61) - 1
_COEFFS = [_rng.randrange(_PRIME) for _ in range(8)]
_POINTS = np.array([_rng.randrange(_PRIME) for _ in range(8000)], dtype=object)


class _Span:
    __slots__ = ("left", "right")

    def __init__(self, left: int, right: int):
        self.left, self.right = left, right


def _overlaps(a: _Span, b: _Span) -> bool:
    return a.left <= b.right and b.left <= a.right


def task() -> int:
    """The reference work; returns a checksum so none of it is skipped."""
    text = "\n".join(f"{left} {left + length}" for left, length in zip(_LEFTS, _LENGTHS))
    spans = [_Span(int(left), int(right)) for left, right in map(str.split, text.splitlines())]
    spans.sort(key=lambda s: s.right)
    kept, last = 0, 0
    for s in spans:
        if s.left > last:
            kept, last = kept + 1, s.right
    buckets: dict = {}
    for s in spans:
        key = s.left >> 10
        buckets[key] = buckets.get(key, 0) + 1
    prefix = spans[:_PAIR_PREFIX]
    overlapping = 0
    for i, a in enumerate(prefix):
        for b in prefix[i + 1:]:
            if _overlaps(a, b):
                overlapping += 1
    acc = np.zeros(len(_POINTS), dtype=object)
    for c in _COEFFS:
        acc = (acc * _POINTS + c) % _PRIME
    return kept + len(buckets) + overlapping + int(acc[0] % 1000)


def seconds() -> float:
    """Time one run of the reference task."""
    start = perf_counter()
    task()
    return perf_counter() - start
