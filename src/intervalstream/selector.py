"""One-pass 2-approximation for interval selection over arbitrary intervals.

The selector maintains a partition of the real line into windows.  Every
window has seen at least one contained interval, all intervals contained in
a window pairwise intersect, and each window keeps its leftmost and
rightmost witness among them.  A witness lies inside its window and the
windows do not overlap, so the leftmost witnesses of the final partition
form an independent set strictly larger than half the optimum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import List, Union

import numpy as np

from .core import _INT64_MAX, Interval, code_pairs

# A window bound: a position code, or -inf / +inf at the ends of the line.
Code = Union[int, float]

# Windows per block after a block is halved; a block is halved when it
# reaches twice this size.
_LOAD = 250

# Pairs per chunk of feed() at least; a chunk is _CHUNK_PER_WINDOW times the
# window count when that is larger, so the window-start column it builds
# costs O(1) amortised per pair.  A longer chunk builds fewer columns but
# filters against an older partition; on the select-general benchmark input
# feed took 8.6, 7.1, 6.4 and 6.1 ms at factors 1, 2, 4 and 8 (2-core host).
_MIN_CHUNK = 256
_CHUNK_PER_WINDOW = 4


@dataclass(slots=True)
class WindowState:
    lo_code: Code
    hi_code: Code
    leftmost: Interval
    rightmost: Interval


class PartitionSelector:
    """Streaming state machine; feed intervals with process(), read the
    solution at any point with solution().  ``process`` reads only the pair
    ``(lcode, rcode)``, so a plain pair from ``Instance.codes()`` serves as
    well as an Interval, and the solution holds what was fed.

    The windows, in ascending ``lo_code`` order, are kept as a list of
    blocks, as in ``sortedcontainers.SortedList``.  A block holds its
    windows as four parallel columns in ``WindowState`` field order, so a
    window is no object of its own until ``windows()`` builds one.  A new
    window goes into one block of fewer than ``2 * _LOAD`` windows, and a
    block that reaches that size is halved.  So a split moves O(_LOAD +
    blocks) pointers, where one flat list would move O(windows), and
    allocates no object for the garbage collector to track.
    """

    def __init__(self):
        self._blocks: List[List[list]] = []
        self._firsts: List[Code] = []  # lo_code of each block's first window
        self._count = 0
        self.items = 0

    @property
    def window_count(self) -> int:
        return self._count

    @property
    def peak_windows(self) -> int:
        # windows only split, never merge, so the peak is the current count
        return self._count

    def windows(self) -> List[WindowState]:
        return [WindowState(*row) for block in self._blocks for row in zip(*block)]

    def solution(self) -> List[Interval]:
        """Each window's leftmost witness, in window order: one interval
        inside each window, so they are pairwise disjoint."""
        return [iv for _, _, leftmost, _ in self._blocks for iv in leftmost]

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns (int64 or object dtype) through ``process``
        in order, skipping in bulk the pairs that straddle a window boundary.

        Windows only split, never merge, so a pair whose right code reaches
        the next window start after the one holding its left code, in the
        partition at the start of its chunk, still straddles a boundary when
        the stream reaches it, and ``process`` would drop it unchanged.  One
        ``searchsorted`` of the chunk's left codes, sorted, finds the other
        pairs, and only they go to ``process``, in stream order; each
        skipped pair still counts as an item, so the counters, windows and
        solution are those of per-pair ``process`` after every chunk.  While
        the selector holds at most one window there is no boundary, and the
        whole chunk goes to ``process``.  Window starts are compared as int64
        when both columns are int64, so int64 columns cannot follow object
        columns that left a window start past int64 (OverflowError).
        """
        wide = object in (lcodes.dtype, rcodes.dtype)
        start, total = 0, len(lcodes)
        while start < total:
            end = min(total, start + max(_MIN_CHUNK, _CHUNK_PER_WINDOW * self._count))
            ls, rs = lcodes[start:end], rcodes[start:end]
            start = end
            if self._count > 1:
                order = np.argsort(ls)
                next_starts = self._next_starts(wide)
                slot = np.empty(len(ls), dtype=np.intp)
                slot[order] = np.searchsorted(next_starts, ls[order], side="right")
                keep = rs < next_starts[slot]
                ls, rs = ls[keep], rs[keep]
                self.items += len(keep) - len(ls)
            for pair in code_pairs(ls, rs):
                self.process(pair)

    def _next_starts(self, wide: bool) -> np.ndarray:
        """Entry i is the lo_code of window i + 1, and the last entry a
        sentinel above every code: an int64 column with sentinel int64 max,
        or, when ``wide``, an object column with sentinel math.inf."""
        starts = islice(chain.from_iterable(block[0] for block in self._blocks), 1, None)
        if wide:
            return np.array(list(starts) + [math.inf], dtype=object)
        return np.fromiter(chain(starts, (_INT64_MAX,)), dtype=np.int64, count=self._count)

    def process(self, iv: Interval) -> None:
        self.items += 1
        if not self._blocks:
            self._blocks.append([[-math.inf], [math.inf], [iv], [iv]])
            self._firsts.append(-math.inf)
            self._count = 1
            return

        # locate the window W holding the interval's left endpoint
        lcode, rcode = iv
        b = bisect_right(self._firsts, lcode) - 1
        block = self._blocks[b]
        lo, hi, leftmost, rightmost = block
        i = bisect_right(lo, lcode) - 1
        if rcode > hi[i]:
            return  # spans a window boundary: contained in no window

        # [ell, r] = leftmost(W) ∩ rightmost(W), the common core of W
        ell, rm_r = rightmost[i]
        lm_l, r = leftmost[i]

        # the core is never empty and lcode <= rcode: one compare a side
        if ell <= rcode and lcode <= r:
            # intersects every interval contained in W: witness updates only;
            # on a tie the interval replaces a witness it lies inside
            if ell < lcode or (ell == lcode and rcode <= rm_r):
                rightmost[i] = iv
            if rcode < r or (rcode == r and lm_l <= lcode):
                leftmost[i] = iv
            return

        if lcode > r:
            # new interval to the right of the core: W keeps [lo, r] with
            # its leftmost witness, the new window (r, hi] starts from iv
            keep, start, first = leftmost[i], r + 1, iv
        else:
            # new interval to the left of the core: W keeps [lo, ell) with
            # iv, the new window [ell, hi] starts from W's rightmost witness
            keep, start, first = iv, ell, rightmost[i]
        j = i + 1
        lo.insert(j, start)
        hi.insert(j, hi[i])
        leftmost.insert(j, first)
        rightmost.insert(j, first)
        hi[i] = start - 1
        leftmost[i] = rightmost[i] = keep
        if len(lo) >= 2 * _LOAD:
            self._blocks.insert(b + 1, [column[_LOAD:] for column in block])
            self._firsts.insert(b + 1, lo[_LOAD])
            for column in block:
                del column[_LOAD:]
        self._count += 1
