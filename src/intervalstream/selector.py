"""One-pass 2-approximation for interval selection over arbitrary intervals.

The selector maintains a partition of the real line into windows.  Every
window has seen at least one contained interval, all intervals contained in
a window pairwise intersect, and each window carries one chosen solution
interval.  The chosen intervals of the final partition form an independent
set strictly larger than half the optimum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List

from .core import Code, Interval, Window

# Windows per block after a block is halved; a block is halved when it
# reaches twice this size.
_LOAD = 250


@dataclass(slots=True)
class WindowState:
    lo_code: Code
    hi_code: Code
    leftmost: Interval
    rightmost: Interval
    chosen: Interval

    @property
    def window(self) -> Window:
        return Window(self.lo_code, self.hi_code)


class PartitionSelector:
    """Streaming state machine; feed intervals with process(), read the
    solution at any point with solution().

    The windows, in ascending ``lo_code`` order, are kept as a list of
    blocks, as in ``sortedcontainers.SortedList``.  A block holds its
    windows as five parallel columns in ``WindowState`` field order, so a
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
        self.searches = 0
        self.peak_windows = 0

    @property
    def window_count(self) -> int:
        return self._count

    def windows(self) -> List[WindowState]:
        return [WindowState(*row) for block in self._blocks for row in zip(*block)]

    def solution(self) -> List[Interval]:
        return [iv for *_, chosen in self._blocks for iv in chosen]

    def process(self, iv: Interval) -> None:
        self.items += 1
        if not self._blocks:
            self._blocks.append([[-math.inf], [math.inf], [iv], [iv], [iv]])
            self._firsts.append(-math.inf)
            self._count = self.peak_windows = 1
            return

        # locate the window W holding the interval's left endpoint
        self.searches += 1
        lcode, rcode = iv
        b = bisect_right(self._firsts, lcode) - 1
        block = self._blocks[b]
        lo, hi, leftmost, rightmost, chosen = block
        i = bisect_right(lo, lcode) - 1
        if rcode > hi[i]:
            return  # spans a window boundary: contained in no window

        # [ell, r] = leftmost(W) ∩ rightmost(W), the common core of W
        ell, rm_r = rightmost[i]
        lm_l, r = leftmost[i]

        if max(ell, lcode) <= min(r, rcode):
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
            keep = leftmost[i]
            new = (r + 1, hi[i], iv, iv, iv)
            hi[i] = r
        else:
            # new interval to the left of the core: W keeps [lo, ell) with
            # iv, the new window [ell, hi] starts from W's rightmost witness
            keep, carried = iv, rightmost[i]
            new = (ell, hi[i], carried, carried, carried)
            hi[i] = ell - 1
        leftmost[i] = rightmost[i] = chosen[i] = keep
        for column, value in zip(block, new):
            column.insert(i + 1, value)
        if len(lo) >= 2 * _LOAD:
            self._blocks.insert(b + 1, [column[_LOAD:] for column in block])
            self._firsts.insert(b + 1, lo[_LOAD])
            for column in block:
                del column[_LOAD:]
        self._count += 1
        if self._count > self.peak_windows:
            self.peak_windows = self._count
