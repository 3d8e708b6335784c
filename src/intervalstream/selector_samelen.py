"""One-pass 3/2-approximation for streams of equal-length intervals.

Covers the line with three staggered grids of windows of length three
times the interval length, offset by one length each.  Every interval is
contained in windows of exactly two grids (closed intervals), and a window
can hold at most two disjoint intervals, so an optimal solution restricted
to each grid is maintained exactly; the best of the three grids is a 3/2
approximation overall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import Interval


@dataclass
class GridWindow:
    first: Interval        # solution entry while only one fits
    leftmost: Interval
    rightmost: Interval
    pair_done: bool = False  # two disjoint intervals found; pair is frozen

    def solution(self) -> List[Interval]:
        if self.pair_done:
            return [self.leftmost, self.rightmost]
        return [self.first]

    def size(self) -> int:
        return 2 if self.pair_done else 1


class ShiftedGridSelector:
    """Streaming state machine for length-lam intervals."""

    def __init__(self, lam: int):
        if lam < 1:
            raise ValueError(f"interval length must be >= 1, got {lam}")
        self.lam = lam
        self.shifts: List[Dict[int, GridWindow]] = [{}, {}, {}]
        self.items = 0
        self.peak_windows = 0

    def window_index(self, shift: int, lcode: int) -> int:
        """Grid window j whose code range [2*(shift+3j)*lam, ...+6*lam-1]
        holds the given left-endpoint code."""
        return (lcode - 2 * shift * self.lam) // (6 * self.lam)

    def containing_window(self, shift: int, iv: Interval) -> Optional[int]:
        """Index of the grid window that contains iv, or None when iv
        straddles a window boundary of this grid."""
        j = self.window_index(shift, iv.lcode)
        if iv.rcode > 2 * (shift + 3 * j + 3) * self.lam - 1:
            return None
        return j

    def process(self, iv: Interval) -> None:
        if iv.length != self.lam:
            raise ValueError(f"interval {iv} has length {iv.length}, expected {self.lam}")
        self.items += 1
        for a in (0, 1, 2):
            j = self.containing_window(a, iv)
            if j is None:
                continue
            win = self.shifts[a].get(j)
            if win is None:
                self.shifts[a][j] = GridWindow(iv, iv, iv)
                self.peak_windows = max(self.peak_windows, self.window_count)
                continue
            if win.pair_done:
                continue
            ell = win.rightmost.lcode
            r = win.leftmost.rcode
            if ell < iv.lcode:
                win.rightmost = iv
            if iv.rcode < r:
                win.leftmost = iv
            if win.rightmost.lcode > win.leftmost.rcode:
                win.pair_done = True

    @property
    def window_count(self) -> int:
        return sum(len(s) for s in self.shifts)

    def shift_size(self, shift: int) -> int:
        return sum(w.size() for w in self.shifts[shift].values())

    def shift_solution(self, shift: int) -> List[Interval]:
        out: List[Interval] = []
        for j in sorted(self.shifts[shift]):
            out.extend(self.shifts[shift][j].solution())
        return out

    def best_shift(self) -> int:
        sizes = [self.shift_size(a) for a in (0, 1, 2)]
        return max((0, 1, 2), key=lambda a: (sizes[a], -a))

    def solution(self) -> List[Interval]:
        return self.shift_solution(self.best_shift())


def shift_subinstance(intervals, shift: int, lam: int) -> List[Interval]:
    """The intervals contained in some window of the given grid."""
    sel = ShiftedGridSelector(lam)
    return [iv for iv in intervals if sel.containing_window(shift, iv) is not None]
