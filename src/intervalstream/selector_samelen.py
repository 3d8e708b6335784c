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
from typing import Dict, List, Optional, Tuple

from .core import Interval

Extremes = Tuple[Interval, Interval]  # (leftmost, rightmost) of a window


def merge_extremes(ext: Optional[Extremes], iv: Interval) -> Extremes:
    """Leftmost (smallest right end) and rightmost (largest left end)
    interval of a window after adding iv; ext None starts a window.  On a
    tie the earlier interval stays."""
    if ext is None:
        return iv, iv
    leftmost, rightmost = ext
    if iv.rcode < leftmost.rcode:
        leftmost = iv
    if iv.lcode > rightmost.lcode:
        rightmost = iv
    return leftmost, rightmost


def holds_pair(ext: Extremes) -> bool:
    """True when the window holds two disjoint intervals (type 2): then its
    leftmost and rightmost intervals are such a pair."""
    leftmost, rightmost = ext
    return rightmost.lcode > leftmost.rcode


@dataclass
class GridWindow:
    first: Interval  # solution entry while only one fits
    ext: Extremes    # frozen once it holds a pair

    @property
    def pair_done(self) -> bool:
        return holds_pair(self.ext)

    def solution(self) -> List[Interval]:
        if self.pair_done:
            return list(self.ext)
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
                self.shifts[a][j] = GridWindow(iv, merge_extremes(None, iv))
                self.peak_windows = max(self.peak_windows, self.window_count)
            elif not holds_pair(win.ext):
                win.ext = merge_extremes(win.ext, iv)

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
