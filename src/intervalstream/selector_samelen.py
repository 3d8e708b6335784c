"""One-pass 3/2-approximation for streams of equal-length intervals.

Covers the line with three staggered grids of windows of length three
times the interval length, offset by one length each.  Every interval is
contained in windows of exactly two grids (closed intervals), and a window
can hold at most two disjoint intervals, so an optimal solution restricted
to each grid is maintained exactly; the best of the three grids is a 3/2
approximation overall.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core import Interval

Extremes = Tuple[Interval, Interval]  # (leftmost, rightmost) of a window


def check_lam(lam: int) -> None:
    """Refuse an interval length below 1: the grids need windows of 6*lam
    codes."""
    if lam < 1:
        raise ValueError(f"interval length must be >= 1, got {lam}")


def check_length(lam: int, iv: Interval) -> None:
    """Refuse an interval whose length is not lam."""
    if iv.length != lam:
        raise ValueError(f"interval {iv} has length {iv.length}, expected {lam}")


def grid_window(lam: int, shift: int, iv) -> Optional[int]:
    """Index j of the window of grid ``shift`` that contains iv, or None when
    iv straddles a window boundary of that grid.  Window j covers the codes
    [2*(shift+3j)*lam, 2*(shift+3j+3)*lam - 1]; the left code picks j, and
    one compare of the right code against the window end serves every
    openness."""
    lcode, rcode = iv
    j = (lcode - 2 * shift * lam) // (6 * lam)
    if rcode < 2 * (shift + 3 * j + 3) * lam:
        return j
    return None


def merge_extremes(ext: Optional[Extremes], iv: Interval) -> Extremes:
    """Leftmost (smallest right end) and rightmost (largest left end)
    interval of a window after adding iv; ext None starts a window.  On a
    tie the earlier interval stays."""
    if ext is None:
        return iv, iv
    leftmost, rightmost = ext
    if iv[1] < leftmost[1]:
        leftmost = iv
    if iv[0] > rightmost[0]:
        rightmost = iv
    return leftmost, rightmost


def holds_pair(ext: Extremes) -> bool:
    """True when the window holds two disjoint intervals (type 2): then its
    leftmost and rightmost intervals are such a pair."""
    leftmost, rightmost = ext
    return rightmost[0] > leftmost[1]


class ShiftedGridSelector:
    """Streaming state machine for length-lam intervals.  Each grid keeps
    the extremes of its occupied windows, frozen once they hold a pair."""

    def __init__(self, lam: int):
        check_lam(lam)
        self.lam = lam
        self.shifts: List[Dict[int, Extremes]] = [{}, {}, {}]
        self.items = 0
        self.window_count = 0

    @property
    def peak_windows(self) -> int:
        # windows are never dropped, so the peak is the current count
        return self.window_count

    def process(self, iv: Interval) -> None:
        check_length(self.lam, iv)
        self.items += 1
        for a, windows in enumerate(self.shifts):
            j = grid_window(self.lam, a, iv)
            if j is None:
                continue
            ext = windows.get(j)
            if ext is None:
                self.window_count += 1
            elif holds_pair(ext):
                continue
            windows[j] = merge_extremes(ext, iv)

    def shift_size(self, shift: int) -> int:
        return sum(1 + holds_pair(ext) for ext in self.shifts[shift].values())

    def shift_solution(self, shift: int) -> List[Interval]:
        out: List[Interval] = []
        for _, ext in sorted(self.shifts[shift].items()):
            # the pair, or the leftmost interval while only one fits
            out.extend(ext if holds_pair(ext) else ext[:1])
        return out

    def best_shift(self) -> int:
        sizes = [self.shift_size(a) for a in (0, 1, 2)]
        return max((0, 1, 2), key=lambda a: (sizes[a], -a))

    def solution(self) -> List[Interval]:
        return self.shift_solution(self.best_shift())


def shift_subinstance(intervals, shift: int, lam: int) -> List[Interval]:
    """The intervals contained in some window of the given grid."""
    return [iv for iv in intervals if grid_window(lam, shift, iv) is not None]
