"""One-pass 3/2-approximation for streams of equal-length intervals.

Covers the line with three staggered grids of windows of length three
times the interval length, offset by one length each.  Every interval is
contained in windows of exactly two grids (closed intervals), and a window
can hold at most two disjoint intervals, so an optimal solution restricted
to each grid is maintained exactly; the best of the three grids is a 3/2
approximation overall.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import Interval, _column, _make_interval, code_columns, refuse_first

Extremes = Tuple[Interval, Interval]  # (leftmost, rightmost) of a window

# Pairs per chunk of the column entries (the streaming components' feed and
# the exact per-grid stats): each chunk's temporaries are a few columns of
# at most this length, whatever the length of the stream.
_CHUNK = 1 << 17

# Pairs below which feed runs a chunk through process one Interval at a
# time.  This is not for speed (at 64 pairs the two passes cost the same
# in-library): it keeps short streams on process, which perfbench's trace
# times, so that its smoke inputs (20 items) still reach the per-layer
# estimator_samelen.process metrics.  Every benchmark workload is larger
# and runs the vectorised pass; once the trace times feed, drop this.
_MIN_BULK = 64

_INT64_MAX = 2 ** 63 - 1


def check_lam(lam: int) -> None:
    """Refuse an interval length below 1: the grids need windows of 6*lam
    codes."""
    if lam < 1:
        raise ValueError(f"interval length must be >= 1, got {lam}")


def check_length(lam: int, iv: Interval) -> None:
    """Refuse an interval whose length is not lam."""
    if iv.length != lam:
        raise ValueError(f"interval {iv} has length {iv.length}, expected {lam}")


def lengths(lcodes: np.ndarray, rcodes: np.ndarray) -> np.ndarray:
    """The column of ``Interval.length`` (right - left) of two code columns."""
    return ((rcodes + 1) >> 1) - (lcodes >> 1)


def chunks(lcodes: np.ndarray, rcodes: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The two columns in slices of _CHUNK pairs."""
    for start in range(0, len(lcodes), _CHUNK):
        yield lcodes[start:start + _CHUNK], rcodes[start:start + _CHUNK]


def feed_columns(process: Callable[[Interval], None],
                 bulk: Callable[[np.ndarray, np.ndarray], None],
                 lcodes: np.ndarray, rcodes: np.ndarray) -> None:
    """The one loop of every ``feed``: each chunk of two code columns goes
    to ``bulk``, or, below _MIN_BULK pairs, to ``process`` one Interval at
    a time."""
    for ls, rs in chunks(lcodes, rcodes):
        if len(ls) < _MIN_BULK:
            for pair in zip(ls.tolist(), rs.tolist()):
                process(_make_interval(pair))
        else:
            bulk(ls, rs)


def grid_window(lam: int, shift: int, iv):
    """Index j of the window of grid ``shift`` that contains iv, or None when
    iv straddles a window boundary of that grid.  Window j covers the codes
    [2*(shift+3j)*lam, 2*(shift+3j+3)*lam - 1]; the left code picks j, and
    one compare of the right code against the window end serves every
    openness.  ``iv`` may also be a pair of code columns, ``(lcodes,
    rcodes)``; a column has no None, so the answer is then the column of
    indices j and the boolean column of the pairs their window contains.
    With columns, ``shift`` may be a column of G shifts, shape (G, 1), and
    the answers then have one row per grid.  The window ends reach
    |lcode| + 6*lam, so int64 columns for which that passes int64 are read
    as Python ints, where int64 would wrap, and so is a shift column beside
    them."""
    lcode, rcode = iv
    if isinstance(lcode, np.ndarray):
        if lcode.dtype != object and len(lcode) and \
                max(-int(lcode.min()), int(lcode.max())) + 6 * lam > _INT64_MAX:
            lcode, rcode = lcode.astype(object), rcode.astype(object)
        if lcode.dtype == object and isinstance(shift, np.ndarray):
            shift = shift.astype(object)
    j = (lcode - 2 * shift * lam) // (6 * lam)
    fits = rcode < 2 * (shift + 3 * j + 3) * lam
    if isinstance(fits, np.ndarray):
        return j, fits
    return j if fits else None


def merge_extremes(ext: Optional[Extremes], new) -> Extremes:
    """The record of a window after the intervals whose record is ``new``;
    ext None starts a window, and ``(iv, iv)`` is the record of one interval
    iv.  The leftmost (smallest right end) and rightmost (largest left end)
    intervals are replaced as ``record_moves`` says.  ``new`` may hold plain code pairs in
    place of Intervals; a pair becomes an Interval only when it is kept, and
    a merge that changes nothing returns ext itself."""
    if ext is None:
        leftmost = _as_interval(new[0])
        return leftmost, leftmost if new[1] is new[0] else _as_interval(new[1])
    leftmost, rightmost = ext
    moves_left, moves_right = record_moves(leftmost[1], rightmost[0], new[0][1], new[1][0])
    if not (moves_left or moves_right):
        return ext
    return (_as_interval(new[0]) if moves_left else leftmost,
            _as_interval(new[1]) if moves_right else rightmost)


def record_moves(leftmost_r, rightmost_l, new_lr, new_rl):
    """Whether a window's record takes the new leftmost and the new
    rightmost: (new_lr < leftmost_r, new_rl > rightmost_l), from the rcode
    of the kept and the new leftmost and the lcode of the kept and the new
    rightmost.  Only a strictly smaller right end or larger left end moves a
    side, so on a tie the earlier interval stays.  The codes may be scalars
    or columns alike; columns give the two boolean masks."""
    return new_lr < leftmost_r, new_rl > rightmost_l


def _as_interval(pair) -> Interval:
    return pair if type(pair) is Interval else _make_interval(pair)


def holds_pair(ext: Extremes) -> bool:
    """True when the window holds two disjoint intervals (type 2): then its
    leftmost and rightmost intervals are such a pair.  With code columns in
    place of the two intervals, ``((lcodes, rcodes), (lcodes, rcodes))``,
    the answer is the boolean column of the windows."""
    leftmost, rightmost = ext
    return rightmost[0] > leftmost[1]


def _runs(keys: np.ndarray) -> np.ndarray:
    """The start of each run of equal entries of a nonempty sorted column."""
    return np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))


def _first_extremes(lcodes: np.ndarray, rcodes: np.ndarray,
                    starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For pairs grouped in runs from ``starts``, each run in stream order:
    the position of each run's leftmost pair (smallest rcode) and rightmost
    pair (largest lcode), the earliest on a tie."""
    sizes = np.concatenate((starts[1:], [len(lcodes)])) - starts
    spots = np.arange(len(lcodes))
    out = []
    for codes, reduce in ((rcodes, np.minimum), (lcodes, np.maximum)):
        best = np.repeat(reduce.reduceat(codes, starts), sizes)
        out.append(np.minimum.reduceat(np.where(codes == best, spots, len(codes)), starts))
    return tuple(out)


def window_records(lam: int, shifts: Sequence[int], lcodes: np.ndarray,
                   rcodes: np.ndarray) -> List[Tuple[np.ndarray, ...]]:
    """The window records of the grids ``shifts`` (distinct, each in 0..2)
    over a chunk of pairs, as columns, one tuple per grid: the distinct
    indices of the windows holding a pair, ascending, and the codes of each
    window's leftmost and rightmost pair over its pairs in order, as
    ``merge_extremes`` picks them: ``(wins, leftmost lcodes, leftmost
    rcodes, rightmost lcodes, rightmost rcodes)``, the codes in the dtype of
    the input.  Window j of grid a starts at code 2*(a+3j)*lam, so the key
    a + 3j tells it from the windows of every grid: one stable sort by key
    groups the pairs of all the grids by window, and each record is two
    first-extreme reductions."""
    column = np.array(shifts)[:, None]
    key, fits = grid_window(lam, column, (lcodes, rcodes))
    key = (key * 3 + column)[fits]
    spot = np.flatnonzero(fits) % len(lcodes)
    sort = np.argsort(key, kind="stable")
    key, spot = key[sort], spot[sort]
    ls, rs = lcodes[spot], rcodes[spot]
    starts = _runs(key) if len(key) else spot  # no pair: spot is empty
    key = key[starts]
    wins, grid = key // 3, key % 3
    # the columns of up to 3 * _CHUNK entries go before the reductions
    del fits, sort, spot
    left, right = _first_extremes(ls, rs, starts)
    columns = wins, ls[left], rs[left], ls[right], rs[right]
    return [tuple(col[mask] for col in columns) for mask in (grid == a for a in shifts)]


def _records(ls: np.ndarray, rs: np.ndarray, left: np.ndarray,
             right: np.ndarray) -> List[tuple]:
    """The (leftmost, rightmost) code pairs at positions ``left`` and
    ``right`` of two code columns, as records for ``merge_extremes``; a
    window whose two are one pair gets one pair object twice, which becomes
    one Interval, as ``process`` keeps a window of one interval."""
    def pairs(spots):
        return zip(ls[spots].tolist(), rs[spots].tolist())
    lefts = list(pairs(left))
    rights = lefts.copy()
    apart = np.flatnonzero(left != right)
    for i, pair in zip(apart.tolist(), pairs(right[apart])):
        rights[i] = pair
    return list(zip(lefts, rights))


class ShiftedGridSelector:
    """Streaming state machine for length-lam intervals.  Each grid keeps
    the extremes of its occupied windows, frozen once they hold a pair.

    ``process(iv)`` takes one Interval and checks its length; ``feed`` takes
    code columns a chunk at a time, with one length check per chunk, and
    leaves the state ``process`` leaves after every chunk.  Its records hold
    Intervals rebuilt from the codes: equal to what was fed, not the same
    objects."""

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
            windows[j] = merge_extremes(ext, (iv, iv))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns (int64 or object dtype) in chunks of
        _CHUNK pairs (``feed_columns``).  A chunk is refused, before any of it
        is taken, at its first interval of another length, with the message
        of ``process``."""
        feed_columns(self.process, self._feed_chunk, lcodes, rcodes)

    def _feed_chunk(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        refuse_first(lengths(lcodes, rcodes) != self.lam, lcodes, rcodes,
                     lambda iv: check_length(self.lam, iv))
        self.items += len(lcodes)
        for a in (0, 1, 2):
            self._feed_grid(a, lcodes, rcodes)

    def _feed_grid(self, shift: int, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Apply one chunk to one grid.  The record of each distinct window
        of the chunk is looked up once, and the pairs of frozen windows are
        dropped; one stable sort groups the rest by window.  Every other
        window takes its pairs up to the first at which its record holds a
        pair: the first place where the running maximum of left codes passes
        the running minimum of right codes, both starting from the window's
        record.  Those are taken over the joint ranks of all the codes
        involved, offset by window, so that one accumulate serves every
        window."""
        j, fits = grid_window(self.lam, shift, (lcodes, rcodes))
        order = np.flatnonzero(fits)
        if not len(order):
            return
        wins, inverse = np.unique(j[order], return_inverse=True)
        windows = self.shifts[shift]
        olds = list(map(windows.get, wins.tolist()))
        live = [ext is None or not holds_pair(ext) for ext in olds]
        order = order[np.array(live)[inverse]]
        if not len(order):
            return
        olds = list(compress(olds, live))
        order = order[np.argsort(j[order], kind="stable")]
        j, ls, rs = j[order], lcodes[order], rcodes[order]
        starts = _runs(j)
        wins = j[starts]
        group = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(j)))
        # a new window starts from its first pair, which changes nothing
        old_l = _column([ext[1][0] if ext else s for ext, s in zip(olds, ls[starts].tolist())])
        old_r = _column([ext[0][1] if ext else s for ext, s in zip(olds, rs[starts].tolist())])
        count = len(j)
        _, rank = np.unique(np.concatenate([ls, rs, old_l, old_r]), return_inverse=True)
        span = len(rank)
        offset = group * span
        rank_l, rank_r = rank[:count], span - 1 - rank[count:2 * count]
        old_rank_l, old_rank_r = rank[2 * count:2 * count + len(olds)], rank[2 * count + len(olds):]
        run_l = np.maximum(np.maximum.accumulate(rank_l + offset) - offset, old_rank_l[group])
        run_r = np.minimum(span - 1 - (np.maximum.accumulate(rank_r + offset) - offset),
                           old_rank_r[group])
        spots = np.arange(count)
        first_pair = np.minimum.reduceat(np.where(run_l > run_r, spots, count), starts)
        taken = spots <= first_pair[group]
        ls, rs = ls[taken], rs[taken]
        left, right = _first_extremes(ls, rs, _runs(group[taken]))
        for w, ext, record in zip(wins.tolist(), olds, _records(ls, rs, left, right)):
            windows[w] = merge_extremes(ext, record)
        self.window_count += olds.count(None)

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
    """The intervals contained in some window of the given grid, in order;
    ``intervals`` is an Instance or an iterable of Intervals."""
    lcodes, rcodes = code_columns(intervals)
    _, fits = grid_window(lam, shift, (lcodes, rcodes))
    return list(map(_make_interval, zip(lcodes[fits].tolist(), rcodes[fits].tolist())))
