"""One-pass 3/2-approximation for streams of equal-length intervals.

Covers the line with three staggered grids of windows of length three
times the interval length, offset by one length each.  Every interval is
contained in windows of exactly two grids (closed intervals), and a window
can hold at most two disjoint intervals, so an optimal solution restricted
to each grid is maintained exactly; the best of the three grids is a 3/2
approximation overall.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Interval, _make_interval, code_columns, refuse

Extremes = Tuple[Interval, Interval]  # (leftmost, rightmost) of a window

# Pairs per chunk of the column entries (the streaming components' feed and
# the exact per-grid stats): each chunk's temporaries are a few columns of
# at most this length, whatever the length of the stream.
_CHUNK = 1 << 17

# Pairs below which feed runs a chunk through process one Interval at a
# time, each a one-pair chunk of the vectorised pass.  This is not for
# speed (a one-pair chunk costs a quarter to a half of one of 64): it keeps
# short streams under process, whose span perfbench's trace times, so that
# its smoke inputs (20 items) still reach the per-layer
# estimator_samelen.process metrics, which time the vectorised pass.
# Every benchmark workload is larger; once the trace times feed, drop this.
_MIN_BULK = 64


def check_lam(lam: int) -> None:
    """Refuse an interval length below 1: the grids need windows of 6*lam
    codes."""
    if lam < 1:
        raise ValueError(f"interval length must be >= 1, got {lam}")


def feed_columns(process: Callable[[Interval], None],
                 bulk: Callable[[np.ndarray, np.ndarray], None],
                 lcodes: np.ndarray, rcodes: np.ndarray) -> None:
    """The one loop of every ``feed``: each chunk of _CHUNK pairs of two
    code columns goes to ``bulk``, or, below _MIN_BULK pairs, to
    ``process`` one Interval at a time, which gives ``bulk`` a chunk of one
    pair."""
    for start in range(0, len(lcodes), _CHUNK):
        ls, rs = lcodes[start:start + _CHUNK], rcodes[start:start + _CHUNK]
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
    the answers then have one row per grid.  Both codes are counted in
    units of 2*lam, which is exact, as the floor of a floor is the same
    floor, so no value exceeds the codes and int64 columns cannot wrap."""
    lcode, rcode = iv
    j = (lcode // (2 * lam) - shift) // 3
    fits = rcode // (2 * lam) < shift + 3 * j + 3
    if isinstance(fits, np.ndarray):
        return j, fits
    return j if fits else None


def record_moves(leftmost_r, rightmost_l, new_lr, new_rl):
    """Whether a window's record takes the new leftmost and the new
    rightmost: (new_lr < leftmost_r, new_rl > rightmost_l), from the rcode
    of the kept and the new leftmost and the lcode of the kept and the new
    rightmost.  Only a strictly smaller right end or larger left end moves a
    side, so on a tie the earlier interval stays.  The codes may be scalars
    or columns alike; columns give the two boolean masks."""
    return new_lr < leftmost_r, new_rl > rightmost_l


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


# the three grids' shifts as a column: grid_window answers one row per grid
_SHIFTS = np.arange(3)[:, None]


def window_records(lam: int, lcodes: np.ndarray,
                   rcodes: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The window records of the three grids over a chunk of pairs, one
    ``(wins, records)`` per grid: the distinct indices of the windows
    holding a pair, ascending, and the matrix of their records, one row
    ``(leftmost lcode, leftmost rcode, rightmost lcode, rightmost rcode)``
    per window over its pairs in order, as ``record_moves`` leaves them pair
    by pair.
    Window j of grid a starts at code 2*(a+3j)*lam, so the key a + 3j tells
    it from the windows of every grid: one stable sort by key groups the
    pairs of all the grids by window, and each record is two first-extreme
    reductions."""
    key, fits = grid_window(lam, _SHIFTS, (lcodes, rcodes))
    key = (key * 3 + _SHIFTS)[fits]
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
    records = np.array((ls[left], rs[left], ls[right], rs[right])).T
    return [(wins[mask], records[mask]) for mask in (grid == a for a in (0, 1, 2))]


class RecordTable:
    """The records of a set of windows in one code matrix.  ``rows`` maps a
    window's key to its row of ``codes``: the (lcode, rcode) of the window's
    leftmost and of its rightmost interval.  The rows in use are the first
    len(rows), since a window entering in place of one that leaves takes
    its row.  The matrix is int64; its capacity doubles, up to ``cap`` when
    one is given."""

    def __init__(self, cap: Optional[int] = None):
        self.cap = cap
        self.rows: Dict[int, int] = {}
        self.codes = np.zeros((0, 4), dtype=np.int64)

    def _reserve(self, size: int) -> None:
        """Room for ``size`` rows."""
        cap = len(self.codes)
        if size <= cap:
            return
        cap = max(size, 2 * cap) if self.cap is None else min(max(size, 2 * cap), self.cap)
        grown = np.zeros((cap, 4), dtype=np.int64)
        grown[:len(self.codes)] = self.codes
        self.codes = grown

    def merge_chunk(self, keys: List[int], records: np.ndarray) -> np.ndarray:
        """Merge the records of a chunk's windows ``keys``, a matrix as
        ``window_records`` gives it, into the rows of the windows that have
        one, by the masks of ``record_moves``.  Returns the boolean column of
        the keys that have a row."""
        if not self.rows:
            return np.zeros(len(keys), dtype=bool)
        at = np.array([self.rows.get(w, -1) for w in keys], dtype=np.int64)
        held = at >= 0
        if held.any():
            # through column views: on the one-pair chunks of per-item
            # process, 1-D fancy indexing costs less than the 2-D kind
            at = at[held]
            ll, lr, rl, rr = self.codes.T
            new_ll, new_lr, new_rl, new_rr = records[held].T
            left, right = record_moves(lr[at], rl[at], new_lr, new_rl)
            ll[at[left]], lr[at[left]] = new_ll[left], new_lr[left]
            rl[at[right]], rr[at[right]] = new_rl[right], new_rr[right]
        return held

    def enter_chunk(self, keys: List[int], records: np.ndarray, spots: np.ndarray,
                    evicted: Sequence[int] = ()) -> None:
        """Give each window of ``keys`` a row, the rows of the windows
        ``evicted`` first, holding its record at ``spots`` of a chunk's
        records, in one row assignment."""
        used = len(self.rows)
        size = used + len(keys) - len(evicted)
        slots = [self.rows.pop(w) for w in evicted] + list(range(used, size))
        self._reserve(size)
        self.rows.update(zip(keys, slots))
        self.codes[slots] = records[spots]

    def type2_count(self) -> int:
        """The windows holding two disjoint intervals: a rightmost interval
        that starts after the leftmost ends (``holds_pair``), one compare
        over the rows in use."""
        used = self.codes[:len(self.rows)]
        return int(np.count_nonzero(holds_pair((used[:, :2].T, used[:, 2:].T))))

    @property
    def extremes(self) -> Dict[int, Extremes]:
        """Each window's (leftmost, rightmost) Intervals, built from the
        matrix when read."""
        codes = self.codes[:len(self.rows)].tolist()
        return {w: (_make_interval(codes[row][:2]), _make_interval(codes[row][2:]))
                for w, row in self.rows.items()}


class ShiftedGridSelector:
    """Streaming state machine for length-lam intervals.  Each grid keeps
    the record of every occupied window in a ``RecordTable``, keyed by
    window index.

    ``feed`` takes code columns a chunk at a time and is the fast entry;
    ``process(iv)`` feeds the one pair of an Interval's codes, so both run
    the one vectorised pass and the state does not depend on how the stream
    is cut into chunks.  Intervals are built from the codes only when a
    solution or the ``extremes`` of a table are read: equal to what was
    fed, not the same objects."""

    def __init__(self, lam: int):
        check_lam(lam)
        self.lam = lam
        self.tables = [RecordTable() for _ in (0, 1, 2)]
        self.items = 0

    @property
    def window_count(self) -> int:
        return sum(len(table.rows) for table in self.tables)

    @property
    def peak_windows(self) -> int:
        # windows are never dropped, so the peak is the current count
        return self.window_count

    def process(self, iv: Interval) -> None:
        self._feed_chunk(*code_columns((iv,), length=self.lam))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two int64 code columns in chunks of _CHUNK pairs
        (``feed_columns``).  The call is refused whole, before any pair is
        taken, at its first pair that is empty or of another length
        (``core.refuse``)."""
        refuse(lcodes, rcodes, length=self.lam)
        feed_columns(self.process, self._feed_chunk, lcodes, rcodes)

    def _feed_chunk(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        self.items += len(lcodes)
        for table, (wins, records) in zip(self.tables, window_records(self.lam, lcodes, rcodes)):
            wins = wins.tolist()
            new = np.flatnonzero(~table.merge_chunk(wins, records))
            if len(new):
                table.enter_chunk([wins[i] for i in new.tolist()], records, new)

    def shift_size(self, shift: int) -> int:
        table = self.tables[shift]
        return len(table.rows) + table.type2_count()

    def shift_solution(self, shift: int) -> List[Interval]:
        out: List[Interval] = []
        for _, ext in sorted(self.tables[shift].extremes.items()):
            # the pair, or the leftmost interval while only one fits
            out.extend(ext if holds_pair(ext) else ext[:1])
        return out

    def best_shift(self) -> int:
        sizes = [self.shift_size(a) for a in (0, 1, 2)]
        return max((0, 1, 2), key=lambda a: (sizes[a], -a))

    def solution(self) -> List[Interval]:
        return self.shift_solution(self.best_shift())
