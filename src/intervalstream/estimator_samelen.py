"""Randomized one-pass estimator of the independent-set size for streams of
equal-length intervals.

Per shifted grid: a distinct counter over occupied window indices estimates
how many windows contain an interval, and a bottom-k sample of the occupied
windows estimates the fraction that holds two disjoint intervals (type 2).
The two combine to an estimate of the optimum restricted to that grid; the
best of the three grids, corrected by the epsilon cascade, estimates alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .core import DomainError, Instance, Interval, _make_interval, code_columns, refuse_first
from .hashing import BottomK, HashFamily, make_counter
from .rng import SplitMix64
from .selector_samelen import (_INT64_MAX, Extremes, _runs, check_lam, check_length, chunks,
                               feed_columns, grid_window, holds_pair, lengths, merge_extremes,
                               record_moves, window_records)


@dataclass
class SamelenConfig:
    n: int
    lam: int
    user_eps: float
    seed: int
    counter_kind: str = "exact"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        check_lam(self.lam)
        if not 0 < self.user_eps < 0.5:
            raise ValueError(f"eps must be in (0, 1/2), got {self.user_eps}")

    @property
    def eps_shift(self) -> float:
        return self.user_eps / 2.0

    @property
    def eps2(self) -> float:
        return self.eps_shift / 3.0

    @property
    def k(self) -> int:
        return math.ceil(18.0 / self.eps2 ** 2)

    @property
    def index_domain(self) -> int:
        """Hash universe for window ids: grid index j mapped to j + 2 >= 1."""
        return math.ceil(2 * self.n / (3 * self.lam)) + 2

    @property
    def kmv_k(self) -> int:
        return math.ceil(96.0 / self.eps2 ** 2)


@dataclass
class SamelenEstimate:
    value: float
    shift_values: List[float]
    gamma1_hats: List[float]
    type2_counts: List[int]
    k: int
    units: int


class _ShiftState:
    """Bottom-k sample of the occupied windows of one grid.

    Window j is hashed as the id j + 2, which also keys its record.  A
    window enters the sample at its first offer or never, so only windows
    the counter reports as possibly new are hashed and offered, when they
    are seen.  The records are kept for the sample's members only, in a
    table: ``rows`` maps each member to its row of four code columns, the
    (lcode, rcode) of its window's leftmost and of its rightmost interval.
    The rows in use are the first len(rows), since an entering member takes
    the row of the member it evicts.  The columns are int64, or object dtype
    once codes arrive that int64 does not hold; their capacity doubles up to
    k.
    """

    def __init__(self, shift: int, cfg: SamelenConfig, family: HashFamily, rng: SplitMix64):
        self.shift = shift
        self.counter = make_counter(cfg.counter_kind, family,
                                    rng.spawn(10 + shift).seed, cfg.kmv_k)
        self.sample = BottomK(cfg.k, family, rng.spawn(20 + shift).seed)
        self.rows: Dict[int, int] = {}
        self.leftmost_l = self.leftmost_r = self.rightmost_l = self.rightmost_r = \
            np.zeros(0, dtype=np.int64)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return self.leftmost_l, self.leftmost_r, self.rightmost_l, self.rightmost_r

    def _reserve(self, size: int, wide: bool = False) -> None:
        """Room for ``size`` rows; ``wide`` turns the columns to object
        dtype."""
        cap, dtype = len(self.leftmost_l), self.leftmost_l.dtype
        if size <= cap and (dtype == object or not wide):
            return
        if size > cap:
            cap = min(max(size, 2 * cap), self.sample.k)
        grown = [np.zeros(cap, dtype=object if wide else dtype) for _ in range(4)]
        for new, old in zip(grown, self._columns()):
            new[:len(old)] = old
        self.leftmost_l, self.leftmost_r, self.rightmost_l, self.rightmost_r = grown

    def observe(self, j: int, iv: Interval) -> None:
        w = j + 2
        fresh = self.counter.add(w)
        lcode, rcode = iv
        row = self.rows.get(w)
        if row is not None:
            moves_left, moves_right = record_moves(self.leftmost_r.item(row),
                                                   self.rightmost_l.item(row), rcode, lcode)
            if not (moves_left or moves_right):
                return
        else:
            if not fresh:
                return
            evicted = self.sample.offer(w, self.sample.bank.keys([w])[0])
            if evicted is None:
                return
            row = self.rows.pop(evicted) if evicted else len(self.rows)
            self.rows[w] = row
            moves_left = moves_right = True
            if row == len(self.leftmost_l):
                self._reserve(row + 1)
        if rcode > _INT64_MAX:
            self._reserve(0, wide=True)
        if moves_left:
            self.leftmost_l[row], self.leftmost_r[row] = lcode, rcode
        if moves_right:
            self.rightmost_l[row], self.rightmost_r[row] = lcode, rcode

    def observe_chunk(self, wins: np.ndarray, *records: np.ndarray) -> None:
        """Take a chunk's windows, distinct and ascending, with their
        records over the chunk as ``window_records`` gives them.  The
        counter takes them at once; the members' rows merge with the
        records by the masks of ``record_moves``; and the possibly new ids
        that are no member go to one keys call and one bulk offer, whose
        entered ids take their rows in one assignment.  This is the state ``observe``
        leaves over the chunk's pairs, since neither the counter nor the
        sample depends on the order of offers or on a repeat."""
        ids = wins + 2
        ids_list = ids.tolist()
        fresh = self.counter.add_many(ids_list)
        rows = self.rows
        # core._column picks each column's dtype on its own, so any record
        # column may be the wide one
        if any(record.dtype == object for record in records):
            self._reserve(0, wide=True)
        offered = fresh
        if rows:
            self._merge(ids_list, records)
            offered = [w for w in fresh if w not in rows]
        entered, evicted = self.sample.offer_many(offered, self.sample.bank.keys(offered))
        if not entered:
            return
        used = len(rows)
        size = used + len(entered) - len(evicted)
        slots = [rows.pop(w) for w in evicted] + list(range(used, size))
        self._reserve(size)
        rows.update(zip(entered, slots))
        slots, spots = np.array(slots), ids.searchsorted(entered)
        for col, record in zip(self._columns(), records):
            col[slots] = record[spots]

    def _merge(self, ids: List[int], records: Tuple[np.ndarray, ...]) -> None:
        """Merge the records of the members among ``ids`` into their rows."""
        at = np.array([self.rows.get(w, -1) for w in ids], dtype=np.int64)
        held = at >= 0
        if not held.any():
            return
        at = at[held]
        new_ll, new_lr, new_rl, new_rr = (col[held] for col in records)
        left, right = record_moves(self.leftmost_r[at], self.rightmost_l[at], new_lr, new_rl)
        self.leftmost_l[at[left]], self.leftmost_r[at[left]] = new_ll[left], new_lr[left]
        self.rightmost_l[at[right]], self.rightmost_r[at[right]] = new_rl[right], new_rr[right]

    @property
    def extremes(self) -> Dict[int, Extremes]:
        """Each member's (leftmost, rightmost) Intervals, built from the
        table when read."""
        ll, lr, rl, rr = (col[:len(self.rows)].tolist() for col in self._columns())
        return {w: (_make_interval((ll[row], lr[row])), _make_interval((rl[row], rr[row])))
                for w, row in self.rows.items()}

    def type2_count(self) -> int:
        """Members of the sample holding two disjoint intervals: a rightmost
        interval that starts after the leftmost ends (``holds_pair``)."""
        ll, lr, rl, rr = (col[:len(self.rows)] for col in self._columns())
        return int(np.count_nonzero(holds_pair(((ll, lr), (rl, rr)))))


class SamelenAlphaEstimator:
    """Streaming estimator for length-lam intervals with endpoints in [1, n].

    ``process(iv)`` takes one Interval and checks it; ``feed`` takes code
    columns a chunk at a time, with one length and one range check per
    chunk, and leaves the state ``process`` leaves after every chunk."""

    def __init__(self, config: SamelenConfig):
        self.config = config
        rng = SplitMix64(config.seed)
        family = HashFamily.create(config.index_domain, config.eps2)
        self.states = [_ShiftState(a, config, family, rng) for a in (0, 1, 2)]
        self.items = 0

    @property
    def columns_hashed(self) -> int:
        """Window ids hashed so far, summed over the three grids' banks."""
        return sum(st.sample.bank.columns_hashed for st in self.states)

    def _check(self, iv: Interval) -> None:
        check_length(self.config.lam, iv)
        if iv.left < 1 or iv.right > self.config.n:
            raise DomainError(f"interval {iv} outside [1, {self.config.n}]")

    def process(self, iv: Interval) -> None:
        self._check(iv)
        self.items += 1
        for a in (0, 1, 2):
            j = grid_window(self.config.lam, a, iv)
            if j is not None:
                self.states[a].observe(j, iv)

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns (int64 or object dtype) in chunks
        (``selector_samelen.feed_columns``).  A chunk is refused, before any
        of it is taken, at its first interval ``process`` would refuse, with
        the same message."""
        feed_columns(self.process, self._feed_chunk, lcodes, rcodes)

    def _feed_chunk(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        cfg = self.config
        refuse_first((lengths(lcodes, rcodes) != cfg.lam) | (lcodes < 2) | (rcodes > 2 * cfg.n),
                     lcodes, rcodes, self._check)
        self.items += len(lcodes)
        for st, records in zip(self.states, window_records(cfg.lam, (0, 1, 2), lcodes, rcodes)):
            st.observe_chunk(*records)

    def estimate(self) -> SamelenEstimate:
        cfg = self.config
        gamma1_hats, type2_counts, shift_values = [], [], []
        for st in self.states:
            g1 = st.counter.estimate()
            m = st.type2_count()
            gamma1_hats.append(g1)
            type2_counts.append(m)
            # a grid with fewer than k occupied windows samples them all
            shift_values.append(g1 * (1.0 + m / max(st.sample.units, 1)))
        value = max(shift_values) / (1.0 + cfg.eps_shift)
        # per member: its (value, id) pair and its two extremes
        units = sum(st.counter.units + 3 * st.sample.units for st in self.states)
        return SamelenEstimate(value=value, shift_values=shift_values,
                               gamma1_hats=gamma1_hats, type2_counts=type2_counts,
                               k=cfg.k, units=units)


def shift_window_stats(intervals, shift: int, lam: int) -> Dict[int, Extremes]:
    """Exact (leftmost, rightmost) intervals per occupied window index of
    one grid; ``intervals`` is an Instance or an iterable of Intervals."""
    stats: Dict[int, Extremes] = {}
    for ls, rs in chunks(*code_columns(intervals)):
        wins, ll, lr, rl, rr = (col.tolist() for col in window_records(lam, (shift,), ls, rs)[0])
        for j, leftmost, rightmost in zip(wins, zip(ll, lr), zip(rl, rr)):
            stats[j] = merge_extremes(stats.get(j), (leftmost, rightmost))
    return stats


def shift_gamma_counts(intervals, shift: int, lam: int) -> Tuple[int, int]:
    """Exact (gamma1, gamma2): occupied windows and type-2 windows of one grid."""
    stats = shift_window_stats(intervals, shift, lam)
    gamma1 = len(stats)
    gamma2 = sum(1 for ext in stats.values() if holds_pair(ext))
    return gamma1, gamma2


def samelen_estimate_oracle(inst: Instance, lam: int, user_eps: float) -> float:
    """Deterministic pipeline: exact per-grid counts through the streaming
    combination formula."""
    if not 0 < user_eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {user_eps}")
    check_lam(lam)
    refuse_first(lengths(inst.lcodes, inst.rcodes) != lam, inst.lcodes, inst.rcodes,
                 lambda iv: check_length(lam, iv))
    best = 0
    for a in (0, 1, 2):
        g1, g2 = shift_gamma_counts(inst, a, lam)
        best = max(best, g1 + g2)
    return best / (1.0 + user_eps / 2.0)


class DistinctPoints:
    """Zero-length route (lambda 0): alpha equals the number of distinct
    points.  The counter is sized for eps' = eps/3 and its count divided by
    1 + eps', so a count within (1 +- eps') of alpha lands in
    [2/3(1-eps) alpha, alpha].

    ``process(iv)`` takes one Interval and checks its length; ``feed`` takes
    code columns a chunk at a time, with one length check per chunk, and
    adds each chunk's distinct points to the counter at once."""

    def __init__(self, n: int, user_eps: float, seed: int, counter_kind: str = "exact"):
        if not 0 < user_eps < 0.5:
            raise DomainError(f"eps must be in (0, 1/2), got {user_eps}")
        self.eps_count = user_eps / 3.0
        family = HashFamily.create(n, self.eps_count)
        self.counter = make_counter(counter_kind, family, seed,
                                    kmv_k=math.ceil(96.0 / self.eps_count ** 2))

    @staticmethod
    def _check(iv: Interval) -> None:
        if iv.length != 0:
            raise DomainError(f"lambda 0 requires zero-length intervals, got {iv}")

    def process(self, iv: Interval) -> None:
        self._check(iv)
        self.counter.add(iv.left)

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns in chunks (``selector_samelen.feed_columns``);
        a chunk is refused, before any of it is taken, at its first interval
        of nonzero length, with the message of ``process``."""
        feed_columns(self.process, self._feed_chunk, lcodes, rcodes)

    def _feed_chunk(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        refuse_first(lengths(lcodes, rcodes) != 0, lcodes, rcodes, self._check)
        points = np.sort(lcodes >> 1)
        self.counter.add_many(points[_runs(points)].tolist())

    def estimate(self) -> Tuple[float, int]:
        """The estimate and the counter's units."""
        return self.counter.estimate() / (1.0 + self.eps_count), self.counter.units


def distinct_points_estimate(inst: Instance, user_eps: float, seed: int,
                             counter_kind: str = "exact") -> Tuple[float, int]:
    """The lambda 0 route over an Instance: returns (estimate, units)."""
    route = DistinctPoints(inst.n, user_eps, seed, counter_kind)
    route.feed(inst.lcodes, inst.rcodes)
    return route.estimate()
