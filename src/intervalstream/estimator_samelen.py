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

from .core import DomainError, Instance, Interval, code_columns, refuse_first
from .hashing import BottomK, HashFamily, make_counter
from .rng import SplitMix64
from .selector_samelen import (Extremes, RecordTable, ShiftedGridSelector, _runs, check_lam,
                               check_length, feed_columns, lengths, window_records)


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
    ``RecordTable`` of at most k rows: an entering member takes the row of
    the member it evicts.
    """

    def __init__(self, shift: int, cfg: SamelenConfig, family: HashFamily, rng: SplitMix64):
        self.counter = make_counter(cfg.counter_kind, family,
                                    rng.spawn(10 + shift).seed, cfg.kmv_k)
        self.sample = BottomK(cfg.k, family, rng.spawn(20 + shift).seed)
        self.table = RecordTable(cfg.k)

    def observe_chunk(self, wins: np.ndarray, *records: np.ndarray) -> None:
        """Take a chunk's windows, distinct and ascending, with their
        records over the chunk as ``window_records`` gives them.  The
        counter takes them at once; the members' records merge with the
        chunk's (``RecordTable.merge_chunk``); and the possibly new ids
        that are no member go to one keys call and one bulk offer, whose
        entered ids take their rows in one assignment.  Neither the counter
        nor the sample depends on the order of offers or on a repeat, so the
        state does not depend on how the stream is cut into chunks."""
        ids = wins + 2
        ids_list = ids.tolist()
        fresh = self.counter.add_many(ids_list)
        table = self.table
        table.merge_chunk(ids_list, records)
        offered = [w for w in fresh if w not in table.rows]
        entered, evicted = self.sample.offer_many(offered, self.sample.bank.keys(offered))
        if entered:
            table.enter_chunk(entered, records, ids.searchsorted(entered), evicted)


class SamelenAlphaEstimator:
    """Streaming estimator for length-lam intervals with endpoints in [1, n].

    ``feed`` takes code columns a chunk at a time, with one length and one
    range check per chunk, and is the fast entry; ``process(iv)`` feeds the
    one pair of an Interval's codes, so the state does not depend on how
    the stream is cut into chunks."""

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
        self._feed_chunk(*code_columns((iv,)))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns (int64 or object dtype) in chunks
        (``selector_samelen.feed_columns``).  A chunk is refused, before any
        of it is taken, at its first interval ``_check`` refuses, with that
        message."""
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
            m = st.table.type2_count()
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


def _fed_selector(intervals, lam: int) -> ShiftedGridSelector:
    sel = ShiftedGridSelector(lam)
    sel.feed(*code_columns(intervals))
    return sel


def shift_window_stats(intervals, shift: int, lam: int) -> Dict[int, Extremes]:
    """Exact (leftmost, rightmost) intervals per occupied window index of
    one grid: the records of a ``ShiftedGridSelector`` fed ``intervals``, an
    Instance or an iterable of Intervals of length lam."""
    return _fed_selector(intervals, lam).tables[shift].extremes


def shift_gamma_counts(intervals, shift: int, lam: int) -> Tuple[int, int]:
    """Exact (gamma1, gamma2): occupied windows and type-2 windows of one grid."""
    table = _fed_selector(intervals, lam).tables[shift]
    return len(table.rows), table.type2_count()


def samelen_estimate_oracle(inst: Instance, lam: int, user_eps: float) -> float:
    """Deterministic pipeline: exact per-grid counts through the streaming
    combination formula; a grid's gamma1 + gamma2 is its selector size."""
    if not 0 < user_eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {user_eps}")
    sel = _fed_selector(inst, lam)
    return sel.shift_size(sel.best_shift()) / (1.0 + user_eps / 2.0)


class DistinctPoints:
    """Zero-length route (lambda 0): alpha equals the number of distinct
    points.  The counter is sized for eps' = eps/3 and its count divided by
    1 + eps', so a count within (1 +- eps') of alpha lands in
    [2/3(1-eps) alpha, alpha].

    ``feed`` takes code columns a chunk at a time, with one length check
    per chunk, and adds each chunk's distinct points to the counter at
    once; ``process(iv)`` feeds the one pair of an Interval's codes."""

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
        self._feed_chunk(*code_columns((iv,)))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns in chunks (``selector_samelen.feed_columns``);
        a chunk is refused, before any of it is taken, at its first interval
        of nonzero length, with the message of ``_check``."""
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
