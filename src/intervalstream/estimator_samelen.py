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
from typing import List, Tuple

import numpy as np

from .core import Instance, Interval, check_eps, check_n, code_columns, refuse
from .hashing import BottomK, HashFamily, make_counter
from .oracle import distinct
from .rng import SplitMix64
from .selector_samelen import (RecordTable, ShiftedGridSelector, check_lam, feed_columns,
                               window_records)


@dataclass
class SamelenConfig:
    n: int
    lam: int
    user_eps: float
    seed: int
    counter_kind: str = "exact"

    def __post_init__(self):
        check_n(self.n)
        check_lam(self.lam)
        check_eps(self.user_eps)

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
    the counter reports as possibly new are offered, when they are seen.
    The records are kept for the sample's members only, in a
    ``RecordTable`` of at most k rows: an entering member takes the row of
    the member it evicts.
    """

    def __init__(self, shift: int, cfg: SamelenConfig, family: HashFamily, rng: SplitMix64):
        self.counter = make_counter(cfg.counter_kind, family, rng.spawn(10 + shift).seed)
        self.sample = BottomK(cfg.k, family, rng.spawn(20 + shift).seed)
        self.table = RecordTable(cfg.k)

    def observe_chunk(self, wins: np.ndarray, records: np.ndarray) -> None:
        """Take a chunk's windows, distinct and ascending, with their records
        over the chunk as ``window_records`` gives them.  The members' records
        merge with the chunk's (``RecordTable.merge_chunk``); the counter takes
        the windows at once, and the possibly new ids go to one bulk offer,
        whose entered ids take their rows in one assignment.  Neither the
        counter nor the sample depends on the order of offers or on a repeat, so
        the state does not depend on how the stream is cut."""
        ids = wins + 2
        ids_list = ids.tolist()
        self.table.merge_chunk(ids_list, records)
        entered, evicted = self.sample.offer_many(self.counter.add_many(ids_list))
        if entered:
            self.table.enter_chunk(entered, records, ids.searchsorted(entered), evicted)


class SamelenAlphaEstimator:
    """Streaming estimator for length-lam intervals with endpoints in [1, n].

    ``feed`` takes code columns a chunk at a time and is the fast entry;
    ``process(iv)`` feeds the one pair of an Interval's codes, so the state
    does not depend on how the stream is cut into chunks."""

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

    def process(self, iv: Interval) -> None:
        self._feed_chunk(*code_columns((iv,), self.config.n, self.config.lam))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two int64 code columns in chunks
        (``selector_samelen.feed_columns``).  The call is refused whole,
        before any pair is taken, at its first pair that is empty, of
        another length or outside [1, n] (``core.refuse``)."""
        refuse(lcodes, rcodes, self.config.n, self.config.lam)
        feed_columns(self.process, self._feed_chunk, lcodes, rcodes)

    def _feed_chunk(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        self.items += len(lcodes)
        for st, grid in zip(self.states, window_records(self.config.lam, lcodes, rcodes)):
            st.observe_chunk(*grid)

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


def samelen_estimate_oracle(inst: Instance, lam: int, user_eps: float) -> float:
    """Deterministic pipeline: exact per-grid counts through the streaming
    combination formula; a grid's gamma1 + gamma2 is its selector size."""
    cfg = SamelenConfig(n=inst.n, lam=lam, user_eps=user_eps, seed=0)
    sel = ShiftedGridSelector(lam)
    sel.feed(inst.lcodes, inst.rcodes)
    return sel.shift_size(sel.best_shift()) / (1.0 + cfg.eps_shift)


class DistinctPoints:
    """Zero-length route (lambda 0): alpha equals the number of distinct
    points.  The counter is sized for eps' = eps/3 and its count divided by
    1 + eps', so a count within (1 +- eps') of alpha lands in
    [2/3(1-eps) alpha, alpha].

    ``feed`` takes code columns a chunk at a time and adds each chunk's
    distinct points to the counter at once; ``process(iv)`` feeds the one
    pair of an Interval's codes."""

    def __init__(self, n: int, user_eps: float, seed: int, counter_kind: str = "exact"):
        check_eps(user_eps)
        self.n = n
        self.eps_count = user_eps / 3.0
        self.counter = make_counter(counter_kind, HashFamily.create(n, self.eps_count), seed)

    def process(self, iv: Interval) -> None:
        self._feed_chunk(*code_columns((iv,), self.n, 0))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns in chunks (``selector_samelen.feed_columns``).
        The call is refused whole, before any pair is taken, at its first
        pair that is empty, of nonzero length or outside [1, n]
        (``core.refuse``)."""
        refuse(lcodes, rcodes, self.n, 0)
        feed_columns(self.process, self._feed_chunk, lcodes, rcodes)

    def _feed_chunk(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        self.counter.add_many(distinct(lcodes >> 1).tolist())

    def estimate(self) -> Tuple[float, int]:
        """The estimate and the counter's units."""
        return self.counter.estimate() / (1.0 + self.eps_count), self.counter.units


def distinct_points_estimate(inst: Instance, user_eps: float, seed: int,
                             counter_kind: str = "exact") -> Tuple[float, int]:
    """The lambda 0 route over an Instance: returns (estimate, units)."""
    route = DistinctPoints(inst.n, user_eps, seed, counter_kind)
    route.feed(inst.lcodes, inst.rcodes)
    return route.estimate()
