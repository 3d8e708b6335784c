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

from .core import DomainError, Instance, Interval
from .hashing import BottomK, HashFamily, make_counter
from .rng import SplitMix64
from .selector_samelen import (Extremes, check_lam, check_length, grid_window, holds_pair,
                               merge_extremes)


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

    Window j is hashed as the id j + 2, which also keys its extremes.  A
    window enters the sample at its first offer or never, so only windows
    the counter reports as possibly new are hashed and offered, when they
    are seen.  The extremes are kept for the sample's members only.
    """

    def __init__(self, shift: int, cfg: SamelenConfig, rng: SplitMix64):
        self.shift = shift
        family = HashFamily.create(cfg.index_domain, cfg.eps2)
        self.counter = make_counter(cfg.counter_kind, family,
                                    rng.spawn(10 + shift).seed, cfg.kmv_k)
        self.sample = BottomK(cfg.k, family, rng.spawn(20 + shift).seed)
        self.extremes: Dict[int, Extremes] = {}

    def observe(self, j: int, iv: Interval) -> None:
        w = j + 2
        fresh = self.counter.add(w)
        ext = self.extremes.get(w)
        if ext is not None:
            self.extremes[w] = merge_extremes(ext, iv)
        elif fresh:
            evicted = self.sample.offer(w, self.sample.bank.keys([w])[0])
            if evicted is not None:
                self.extremes.pop(evicted, None)
                self.extremes[w] = merge_extremes(None, iv)

    def type2_count(self) -> int:
        """Members of the sample holding two disjoint intervals."""
        return sum(holds_pair(ext) for ext in self.extremes.values())


class SamelenAlphaEstimator:
    """Streaming estimator for length-lam intervals with endpoints in [1, n]."""

    def __init__(self, config: SamelenConfig):
        self.config = config
        rng = SplitMix64(config.seed)
        self.states = [_ShiftState(a, config, rng) for a in (0, 1, 2)]
        self.items = 0

    @property
    def columns_hashed(self) -> int:
        """Window ids hashed so far, summed over the three grids' banks."""
        return sum(st.sample.bank.columns_hashed for st in self.states)

    def process(self, iv: Interval) -> None:
        cfg = self.config
        check_length(cfg.lam, iv)
        if iv.left < 1 or iv.right > cfg.n:
            raise DomainError(f"interval {iv} outside [1, {cfg.n}]")
        self.items += 1
        for a in (0, 1, 2):
            j = grid_window(cfg.lam, a, iv)
            if j is not None:
                self.states[a].observe(j, iv)

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
    one grid."""
    stats: Dict[int, Extremes] = {}
    for iv in intervals:
        j = grid_window(lam, shift, iv)
        if j is not None:
            stats[j] = merge_extremes(stats.get(j), iv)
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
    for iv in inst:
        check_length(lam, iv)
    best = 0
    for a in (0, 1, 2):
        g1, g2 = shift_gamma_counts(inst, a, lam)
        best = max(best, g1 + g2)
    return best / (1.0 + user_eps / 2.0)


def distinct_points_estimate(inst: Instance, user_eps: float, seed: int,
                             counter_kind: str = "exact") -> Tuple[float, int]:
    """Zero-length route (lambda 0): alpha equals the number of distinct
    points.  The counter is sized for eps' = eps/3 and its count divided by
    1 + eps', so a count within (1 +- eps') of alpha lands in
    [2/3(1-eps) alpha, alpha].  Returns (estimate, units)."""
    if not 0 < user_eps < 0.5:
        raise DomainError(f"eps must be in (0, 1/2), got {user_eps}")
    for iv in inst:
        if iv.length != 0:
            raise DomainError(f"lambda 0 requires zero-length intervals, got {iv}")
    eps_count = user_eps / 3.0
    family = HashFamily.create(inst.n, eps_count)
    counter = make_counter(counter_kind, family, seed,
                           kmv_k=math.ceil(96.0 / eps_count ** 2))
    for iv in inst:
        counter.add(iv.left)
    return counter.estimate() / (1.0 + eps_count), counter.units
