"""Randomized one-pass estimator of the independent-set size for streams of
equal-length intervals.

Per shifted grid: a distinct counter over occupied window indices estimates
how many windows contain an interval, and min-wise sampled occupied windows
estimate the fraction that holds two disjoint intervals (type 2).  The two
combine to an estimate of the optimum restricted to that grid; the best of
the three grids, corrected by the epsilon cascade, estimates alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .core import DomainError, Instance, Interval
from .hashing import HashFamily, PolyBank, make_counter
from .rng import SplitMix64
from .selector_samelen import ShiftedGridSelector


@dataclass
class SamelenConfig:
    n: int
    lam: int
    user_eps: float
    seed: int
    counter_kind: str = "exact"
    c1: float = 8.0
    c2: float = 4.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.lam < 1:
            raise ValueError(f"interval length must be >= 1, got {self.lam}")
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
        """Hash universe for window keys: grid index j mapped to j + 2 >= 1."""
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
    def __init__(self, shift: int, cfg: SamelenConfig, rng: SplitMix64):
        self.shift = shift
        family = HashFamily.create(cfg.index_domain, cfg.eps2, cfg.c1, cfg.c2)
        self.counter = make_counter(cfg.counter_kind, family,
                                    rng.spawn(10 + shift), cfg.kmv_k)
        self.bank = PolyBank(cfg.k, family, rng.spawn(20 + shift).seed)
        k = cfg.k
        self.winner_key = self.bank.max_keys()
        self.winner_idx = np.full(k, -2, dtype=np.int64)
        self.lm_l = np.zeros(k, dtype=np.int64)
        self.lm_r = np.zeros(k, dtype=np.int64)
        self.rm_l = np.zeros(k, dtype=np.int64)
        self.rm_r = np.zeros(k, dtype=np.int64)
        self._key_columns: Dict[int, np.ndarray] = {}

    def _keys_for(self, j: int) -> np.ndarray:
        col = self._key_columns.get(j)
        if col is None:
            col = self.bank.keys([j + 2])[:, 0]
            self._key_columns[j] = col
        return col

    def observe(self, j: int, iv: Interval) -> None:
        self.counter.add(j + 2)
        keys = self._keys_for(j)
        change = keys < self.winner_key
        if change.any():
            self.winner_key[change] = keys[change]
            self.winner_idx[change] = j
            self.lm_l[change] = iv.lcode
            self.lm_r[change] = iv.rcode
            self.rm_l[change] = iv.lcode
            self.rm_r[change] = iv.rcode
        same = (self.winner_idx == j) & ~change
        if same.any():
            upd_rm = same & ((self.rm_l < iv.lcode) |
                             ((self.rm_l == iv.lcode) & (iv.rcode < self.rm_r)))
            self.rm_l[upd_rm] = iv.lcode
            self.rm_r[upd_rm] = iv.rcode
            upd_lm = same & ((iv.rcode < self.lm_r) |
                             ((iv.rcode == self.lm_r) & (iv.lcode > self.lm_l)))
            self.lm_l[upd_lm] = iv.lcode
            self.lm_r[upd_lm] = iv.rcode

    def type2_count(self) -> int:
        has_winner = self.winner_idx != -2
        return int(np.count_nonzero(has_winner & (self.rm_l > self.lm_r)))


class SamelenAlphaEstimator:
    """Streaming estimator for length-lam intervals with endpoints in [1, n]."""

    def __init__(self, config: SamelenConfig):
        self.config = config
        self._grid = ShiftedGridSelector(config.lam)  # window geometry only
        rng = SplitMix64(config.seed)
        self.states = [_ShiftState(a, config, rng) for a in (0, 1, 2)]
        self.items = 0

    @property
    def hash_path(self) -> str:
        """"object" when any shift's bank hashes on Python integers, else
        "blas"."""
        paths = {st.bank.hash_path for st in self.states}
        return "object" if "object" in paths else "blas"

    def process(self, iv: Interval) -> None:
        cfg = self.config
        if iv.length != cfg.lam:
            raise ValueError(f"interval {iv} has length {iv.length}, expected {cfg.lam}")
        if iv.left < 1 or iv.right > cfg.n:
            raise DomainError(f"interval {iv} outside [1, {cfg.n}]")
        self.items += 1
        for a in (0, 1, 2):
            j = self._grid.window_index(a, iv.lcode)
            if iv.rcode > self._grid.window_hi_code(a, j):
                continue  # straddles a grid boundary for this shift
            self.states[a].observe(j, iv)

    def estimate(self) -> SamelenEstimate:
        cfg = self.config
        gamma1_hats, type2_counts, shift_values = [], [], []
        for st in self.states:
            g1 = st.counter.estimate()
            m = st.type2_count()
            gamma1_hats.append(g1)
            type2_counts.append(m)
            shift_values.append(g1 * (1.0 + m / cfg.k))
        value = max(shift_values) / (1.0 + cfg.eps_shift)
        units = sum(st.counter.units + 3 * cfg.k for st in self.states)
        return SamelenEstimate(value=value, shift_values=shift_values,
                               gamma1_hats=gamma1_hats, type2_counts=type2_counts,
                               k=cfg.k, units=units)


def shift_window_stats(intervals, shift: int, lam: int) -> Dict[int, Tuple[int, int, int, int]]:
    """Exact leftmost/rightmost codes (lm_l, lm_r, rm_l, rm_r) per occupied
    window index of one grid."""
    grid = ShiftedGridSelector(lam)
    stats: Dict[int, Tuple[int, int, int, int]] = {}
    for iv in intervals:
        j = grid.window_index(shift, iv.lcode)
        if iv.rcode > grid.window_hi_code(shift, j):
            continue
        cur = stats.get(j)
        if cur is None:
            stats[j] = (iv.lcode, iv.rcode, iv.lcode, iv.rcode)
            continue
        lm_l, lm_r, rm_l, rm_r = cur
        if iv.rcode < lm_r or (iv.rcode == lm_r and iv.lcode > lm_l):
            lm_l, lm_r = iv.lcode, iv.rcode
        if iv.lcode > rm_l or (iv.lcode == rm_l and iv.rcode < rm_r):
            rm_l, rm_r = iv.lcode, iv.rcode
        stats[j] = (lm_l, lm_r, rm_l, rm_r)
    return stats


def shift_gamma_counts(intervals, shift: int, lam: int) -> Tuple[int, int]:
    """Exact (gamma1, gamma2): occupied windows and type-2 windows of one grid."""
    stats = shift_window_stats(intervals, shift, lam)
    gamma1 = len(stats)
    gamma2 = sum(1 for (_, lm_r, rm_l, _) in stats.values() if rm_l > lm_r)
    return gamma1, gamma2


def samelen_estimate_oracle(inst: Instance, lam: int, user_eps: float) -> float:
    """Deterministic pipeline: exact per-grid counts through the streaming
    combination formula."""
    if not 0 < user_eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {user_eps}")
    best = 0
    for a in (0, 1, 2):
        g1, g2 = shift_gamma_counts(inst.intervals, a, lam)
        best = max(best, g1 + g2)
    return best / (1.0 + user_eps / 2.0)
