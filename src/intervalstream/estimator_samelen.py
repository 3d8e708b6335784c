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
from typing import Dict, List, Optional, Tuple

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


Extremes = Tuple[int, int, int, int]  # (lm_l, lm_r, rm_l, rm_r) codes

# First-seen windows hashed per PolyBank.keys call.
_CHUNK = 32


def merge_extremes(ext: Optional[Extremes], iv: Interval) -> Extremes:
    """Leftmost (smallest right end, ties to the larger left end) and
    rightmost (largest left end, ties to the smaller right end) interval
    codes of a window after adding iv; ext None starts a window."""
    if ext is None:
        return (iv.lcode, iv.rcode, iv.lcode, iv.rcode)
    lm_l, lm_r, rm_l, rm_r = ext
    if iv.rcode < lm_r or (iv.rcode == lm_r and iv.lcode > lm_l):
        lm_l, lm_r = iv.lcode, iv.rcode
    if iv.lcode > rm_l or (iv.lcode == rm_l and iv.rcode < rm_r):
        rm_l, rm_r = iv.lcode, iv.rcode
    return (lm_l, lm_r, rm_l, rm_r)


class _ShiftState:
    """k min-wise samplers over the occupied windows of one grid.

    Keys are distinct, so a window can take a row only the first time it is
    hashed; later occurrences meet a running minimum no larger than their
    key.  Only windows the counter reports as possibly new are hashed, in
    batches of _CHUNK.  Every row a window holds shares that window's
    extremes, so they are kept once per window, and only for windows that
    are pending or hold a row.
    """

    def __init__(self, shift: int, cfg: SamelenConfig, rng: SplitMix64):
        self.shift = shift
        family = HashFamily.create(cfg.index_domain, cfg.eps2, cfg.c1, cfg.c2)
        self.counter = make_counter(cfg.counter_kind, family,
                                    rng.spawn(10 + shift), cfg.kmv_k)
        self.bank = PolyBank(cfg.k, family, rng.spawn(20 + shift).seed)
        self.winner_key = self.bank.max_keys()
        self.winner_idx = np.full(cfg.k, -2, dtype=np.int64)
        self.extremes: Dict[int, Extremes] = {}
        self.pending: List[int] = []

    def observe(self, j: int, iv: Interval) -> None:
        fresh = self.counter.add(j + 2)
        ext = self.extremes.get(j)
        if ext is None and not fresh:
            return  # seen before and holds no row: it can never take one
        self.extremes[j] = merge_extremes(ext, iv)
        if ext is None:
            self.pending.append(j)
            if len(self.pending) >= _CHUNK:
                self.flush()

    def flush(self) -> None:
        """Hash the pending windows in one call, move each row to its
        minimum, and forget the extremes of windows left holding no row."""
        if not self.pending:
            return
        keys = self.bank.keys([j + 2 for j in self.pending])
        col_min = keys.min(axis=1)
        change = col_min < self.winner_key
        if change.any():
            self.winner_key[change] = col_min[change]
            self.winner_idx[change] = np.asarray(self.pending)[keys[change].argmin(axis=1)]
        self.pending = []
        self.extremes = {j: self.extremes[j] for j in self._held()[0]}

    def _held(self) -> Tuple[List[int], List[int]]:
        """Windows holding at least one row, and how many rows each holds."""
        held, rows = np.unique(self.winner_idx[self.winner_idx != -2], return_counts=True)
        return held.tolist(), rows.tolist()

    def type2_count(self) -> int:
        """Rows whose window holds two disjoint intervals (call after flush)."""
        count = 0
        for j, rows in zip(*self._held()):
            _, lm_r, rm_l, _ = self.extremes[j]
            if rm_l > lm_r:
                count += rows
        return count


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
            j = self._grid.containing_window(a, iv)
            if j is not None:
                self.states[a].observe(j, iv)

    def estimate(self) -> SamelenEstimate:
        cfg = self.config
        gamma1_hats, type2_counts, shift_values = [], [], []
        for st in self.states:
            st.flush()
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


def shift_window_stats(intervals, shift: int, lam: int) -> Dict[int, Extremes]:
    """Exact leftmost/rightmost codes (lm_l, lm_r, rm_l, rm_r) per occupied
    window index of one grid."""
    grid = ShiftedGridSelector(lam)
    stats: Dict[int, Extremes] = {}
    for iv in intervals:
        j = grid.containing_window(shift, iv)
        if j is not None:
            stats[j] = merge_extremes(stats.get(j), iv)
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
