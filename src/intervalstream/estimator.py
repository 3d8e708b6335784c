"""Randomized one-pass estimator of the maximum independent-set size for
arbitrary intervals with endpoints in [1, n].

Pipeline: every interval activates a short sequence of segment-tree
segments; a distinct counter estimates the number of active segments;
min-wise sampled active segments estimate the fraction that is *relevant*
(small capped gamma count under a saturated parent); a second group of
samplers carries a nested 2-approximation selector on its winner segment
to estimate the average solution size per relevant segment.  The product
of the three estimates, corrected by the epsilon cascade, estimates alpha.

A deterministic oracle mode computes the same combination from exact
quantities, for pipeline validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .core import DomainError, Instance, Interval
from .hashing import HashFamily, PolyBank, make_counter
from .oracle import SegTree, beta_hat, relevance_threshold, relevant_segments
from .rng import SplitMix64
from .selector import PartitionSelector


def emitted_segments(tree: SegTree, iv: Interval) -> List[int]:
    """Nodes activated by one interval: the root followed by both children
    of every internal node containing the interval, sizes non-increasing."""
    out = [tree.root]
    for u in tree.containing_path(iv):
        if u < tree.n_pow2:
            out += (2 * u, 2 * u + 1)
    return out


@dataclass
class EstimatorConfig:
    n: int
    user_eps: float
    seed: int
    counter_kind: str = "exact"
    scale: float = 1.0
    c1: float = 8.0
    c2: float = 4.0
    sampler_limit: int = 500_000

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0 < self.user_eps < 0.5:
            raise ValueError(f"eps must be in (0, 1/2), got {self.user_eps}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def eps1(self) -> float:
        return self.user_eps / 6.0

    @property
    def eps_rel(self) -> float:
        return self.eps1 / 7.0

    @property
    def eps_rho(self) -> float:
        return self.eps1 / 5.0

    @property
    def levels(self) -> int:
        return SegTree(self.n).depth_levels

    @property
    def gamma_cap(self) -> int:
        """Capped tracker size: integer ceiling of the relevance threshold."""
        return math.ceil(relevance_threshold(self.n, self.eps1))

    @property
    def k_rel(self) -> int:
        L2 = self.levels ** 2
        return math.ceil(self.scale * 72.0 * L2 / (self.eps_rel ** 3 * (1.0 - self.eps_rel)))

    @property
    def k_rho(self) -> int:
        L2 = self.levels ** 2
        return math.ceil(self.scale * 72.0 * L2 / self.eps_rho ** 3)

    @property
    def k0(self) -> int:
        L2 = self.levels ** 2
        return math.ceil(self.scale * 12.0 * L2 * self.k_rho / (self.eps_rho * (1.0 - self.eps_rho)))

    @property
    def kmv_k(self) -> int:
        return math.ceil(96.0 / self.eps_rel ** 2)


@dataclass
class GeneralEstimate:
    value: float
    branch: str                 # "fallback" or "sampled"
    degraded: bool = False
    n_act_hat: float = 0.0
    relevant_count: int = 0     # relevant winners among the ratio samplers
    rho_hat: float = 0.0
    rho_available: int = 0      # relevant winners among the k0 rho samplers
    peak_units: int = 0


class _SamplerGroup:
    """Rows of min-wise samplers over tree nodes, each tracking its winner
    node, capped gamma counts for the winner and its parent, and
    (optionally) a nested selector for the winner's 2-approximation size."""

    def __init__(self, rows: int, family: HashFamily, seed: int, tree: SegTree,
                 cap: int, with_selectors: bool):
        self.rows = rows
        self.tree = tree
        self.cap = cap
        self.bank = PolyBank(rows, family, seed)
        self.winner_key = self.bank.max_keys()
        self.winner_seg: List[Optional[int]] = [None] * rows
        self.own_seen: List[Optional[Set[int]]] = [None] * rows
        self.own_sat: List[bool] = [False] * rows
        self.par_seg: List[Optional[int]] = [None] * rows
        self.par_seen: List[Optional[Set[int]]] = [None] * rows
        self.par_sat: List[bool] = [False] * rows
        self.selectors: Optional[List[Optional[PartitionSelector]]] = (
            [None] * rows if with_selectors else None)
        self.own_rows: Dict[int, Set[int]] = {}   # target node -> rows
        self.par_rows: Dict[int, Set[int]] = {}
        self.stored_units = 0

    def update_winners_keys(self, keys: np.ndarray, nodes: Sequence[int]) -> None:
        col_min = keys.min(axis=1)
        mask = col_min < self.winner_key
        if not mask.any():
            return
        col_arg = keys.argmin(axis=1)
        for r in np.nonzero(mask)[0]:
            self.winner_key[r] = col_min[r]
            self._reset_row(int(r), nodes[int(col_arg[r])])

    def _reset_row(self, r: int, seg: int) -> None:
        old = self.winner_seg[r]
        if old is not None:
            self.own_rows[old].discard(r)
            if self.par_seg[r] is not None:
                self.par_rows[self.par_seg[r]].discard(r)
            freed = (len(self.own_seen[r]) if self.own_seen[r] else 0) + \
                    (len(self.par_seen[r]) if self.par_seen[r] else 0)
            if self.selectors is not None and self.selectors[r] is not None:
                freed += self.selectors[r].window_count
            self.stored_units -= freed
        self.winner_seg[r] = seg
        self.own_seen[r] = set()
        self.own_sat[r] = False
        self.own_rows.setdefault(seg, set()).add(r)
        if seg == self.tree.root:
            self.par_seg[r] = None
            self.par_seen[r] = None
            self.par_sat[r] = True  # the root needs no parent check
        else:
            self.par_seg[r] = seg >> 1
            self.par_seen[r] = set()
            self.par_sat[r] = False
            self.par_rows.setdefault(seg >> 1, set()).add(r)
        if self.selectors is not None:
            self.selectors[r] = PartitionSelector()

    def _grow(self, seen: Set[int], suffix: Sequence[int]) -> int:
        before = len(seen)
        seen.update(suffix)
        return len(seen) - before

    def feed_interval(self, iv: Interval, path: List[int]) -> None:
        for idx, v in enumerate(path):
            for r in self.own_rows.get(v, ()):
                if not self.own_sat[r]:
                    self.stored_units += self._grow(self.own_seen[r], path[idx:])
                    if len(self.own_seen[r]) >= self.cap:
                        self.own_sat[r] = True
                        self.stored_units -= len(self.own_seen[r])
                        self.own_seen[r] = set()
                if self.selectors is not None:
                    sel = self.selectors[r]
                    before = sel.window_count
                    sel.process(iv)
                    self.stored_units += sel.window_count - before
            for r in self.par_rows.get(v, ()):
                if not self.par_sat[r]:
                    self.stored_units += self._grow(self.par_seen[r], path[idx:])
                    if len(self.par_seen[r]) >= self.cap:
                        self.par_sat[r] = True
                        self.stored_units -= len(self.par_seen[r])
                        self.par_seen[r] = set()

    def is_relevant(self, r: int) -> bool:
        seg = self.winner_seg[r]
        if seg is None or seg == self.tree.root:
            return False
        if not self.par_sat[r] or self.own_sat[r]:
            return False
        return len(self.own_seen[r]) >= 1


class GeneralAlphaEstimator:
    """Streaming estimator; feed intervals with process(), finish with
    estimate()."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.tree = SegTree(config.n)
        if config.k_rel + config.k0 > config.sampler_limit:
            raise ValueError(
                f"sampler counts k_rel={config.k_rel}, k0={config.k0} exceed "
                f"limit {config.sampler_limit}; lower the scale parameter")
        rng = SplitMix64(config.seed)
        id_universe = 2 * self.tree.n_pow2
        fam_rel = HashFamily.create(id_universe, config.eps_rel, config.c1, config.c2)
        fam_rho = HashFamily.create(id_universe, config.eps_rho, config.c1, config.c2)
        self.rel = _SamplerGroup(config.k_rel, fam_rel, rng.spawn(1).seed,
                                 self.tree, config.gamma_cap, with_selectors=False)
        self.rho = _SamplerGroup(config.k0, fam_rho, rng.spawn(2).seed,
                                 self.tree, config.gamma_cap, with_selectors=True)
        self.counter = make_counter(config.counter_kind, fam_rel, rng.spawn(3), config.kmv_k)
        self.root_seen: Set[int] = set()
        self.root_sat = False
        self.root_selector = PartitionSelector()
        self.items = 0
        self.peak_units = 0
        # intervals buffer until enough fresh ids justify one batched hash pass
        self._pending: List = []
        self._pending_ids = 0
        self._chunk_ids = 256

    @property
    def hash_path(self) -> str:
        """"object" when either sampler bank hashes on Python integers,
        else "blas"."""
        paths = {self.rel.bank.hash_path, self.rho.bank.hash_path}
        return "object" if "object" in paths else "blas"

    def process(self, iv: Interval) -> None:
        if iv.left < 1 or iv.right > self.config.n:
            raise DomainError(f"interval {iv} outside [1, {self.config.n}]")
        self.items += 1
        # duplicates never move a running minimum, so known-seen nodes skip the banks
        new_ids = [v for v in emitted_segments(self.tree, iv) if self.counter.add(v)]
        self._pending.append((iv, self.tree.containing_path(iv), new_ids))
        self._pending_ids += len(new_ids)
        if self._pending_ids >= self._chunk_ids or len(self._pending) >= 1024:
            self.flush()

    def flush(self) -> None:
        """Apply buffered intervals: one batched hash evaluation per sampler
        group, then per-interval winner updates and tracker feeds in stream
        order (identical outcome to unbuffered processing)."""
        if not self._pending:
            return
        all_ids: List[int] = []
        spans = []
        for _, _, new_ids in self._pending:
            spans.append((len(all_ids), len(all_ids) + len(new_ids)))
            all_ids.extend(new_ids)
        rel_keys = self.rel.bank.keys(all_ids) if all_ids else None
        rho_keys = self.rho.bank.keys(all_ids) if all_ids else None
        for (iv, path, _), (lo, hi) in zip(self._pending, spans):
            if hi > lo:
                nodes = all_ids[lo:hi]
                self.rel.update_winners_keys(rel_keys[:, lo:hi], nodes)
                self.rho.update_winners_keys(rho_keys[:, lo:hi], nodes)
            self.rel.feed_interval(iv, path)
            self.rho.feed_interval(iv, path)
            if not self.root_sat:
                self.root_seen.update(path)
                if len(self.root_seen) >= self.config.gamma_cap:
                    self.root_sat = True
                    self.root_seen = set()
            self.root_selector.process(iv)
            units = (self.rel.stored_units + self.rho.stored_units + len(self.root_seen)
                     + self.root_selector.window_count + self.counter.units)
            self.peak_units = max(self.peak_units, units)
        self._pending = []
        self._pending_ids = 0

    def estimate(self) -> GeneralEstimate:
        self.flush()
        if not self.root_sat:
            return GeneralEstimate(value=float(self.root_selector.window_count),
                                   branch="fallback", peak_units=self.peak_units)
        cfg = self.config
        n_act = self.counter.estimate()
        x = sum(1 for r in range(self.rel.rows) if self.rel.is_relevant(r))
        n_rel = n_act * x / cfg.k_rel
        rho_rows = [r for r in range(self.rho.rows) if self.rho.is_relevant(r)]
        take = rho_rows[:cfg.k_rho]
        sizes = [self.rho.selectors[r].window_count for r in take]
        rho_hat = (sum(sizes) / len(sizes)) if sizes else 0.0
        value = n_rel * rho_hat / (1.0 + cfg.eps1) ** 2
        return GeneralEstimate(value=value, branch="sampled",
                               degraded=len(rho_rows) < cfg.k_rho,
                               n_act_hat=n_act, relevant_count=x, rho_hat=rho_hat,
                               rho_available=len(rho_rows), peak_units=self.peak_units)


def estimate_oracle_mode(inst: Instance, user_eps: float) -> float:
    """Deterministic pipeline: the streaming combination formula with every
    estimated quantity replaced by its exact value."""
    if not 0 < user_eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {user_eps}")
    eps1 = user_eps / 6.0
    tree = SegTree(inst.n)
    rel = relevant_segments(inst, eps1, tree)
    if rel == {tree.root}:
        return float(beta_hat(inst, tree.root))
    return sum(beta_hat(inst, s) for s in rel) / (1.0 + eps1) ** 2
