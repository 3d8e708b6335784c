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
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import DomainError, Instance, Interval
from .hashing import HashFamily, SamplerRows, make_counter
from .oracle import SegTree, beta_hat, relevance_threshold, relevant_segments
from .rng import SplitMix64
from .selector import PartitionSelector


def emitted_segments(tree: SegTree, iv: Interval,
                     path: Optional[List[int]] = None) -> List[int]:
    """Nodes activated by one interval: the root followed by both children
    of every internal node containing the interval, sizes non-increasing.
    path, when given, is tree.containing_path(iv)."""
    out = [tree.root]
    for u in path if path is not None else tree.containing_path(iv):
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
    tracked_nodes: int = 0      # peak size of the node table


class _Node:
    """State of one tree node u, shared by every row of both groups that
    holds u (own role) or a child of u (parent role).

    Rows take a node only at its first emission, so u's entry starts at the
    first emission of u or of a child of u, and no interval is contained in
    u before either.  The tracker is therefore exactly min(gamma(u), cap)
    whichever row created it: `seen` holds the nodes of u's subtree that
    contain an interval until there are cap of them, then None.  `selector`
    is the nested 2-approximation over the intervals contained in u, kept
    for a rho row's winner and for the root; it is dropped when the tracker
    saturates, since u can then never be relevant.
    """

    __slots__ = ("refs", "seen", "selector")

    def __init__(self, refs: int, with_selector: bool):
        self.refs = refs
        self.seen: Optional[Set[int]] = set()
        self.selector = PartitionSelector() if with_selector else None

    @property
    def saturated(self) -> bool:
        return self.seen is None

    @property
    def units(self) -> int:
        """The entry itself, its tracked nodes and its selector's windows."""
        return (1 + (len(self.seen) if self.seen is not None else 0)
                + (self.selector.window_count if self.selector is not None else 0))

    def add(self, iv: Interval, below: Sequence[int], cap: int) -> int:
        """Feed an interval contained in u; below is its containing path
        from u down.  Returns the change in units."""
        before = len(self.seen)
        self.seen.update(below)
        if len(self.seen) >= cap:
            freed = before + (self.selector.window_count if self.selector is not None else 0)
            self.seen = self.selector = None
            return -freed
        grown = len(self.seen) - before
        if self.selector is not None:
            windows = self.selector.window_count
            self.selector.process(iv)
            grown += self.selector.window_count - windows
        return grown


def _lineage(v: int) -> Tuple[int, ...]:
    """The nodes a row holding v references: v, and its parent unless v is
    the root."""
    return (v, v >> 1) if v > 1 else (v,)


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
        self.rel = SamplerRows(config.k_rel, fam_rel, rng.spawn(1).seed)
        self.rho = SamplerRows(config.k0, fam_rho, rng.spawn(2).seed)
        self.counter = make_counter(config.counter_kind, fam_rel, rng.spawn(3).seed, config.kmv_k)
        # node table; the estimator holds the root entry, whose selector is
        # the fallback branch's estimate until the root saturates
        self.nodes: Dict[int, _Node] = {self.tree.root: _Node(1, with_selector=True)}
        self._node_units = self.nodes[self.tree.root].units
        self._row_units = config.k_rel + config.k0  # one winner (value, node) per row
        self.items = 0
        self.peak_units = 0
        self.peak_nodes = 0
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

    @property
    def columns_hashed(self) -> int:
        """Ids hashed so far, summed over both sampler banks."""
        return self.rel.bank.columns_hashed + self.rho.bank.columns_hashed

    def process(self, iv: Interval) -> None:
        if iv.left < 1 or iv.right > self.config.n:
            raise DomainError(f"interval {iv} outside [1, {self.config.n}]")
        self.items += 1
        # duplicates never move a running minimum, so known-seen nodes skip the banks
        path = self.tree.containing_path(iv)
        new_ids = [v for v in emitted_segments(self.tree, iv, path) if self.counter.add(v)]
        self._pending.append((iv, path, new_ids))
        self._pending_ids += len(new_ids)
        if self._pending_ids >= self._chunk_ids or len(self._pending) >= 1024:
            self.flush()

    def flush(self) -> None:
        """Apply buffered intervals: one batched hash pass per sampler group
        returns each row's minimum over the chunk, and rows whose minimum
        comes before their running one move to it.  Entries of nodes the
        rows took start at the interval that first emitted the node, so
        nodes held only inside the chunk never get one; the intervals then
        feed the node table in stream order (identical outcome to
        unbuffered processing)."""
        if not self._pending:
            return
        all_ids = [v for _, _, new_ids in self._pending for v in new_ids]
        births = self._move_rows(all_ids) if all_ids else {}
        cap = self.config.gamma_cap
        for item, (iv, path, _) in enumerate(self._pending):
            for v, node in births.get(item, ()):
                self.nodes[v] = node
                self._node_units += node.units
            for idx, v in enumerate(path):
                node = self.nodes.get(v)
                if node is not None and not node.saturated:
                    self._node_units += node.add(iv, path[idx:], cap)
            self.peak_units = max(self.peak_units, self._node_units + self._row_units
                                  + self.counter.units)
            self.peak_nodes = max(self.peak_nodes, len(self.nodes))
        self._pending = []
        self._pending_ids = 0

    def _move_rows(self, all_ids: List[int]) -> Dict[int, List[Tuple[int, _Node]]]:
        """Move both groups' rows over the pending chunk and update the
        table's references: entries no row references any more are
        dropped, and entries of newly referenced nodes are returned keyed
        by the pending item they start at."""
        item_of = np.repeat(np.arange(len(self._pending)),
                            [len(new_ids) for _, _, new_ids in self._pending])
        refs: Dict[int, int] = {}
        start: Dict[int, int] = {}      # node without an entry -> its first item
        selected: Set[int] = set()      # nodes a rho row took
        for group in (self.rel, self.rho):
            released, taken, cols = group.move(all_ids)
            nodes, first, counts = np.unique(taken, return_index=True, return_counts=True)
            for v, item, count in zip(nodes.tolist(), item_of[cols[first]].tolist(),
                                      counts.tolist()):
                for u in _lineage(v):
                    refs[u] = refs.get(u, 0) + count
                    if u not in self.nodes:
                        start[u] = min(item, start.get(u, item))
                if group is self.rho:
                    selected.add(v)
            nodes, counts = np.unique(released[released > 0], return_counts=True)
            for v, count in zip(nodes.tolist(), counts.tolist()):
                for u in _lineage(v):
                    refs[u] = refs.get(u, 0) - count
        for u, delta in refs.items():
            node = self.nodes.get(u)
            if node is not None:
                node.refs += delta
                if node.refs == 0:
                    del self.nodes[u]
                    self._node_units -= node.units
        births: Dict[int, List[Tuple[int, _Node]]] = {}
        for u, item in start.items():
            births.setdefault(item, []).append((u, _Node(refs[u], u in selected)))
        return births

    def is_relevant(self, v: int) -> bool:
        """Small capped gamma under a saturated parent (never the root)."""
        if v <= self.tree.root:
            return False
        node = self.nodes[v]
        return self.nodes[v >> 1].saturated and not node.saturated and len(node.seen) >= 1

    def estimate(self) -> GeneralEstimate:
        self.flush()
        root = self.nodes[self.tree.root]
        if not root.saturated:
            return GeneralEstimate(value=float(root.selector.window_count),
                                   branch="fallback", peak_units=self.peak_units,
                                   tracked_nodes=self.peak_nodes)
        cfg = self.config
        n_act = self.counter.estimate()
        held = np.union1d(self.rel.winner_id, self.rho.winner_id)
        relevant = [v for v in held.tolist() if self.is_relevant(v)]
        x = int(np.isin(self.rel.winner_id, relevant).sum())
        n_rel = n_act * x / cfg.k_rel
        rho_rows = np.nonzero(np.isin(self.rho.winner_id, relevant))[0]
        take = self.rho.winner_id[rho_rows[:cfg.k_rho]].tolist()
        sizes = [self.nodes[v].selector.window_count for v in take]
        rho_hat = (sum(sizes) / len(sizes)) if sizes else 0.0
        value = n_rel * rho_hat / (1.0 + cfg.eps1) ** 2
        return GeneralEstimate(value=value, branch="sampled",
                               degraded=len(rho_rows) < cfg.k_rho,
                               n_act_hat=n_act, relevant_count=x, rho_hat=rho_hat,
                               rho_available=len(rho_rows), peak_units=self.peak_units,
                               tracked_nodes=self.peak_nodes)


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
