"""Randomized one-pass estimator of the maximum independent-set size for
arbitrary intervals with endpoints in [1, n].

Pipeline: every interval activates a short sequence of segment-tree
segments; a distinct counter estimates the number of active segments; a
bottom-k sample of the active segments estimates the fraction that is
*relevant* (small capped gamma count under a saturated parent); a second
bottom-k sample carries a nested 2-approximation selector on each member
to estimate the average solution size per relevant segment.  The product
of the three estimates, corrected by the epsilon cascade, estimates alpha.

A deterministic oracle mode computes the same combination from exact
quantities, for pipeline validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import DomainError, Instance, Interval, code_pairs, refuse_first
from .hashing import BottomK, HashFamily, make_counter
from .oracle import SegTree, beta_hat, relevance_threshold, relevant_segments
from .rng import SplitMix64
from .selector import PartitionSelector

# most sample members (k_rel + k0) an estimator may be built with
SAMPLER_LIMIT = 500_000

# pending intervals at which process and feed flush
_CHUNK = 1024


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
    relevant_count: int = 0     # relevant members of the rel sample
    rho_hat: float = 0.0
    rho_available: int = 0      # relevant members of the rho sample
    peak_units: int = 0
    tracked_nodes: int = 0      # peak size of the node table


class _Node:
    """State of one tree node u, shared by both samples when either holds u
    (own role) or a child of u (parent role).

    A sample takes a node only at its first emission, so u's entry starts at
    the first emission of u or of a child of u, and no interval is contained
    in u before either.  The tracker is therefore exactly min(gamma(u), cap)
    whichever sample created it: `seen` holds the nodes of u's subtree that
    contain an interval until there are cap of them, then None.  `selector`
    is the nested 2-approximation over the intervals contained in u, kept
    for a member of the rho sample and for the root; it is dropped when the
    tracker saturates, since u can then never be relevant.
    """

    __slots__ = ("seen", "selector")

    def __init__(self, with_selector: bool):
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
    """The nodes whose entries a sample holding v needs: v, and its parent
    unless v is the root."""
    return (v, v >> 1) if v > 1 else (v,)


class GeneralAlphaEstimator:
    """Streaming estimator; feed intervals with process() or code columns
    with feed(), finish with estimate()."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.tree = SegTree(config.n)
        if config.k_rel + config.k0 > SAMPLER_LIMIT:
            raise ValueError(
                f"sampler counts k_rel={config.k_rel}, k0={config.k0} exceed "
                f"limit {SAMPLER_LIMIT}; lower the scale parameter")
        rng = SplitMix64(config.seed)
        id_universe = 2 * self.tree.n_pow2
        fam_rel = HashFamily.create(id_universe, config.eps_rel)
        fam_rho = HashFamily.create(id_universe, config.eps_rho)
        self.rel = BottomK(config.k_rel, fam_rel, rng.spawn(1).seed)
        self.rho = BottomK(config.k0, fam_rho, rng.spawn(2).seed)
        self.counter = make_counter(config.counter_kind, fam_rel, rng.spawn(3).seed, config.kmv_k)
        # node table; the estimator holds the root entry, whose selector is
        # the fallback branch's estimate until the root saturates
        self.nodes: Dict[int, _Node] = {self.tree.root: _Node(with_selector=True)}
        self._node_units = self.nodes[self.tree.root].units
        self.items = 0
        self.peak_units = 0
        self.peak_nodes = 0
        # intervals, or their (lcode, rcode) pairs, taken but not yet flushed
        self._pending: List = []

    @property
    def columns_hashed(self) -> int:
        """Ids hashed so far, summed over both samples' banks."""
        return self.rel.bank.columns_hashed + self.rho.bank.columns_hashed

    def process(self, iv: Interval) -> None:
        if iv.left < 1 or iv.right > self.config.n:
            raise DomainError(f"interval {iv} outside [1, {self.config.n}]")
        self.items += 1
        self._pending.append(iv)
        if len(self._pending) >= _CHUNK:
            self.flush()

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two code columns (int64 or object dtype), as ``process``
        would pair by pair; they are refused whole, with the message of the
        first interval ``process`` would refuse."""
        refuse_first((lcodes < 2) | (rcodes > 2 * self.config.n), lcodes, rcodes, self.process)
        self.items += len(lcodes)
        for pair in code_pairs(lcodes, rcodes):
            self._pending.append(pair)
            if len(self._pending) >= _CHUNK:
                self.flush()

    def flush(self) -> None:
        """Apply the pending intervals in stream order.  The counter takes
        each interval's emitted ids, and its units as of that interval are
        noted; one PolyBank.keys call per sample hashes the ids it reported
        fresh (an id offered before is a member or never enters, so known
        ids skip the samples); then each interval's fresh ids are offered to
        both samples and the interval feeds the node table.  The peak units
        are taken per interval, so the outcome does not depend on where
        flushes fall."""
        if not self._pending:
            return
        tree, counter = self.tree, self.counter
        taken = []
        for iv in self._pending:
            path = tree.containing_path(iv)
            fresh = [v for v in emitted_segments(tree, iv, path) if counter.add(v)]
            taken.append((iv, path, fresh, counter.units))
        ids = [v for _, _, fresh, _ in taken for v in fresh]
        keyed = zip(ids, self.rel.bank.keys(ids), self.rho.bank.keys(ids))
        cap = self.config.gamma_cap
        for iv, path, fresh, counter_units in taken:
            for v, rel_value, rho_value in islice(keyed, len(fresh)):
                self._offer(v, rel_value, rho_value)
            for idx, v in enumerate(path):
                node = self.nodes.get(v)
                if node is not None and not node.saturated:
                    self._node_units += node.add(iv, path[idx:], cap)
            self.peak_units = max(self.peak_units, self._node_units + self.rel.units
                                  + self.rho.units + counter_units)
            self.peak_nodes = max(self.peak_nodes, len(self.nodes))
        self._pending.clear()

    def _offer(self, v: int, rel_value: int, rho_value: int) -> None:
        """Offer node v to both samples and keep the table to the root and
        the nodes that a sample holds, or whose child a sample holds: a
        sample taking v needs the entries of v and its parent, which are
        made when missing (v's with a selector when the rho sample took it),
        and the entries of an evicted node and its parent go once no sample
        needs them.  v's first offer comes before any child of v is emitted,
        so v has no entry yet unless v is the root."""
        out = (self.rel.offer(v, rel_value), self.rho.offer(v, rho_value))
        if out == (None, None):
            return
        for u in _lineage(v):
            if u not in self.nodes:
                node = self.nodes[u] = _Node(with_selector=u == v and out[1] is not None)
                self._node_units += node.units
        held = (self.rel.members, self.rho.members)
        for evicted in out:
            for u in _lineage(evicted) if evicted else ():
                if u in self.nodes and u != self.tree.root and not any(
                        w in members for members in held for w in (u, 2 * u, 2 * u + 1)):
                    self._node_units -= self.nodes.pop(u).units

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
        # the root is emitted first, so a saturated root leaves both samples nonempty
        x = sum(self.is_relevant(v) for v in self.rel.members)
        n_rel = n_act * x / len(self.rel.members)
        relevant = [v for _, v in self.rho.pairs() if self.is_relevant(v)]
        sizes = [self.nodes[v].selector.window_count for v in relevant[:cfg.k_rho]]
        rho_hat = (sum(sizes) / len(sizes)) if sizes else 0.0
        value = n_rel * rho_hat / (1.0 + cfg.eps1) ** 2
        return GeneralEstimate(value=value, branch="sampled",
                               degraded=len(relevant) < cfg.k_rho,
                               n_act_hat=n_act, relevant_count=x, rho_hat=rho_hat,
                               rho_available=len(relevant), peak_units=self.peak_units,
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
