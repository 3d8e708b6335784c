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
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .core import Instance, Interval, check_eps, code_columns, refuse
from .hashing import BottomK, HashFamily, make_counter
from .oracle import SegTree, beta_hat, distinct, relevance_threshold, relevant_segments
from .rng import SplitMix64
from .selector import PartitionSelector

# most sample members (k_rel + k0) an estimator may be built with
SAMPLER_LIMIT = 500_000

# pending intervals at which process and feed flush
_CHUNK = 1024


# the epsilon cascade's first split, eps1 = eps/6, and its correction by (1 + eps1)^2
def eps1_of(user_eps: float) -> float:
    return user_eps / 6.0


def corrected(value: float, eps1: float) -> float:
    return value / (1.0 + eps1) ** 2


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
        check_eps(self.user_eps)
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    @property
    def eps1(self) -> float:
        return eps1_of(self.user_eps)

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

    A sample takes a node only at its first emission, and no interval is
    contained in u before the first emission of u or of a child of u.  So an
    entry made after its chunk's offers, before the chunk's pairs reach the
    table, tracks exactly min(gamma(u), cap): `seen` holds the nodes of u's
    subtree that contain an interval until there are cap of them, then None.
    `selector`, the nested 2-approximation over the intervals contained in
    u, is kept while u is the root or a rho member, the only selectors
    ``estimate`` reads, and dropped when u saturates and so can never be
    relevant.
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
        self.counter = make_counter(config.counter_kind, fam_rel, rng.spawn(3).seed)
        # node table; the estimator holds the root entry, whose selector is
        # the fallback branch's estimate until the root saturates
        self.nodes: Dict[int, _Node] = {self.tree.root: _Node(with_selector=True)}
        self._node_units = self.nodes[self.tree.root].units
        self.items = 0
        self.peak_units = 0
        self.peak_nodes = 0
        # slices of the code columns taken but not yet flushed, and their length
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._queued = 0

    @property
    def columns_hashed(self) -> int:
        """Ids hashed so far, summed over both samples' banks."""
        return self.rel.bank.columns_hashed + self.rho.bank.columns_hashed

    def process(self, iv: Interval) -> None:
        self.feed(*code_columns((iv,), self.config.n))

    def feed(self, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        """Feed two int64 code columns: the call is refused whole, before
        any pair is taken, at its first pair that is empty or outside [1, n]
        (``core.refuse``); otherwise its pairs are queued and flushed each
        time _CHUNK pairs are pending, however the stream is cut into calls.
        ``process(iv)`` feeds the one pair of an Interval."""
        refuse(lcodes, rcodes, self.config.n)
        self.items += len(lcodes)
        while len(lcodes):
            take = _CHUNK - self._queued
            self._pending.append((lcodes[:take], rcodes[:take]))
            self._queued += len(self._pending[-1][0])
            lcodes, rcodes = lcodes[take:], rcodes[take:]
            if self._queued >= _CHUNK:
                self.flush()

    def flush(self) -> None:
        """Apply the pending pairs as one chunk of code columns.  Its
        closure (the nodes containing one of its pairs) gives the ids it
        emits, each once: the root and both children of every internal node
        of the closure.  The counter takes each, and the fresh ones go to
        one bulk offer per sample, which depends neither on the order of
        offers nor on a repeat.  Then the table follows the samples
        (``_hold``), every unsaturated tracker takes the closure's nodes in
        its subtree, and each selector whose tracker stays below the cap
        takes the chunk's pairs inside its node, in stream order.  The peak
        units are taken once per chunk, before the trackers that reached
        the cap are forgotten."""
        if not self._pending:
            return
        lcodes, rcodes = (np.concatenate(column) for column in zip(*self._pending))
        self._pending, self._queued = [], 0
        tree, nodes, levels = self.tree, self.nodes, self.tree.depth_levels
        # closure by shifts, not by the oracle's _holding_closure, which takes 168
        # against 46 us on a 200-pair chunk at n = 4096 (2-core host); nor can this
        # (m, L + 1) matrix serve the oracle: 34 MB at 200k items and n = 2^20
        shifted = tree.minimal_container((lcodes, rcodes))[:, None] >> np.arange(levels + 1)
        closure = distinct(shifted[shifted > 0])
        inner = closure[closure < tree.n_pow2]
        emitted = [tree.root] + (2 * inner).tolist() + (2 * inner + 1).tolist()
        fresh = [v for v in emitted if self.counter.add(v)]
        (rel_in, rel_out), (rho_in, rho_out) = (s.offer_many(fresh) for s in (self.rel, self.rho))
        self._hold(rel_in + rho_in, rel_out + rho_out, rho_out)
        # in in-order the nodes of u's subtree are those ranked strictly
        # between 2u and 2u + 2, both shifted left by u's height
        ranks = (2 * closure + 1) << (levels - tree.depth(closure))
        order = np.argsort(ranks)
        ranks, ordered = ranks[order], closure[order].tolist()
        live = np.array([u for u, node in nodes.items() if node.seen is not None],
                        dtype=np.int64)
        heights = levels - tree.depth(live)
        lo = ranks.searchsorted((2 * live) << heights, side="right")
        hi = ranks.searchsorted((2 * live + 2) << heights)
        full, cap = [], self.config.gamma_cap
        for u, a, b in zip(*(column[hi > lo].tolist() for column in (live, lo, hi))):
            node = nodes[u]
            tracked = len(node.seen)
            node.seen.update(ordered[a:b])
            self._node_units += len(node.seen) - tracked
            if len(node.seen) >= cap:
                full.append(node)
            elif node.selector is not None:
                windows = node.selector.window_count
                inside = tree.contains(u, (lcodes, rcodes))
                node.selector.feed(lcodes[inside], rcodes[inside])
                self._node_units += node.selector.window_count - windows
        self.peak_units = max(self.peak_units, self._node_units + self.rel.units
                              + self.rho.units + self.counter.units)
        self.peak_nodes = max(self.peak_nodes, len(nodes))
        for node in full:
            self._node_units -= node.units - 1
            node.seen = node.selector = None

    def _hold(self, entered: List[int], evicted: List[int], rho_evicted: List[int]) -> None:
        """Keep the table to the root and the nodes that a sample holds, or
        whose child a sample holds: make the missing entries of an entering
        node and its parent, with a selector iff the node is now a member of
        the rho sample (a parent and its child may enter together); drop the
        selector of a node the rho sample evicted, and the entries of an
        evicted node and its parent once no sample needs them."""
        nodes, root, held = self.nodes, self.tree.root, (self.rel.members, self.rho.members)
        for v in entered:
            for u in (v, v >> 1):  # the root's parent, 0, is no node
                if u and u not in nodes:
                    nodes[u] = _Node(with_selector=u in self.rho.members)
                    self._node_units += 1
        for v in rho_evicted:
            node = nodes.get(v)
            if v != root and node is not None and node.selector is not None:
                self._node_units -= node.selector.window_count
                node.selector = None
        for v in evicted:
            for u in (v, v >> 1):
                if u in nodes and u != root and not any(
                        w in members for members in held for w in (u, 2 * u, 2 * u + 1)):
                    self._node_units -= nodes.pop(u).units

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
        value = corrected(n_rel * rho_hat, cfg.eps1)
        return GeneralEstimate(value=value, branch="sampled",
                               degraded=len(relevant) < cfg.k_rho,
                               n_act_hat=n_act, relevant_count=x, rho_hat=rho_hat,
                               rho_available=len(relevant), peak_units=self.peak_units,
                               tracked_nodes=self.peak_nodes)


def estimate_oracle_mode(inst: Instance, user_eps: float) -> float:
    """Deterministic pipeline: the streaming combination formula with every
    estimated quantity replaced by its exact value."""
    check_eps(user_eps)
    eps1 = eps1_of(user_eps)
    tree = SegTree(inst.n)
    rel = relevant_segments(inst, eps1, tree)
    if rel == {tree.root}:
        return float(beta_hat(inst, tree.root))
    return corrected(sum(beta_hat(inst, s) for s in rel), eps1)
