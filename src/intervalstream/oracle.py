"""Offline ground truth: exact independent-set sizes and segment-tree counts.

Everything here is deterministic and computed with the whole instance in
memory; the streaming modules are validated against these values.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import List, Set, Tuple

from .core import Instance, Interval, intersects
from .selector import PartitionSelector


class SegTree:
    """Implicit balanced segment tree over elementary segments [i, i+1),
    i in [1, n_pow2], with the universe rounded up to a power of two.

    Nodes are heap indices: the root is 1, the children of node v are 2v
    and 2v+1, its parent is v >> 1, and leaf [x, x+1) is n_pow2 + x - 1.
    This class is the only place that maps a node to the segment it covers.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self.n_pow2 = 1 << max(0, (n - 1).bit_length())
        self.depth_levels = self.n_pow2.bit_length() - 1  # log2(n_pow2)
        self.root = 1

    def span(self, v: int) -> Tuple[int, int]:
        """The half-open segment [lo, hi) covered by node v."""
        depth = v.bit_length() - 1
        size = self.n_pow2 >> depth
        lo = 1 + (v - (1 << depth)) * size
        return lo, lo + size

    def contains(self, v: int, iv: Interval) -> bool:
        """True iff every point of the interval lies in node v's segment."""
        lo, hi = self.span(v)
        lcode, rcode = iv
        return 2 * lo <= lcode and rcode <= 2 * hi - 1

    def segments(self) -> range:
        """All 2*n_pow2 - 1 nodes, parents before children."""
        return range(1, 2 * self.n_pow2)

    def minimal_container(self, iv: Interval) -> int:
        """The smallest node containing the interval: the lowest common
        ancestor of the leaves holding its two end codes (code c lies in
        leaf [c >> 1, (c >> 1) + 1))."""
        lcode, rcode = iv
        if lcode < 2 or rcode > 2 * self.n_pow2 + 1:
            raise ValueError(f"{iv} is outside the root segment")
        a = self.n_pow2 + (lcode >> 1) - 1
        b = self.n_pow2 + (rcode >> 1) - 1
        return a >> (a ^ b).bit_length()

    def containing_path(self, iv: Interval) -> List[int]:
        """Nodes containing the interval, root first (a root-to-node path)."""
        v = self.minimal_container(iv)
        return [v >> s for s in range(v.bit_length() - 1, -1, -1)]


def alpha(inst: Instance) -> int:
    """Exact maximum independent-subset size, by earliest-finish greedy."""
    count = 0
    last_rcode = -1
    # ties in rcode need no order: any one of them that fits ends the same
    for lcode, rcode in sorted(inst.intervals, key=itemgetter(1)):
        if lcode > last_rcode:
            count += 1
            last_rcode = rcode
    return count


def brute_force_alpha(inst: Instance) -> int:
    """Exact alpha by subset enumeration; independent check on alpha()."""
    ivs = list(inst.intervals)
    n = len(ivs)
    if n > 24:
        raise ValueError(f"instance too large for enumeration: {n} > 24")
    best = 0

    def rec(i: int, chosen: List[Interval]):
        nonlocal best
        if len(chosen) + (n - i) <= best:
            return
        if i == n:
            best = max(best, len(chosen))
            return
        iv = ivs[i]
        if all(not intersects(iv, c) for c in chosen):
            chosen.append(iv)
            rec(i + 1, chosen)
            chosen.pop()
        rec(i + 1, chosen)

    rec(0, [])
    return best


def beta(inst: Instance, v: int) -> int:
    """Exact alpha restricted to the intervals contained in node v."""
    tree = SegTree(inst.n)
    contained = [iv for iv in inst.intervals if tree.contains(v, iv)]
    return alpha(Instance._trusted(inst.n, tuple(contained))) if contained else 0


def beta_hat(inst: Instance, v: int) -> int:
    """Size of the one-pass 2-approximation run on the intervals contained
    in node v, in stream order."""
    tree = SegTree(inst.n)
    sel = PartitionSelector()
    for iv in inst.intervals:
        if tree.contains(v, iv):
            sel.process(iv)
    return sel.window_count


def gamma(inst: Instance, v: int, tree: SegTree = None) -> int:
    """Number of tree nodes in v's subtree that contain an input interval,
    by direct enumeration (the reference for gamma_all)."""
    tree = tree or SegTree(inst.n)
    count = 0
    stack = [v]
    while stack:
        node = stack.pop()
        if any(tree.contains(node, iv) for iv in inst.intervals):
            count += 1
        if node < tree.n_pow2:
            stack.extend((2 * node, 2 * node + 1))
    return count


def _holding_nodes(inst: Instance, tree: SegTree) -> Set[int]:
    """Nodes that contain an input interval: the ancestors of the minimal
    containers, at most m * (L + 1) of them."""
    closure: Set[int] = set()
    for iv in inst.intervals:
        v = tree.minimal_container(iv)
        while v and v not in closure:
            closure.add(v)
            v >>= 1
    return closure


def gamma_all(inst: Instance, tree: SegTree = None) -> Counter:
    """gamma for every tree node, bottom-up over the nodes that contain an
    interval; every other node reads 0."""
    tree = tree or SegTree(inst.n)
    gammas: Counter = Counter()
    # children have larger indices, so each node is complete when reached
    for v in sorted(_holding_nodes(inst, tree), reverse=True):
        gammas[v] += 1
        if v > 1:
            gammas[v >> 1] += gammas[v]
    return gammas


def active_segments(inst: Instance, tree: SegTree = None) -> Set[int]:
    """The root plus every node whose parent contains an input interval."""
    tree = tree or SegTree(inst.n)
    active = {tree.root}
    for u in _holding_nodes(inst, tree):
        if u < tree.n_pow2:
            active.update((2 * u, 2 * u + 1))
    return active


def relevance_threshold(n: int, eps: float) -> float:
    return 2.0 * SegTree(n).depth_levels ** 2 / eps


def relevant_segments(inst: Instance, eps: float, tree: SegTree = None) -> Set[int]:
    """Nodes with small gamma whose parent's gamma meets the threshold;
    falls back to the root when no node qualifies."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    tree = tree or SegTree(inst.n)
    gammas = gamma_all(inst, tree)
    threshold = relevance_threshold(tree.n, eps)
    # a node with gamma >= 1 holds an interval, so it is a key of gammas
    rel = {v for v, g in gammas.items()
           if v != tree.root and g < threshold and gammas[v >> 1] >= threshold}
    return rel or {tree.root}


def relevant_sum(inst: Instance, eps: float) -> int:
    """Sum of 2-approximation sizes over the relevant segments; lies in
    [(1/2 - eps) * alpha, alpha]."""
    return sum(beta_hat(inst, v) for v in relevant_segments(inst, eps))
