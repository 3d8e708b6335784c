"""Offline ground truth: exact independent-set sizes and segment-tree counts.

Everything here is deterministic and computed with the whole instance in
memory; the streaming modules are validated against these values.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Set, Tuple

import numpy as np

from .core import Instance, Interval, check_eps, check_n, intersects
from .selector import PartitionSelector


# Sorted positions whose successors alpha() finds in one searchsorted.
_ALPHA_BLOCK = 8192


class SegTree:
    """Implicit balanced segment tree over elementary segments [i, i+1),
    i in [1, n_pow2], with the universe rounded up to a power of two.

    Nodes are heap indices: the root is 1, the children of node v are 2v
    and 2v+1, its parent is v >> 1, and leaf [x, x+1) is n_pow2 + x - 1.
    This class is the only place that maps a node to the segment it covers.
    """

    def __init__(self, n: int):
        check_n(n)
        self.n = n
        self.n_pow2 = 1 << max(0, (n - 1).bit_length())
        self.depth_levels = self.n_pow2.bit_length() - 1  # log2(n_pow2)
        self.root = 1

    def depth(self, v):
        """Depth of node v, the root's 0: the bit length of v less one.  For
        an int64 column it counts the powers of two at or below each value,
        exact where np.frexp rounds up past 2**53."""
        if not isinstance(v, np.ndarray):
            return v.bit_length() - 1
        powers = np.array([1 << d for d in range(self.depth_levels + 1)], dtype=np.int64)
        return np.searchsorted(powers, v, side="right") - 1

    def span(self, v: int) -> Tuple[int, int]:
        """The half-open segment [lo, hi) covered by node v."""
        depth = self.depth(v)
        size = self.n_pow2 >> depth
        lo = 1 + (v - (1 << depth)) * size
        return lo, lo + size

    def contains(self, v: int, iv: Interval):
        """True iff every point of the interval lies in node v's segment.
        ``iv`` may also be a pair of code columns, ``(inst.lcodes,
        inst.rcodes)``, and the answer then a boolean column."""
        lo, hi = self.span(v)
        lcode, rcode = iv
        return (2 * lo <= lcode) & (rcode <= 2 * hi - 1)

    def segments(self) -> range:
        """All 2*n_pow2 - 1 nodes, parents before children."""
        return range(1, 2 * self.n_pow2)

    def minimal_container(self, iv: Interval):
        """The smallest node containing the interval: the lowest common
        ancestor of the leaves holding its two end codes (code c lies in
        leaf [c >> 1, (c >> 1) + 1)).  ``iv`` may also be a pair of code
        columns of an Instance over the tree's universe, and the answer then
        an int64 column of nodes (n < 2**62, so every node id fits)."""
        lcode, rcode = iv
        if not isinstance(lcode, np.ndarray) and (lcode < 2 or rcode > 2 * self.n_pow2 + 1):
            raise ValueError(f"{iv} is outside the root segment")
        a = (lcode >> 1) + (self.n_pow2 - 1)
        b = (rcode >> 1) + (self.n_pow2 - 1)
        return a >> (self.depth(a ^ b) + 1)  # the bit length of a ^ b

    def containing_path(self, iv: Interval) -> List[int]:
        """Nodes containing the interval, root first (a root-to-node path)."""
        v = self.minimal_container(iv)
        return [v >> s for s in range(v.bit_length() - 1, -1, -1)]


def alpha(inst: Instance) -> int:
    """Exact maximum independent-subset size, by earliest-finish greedy.

    In ascending rcode order every pair up to a pick ends by the pick's
    rcode r, so it also starts by r; the next pick, the first later pair
    that starts past r, is then the first position whose ``reach``, the
    running maximum of the lcodes, exceeds r.  The greedy hops from pick
    to pick by these successor positions, found with one ``searchsorted``
    per block of _ALPHA_BLOCK positions, made only for the blocks it
    enters.  Ties in rcode need no order, as any one of them that fits
    ends the same.  Beside the columns it holds the sort order and
    ``reach``, one block of successors at a time."""
    order = np.argsort(inst.rcodes)
    reach = inst.lcodes[order]
    np.maximum.accumulate(reach, out=reach)
    count, pos, total = 0, 0, len(order)
    while pos < total:
        base = pos - pos % _ALPHA_BLOCK
        block = order[base:base + _ALPHA_BLOCK]
        end = base + len(block)
        succ = memoryview(reach.searchsorted(inst.rcodes[block], side="right"))
        while pos < end:
            count += 1
            pos = succ[pos - base]
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


def _contained(inst: Instance, v: int) -> Instance:
    """The intervals of the instance contained in node v, in stream order."""
    inside = SegTree(inst.n).contains(v, (inst.lcodes, inst.rcodes))
    return Instance._trusted(inst.n, inst.lcodes[inside], inst.rcodes[inside])


def beta(inst: Instance, v: int) -> int:
    """Exact alpha restricted to the intervals contained in node v."""
    return alpha(_contained(inst, v))


def beta_hat(inst: Instance, v: int) -> int:
    """Size of the one-pass 2-approximation run on the intervals contained
    in node v, in stream order."""
    sub = _contained(inst, v)
    sel = PartitionSelector()
    sel.feed(sub.lcodes, sub.rcodes)
    return sel.window_count


def gamma(inst: Instance, v: int, tree: SegTree = None) -> int:
    """Number of tree nodes in v's subtree that contain an input interval,
    by direct enumeration (the reference for gamma_all)."""
    tree = tree or SegTree(inst.n)
    count = 0
    stack = [v]
    while stack:
        node = stack.pop()
        if any(tree.contains(node, iv) for iv in inst.codes()):
            count += 1
        if node < tree.n_pow2:
            stack.extend((2 * node, 2 * node + 1))
    return count


def distinct(column: np.ndarray) -> np.ndarray:
    """The distinct values of a column, ascending.  It sorts with argsort,
    as alpha does: a first np.sort or np.unique in a process loads more
    code and raises the peak RSS."""
    column = column[np.argsort(column)]
    keep = np.ones(len(column), dtype=bool)
    keep[1:] = column[1:] != column[:-1]
    return column[keep]


def _holding_closure(inst: Instance, tree: SegTree) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes that contain an input interval, ascending, and the gamma of
    each.  They are the ancestors of the distinct minimal containers, built
    one depth at a time from the leaves up: a level's nodes are its own
    containers plus the parents of the level below, and the gamma of a node
    is 1 plus the sum of its children's."""
    own = distinct(tree.minimal_container((inst.lcodes, inst.rcodes)))
    levels, end = [], len(own)
    below, below_gammas = own[:0], np.zeros(0, dtype=np.int64)
    for depth in range(tree.depth_levels, -1, -1):
        start = int(np.searchsorted(own, 1 << depth))  # nodes of this depth are >= 2**depth
        parents = below >> 1
        level = distinct(np.concatenate((own[start:end], parents)))
        sums = np.bincount(np.searchsorted(level, parents), weights=below_gammas,
                           minlength=len(level))
        below, below_gammas, end = level, 1 + sums.astype(np.int64), start
        levels.append((below, below_gammas))
    nodes, gammas = zip(*levels[::-1])
    return np.concatenate(nodes), np.concatenate(gammas)


def gamma_all(inst: Instance, tree: SegTree = None) -> Counter:
    """gamma for every node that contains an interval; any other reads 0."""
    nodes, gammas = _holding_closure(inst, tree or SegTree(inst.n))
    return Counter(dict(zip(nodes.tolist(), gammas.tolist())))


def active_segments(inst: Instance, tree: SegTree = None) -> Set[int]:
    """The root plus every node whose parent contains an input interval."""
    tree = tree or SegTree(inst.n)
    nodes, _ = _holding_closure(inst, tree)
    inner = nodes[nodes < tree.n_pow2]
    return {tree.root, *(2 * inner).tolist(), *(2 * inner + 1).tolist()}


def relevance_threshold(n: int, eps: float) -> float:
    return 2.0 * SegTree(n).depth_levels ** 2 / eps


def relevant_segments(inst: Instance, eps: float, tree: SegTree = None) -> Set[int]:
    """Nodes with small gamma whose parent's gamma meets the threshold;
    falls back to the root when no node qualifies."""
    check_eps(eps)
    tree = tree or SegTree(inst.n)
    gammas = gamma_all(inst, tree)
    threshold = relevance_threshold(tree.n, eps)
    # only the children of the saturated nodes are tested; a node with
    # gamma >= 1 holds an interval, so it is a key of gammas
    rel = {c for u, g in gammas.items() if g >= threshold
           for c in (2 * u, 2 * u + 1) if c in gammas and gammas[c] < threshold}
    return rel or {tree.root}


def relevant_sum(inst: Instance, eps: float) -> int:
    """Sum of 2-approximation sizes over the relevant segments; lies in
    [(1/2 - eps) * alpha, alpha]."""
    return sum(beta_hat(inst, v) for v in relevant_segments(inst, eps))
