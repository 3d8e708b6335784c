import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalstream import oracle
from intervalstream.core import Instance, Interval
from intervalstream.generators import gen_uniform
from intervalstream.oracle import (SegTree, active_segments, alpha,
                                   beta, beta_hat, brute_force_alpha, gamma,
                                   gamma_all, relevance_threshold,
                                   relevant_segments, relevant_sum)

from intervalstream.selector import PartitionSelector

from conftest import all_intervals, random_instance

TOP = 2 ** 62 - 1  # the largest n


def test_alpha_examples():
    assert alpha(Instance(1, ())) == 0
    assert alpha(Instance(3, (Interval(1, 3),))) == 1
    inst = Instance(9, (Interval(1, 3), Interval(2, 5), Interval(4, 7), Interval(6, 9)))
    assert alpha(inst) == 2
    assert brute_force_alpha(inst) == 2


def test_brute_force_examples():
    assert brute_force_alpha(Instance(1, (Interval(1, 1), Interval(1, 1)))) == 1
    assert brute_force_alpha(
        Instance(8, (Interval(1, 2), Interval(4, 5), Interval(7, 8)))) == 3
    with pytest.raises(ValueError):
        brute_force_alpha(Instance(30, tuple(Interval(1, 1) for _ in range(25))))


@pytest.mark.parametrize("seed", range(30))
def test_alpha_matches_brute_force(seed):
    inst = random_instance(24, 10, 8, seed, open_fraction=0.3)
    assert alpha(inst) == brute_force_alpha(inst)


def earliest_finish(inst):
    """Reference for alpha: the earliest-finish greedy one pair at a time,
    in ascending rcode order."""
    count, last_rcode = 0, -1
    order = np.argsort(inst.rcodes)
    for lcode, rcode in zip(inst.lcodes[order].tolist(), inst.rcodes[order].tolist()):
        if lcode > last_rcode:
            count += 1
            last_rcode = rcode
    return count


# alpha hops from pick to pick by successor positions found a block of
# sorted positions at a time; blocks of 1 to 64 put many hops across blocks
@pytest.mark.parametrize("block", [1, 2, 3, 64])
@pytest.mark.parametrize("seed", range(6))
def test_alpha_matches_earliest_finish_across_blocks(block, seed, monkeypatch):
    monkeypatch.setattr(oracle, "_ALPHA_BLOCK", block)
    # a small universe: many rcode ties, and open ends give codes of both parities
    inst = random_instance(64, 400, 12 * (seed % 3 + 1), seed, open_fraction=0.5)
    assert len(set(inst.rcodes.tolist())) < len(inst) // 2
    assert alpha(inst) == earliest_finish(inst)
    inst = gen_uniform(1 << 12, 500, 1 << (seed + 4), seed)  # long intervals skip blocks
    assert alpha(inst) == earliest_finish(inst)


def test_alpha_rcode_ties_and_open_codes():
    # closed and open ends at the same points, and many pairs sharing an rcode
    tied = ([Interval(k, 6) for k in range(1, 7)] + [Interval(k, 6, True, True) for k in range(1, 6)]
            + [Interval(6, 8, True), Interval(7, 7), Interval(8, 12)])
    inst = Instance(12, tied)
    assert alpha(inst) == earliest_finish(inst) == brute_force_alpha(inst) == 4
    inst = Instance(4, [Interval(1, 2, False, True), Interval(2, 3, True, True), Interval(3, 4, True)])
    assert alpha(inst) == earliest_finish(inst) == 3


@pytest.mark.parametrize("block", [5, 8192])
@pytest.mark.parametrize("offset", [TOP - 2 ** 41, 0])
def test_alpha_at_the_top_of_the_range(offset, block, monkeypatch):
    monkeypatch.setattr(oracle, "_ALPHA_BLOCK", block)
    inst = spread_instance(TOP, 300, 5, offset=offset)
    assert int(inst.rcodes.max()) == 2 * TOP
    assert alpha(inst) == earliest_finish(inst)


def test_alpha_of_the_empty_instance():
    for n in (1, TOP):
        assert alpha(Instance(n, ())) == 0


def test_segtree_shape():
    for n in (1, 2, 10, 16, 100):
        tree = SegTree(n)
        n_pow2 = tree.n_pow2
        assert n_pow2 >= n and n_pow2 & (n_pow2 - 1) == 0 and n_pow2 < 2 * n
        assert 1 << tree.depth_levels == n_pow2
        assert tree.root == 1 and tree.span(tree.root) == (1, n_pow2 + 1)
        assert list(tree.segments()) == list(range(1, 2 * n_pow2))
        for v in tree.segments():
            lo, hi = tree.span(v)
            size = hi - lo
            assert size << (v.bit_length() - 1) == n_pow2
            if size > 1:
                # the children split the parent's span at its midpoint
                assert tree.span(2 * v) == (lo, lo + size // 2)
                assert tree.span(2 * v + 1) == (lo + size // 2, hi)
        # the leaves are n_pow2 .. 2*n_pow2 - 1, left to right
        assert [tree.span(v) for v in range(n_pow2, 2 * n_pow2)] == \
            [(x, x + 1) for x in range(1, n_pow2 + 1)]


def test_minimal_container_matches_brute_force():
    tree = SegTree(16)
    for iv in all_intervals(16):
        holders = [v for v in tree.segments() if tree.contains(v, iv)]
        # the containing nodes form a root path; the deepest has the largest index
        assert tree.containing_path(iv) == holders
        assert tree.minimal_container(iv) == max(holders)
    with pytest.raises(ValueError):
        tree.minimal_container(Interval(9, 17))


def test_beta_examples():
    tree = SegTree(4)
    inst = Instance(4, (Interval(1, 2), Interval(2, 3)))
    assert tree.span(2) == (1, 3) and tree.span(3) == (3, 5)
    assert beta(inst, 2) == 1
    assert beta(inst, 3) == 0
    assert beta(inst, tree.root) == alpha(inst)


def test_gamma_enumeration_example():
    inst = Instance(4, (Interval(1, 2),))
    tree = SegTree(4)
    assert gamma(inst, tree.root, tree) == 2
    assert tree.span(4) == (1, 2)
    assert gamma(inst, 2, tree) == 1
    assert gamma(inst, 4, tree) == 0
    empty = Instance(4, ())
    assert all(gamma(empty, s, tree) == 0 for s in tree.segments())


@pytest.mark.parametrize("seed", range(10))
def test_gamma_all_matches_direct(seed):
    inst = random_instance(16, 12, 6, seed, open_fraction=0.2)
    tree = SegTree(16)
    gammas = gamma_all(inst, tree)
    for seg in tree.segments():
        assert gammas[seg] == gamma(inst, seg, tree)


def walk_gammas(inst, tree):
    """Reference for gamma_all: the per-pair walk up from each minimal
    container to the first node already held, then one bottom-up sum."""
    closure = set()
    for pair in inst.codes():
        v = tree.minimal_container(pair)
        while v and v not in closure:
            closure.add(v)
            v >>= 1
    gammas = Counter()
    for v in sorted(closure, reverse=True):
        gammas[v] += 1
        if v > 1:
            gammas[v >> 1] += gammas[v]
    return gammas


def spread_instance(n, count, seed, offset=0):
    """Intervals of every scale inside [offset + 1, n], a quarter of the
    ends open, plus the whole range; so some pairs of leaves differ in
    every bit."""
    rng = random.Random(seed)
    span = n - offset
    ivs = [Interval(offset + 1, n)]
    for _ in range(count):
        length = rng.randrange(span) >> rng.randrange(span.bit_length())
        left = offset + 1 + rng.randrange(span - length)
        lo, ro = (length > 0 and rng.random() < 0.25 for _ in range(2))
        ivs.append(Interval(left, left + length, lo, ro))
    return Instance(n, ivs)


# (label, instance): small universes against brute force too; columns whose
# leaf xors pass 2**53, so a float bit length rounds up; small codes under
# the largest tree; codes up to 2 * TOP, and small pairs mixed with pairs
# across its root's midpoint
GAMMA_EDGES = [
    *((f"n{n}-s{seed}", spread_instance(n, 12, seed)) for n in (2, 3, 16, 100) for seed in range(3)),
    ("n1", Instance(1, [Interval(1, 1)] * 3)),
    ("empty", Instance(16, ())),
    ("all-intervals-8", Instance(8, all_intervals(8))),
    *((f"int64-2^{e}", spread_instance(2 ** e, 60, e)) for e in (54, 58, 61)),
    ("int64-midpoint", Instance(2 ** 54, [Interval(2 ** 53 - 3, 2 ** 53 + 2),
                                         Interval(2 ** 53 - 1, 2 ** 53, True, True)])),
    ("small-under-top", Instance(TOP, [Interval(1, 5), Interval(3, 3), Interval(2, 9)])),
    ("top-2^40", spread_instance(TOP, 40, 1, offset=TOP - 2 ** 40)),
    ("top-half", spread_instance(TOP, 60, 2, offset=2 ** 61)),
    ("top-all", spread_instance(TOP, 60, 3)),
    ("mixed", Instance(TOP, [Interval(2 ** 61 - 5, 2 ** 61 + 7), Interval(1, 4),
                             Interval(2 ** 61 - 9, 2 ** 61 - 8, False, True)])),
]


@pytest.mark.parametrize("inst", [inst for _, inst in GAMMA_EDGES],
                         ids=[label for label, _ in GAMMA_EDGES])
def test_gamma_all_matches_the_walk_at_dtype_edges(inst):
    tree = SegTree(inst.n)
    nodes = tree.minimal_container((inst.lcodes, inst.rcodes))
    assert nodes.tolist() == [tree.minimal_container(pair) for pair in inst.codes()]
    ref = walk_gammas(inst, tree)
    gammas = gamma_all(inst, tree)
    assert gammas == ref and list(gammas) == sorted(ref)
    assert active_segments(inst, tree) == {tree.root} | {
        c for u in ref if u < tree.n_pow2 for c in (2 * u, 2 * u + 1)}
    if tree.n_pow2 <= 128:
        assert all(gammas[v] == gamma(inst, v, tree) for v in tree.segments())


def test_gamma_edges_reach_the_top_of_the_range():
    edges = dict(GAMMA_EDGES)
    assert all(inst.lcodes.dtype == inst.rcodes.dtype == np.int64 for inst in edges.values())
    for label in ("top-2^40", "top-half", "top-all"):
        assert int(edges[label].rcodes.max()) == 2 * TOP
    assert SegTree(TOP).n_pow2 == 2 ** 62
    # the whole range [1, n] at n = 2**54: the leaves' xor is 2**54 - 1,
    # whose float is 2**54
    assert float(2 ** 54 - 1) == 2 ** 54


def test_gamma_all_is_sparse():
    # only nodes that contain an interval are stored: the ancestors of the
    # m minimal containers, at most m * (L + 1) of 2 * 2**20 - 1 nodes
    n, m = 1 << 20, 300
    inst = random_instance(n, m, 64, seed=4, open_fraction=0.2)
    tree = SegTree(n)
    gammas = gamma_all(inst, tree)
    assert len(gammas) <= m * (tree.depth_levels + 1)
    assert gammas[tree.root] == len(gammas)
    assert all(gammas[tree.minimal_container(iv)] >= 1 for iv in inst)
    active = active_segments(inst, tree)
    assert len(active) <= 1 + 2 * len(gammas)
    assert all(gammas[v >> 1] >= 1 for v in active if v != tree.root)


@pytest.mark.parametrize("seed", range(10))
def test_gamma_bounds(seed):
    inst = random_instance(32, 20, 10, seed, open_fraction=0.2)
    tree = SegTree(32)
    gammas = gamma_all(inst, tree)
    levels = tree.depth_levels
    for seg in tree.segments():
        b = beta(inst, seg)
        assert b <= gammas[seg] <= max(b * levels, b)
        if seg != tree.root:
            assert gammas[seg] <= gammas[seg >> 1]


def test_active_segments_definition():
    inst = random_instance(16, 8, 5, seed=3)
    tree = SegTree(16)
    active = active_segments(inst, tree)
    assert tree.root in active
    for seg in tree.segments():
        if seg == tree.root:
            continue
        parent_holds = any(tree.contains(seg >> 1, iv) for iv in inst)
        assert (seg in active) == parent_holds


def test_relevant_segments_fallback():
    tree = SegTree(16)
    assert relevant_segments(Instance(16, ()), 0.25) == {tree.root}
    tiny = Instance(16, (Interval(2, 3),))
    assert relevant_segments(tiny, 0.25) == {tree.root}
    with pytest.raises(ValueError):
        relevant_segments(tiny, 0.5)


def _dense_instance(n: int) -> Instance:
    return Instance(n, tuple(Interval(i, i) for i in range(1, n + 1)))


def test_relevant_segments_nonfallback():
    # every segment holds an interval, so gamma(root) = 2n-1 beats the threshold
    n = 256
    inst = _dense_instance(n)
    tree = SegTree(n)
    eps = 0.45
    threshold = relevance_threshold(n, eps)
    gammas = gamma_all(inst, tree)
    assert gammas[tree.root] >= threshold
    rel = relevant_segments(inst, eps, tree)
    assert rel != {tree.root}
    for seg in rel:
        assert gammas[seg >> 1] >= threshold
        assert 1 <= gammas[seg] < threshold


def test_relevant_disjoint_cover():
    # every elementary segment has exactly one ancestor in rel + gamma-0 set
    n = 256
    inst = _dense_instance(n)
    tree = SegTree(n)
    eps = 0.45
    gammas = gamma_all(inst, tree)
    threshold = relevance_threshold(n, eps)
    rel = relevant_segments(inst, eps, tree)
    zero = {s for s in tree.segments()
            if s != tree.root and gammas[s] == 0
            and gammas[s >> 1] >= threshold}
    cover = rel | zero
    for leaf in range(tree.n_pow2, 2 * tree.n_pow2):
        (leaf_lo, leaf_hi) = tree.span(leaf)
        owners = [s for s in cover
                  if tree.span(s)[0] <= leaf_lo and leaf_hi <= tree.span(s)[1]]
        assert len(owners) == 1, (tree.span(leaf), [tree.span(s) for s in owners])


def test_relevant_sum_trivia():
    assert relevant_sum(Instance(8, ()), 0.25) == 0
    assert relevant_sum(Instance(8, (Interval(2, 5),)), 0.25) == 1


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.45])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relevant_sum_bracket(eps, seed):
    inst = random_instance(512, 200, 24, seed, open_fraction=0.1)
    a = alpha(inst)
    s = relevant_sum(inst, eps)
    assert (0.5 - eps) * a <= s <= a


def test_relevant_sum_bracket_dense_nonfallback():
    inst = _dense_instance(512)
    for eps in (0.1, 0.25, 0.45):
        a = alpha(inst)
        s = relevant_sum(inst, eps)
        assert (0.5 - eps) * a <= s <= a


def test_beta_hat_is_two_approx():
    inst = random_instance(64, 60, 16, seed=9)
    tree = SegTree(64)
    assert tree.span(2) == (1, 33) and tree.span(3) == (33, 65)
    for seg in [tree.root, 2, 3]:
        exact = beta(inst, seg)
        approx = beta_hat(inst, seg)
        assert approx <= exact <= 2 * approx or exact == approx == 0


def contained_by_pair(inst, tree, v):
    return [iv for iv in inst if tree.contains(v, iv)]


@pytest.mark.parametrize("seed", range(6))
def test_contains_on_columns_matches_pairs(seed):
    inst = random_instance(16, 30, 8, seed, open_fraction=0.3)
    tree = SegTree(16)
    for v in tree.segments():
        mask = tree.contains(v, (inst.lcodes, inst.rcodes))
        assert mask.dtype == bool
        assert mask.tolist() == [tree.contains(v, iv) for iv in inst]
    # node bounds past int64 (the root's ends at 2 * 2**62 + 1), against
    # small codes and codes up to 2 * TOP
    shift = TOP - 16
    wide = Instance(TOP, inst)
    top = Instance(TOP, [Interval(shift + iv.left, shift + iv.right, iv.left_open, iv.right_open)
                         for iv in inst])
    tree = SegTree(TOP)
    for big in (wide, top):
        for v in (tree.root, 2, 3, *tree.containing_path(next(iter(big)))):
            mask = tree.contains(v, (big.lcodes, big.rcodes))
            assert mask.tolist() == [tree.contains(v, iv) for iv in big]


@pytest.mark.parametrize("seed", range(6))
def test_beta_and_beta_hat_match_per_pair_references(seed):
    inst = random_instance(16, 14, 6, seed, open_fraction=0.3)
    tree = SegTree(16)
    for v in tree.segments():
        contained = contained_by_pair(inst, tree, v)
        assert beta(inst, v) == brute_force_alpha(Instance(inst.n, contained))
        sel = PartitionSelector()
        for iv in contained:
            sel.process(iv)
        assert beta_hat(inst, v) == sel.window_count


small_interval = st.builds(
    lambda l, length: Interval(l, min(l + length, 12)),
    st.integers(1, 12), st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(st.lists(small_interval, max_size=12))
def test_alpha_brute_property(ivs):
    inst = Instance(12, tuple(ivs))
    assert alpha(inst) == brute_force_alpha(inst)
