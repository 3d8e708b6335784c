import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from intervalstream import selector
from intervalstream.core import Instance, Interval, intersects
from intervalstream.generators import gen_uniform
from intervalstream.oracle import alpha, brute_force_alpha
from intervalstream.selector import PartitionSelector, WindowState

from conftest import random_instance, validate_partition


def run(stream):
    sel = PartitionSelector()
    for iv in stream:
        sel.process(iv)
    return sel


def test_empty_state():
    sel = PartitionSelector()
    assert sel.solution() == []
    assert sel.window_count == 0


def test_first_interval_initializes_whole_line():
    sel = run([Interval(1, 3)])
    assert sel.window_count == 1
    w = sel.windows()[0]
    assert w.lo_code == -math.inf and w.hi_code == math.inf
    assert w.leftmost == w.rightmost == w.chosen == Interval(1, 3)


def test_three_interval_trace():
    sel = run([Interval(1, 10), Interval(2, 3), Interval(5, 6)])
    windows = sel.windows()
    assert [str(w.window) for w in windows] == ["(-inf,3]", "(3,+inf)"]
    assert set(sel.solution()) == {Interval(2, 3), Interval(5, 6)}


def test_witness_update_keeps_chosen():
    sel = run([Interval(1, 10), Interval(2, 3)])
    assert sel.window_count == 1
    w = sel.windows()[0]
    assert w.leftmost == w.rightmost == Interval(2, 3)
    assert w.chosen == Interval(1, 10)


def test_boundary_spanning_interval_ignored():
    sel = run([Interval(1, 10), Interval(2, 3), Interval(5, 6)])
    before = [(w.lo_code, w.hi_code, w.leftmost, w.rightmost, w.chosen)
              for w in sel.windows()]
    sel.process(Interval(3, 5))  # spans the boundary at 3
    after = [(w.lo_code, w.hi_code, w.leftmost, w.rightmost, w.chosen)
             for w in sel.windows()]
    assert before == after


def test_duplicate_of_witness_is_noop():
    sel = run([Interval(2, 5), Interval(2, 5)])
    w = sel.windows()[0]
    assert w.leftmost == w.rightmost == w.chosen == Interval(2, 5)
    assert sel.window_count == 1


def test_single_search_per_item():
    stream = [Interval(i, i + 2) for i in range(1, 50, 3)]
    sel = run(stream)
    assert sel.searches <= sel.items == len(stream)


@pytest.mark.parametrize("seed", range(20))
def test_partition_invariants_random(seed):
    inst = random_instance(64, 40, 16, seed, open_fraction=0.25)
    sel = run(inst.intervals)
    validate_partition(sel, list(inst.intervals), inst.n)


@pytest.mark.parametrize("seed", range(20))
def test_partition_invariants_every_prefix(seed):
    inst = random_instance(32, 18, 10, seed, open_fraction=0.25)
    sel = PartitionSelector()
    prefix = []
    for iv in inst.intervals:
        sel.process(iv)
        prefix.append(iv)
        validate_partition(sel, prefix, inst.n)


@pytest.mark.parametrize("seed", range(25))
def test_two_approx_ratio_and_space(seed):
    inst = random_instance(512, 500, 40, seed, open_fraction=0.1)
    sel = run(inst.intervals)
    a = alpha(inst)
    size = sel.window_count
    assert size > a / 2.0
    assert a <= 2 * size - 1
    assert size <= a
    assert sel.peak_windows <= a
    solution = sel.solution()
    stream_set = set(inst.intervals)
    assert all(iv in stream_set for iv in solution)
    for i, x in enumerate(solution):
        for y in solution[i + 1:]:
            assert not intersects(x, y)


def test_window_count_bounded_by_prefix_alpha():
    inst = random_instance(64, 30, 20, seed=4, open_fraction=0.2)
    sel = PartitionSelector()
    prefix = []
    for iv in inst.intervals:
        sel.process(iv)
        prefix.append(iv)
        assert sel.window_count <= alpha(Instance(inst.n, tuple(prefix)))


def test_zero_length_handling():
    sel = run([Interval(5, 5), Interval(5, 9), Interval(7, 9)])
    assert sel.window_count == 2
    validate_partition(sel, [Interval(5, 5), Interval(5, 9), Interval(7, 9)], 9)


small_interval = st.builds(
    lambda l, length, lo, ro: Interval(l, l + length,
                                       lo if length else False,
                                       ro if length else False),
    st.integers(1, 10), st.integers(0, 6), st.booleans(), st.booleans())


@settings(max_examples=120, deadline=None)
@given(st.lists(small_interval, max_size=14))
def test_selector_property(stream):
    sel = run(stream)
    validate_partition(sel, stream, 16)
    inst = Instance(16, tuple(stream))
    a = brute_force_alpha(inst)
    if stream:
        assert sel.window_count > a / 2.0
        assert sel.peak_windows <= a


def inside(a, b):
    return b.lcode <= a.lcode and a.rcode <= b.rcode


class FlatListSelector:
    """Reference: the same selector over one flat sorted list of windows,
    split by slice assignment."""

    def __init__(self):
        self.keys, self.wins = [], []
        self.items = self.searches = self.peak_windows = 0

    def windows(self):
        return list(self.wins)

    def solution(self):
        return [w.chosen for w in self.wins]

    def process(self, iv):
        self.items += 1
        if not self.wins:
            self.wins, self.keys = [WindowState(-math.inf, math.inf, iv, iv, iv)], [-math.inf]
            self.peak_windows = 1
            return
        self.searches += 1
        idx = bisect_right(self.keys, iv.lcode) - 1
        w = self.wins[idx]
        if iv.rcode > w.hi_code:
            return
        ell, r = w.rightmost.lcode, w.leftmost.rcode
        if max(ell, iv.lcode) <= min(r, iv.rcode):
            if ell < iv.lcode or (ell == iv.lcode and inside(iv, w.rightmost)):
                w.rightmost = iv
            if iv.rcode < r or (iv.rcode == r and inside(iv, w.leftmost)):
                w.leftmost = iv
            return
        if iv.lcode > r:
            c = w.leftmost
            w1, w2 = WindowState(w.lo_code, r, c, c, c), WindowState(r + 1, w.hi_code, iv, iv, iv)
        else:
            c = w.rightmost
            w1, w2 = WindowState(w.lo_code, ell - 1, iv, iv, iv), WindowState(ell, w.hi_code, c, c, c)
        self.wins[idx:idx + 1] = [w1, w2]
        self.keys[idx:idx + 1] = [w1.lo_code, w2.lo_code]
        self.peak_windows = max(self.peak_windows, len(self.wins))


def assert_same_state(sel, ref):
    assert sel.windows() == ref.windows()
    assert sel.solution() == ref.solution()
    assert (sel.items, sel.searches, sel.peak_windows) == (ref.items, ref.searches, ref.peak_windows)
    assert sel.window_count == len(ref.wins)


def assert_blocks_bounded(sel):
    """Every block holds fewer than 2 * _LOAD windows, and at least _LOAD
    once there is more than one block: so a split moves O(_LOAD + blocks)
    entries whatever the window count."""
    sizes = [len(block[0]) for block in sel._blocks]
    assert all(len(column) == size for block, size in zip(sel._blocks, sizes)
               for column in block)
    assert max(sizes) < 2 * selector._LOAD
    if len(sizes) > 1:
        assert min(sizes) >= selector._LOAD
    assert sum(sizes) == sel.window_count


STREAMS = ([("random", seed) for seed in range(6)] + [("dense", seed) for seed in range(6)])


def stream_of(kind, seed, count):
    if kind == "dense":  # max-len 1, so almost every interval opens a window
        return gen_uniform(4 * count, count, 1, seed).intervals
    return random_instance(512, count, 40, seed, open_fraction=0.25).intervals


@pytest.mark.parametrize("kind,seed", STREAMS)
def test_blocked_list_matches_flat_list_every_prefix(kind, seed, monkeypatch):
    monkeypatch.setattr(selector, "_LOAD", 3)  # many blocks, many halvings
    sel, ref = PartitionSelector(), FlatListSelector()
    for iv in stream_of(kind, seed, 300):
        sel.process(iv)
        ref.process(iv)
        assert_same_state(sel, ref)
        assert_blocks_bounded(sel)
    assert len(sel._blocks) > 10


@pytest.mark.parametrize("kind,seed", [("random", 1), ("dense", 1), ("dense", 2)])
def test_blocked_list_matches_flat_list_default_load(kind, seed):
    sel, ref = PartitionSelector(), FlatListSelector()
    for iv in stream_of(kind, seed, 6000):
        sel.process(iv)
        ref.process(iv)
    assert_same_state(sel, ref)
    assert_blocks_bounded(sel)
    if kind == "dense":
        assert len(sel._blocks) >= 2
