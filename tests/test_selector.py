import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalstream import selector
from intervalstream.core import Instance, Interval, intersects, pairwise_disjoint
from intervalstream.generators import gen_uniform
from intervalstream.oracle import alpha, brute_force_alpha
from intervalstream.rng import SplitMix64
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
    assert w.leftmost == w.rightmost == Interval(1, 3)
    assert sel.solution() == [Interval(1, 3)]


def test_three_interval_trace():
    sel = run([Interval(1, 10), Interval(2, 3), Interval(5, 6)])
    windows = sel.windows()
    assert [str(w.window) for w in windows] == ["(-inf,3]", "(3,+inf)"]
    assert set(sel.solution()) == {Interval(2, 3), Interval(5, 6)}


def test_witness_update_moves_solution():
    # the solution is the window's leftmost witness, so it follows the update
    sel = run([Interval(1, 10), Interval(2, 3)])
    assert sel.window_count == 1
    w = sel.windows()[0]
    assert w.leftmost == w.rightmost == Interval(2, 3)
    assert sel.solution() == [Interval(2, 3)]


def test_boundary_spanning_interval_ignored():
    sel = run([Interval(1, 10), Interval(2, 3), Interval(5, 6)])
    before = (sel.windows(), sel.solution())
    sel.process(Interval(3, 5))  # spans the boundary at 3
    assert (sel.windows(), sel.solution()) == before


def test_duplicate_of_witness_is_noop():
    sel = run([Interval(2, 5), Interval(2, 5)])
    w = sel.windows()[0]
    assert w.leftmost == w.rightmost == Interval(2, 5)
    assert sel.solution() == [Interval(2, 5)]
    assert sel.window_count == 1


def test_single_search_per_item(monkeypatch):
    # after the first item, each item costs one search: one bisect over the
    # block starts and one inside the block
    searches = []

    def counted_bisect(keys, key):
        searches.append(key)
        return bisect_right(keys, key)

    monkeypatch.setattr(selector, "bisect_right", counted_bisect)
    stream = [Interval(i, i + 2) for i in range(1, 50, 3)]
    sel = run(stream)
    assert sel.items == len(stream)
    assert searches == [iv.lcode for iv in stream[1:] for _ in range(2)]


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
        self.items = self.peak_windows = 0

    @property
    def window_count(self):
        return len(self.wins)

    def windows(self):
        return list(self.wins)

    def solution(self):
        return [w.leftmost for w in self.wins]

    def process(self, iv):
        self.items += 1
        if not self.wins:
            self.wins, self.keys = [WindowState(-math.inf, math.inf, iv, iv)], [-math.inf]
            self.peak_windows = 1
            return
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
            w1, w2 = WindowState(w.lo_code, r, c, c), WindowState(r + 1, w.hi_code, iv, iv)
        else:
            c = w.rightmost
            w1, w2 = WindowState(w.lo_code, ell - 1, iv, iv), WindowState(ell, w.hi_code, c, c)
        self.wins[idx:idx + 1] = [w1, w2]
        self.keys[idx:idx + 1] = [w1.lo_code, w2.lo_code]
        self.peak_windows = max(self.peak_windows, len(self.wins))


def assert_same_state(sel, ref):
    assert sel.windows() == ref.windows()
    assert sel.solution() == ref.solution()
    assert (sel.items, sel.peak_windows) == (ref.items, ref.peak_windows)
    assert sel.window_count == ref.window_count


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


# ---- feed: code columns in chunks against per-pair process ---------------

def feed_instance(kind, seed, count):
    if kind == "dense":
        return gen_uniform(4 * count, count, 1, seed)
    if kind == "open":  # most ends open, so codes of both parities
        return random_instance(512, count, 40, seed, open_fraction=0.9)
    inst = random_instance(512, count, 40, seed, open_fraction=0.25)
    if kind == "random":
        return inst
    if kind == "mixed":  # every fifth right end past 2**62: int64 lefts, object rights
        mixed = Instance(2 ** 63, [Interval(iv.left, iv.right + 2 ** 62 * (i % 5 == 0),
                                            iv.left_open, iv.right_open)
                                   for i, iv in enumerate(inst)])
        assert (mixed.lcodes.dtype, mixed.rcodes.dtype) == (np.int64, object)
        return mixed
    # "huge": the same stream shifted past 2**62, so the columns are objects
    shift = 2 ** 62
    huge = Instance(2 ** 63, [Interval(shift + iv.left, shift + iv.right, iv.left_open, iv.right_open)
                              for iv in inst])
    assert huge.lcodes.dtype == huge.rcodes.dtype == object
    return huge


FEED_STREAMS = [(kind, seed) for kind in ("random", "dense", "open", "huge", "mixed")
                for seed in range(3)]


@pytest.mark.parametrize("kind,seed", [(kind, seed) for kind in ("random", "dense", "open")
                                       for seed in range(3)])
def test_window_cores_are_never_empty(kind, seed):
    # process tests a pair against the core [ell, r] = rightmost ∩ leftmost
    # with one compare per side, which is exact only while the core is nonempty
    sel = PartitionSelector()
    for iv in feed_instance(kind, seed, 300):
        sel.process(iv)
        assert all(intersects(w.leftmost, w.rightmost) for w in sel.windows())


class CountingSelector(PartitionSelector):
    """Records the pairs feed() sends to process, and counts the chunks it
    filters against a window-start column."""

    def __init__(self):
        super().__init__()
        self.sent = []
        self.searches = 0

    def process(self, iv):
        self.sent.append(iv)
        super().process(iv)

    def _next_starts(self, wide):
        self.searches += 1
        return super()._next_starts(wide)


# with chunks of one or four pairs a window (the default), every stream
# below is cut into chunks, and some chunk meets a partition of 2+ windows
@pytest.mark.parametrize("min_chunk", [1, 3, 256])
@pytest.mark.parametrize("kind,seed", FEED_STREAMS)
def test_feed_matches_process(kind, seed, min_chunk, monkeypatch):
    monkeypatch.setattr(selector, "_MIN_CHUNK", min_chunk)
    inst = feed_instance(kind, seed, 800)
    ref = PartitionSelector()
    for pair in inst.codes():
        ref.process(pair)
    for per_window in (1, 4):
        monkeypatch.setattr(selector, "_CHUNK_PER_WINDOW", per_window)
        sel = CountingSelector()
        sel.feed(inst.lcodes, inst.rcodes)
        assert_same_state(sel, ref)
        assert sel.searches >= 1


@pytest.mark.parametrize("min_chunk", [1, 3, 256])
@pytest.mark.parametrize("kind,seed", FEED_STREAMS)
def test_several_feeds_match_process(kind, seed, min_chunk, monkeypatch):
    monkeypatch.setattr(selector, "_MIN_CHUNK", min_chunk)
    inst = feed_instance(kind, seed, 800)
    rng = SplitMix64(seed)
    cuts = sorted({0, len(inst), *(rng.below(len(inst) + 1) for _ in range(6))})
    pairs = list(inst.codes())
    for per_window in (1, 4):
        monkeypatch.setattr(selector, "_CHUNK_PER_WINDOW", per_window)
        ref, sel = PartitionSelector(), CountingSelector()
        for a, b in zip(cuts, cuts[1:]):
            for pair in pairs[a:b]:
                ref.process(pair)
            sel.feed(inst.lcodes[a:b], inst.rcodes[a:b])
            assert_same_state(sel, ref)
        assert sel.searches >= 1


def assert_solution_is_leftmost_witnesses(sel):
    windows, solution = sel.windows(), sel.solution()
    assert solution == [w.leftmost for w in windows]
    assert len(solution) == sel.window_count
    for w, (lcode, rcode) in zip(windows, solution):
        assert w.lo_code <= lcode <= rcode <= w.hi_code
    assert all(a_rcode < b_lcode for (_, a_rcode), (b_lcode, _) in zip(solution, solution[1:]))
    assert pairwise_disjoint(solution)


@pytest.mark.parametrize("kind,seed", FEED_STREAMS)
def test_solution_is_the_leftmost_witnesses(kind, seed):
    # after each of several feeds and after every per-item process, the
    # solution is each window's leftmost witness in window order, inside its
    # window, so disjoint; both ways give the same intervals
    inst = feed_instance(kind, seed, 400)
    rng = SplitMix64(seed)
    cuts = sorted({0, len(inst), *(rng.below(len(inst) + 1) for _ in range(6))})
    fed, stepped = PartitionSelector(), PartitionSelector()
    for a, b in zip(cuts, cuts[1:]):
        fed.feed(inst.lcodes[a:b], inst.rcodes[a:b])
        for iv in inst.intervals[a:b]:
            stepped.process(iv)
            assert_solution_is_leftmost_witnesses(stepped)
        assert_solution_is_leftmost_witnesses(fed)
        assert list(map(tuple, fed.solution())) == list(map(tuple, stepped.solution()))


def test_feed_empty_columns():
    sel = PartitionSelector()
    for dtype in (np.int64, object):
        sel.feed(np.array([], dtype=dtype), np.array([], dtype=dtype))
    assert (sel.windows(), sel.solution(), sel.items, sel.peak_windows) == ([], [], 0, 0)
    sel.feed(np.array([2, 8]), np.array([4, 10]))
    before = (sel.windows(), sel.solution(), sel.items, sel.peak_windows)
    sel.feed(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert (sel.windows(), sel.solution(), sel.items, sel.peak_windows) == before


def test_feed_skips_exactly_the_straddling_pairs():
    """A pair whose right code is the next window's start straddles and is
    never sent to process; one ending a code before it is sent."""
    sel = CountingSelector()
    sel.feed(np.array([4, 12]), np.array([4, 12]))  # windows (-inf, 4] and [5, +inf)
    assert [w.lo_code for w in sel.windows()] == [-math.inf, 5]
    sel.sent.clear()
    straddling = [(2, 5), (4, 5), (3, 7)] * 400
    sel.feed(np.array([l for l, _ in straddling]), np.array([r for _, r in straddling]))
    assert sel.sent == []
    assert sel.items == 2 + len(straddling)
    sel.feed(np.array([2, 6]), np.array([4, 6]))
    assert sel.sent == [(2, 4), (6, 6)]


def test_feed_sends_survivors_in_stream_order_among_tied_left_codes():
    """The filter searches the chunk's left codes sorted; the pairs it keeps
    still reach process in stream order, ties in left code included.  The
    pairs make one chunk, filtered against the partition it starts from."""
    sel = CountingSelector()
    sel.feed(np.array([4, 12, 20]), np.array([4, 12, 20]))  # starts 5 and 13
    assert [w.lo_code for w in sel.windows()] == [-math.inf, 5, 13]
    sel.sent.clear()
    rng = SplitMix64(7)
    pairs = [(lcode, lcode + rng.below(12)) for lcode in (rng.below(3) * 6 + 2 for _ in range(240))]
    assert len(pairs) <= selector._MIN_CHUNK
    ref = PartitionSelector()
    for pair in [(4, 4), (12, 12), (20, 20), *pairs]:
        ref.process(pair)
    sel.feed(np.array([l for l, _ in pairs]), np.array([r for _, r in pairs]))
    straddles = [(l, r) for l, r in pairs if (l < 5 <= r) or (l < 13 <= r)]
    assert 0 < len(straddles) < len(pairs)
    assert sel.sent == [pair for pair in pairs if pair not in straddles]
    assert_same_state(sel, ref)


def test_first_feed_sends_every_pair_to_process():
    """An empty selector, or one of a single window, has no boundary to
    straddle, so its chunk goes whole to process."""
    pairs = [(4, 4), (12, 12), (2, 5), (4, 5), (3, 7)] * 40
    sel = CountingSelector()
    sel.feed(np.array([l for l, _ in pairs]), np.array([r for _, r in pairs]))
    assert sel.sent == pairs
    assert sel.items == len(pairs)
    nested = [(100 - i, 100 + i) for i in range(1000)]  # all hold 100: one window
    sel = CountingSelector()
    sel.feed(np.array([l for l, _ in nested]), np.array([r for _, r in nested]))
    assert sel.sent == nested
    assert sel.window_count == 1
