import math

import pytest
from hypothesis import given, settings, strategies as st

from intervalstream.core import Instance, Interval, intersects
from intervalstream.oracle import alpha
from intervalstream.selector_samelen import ShiftedGridSelector, shift_subinstance

from intervalstream.rng import SplitMix64


def run(lam, stream):
    sel = ShiftedGridSelector(lam)
    for iv in stream:
        sel.process(iv)
    return sel


def shift_alpha(stream, shift, lam, n):
    sub = shift_subinstance(stream, shift, lam)
    return alpha(Instance(n, tuple(sub)))


def test_validation():
    with pytest.raises(ValueError):
        ShiftedGridSelector(0)
    sel = ShiftedGridSelector(2)
    with pytest.raises(ValueError):
        sel.process(Interval(1, 4))
    assert ShiftedGridSelector(1).solution() == []


def test_grid_geometry():
    sel = ShiftedGridSelector(1)
    # shift 0 windows [3j, 3j+3); shift 2 windows [2+3j, 5+3j)
    assert sel.window_index(0, Interval(1, 2).lcode) == 0
    assert sel.window_index(2, Interval(4, 5).lcode) == 0
    assert sel.window_index(2, Interval(5, 6).lcode) == 1


def test_every_closed_interval_in_exactly_two_grids():
    rng = SplitMix64(31)
    for _ in range(200):
        lam = rng.randrange(1, 9)
        x = rng.randrange(1, 200)
        iv = Interval(x, x + lam)
        sel = ShiftedGridSelector(lam)
        contained = [a for a in (0, 1, 2) if sel.containing_window(a, iv) is not None]
        assert len(contained) == 2, (lam, x)


def test_trace_example_lambda2():
    stream = [Interval(1, 3), Interval(4, 6), Interval(8, 10)]
    sel = run(2, stream)
    assert set(sel.shift_solution(1)) == {Interval(4, 6), Interval(8, 10)}
    assert set(sel.shift_solution(2)) == {Interval(1, 3), Interval(4, 6)}
    for a in (0, 1, 2):
        assert sel.shift_size(a) == shift_alpha(stream, a, 2, 10)
    assert len(sel.solution()) == 2
    assert alpha(Instance(10, tuple(stream))) == 3


def test_single_interval():
    sel = run(3, [Interval(2, 5)])
    assert sel.solution() == [Interval(2, 5)]
    sizes = [sel.shift_size(a) for a in (0, 1, 2)]
    assert sorted(sizes) == [0, 1, 1] or sorted(sizes) == [1, 1, 1]


def test_duplicates_do_not_grow_solutions():
    stream = [Interval(1, 3), Interval(1, 3), Interval(1, 3)]
    sel = run(2, stream)
    assert all(sel.shift_size(a) <= 1 for a in (0, 1, 2))


def test_pair_found_and_frozen():
    # window [6,12) of grid 0 eventually holds two disjoint intervals
    stream = [Interval(7, 9), Interval(6, 8), Interval(9, 11), Interval(8, 10)]
    sel = run(2, stream)
    win = sel.shifts[0][1]
    assert win.pair_done
    assert set(win.solution()) == {Interval(6, 8), Interval(9, 11)}
    assert sel.shift_size(0) == 2
    assert win.first == Interval(7, 9)  # pre-pair solution entry was the first arrival


def test_three_disjoint_far_apart():
    stream = [Interval(1, 3), Interval(10, 12), Interval(19, 21)]
    sel = run(2, stream)
    assert len(sel.solution()) == 3 == alpha(Instance(21, tuple(stream)))


def _random_samelen(n, count, lam, seed):
    rng = SplitMix64(seed)
    return [Interval(left, left + lam)
            for left in (rng.randrange(1, n - lam) for _ in range(count))]


@pytest.mark.parametrize("seed", range(25))
def test_each_shift_exactly_optimal(seed):
    rng = SplitMix64(seed * 997 + 13)
    lam = rng.randrange(1, 7)
    n = 160
    stream = _random_samelen(n, 60, lam, seed)
    sel = ShiftedGridSelector(lam)
    prefix = []
    for iv in stream:
        sel.process(iv)
        prefix.append(iv)
        for a in (0, 1, 2):
            assert sel.shift_size(a) == shift_alpha(prefix, a, lam, n)


@pytest.mark.parametrize("seed", range(25))
def test_ratio_space_disjointness(seed):
    rng = SplitMix64(seed + 777)
    lam = rng.randrange(1, 9)
    n = 400
    stream = _random_samelen(n, 150, lam, seed)
    sel = run(lam, stream)
    a = alpha(Instance(n, tuple(stream)))
    size = len(sel.solution())
    assert size >= math.ceil(2.0 * a / 3.0)
    assert size <= a
    assert sel.peak_windows <= 3 * a + 3
    solution = sel.solution()
    for i, x in enumerate(solution):
        for y in solution[i + 1:]:
            assert not intersects(x, y)
    stream_set = set(stream)
    assert all(iv in stream_set for iv in solution)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.integers(1, 30), max_size=12))
def test_samelen_property(lam, lefts):
    stream = [Interval(x, x + lam) for x in lefts]
    sel = run(lam, stream)
    n = 40
    for a in (0, 1, 2):
        assert sel.shift_size(a) == shift_alpha(stream, a, lam, n)
    if stream:
        a_all = alpha(Instance(n, tuple(stream)))
        assert len(sel.solution()) >= math.ceil(2.0 * a_all / 3.0)
