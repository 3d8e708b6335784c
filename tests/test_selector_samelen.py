import math

import pytest
from hypothesis import given, settings, strategies as st

from intervalstream.core import Instance, Interval, intersects
from intervalstream.oracle import alpha
from intervalstream.selector_samelen import ShiftedGridSelector, grid_window, holds_pair

from intervalstream.rng import SplitMix64

from conftest import fed_tables, reference_records


def run(lam, stream):
    sel = ShiftedGridSelector(lam)
    for iv in stream:
        sel.process(iv)
    return sel


def shift_alpha(stream, shift, lam, n):
    sub = [iv for iv in stream if grid_window(lam, shift, iv) is not None]
    return alpha(Instance(n, tuple(sub)))


def test_validation():
    with pytest.raises(ValueError):
        ShiftedGridSelector(0)
    sel = ShiftedGridSelector(2)
    with pytest.raises(ValueError):
        sel.process(Interval(1, 4))
    assert ShiftedGridSelector(1).solution() == []


def point(x):
    """The code pair of the closed point [x, x]."""
    lcode = Interval(x, x).lcode
    return lcode, lcode


def test_grid_geometry():
    # shift 0 windows [3j, 3j+3); shift 2 windows [2+3j, 5+3j)
    assert grid_window(1, 0, point(1)) == 0
    assert grid_window(1, 2, point(4)) == 0
    assert grid_window(1, 2, point(5)) == 1


@pytest.mark.parametrize("lam", range(1, 7))
def test_grid_window_matches_window_containment(lam):
    # grid a's window j is the code range [2(a+3j)lam, 2(a+3j+3)lam - 1];
    # lefts from 1 reach the window j = -1 of grids 1 and 2
    for left in range(1, 8 * lam):
        for left_open in (False, True):
            for right_open in (False, True):
                iv = Interval(left, left + lam, left_open, right_open)
                grids = 0
                for a in (0, 1, 2):
                    holding = [j for j in range(-1, 3)
                               if 2 * (a + 3 * j) * lam <= iv.lcode
                               and iv.rcode <= 2 * (a + 3 * j + 3) * lam - 1]
                    assert len(holding) <= 1
                    assert grid_window(lam, a, iv) == (holding[0] if holding else None)
                    grids += bool(holding)
                if left_open or right_open:
                    assert grids in (2, 3), iv
                else:
                    assert grids == 2, iv


def test_every_closed_interval_in_exactly_two_grids():
    rng = SplitMix64(31)
    for _ in range(200):
        lam = rng.randrange(1, 9)
        x = rng.randrange(1, 200)
        iv = Interval(x, x + lam)
        contained = [a for a in (0, 1, 2) if grid_window(lam, a, iv) is not None]
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


def test_pair_found_and_extremes_kept():
    # window [6,12) of grid 0 eventually holds two disjoint intervals
    sel = run(2, [Interval(7, 9), Interval(6, 8)])
    # while only one fits, the solution entry is the leftmost, not the first arrival
    assert sel.tables[0].extremes == {1: (Interval(6, 8), Interval(7, 9))}
    assert sel.shift_solution(0) == [Interval(6, 8)]
    for iv in (Interval(9, 11), Interval(8, 10)):
        sel.process(iv)
    pair = (Interval(6, 8), Interval(9, 11))
    assert sel.tables[0].extremes == {1: pair} and holds_pair(pair)
    assert sel.shift_solution(0) == list(pair)
    # a smaller right end and a larger left end replace the two extremes of
    # a window that already holds a pair; its size stays 2
    for iv in (Interval(6, 8, right_open=True), Interval(9, 11, left_open=True)):
        sel.process(iv)
    pair = (Interval(6, 8, right_open=True), Interval(9, 11, left_open=True))
    assert sel.tables[0].extremes == {1: pair}
    assert sel.shift_solution(0) == list(pair)
    assert sel.shift_size(0) == 2
    # ties on rcode and lcode keep the earlier extremes
    for iv in (Interval(6, 8, True, True), Interval(9, 11, True, True)):
        sel.process(iv)
    assert sel.tables[0].extremes == {1: pair}


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


@pytest.mark.parametrize("seed", range(10))
def test_window_ext_matches_shift_window_stats(seed):
    # the selector's records, under process and in the per-grid window stats
    # (the tables of a selector fed the prefix), are the exact (leftmost,
    # rightmost) of the stream so far, pair-holding windows included; open
    # ends make ties on rcode and lcode
    rng = SplitMix64(seed + 4242)
    lam = rng.randrange(1, 4)
    stream = [Interval(left, left + lam, rng.below(2) == 1, rng.below(2) == 1)
              for left in (rng.randrange(1, 60) for _ in range(50))]
    sel = ShiftedGridSelector(lam)
    first_pairs = {}
    for t, iv in enumerate(stream, start=1):
        sel.process(iv)
        expected = reference_records(stream[:t], lam)
        tables = fed_tables(stream[:t], lam)
        for a in (0, 1, 2):
            assert sel.tables[a].extremes == tables[a].extremes == expected[a]
            for j, ext in expected[a].items():
                if holds_pair(ext):
                    first_pairs.setdefault((a, j), ext)
    records = reference_records(stream, lam)
    # some window's pair moved after it first held one, and some window
    # never held a pair
    assert any(records[a][j] != ext for (a, j), ext in first_pairs.items())
    assert any(not holds_pair(ext) for grid in records for ext in grid.values())


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
