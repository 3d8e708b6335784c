"""``feed`` over code columns against per-item ``process``: for the grid
selector, the same-length estimator (exact and KMV counters) and the
lambda 0 route, feeding any prefix of a stream leaves the state that
processing it one Interval at a time leaves.  The chunk constants are
patched so that short streams cross chunk boundaries and take both the
vectorised and the per-item pass of a chunk."""

import pytest

from intervalstream import selector_samelen
from intervalstream.core import DomainError, Interval, code_columns
from intervalstream.estimator_samelen import DistinctPoints, SamelenAlphaEstimator, SamelenConfig
from intervalstream.rng import SplitMix64
from intervalstream.selector_samelen import ShiftedGridSelector

WIDE = 1 << 62  # endpoints from here have codes past int64: object columns


def samelen_stream(seed, lam, lo, hi, count, openness=True):
    """Length-lam intervals with lefts in [lo, hi - lam], mixed openness."""
    rng = SplitMix64(seed)
    return [Interval(left, left + lam, openness and rng.below(2) == 1,
                     openness and rng.below(2) == 1)
            for left in (rng.randrange(lo, hi - lam) for _ in range(count))]


def point_stream(seed, lo, hi, count):
    rng = SplitMix64(seed)
    return [Interval(x, x) for x in (rng.randrange(lo, hi) for _ in range(count))]


@pytest.fixture(params=[(2, 0), (5, 3), (1 << 17, 64)],
                ids=["chunk2-bulk", "chunk5-mixed", "default"])
def chunking(request, monkeypatch):
    chunk, min_bulk = request.param
    monkeypatch.setattr(selector_samelen, "_CHUNK", chunk)
    monkeypatch.setattr(selector_samelen, "_MIN_BULK", min_bulk)
    return request.param


def selector_state(sel):
    return sel.shifts, sel.items, sel.window_count, sel.peak_windows, sel.solution()


def counter_state(counter):
    if hasattr(counter, "seen"):
        return sorted(counter.seen), counter.estimate(), counter.units
    return counter.pairs(), sorted(counter.members), counter.estimate(), counter.units


def estimator_state(est):
    grids = [(counter_state(st.counter), st.sample.pairs(), sorted(st.sample.members),
              st.extremes) for st in est.states]
    return grids, est.items, est.estimate()


def prefixes(stream):
    lcodes, rcodes = code_columns(stream)
    for t in range(len(stream) + 1):
        yield stream[:t], lcodes[:t], rcodes[:t]


@pytest.mark.parametrize("lo", [1, WIDE], ids=["int64", "object"])
def test_selector_feed_equals_process(chunking, lo):
    lam = 3
    stream = samelen_stream(17, lam, lo, lo + 60, 40)
    assert (code_columns(stream)[0].dtype == object) == (lo == WIDE)
    frozen = False
    for head, lcodes, rcodes in prefixes(stream):
        by_item, by_feed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
        for iv in head:
            by_item.process(iv)
        by_feed.feed(lcodes, rcodes)
        assert selector_state(by_feed) == selector_state(by_item), len(head)
        frozen |= any(ext[1][0] > ext[0][1] for grid in by_feed.shifts for ext in grid.values())
    assert frozen


def test_selector_feed_after_process_and_process_after_feed(chunking):
    # the frozen windows that process leaves are skipped by a later feed,
    # and process after feed reads the records feed left
    lam = 2
    stream = samelen_stream(23, lam, 1, 50, 60)
    lcodes, rcodes = code_columns(stream)
    by_item, mixed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
    for iv in stream:
        by_item.process(iv)
    for iv in stream[:20]:
        mixed.process(iv)
    mixed.feed(lcodes[20:45], rcodes[20:45])
    for iv in stream[45:]:
        mixed.process(iv)
    assert selector_state(mixed) == selector_state(by_item)


@pytest.mark.parametrize("counter", ["exact", "kmv"])
@pytest.mark.parametrize("k", [None, 3], ids=["full-k", "k3"])
@pytest.mark.parametrize("lo", [1, WIDE], ids=["int64", "object"])
def test_estimator_feed_equals_process(chunking, monkeypatch, counter, k, lo):
    # k = 3 makes every sample and sketch evict; at lo = 2**62 the length
    # 2**40 keeps the window universe, and so the field prime, small
    if k is not None:
        monkeypatch.setattr(SamelenConfig, "k", property(lambda self: k))
        monkeypatch.setattr(SamelenConfig, "kmv_k", property(lambda self: k))
    lam = 3 if lo == 1 else 1 << 40
    span = 60 * lam
    stream = samelen_stream(29, lam, lo, lo + span, 40)
    cfg = SamelenConfig(n=lo + span, lam=lam, user_eps=0.3, seed=5, counter_kind=counter)
    for head, lcodes, rcodes in prefixes(stream):
        by_item, by_feed = SamelenAlphaEstimator(cfg), SamelenAlphaEstimator(cfg)
        for iv in head:
            by_item.process(iv)
        by_feed.feed(lcodes, rcodes)
        assert estimator_state(by_feed) == estimator_state(by_item), len(head)
        # one keys call per chunk hashes each new window once; under KMV a
        # per-item repeat of a rejected id is hashed again
        if counter == "exact":
            assert by_feed.columns_hashed == by_item.columns_hashed
        else:
            assert by_feed.columns_hashed <= by_item.columns_hashed


@pytest.mark.parametrize("counter,lo,wide", [("exact", 1, False), ("kmv", 1, False),
                                             ("exact", WIDE, True), ("kmv", 1, True)],
                         ids=["exact-int64", "kmv-int64", "exact-object", "kmv-object"])
def test_distinct_points_feed_equals_process(chunking, counter, lo, wide):
    # n >= 2**62 puts the KMV field prime past 2**64, where no sketch can be
    # drawn, so KMV reads object columns of small points
    stream = point_stream(31, lo, lo + 30, 50)
    n = lo + 30
    for head, lcodes, rcodes in prefixes(stream):
        if wide:
            lcodes, rcodes = lcodes.astype(object), rcodes.astype(object)
        by_item, by_feed = DistinctPoints(n, 0.3, 7, counter), DistinctPoints(n, 0.3, 7, counter)
        if counter == "kmv":
            by_item.counter.k = by_feed.counter.k = 4
        for iv in head:
            by_item.process(iv)
        by_feed.feed(lcodes, rcodes)
        assert counter_state(by_feed.counter) == counter_state(by_item.counter), len(head)
        assert by_feed.estimate() == by_item.estimate()


def refusals(make, stream):
    """(type, message) of the error that per-item process and that feed
    raise on the stream."""
    out = []
    for run in ("process", "feed"):
        component = make()
        with pytest.raises(ValueError) as info:
            if run == "process":
                for iv in stream:
                    component.process(iv)
            else:
                component.feed(*code_columns(stream))
        out.append((type(info.value), str(info.value)))
    return out


@pytest.mark.parametrize("range_first", [False, True], ids=["length-first", "range-first"])
@pytest.mark.parametrize("bad_at", [0, 7, 13])
def test_feed_refuses_the_first_interval_process_refuses(chunking, bad_at, range_first):
    # feed names the interval, and the message, that process names first;
    # the selector checks lengths only, the estimator also [1, n]
    lam, n = 3, 60
    stream = samelen_stream(37, lam, 1, n, 15)
    short, outside = Interval(5, 7), Interval(n - 1, n + 2)
    stream[bad_at], stream[bad_at + 1] = (outside, short) if range_first else (short, outside)
    length_error = (ValueError, "interval [5,7] has length 2, expected 3")
    range_error = (DomainError, f"interval [{n - 1},{n + 2}] outside [1, {n}]")
    cfg = SamelenConfig(n=n, lam=lam, user_eps=0.3, seed=1)
    assert refusals(lambda: ShiftedGridSelector(lam), stream) == [length_error] * 2
    assert refusals(lambda: SamelenAlphaEstimator(cfg), stream) == \
        [range_error if range_first else length_error] * 2
    points = point_stream(41, 1, 30, 15)
    points[bad_at] = Interval(4, 5, True, True)  # codes 9, 9: an open unit interval
    assert refusals(lambda: DistinctPoints(30, 0.3, 1), points) == \
        [(DomainError, "lambda 0 requires zero-length intervals, got (4,5)")] * 2


@pytest.mark.parametrize("lam", [1 << 59, 1 << 60, 1 << 61])
def test_window_ends_past_int64_read_as_python_ints(chunking, lam):
    # int64 code columns whose window ends pass 2**63: the column answer of
    # grid_window is the per-pair one, and so feed's state is process's
    stream = [Interval(left, left + lam, lo, ro)
              for left in (1, 5, lam - 3, lam + 7, 3 * lam // 2, (1 << 62) - 1 - lam)
              for lo in (False, True) for ro in (False, True)]
    lcodes, rcodes = code_columns(stream)
    assert lcodes.dtype != object
    for a in (0, 1, 2):
        j, fits = selector_samelen.grid_window(lam, a, (lcodes, rcodes))
        assert [int(w) if f else None for w, f in zip(j, fits)] == \
            [selector_samelen.grid_window(lam, a, iv) for iv in stream]
    by_item, by_feed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
    for iv in stream:
        by_item.process(iv)
    by_feed.feed(lcodes, rcodes)
    assert selector_state(by_feed) == selector_state(by_item)
