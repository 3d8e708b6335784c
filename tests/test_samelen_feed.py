"""``feed`` over code columns against per-item ``process``: for the grid
selector, the same-length estimator (exact and KMV counters) and the
lambda 0 route, feeding any prefix of a stream leaves the state that
processing it one Interval at a time leaves.  ``process`` feeds a chunk of
one pair, so these comparisons run the one vectorised pass under two
chunkings; the brute-force ``reference_records`` checks the records
against the rule itself.  The chunk constants are patched so that short
streams cross chunk boundaries and take both the bulk and the per-item
pass of ``feed_columns``."""

import pytest

from intervalstream import selector_samelen
from intervalstream.core import DomainError, Interval, code_columns
from intervalstream.estimator_samelen import (DistinctPoints, SamelenAlphaEstimator, SamelenConfig,
                                              shift_window_stats)
from intervalstream.rng import SplitMix64
from intervalstream.selector_samelen import ShiftedGridSelector, holds_pair

from conftest import reference_records

WIDE = 1 << 62  # endpoints from here have codes past int64: object columns


def samelen_stream(seed, lam, lo, hi, count, openness=True):
    """Length-lam intervals with lefts in [lo, hi - lam], mixed openness."""
    rng = SplitMix64(seed)
    return [Interval(left, left + lam, openness and rng.below(2) == 1,
                     openness and rng.below(2) == 1)
            for left in (rng.randrange(lo, hi - lam) for _ in range(count))]


def dtype_stream(dtypes):
    """(lam, stream, hi): 40 intervals whose code columns are int64,
    object, or "mixed".  Past 2**62 the length 2**40 keeps the window
    universe, and so the field prime, small.  "mixed" has its lefts below
    2**62 and every fourth within lam of it, so its lcodes fit int64 and its
    rcodes do not: each column takes its own dtype."""
    lam = 3 if dtypes == "int64" else 1 << 40
    lo = {"int64": 1, "object": WIDE, "mixed": WIDE - 60 * lam}[dtypes]
    hi = WIDE - 1 + lam if dtypes == "mixed" else lo + 60 * lam
    stream = samelen_stream(29, lam, lo, hi, 40)
    if dtypes == "mixed":
        stream[::4] = samelen_stream(31, lam, WIDE - lam, hi, 10)
    lcodes, rcodes = code_columns(stream)
    assert [lcodes.dtype == object, rcodes.dtype == object] == \
        {"int64": [False, False], "object": [True, True], "mixed": [False, True]}[dtypes]
    assert dtypes != "mixed" or max(rcodes) > selector_samelen._INT64_MAX
    return lam, stream, hi


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
    return ([table.extremes for table in sel.tables], sel.items, sel.window_count,
            sel.peak_windows, sel.solution())


def counter_state(counter):
    if hasattr(counter, "seen"):
        return sorted(counter.seen), counter.estimate(), counter.units
    return counter.pairs(), sorted(counter.members), counter.estimate(), counter.units


def estimator_state(est):
    grids = [(counter_state(st.counter), st.sample.pairs(), sorted(st.sample.members),
              st.table.extremes) for st in est.states]
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
    pairs = False
    for head, lcodes, rcodes in prefixes(stream):
        by_item, by_feed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
        for iv in head:
            by_item.process(iv)
        by_feed.feed(lcodes, rcodes)
        assert selector_state(by_feed) == selector_state(by_item), len(head)
        records = reference_records(head, lam)
        assert selector_state(by_feed)[0] == records, len(head)
        pairs |= any(holds_pair(ext) for grid in records for ext in grid.values())
    assert pairs


def test_selector_feed_after_process_and_process_after_feed(chunking):
    # feed merges into the records that process leaves, and process after
    # feed reads the records feed left
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
@pytest.mark.parametrize("dtypes", ["int64", "object", "mixed"])
def test_estimator_feed_equals_process(chunking, monkeypatch, counter, k, dtypes):
    # k = 3 makes every sample and sketch evict
    if k is not None:
        monkeypatch.setattr(SamelenConfig, "k", property(lambda self: k))
        monkeypatch.setattr(SamelenConfig, "kmv_k", property(lambda self: k))
    lam, stream, hi = dtype_stream(dtypes)
    cfg = SamelenConfig(n=hi, lam=lam, user_eps=0.3, seed=5, counter_kind=counter)
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


@pytest.mark.parametrize("k", [None, 3], ids=["full-k", "k3"])
@pytest.mark.parametrize("dtypes", ["int64", "object", "mixed"])
def test_records_match_brute_force_reference(chunking, monkeypatch, k, dtypes):
    # every prefix: the selector's records under feed and under process, its
    # solutions, and the estimator's member rows under feed and process are
    # the brute-force records (reference_records); at k = 3 members evict
    if k is not None:
        monkeypatch.setattr(SamelenConfig, "k", property(lambda self: k))
    lam, stream, hi = dtype_stream(dtypes)
    cfg = SamelenConfig(n=hi, lam=lam, user_eps=0.3, seed=5)
    for head, lcodes, rcodes in prefixes(stream):
        expected = reference_records(head, lam)
        by_item, by_feed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
        est_item, est_feed = SamelenAlphaEstimator(cfg), SamelenAlphaEstimator(cfg)
        for iv in head:
            by_item.process(iv)
            est_item.process(iv)
        by_feed.feed(lcodes, rcodes)
        est_feed.feed(lcodes, rcodes)
        for a, records in enumerate(expected):
            solution = [iv for j in sorted(records) for iv in
                        (records[j] if holds_pair(records[j]) else records[j][:1])]
            for sel in (by_item, by_feed):
                assert sel.tables[a].extremes == records, (len(head), a)
                assert sel.shift_solution(a) == solution
            for est in (est_item, est_feed):
                st = est.states[a]
                assert set(st.table.rows) == st.sample.members
                assert st.table.extremes == {w: records[w - 2] for w in st.sample.members}
    assert k is None or all(len(grid) > k for grid in expected)


def test_selector_codes_below_int64(chunking):
    # lefts around -2**62: some lcodes pass below int64, which turns the
    # tables to object dtype under process as under feed
    lam = 3
    stream = samelen_stream(53, lam, -WIDE - 30, -WIDE + 30, 40)
    lcodes, rcodes = code_columns(stream)
    assert lcodes.dtype == object and min(lcodes) < -selector_samelen._INT64_MAX - 1
    by_item, by_feed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
    for iv in stream:
        by_item.process(iv)
    by_feed.feed(lcodes, rcodes)
    assert selector_state(by_feed) == selector_state(by_item)
    assert selector_state(by_item)[0] == reference_records(stream, lam)


@pytest.mark.parametrize("counter", ["exact", "kmv"])
@pytest.mark.parametrize("k", [None, 3], ids=["full-k", "k3"])
def test_estimator_process_feed_process(chunking, monkeypatch, counter, k):
    # process, then feed int64 columns, then object columns, then process
    # again leaves the state of processing it all: the member table starts
    # in int64 and turns to object dtype at the first object chunk; at k = 3
    # every sample and sketch evicts.  The first part's codes fit int64, the
    # second part's straddle 2**63 over the same windows.
    if k is not None:
        monkeypatch.setattr(SamelenConfig, "k", property(lambda self: k))
        monkeypatch.setattr(SamelenConfig, "kmv_k", property(lambda self: k))
    lam = 1 << 40
    narrow = samelen_stream(43, lam, WIDE - 30 * lam, WIDE - 1, 24)
    wide = samelen_stream(47, lam, WIDE - 30 * lam, WIDE + 30 * lam, 30)
    stream = narrow + wide
    cfg = SamelenConfig(n=WIDE + 30 * lam, lam=lam, user_eps=0.3, seed=9, counter_kind=counter)
    by_item, mixed = SamelenAlphaEstimator(cfg), SamelenAlphaEstimator(cfg)
    for iv in stream:
        by_item.process(iv)
    for iv in narrow[:8]:
        mixed.process(iv)
    lcodes, rcodes = code_columns(narrow[8:])
    assert lcodes.dtype != object and rcodes.dtype != object
    mixed.feed(lcodes, rcodes)
    assert all(col.dtype != object for st in mixed.states for col in st.table._columns())
    lcodes, rcodes = code_columns(wide[:20])
    assert rcodes.dtype == object
    mixed.feed(lcodes, rcodes)
    assert all(col.dtype == object for st in mixed.states for col in st.table._columns())
    for iv in wide[20:]:
        mixed.process(iv)
    assert estimator_state(mixed) == estimator_state(by_item)
    for st in mixed.states:
        assert set(st.table.rows) == st.sample.members
        assert len(st.table.leftmost_l) <= mixed.config.k
    # more occupied windows than k in every grid: the k = 3 samples evict
    assert all(len(shift_window_stats(stream, a, lam)) > 3 for a in (0, 1, 2))


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
    # the three grids at once, the shift column read as Python ints too
    records = reference_records(stream, lam)
    for a, (wins, *codes) in enumerate(selector_samelen.window_records(lam, (0, 1, 2),
                                                                       lcodes, rcodes)):
        expected = records[a]
        assert wins.tolist() == sorted(expected)
        ll, lr, rl, rr = (col.tolist() for col in codes)
        assert list(zip(zip(ll, lr), zip(rl, rr))) == \
            [tuple(map(tuple, expected[j])) for j in sorted(expected)]
    by_item, by_feed = ShiftedGridSelector(lam), ShiftedGridSelector(lam)
    for iv in stream:
        by_item.process(iv)
    by_feed.feed(lcodes, rcodes)
    assert selector_state(by_feed) == selector_state(by_item)
    assert selector_state(by_feed)[0] == records


def table_state(table):
    used = len(table.rows)
    return dict(table.rows), [(col.dtype, col[:used].tolist()) for col in table._columns()]


def hashed(counter):
    return counter.bank.columns_hashed if hasattr(counter, "bank") else 0


def trace_state(component):
    """All that a call may move: items, the rows in use of every record
    table, the counters' and the samples' members, and the ids hashed."""
    if isinstance(component, DistinctPoints):
        return counter_state(component.counter), hashed(component.counter)
    if isinstance(component, ShiftedGridSelector):
        return component.items, [table_state(table) for table in component.tables]
    return component.items, component.columns_hashed, \
        [(counter_state(st.counter), hashed(st.counter), st.sample.pairs(),
          sorted(st.sample.members), table_state(st.table)) for st in component.states]


@pytest.mark.parametrize("run", ["process", "feed"])
@pytest.mark.parametrize("kind,bad", [
    ("selector", Interval(5, 7)),
    ("estimator-exact", Interval(5, 7)), ("estimator-exact", Interval(59, 62)),
    ("estimator-kmv", Interval(5, 7)), ("estimator-kmv", Interval(59, 62)),
    ("points-exact", Interval(4, 5, True, True)), ("points-kmv", Interval(4, 5, True, True))])
def test_a_refused_call_leaves_no_trace(monkeypatch, kind, bad, run):
    # a refused interval under process, or a refused chunk under feed (70
    # pairs, past _MIN_BULK, with the bad one in the middle), moves nothing;
    # then the component goes on as one that never saw the call.  At k = 3
    # the samples and sketches are full before the call.
    monkeypatch.setattr(SamelenConfig, "k", property(lambda self: 3))
    monkeypatch.setattr(SamelenConfig, "kmv_k", property(lambda self: 3))
    name, _, counter = kind.partition("-")
    lam, n = (0, 30) if name == "points" else (3, 60)

    def make():
        if name == "selector":
            return ShiftedGridSelector(lam)
        if name == "estimator":
            return SamelenAlphaEstimator(SamelenConfig(n=n, lam=lam, user_eps=0.3, seed=3,
                                                       counter_kind=counter))
        points = DistinctPoints(n, 0.3, 3, counter)
        if counter == "kmv":
            points.counter.k = 4
        return points

    stream = point_stream(61, 1, n, 110) if name == "points" else samelen_stream(59, lam, 1, n, 110)
    head, call = stream[:40], stream[40:]
    call[30] = bad
    assert len(call) >= selector_samelen._MIN_BULK
    component, reference = make(), make()
    component.feed(*code_columns(head))
    reference.feed(*code_columns(head))
    before = trace_state(component)
    assert before != trace_state(make())
    with pytest.raises(ValueError):
        if run == "process":
            component.process(bad)
        else:
            component.feed(*code_columns(call))
    assert trace_state(component) == before
    rest = code_columns(call[:30] + call[31:])
    component.feed(*rest)
    reference.feed(*rest)
    assert trace_state(component) == trace_state(reference)
