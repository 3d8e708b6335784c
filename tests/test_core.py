import math

import pytest
from hypothesis import given, strategies as st

from intervalstream.core import (DomainError, Instance, Interval, ParseError,
                                 Window, contained_in, format_stream,
                                 intersects, pairwise_disjoint, parse_stream)
from intervalstream.rng import SplitMix64

from conftest import all_intervals, brute_contained, brute_intersects


def test_parse_basic():
    inst = parse_stream("n 10\n1 3\n2 5\n")
    assert inst.n == 10
    assert inst.intervals == (Interval(1, 3), Interval(2, 5))


def test_parse_zero_length_no_header():
    inst = parse_stream("1 1\n")
    assert inst.n == 1
    assert inst.intervals == (Interval(1, 1),)


def test_parse_open_flags():
    inst = parse_stream("2 11 oo\n")
    assert inst.intervals == (Interval(2, 11, True, True),)
    assert parse_stream("1 4 co\n").intervals[0] == Interval(1, 4, False, True)
    assert parse_stream("1 4 oc\n").intervals[0] == Interval(1, 4, True, False)


def test_parse_comments_and_blanks():
    inst = parse_stream("# header comment\nn 9\n\n1 2  # trailing\n")
    assert inst.n == 9
    assert inst.intervals == (Interval(1, 2),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_stream("n 5\nfoo bar baz qux\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_stream("1\n")
    with pytest.raises(ParseError):
        parse_stream("1 2 xx\n")


def test_parse_domain_errors():
    with pytest.raises(DomainError):
        parse_stream("n 5\n1 7\n")
    with pytest.raises(DomainError):
        parse_stream("0 3\n")
    with pytest.raises(ParseError):
        parse_stream("1 1 oo\n")  # open zero-length is empty


def test_header_required_mode():
    with pytest.raises(ParseError):
        parse_stream("1 3\n", require_header=True)


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(5, 3)
    with pytest.raises(DomainError):
        Interval(4, 4, left_open=True)
    iv = Interval(2, 11, True, True)
    assert iv.lcode == 5 and iv.rcode == 21
    assert Interval(3, 3).lcode == Interval(3, 3).rcode == 6


def test_intersects_examples():
    assert intersects(Interval(1, 3), Interval(3, 5))
    assert intersects(Interval(2, 11, True, True), Interval(10, 19))
    assert not intersects(Interval(1, 10, True, True), Interval(10, 19))


def test_contained_in_examples():
    assert contained_in(Interval(1, 2), Window.from_endpoints(1, 3, True, False))
    assert not contained_in(Interval(4, 6), Window.from_endpoints(0, 6, True, False))
    assert contained_in(Interval(3, 5, True, True), Window.from_endpoints(3, 9, True, False))


def test_position_codes_faithful_exhaustive():
    n = 6
    ivs = all_intervals(n)
    windows = [Window.from_endpoints(lo, hi, lc, hc)
               for lo in range(0, n + 1) for hi in range(lo, n + 2)
               for lc in (True, False) for hc in (True, False)
               if 2 * lo + (0 if lc else 1) <= 2 * hi - (0 if hc else 1)]
    for a in ivs:
        for b in ivs:
            assert intersects(a, b) == brute_intersects(a, b, n + 2), (a, b)
    for a in ivs[::7]:
        for w in windows[::5]:
            assert contained_in(a, w) == brute_contained(a, w, n + 2), (a, str(w))


def test_pairwise_disjoint_matches_brute_force():
    def brute(ivs):
        return not any(intersects(a, b)
                       for i, a in enumerate(ivs) for b in ivs[i + 1:])

    # touching closed ends meet, a half-open touch does not, duplicates meet
    assert not pairwise_disjoint([Interval(1, 2), Interval(2, 3)])
    assert pairwise_disjoint([Interval(2, 3, True, False), Interval(1, 2)])
    assert not pairwise_disjoint([Interval(4, 4), Interval(4, 4)])
    assert pairwise_disjoint([]) and pairwise_disjoint([Interval(5, 5)])
    pool = all_intervals(8)
    rng = SplitMix64(17)
    outcomes = set()
    for _ in range(3000):
        # drawn with replacement, so duplicates occur
        ivs = [pool[rng.below(len(pool))] for _ in range(rng.below(6))]
        expect = brute(ivs)
        assert pairwise_disjoint(ivs) == expect, ivs
        assert pairwise_disjoint(reversed(ivs)) == expect, ivs
        outcomes.add(expect)
    assert outcomes == {True, False}


def test_window_properties():
    w = Window.whole_line()
    assert w.low == -math.inf and w.high == math.inf
    w2 = Window.from_endpoints(2, 7, False, True)
    assert (w2.low, w2.low_closed, w2.high, w2.high_closed) == (2, False, 7, True)
    assert str(w2) == "(2,7]"
    with pytest.raises(DomainError):
        Window(5, 4)
    single = Window.from_endpoints(3, 3)
    assert single.contains_code(6) and not single.contains_code(5)


interval_strategy = st.builds(
    lambda l, length, lo, ro: Interval(l, l + length,
                                       lo if length else False,
                                       ro if length else False),
    st.integers(1, 50), st.integers(0, 20), st.booleans(), st.booleans())


@given(st.lists(interval_strategy, max_size=40))
def test_roundtrip_identity(ivs):
    inst = Instance(max((iv.right for iv in ivs), default=1), tuple(ivs))
    assert parse_stream(format_stream(inst)) == inst


@given(st.lists(interval_strategy, max_size=40))
def test_format_is_canonical(ivs):
    inst = Instance(max((iv.right for iv in ivs), default=1), tuple(ivs))
    text = format_stream(inst)
    assert format_stream(parse_stream(text)) == text


def test_instance_rejects_out_of_universe():
    with pytest.raises(DomainError):
        Instance(5, (Interval(1, 6),))
    with pytest.raises(DomainError):
        Instance(0, ())
