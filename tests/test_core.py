import copy
import io
import json
import os
import pickle
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from intervalstream import core
from intervalstream.core import (DomainError, Instance, Interval, ParseError,
                                 format_stream, intersects, pairwise_disjoint,
                                 parse_stream)
from intervalstream.rng import SplitMix64

from conftest import all_intervals, brute_contained, brute_intersects


@pytest.fixture(autouse=True)
def one_pass_for_every_file(monkeypatch):
    """Files of any size named by a path take the one-pass read, so that
    the small files here test it."""
    monkeypatch.setattr(core, "_ONE_PASS_BYTES", 0)


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


def test_position_codes_faithful_exhaustive():
    n = 6
    ivs = all_intervals(n)
    # every nonempty window [lo, hi], each end closed then open, as its code range
    windows = [(lo_code, hi_code)
               for lo in range(0, n + 1) for hi in range(lo, n + 2)
               for lo_code in (2 * lo, 2 * lo + 1) for hi_code in (2 * hi, 2 * hi - 1)
               if lo_code <= hi_code]
    for a in ivs:
        for b in ivs:
            assert intersects(a, b) == brute_intersects(a, b, n + 2), (a, b)
    for a in ivs[::7]:
        for lo_code, hi_code in windows[::5]:
            contained = lo_code <= a.lcode and a.rcode <= hi_code
            assert contained == brute_contained(a, (lo_code, hi_code), n + 2), (a, lo_code, hi_code)


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


def reference_format(inst):
    """format_stream one Interval at a time, from its fields."""
    tokens = {(False, False): "", (False, True): " co", (True, False): " oc", (True, True): " oo"}
    return "".join([f"n {inst.n}\n"] + [f"{iv.left} {iv.right}{tokens[iv.left_open, iv.right_open]}\n"
                                          for iv in inst])


@pytest.mark.parametrize("n", [40, 2**62 - 1])
def test_format_matches_per_interval_reference(n, monkeypatch):
    """Mixed openness, with codes up to the top of the range, over several
    blocks (of 5 lines here) and a partial last one."""
    monkeypatch.setattr(core, "_BLOCK", 5)
    rng = SplitMix64(n)
    ivs = [Interval(n, n), Interval(1, n, True, True), Interval(1, 1)]
    for _ in range(23):
        left = 1 + (rng.next_u64() << 8 | rng.below(256)) % (n - 1)
        right = left + 1 + (rng.next_u64() << 8) % (n - left)
        ivs.append(Interval(left, right, bool(rng.below(2)), bool(rng.below(2))))
    for count in (0, 1, 5, len(ivs)):
        inst = Instance(n, ivs[:count])
        text = format_stream(inst)
        assert text == reference_format(inst)
        assert parse_stream(text) == inst
    assert {(iv.left_open, iv.right_open) for iv in ivs} == {(False, False), (False, True), (True, False), (True, True)}
    assert inst.rcodes.dtype == np.int64


def test_instance_rejects_out_of_universe():
    with pytest.raises(DomainError):
        Instance(5, (Interval(1, 6),))
    with pytest.raises(DomainError):
        Instance(0, ())


def fields(iv):
    return (iv.left, iv.right, iv.left_open, iv.right_open)


def test_interval_fields_derive_from_codes():
    for left, right, lo, ro in [(1, 3, False, False), (1, 3, True, False),
                                (2, 11, True, True), (4, 9, False, True),
                                (7, 7, False, False), (-3, 2, True, True)]:
        iv = Interval(left, right, lo, ro)
        assert fields(iv) == (left, right, lo, ro)
        assert tuple(iv) == (iv.lcode, iv.rcode)
        assert iv.length == right - left
        assert type(iv.left_open) is bool and type(iv.right_open) is bool


def test_interval_repr_and_str():
    assert repr(Interval(1, 3)) == "Interval(left=1, right=3, left_open=False, right_open=False)"
    assert repr(Interval(2, 11, True, False)) == (
        "Interval(left=2, right=11, left_open=True, right_open=False)")
    assert str(Interval(1, 3)) == "[1,3]"
    assert str(Interval(1, 3, True, False)) == "(1,3]"
    assert str(Interval(1, 3, False, True)) == "[1,3)"
    assert str(Interval(2, 11, True, True)) == "(2,11)"
    assert str(Interval(5, 5)) == "[5,5]"


def test_interval_equality_and_hash_follow_fields():
    pool = all_intervals(5)
    twins = [Interval(*fields(iv)) for iv in pool]
    for a, a2 in zip(pool, twins):
        assert a == a2 and not a != a2 and hash(a) == hash(a2)
        for b in pool[::3]:
            assert (a == b) == (fields(a) == fields(b))
            assert (a != b) == (fields(a) != fields(b))
    assert len(set(pool + twins)) == len(pool)
    # an Interval equals no tuple, neither its codes nor its fields
    iv = Interval(1, 3)
    for other in [(2, 6), (1, 3, False, False), [2, 6], None]:
        assert iv != other and other != iv
        assert not iv == other and not other == iv


@given(interval_strategy, interval_strategy)
def test_interval_order_is_field_order(a, b):
    assert (a < b) == (fields(a) < fields(b))
    assert (a <= b) == (fields(a) <= fields(b))
    assert (a > b) == (fields(a) > fields(b))
    assert (a >= b) == (fields(a) >= fields(b))


@given(st.lists(interval_strategy, max_size=30))
def test_interval_sort_is_field_sort(ivs):
    assert [fields(iv) for iv in sorted(ivs)] == sorted(fields(iv) for iv in ivs)


def test_interval_order_differs_from_code_order():
    closed, half_open = Interval(1, 5), Interval(1, 3, left_open=True)
    assert closed > half_open and half_open < closed
    assert tuple(closed) < tuple(half_open)  # (2, 10) < (3, 6) by codes
    with pytest.raises(TypeError):
        closed < (3, 6)
    with pytest.raises(TypeError):
        (3, 6) > closed


def test_interval_is_immutable():
    iv = Interval(2, 11, True, True)
    for name in ("left", "right", "left_open", "right_open", "lcode", "rcode",
                 "length", "other"):
        with pytest.raises(AttributeError):
            setattr(iv, name, 1)
    assert fields(iv) == (2, 11, True, True)


def test_interval_pickle_and_copy_round_trip():
    for iv in all_intervals(4) + [Interval(-3, 2, True, False)]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(iv, protocol))
            assert type(back) is Interval and back == iv and fields(back) == fields(iv)
        assert copy.copy(iv) == iv and copy.deepcopy(iv) == iv


def test_interval_domain_errors():
    with pytest.raises(DomainError, match="left 5 > right 3"):
        Interval(5, 3)
    for lo, ro in [(True, False), (False, True), (True, True)]:
        with pytest.raises(DomainError, match="empty interval"):
            Interval(4, 4, lo, ro)


def test_parse_reports_structural_errors_with_line():
    with pytest.raises(ParseError, match="line 2: left 4 > right 3"):
        parse_stream("n 5\n4 3\n")
    with pytest.raises(ParseError, match=r"line 1: empty interval: .*left_open=True"):
        parse_stream("3 3 oc\n")
    with pytest.raises(DomainError, match="line 2: endpoint 7 > declared n 5"):
        parse_stream("n 5\n1 7\n")


def test_parse_builds_the_checked_instance():
    text = "n 30\n1 5 oo\n2 9 co\n3 3\n4 20 oc  # note\n\n10 30\n"
    expect = Instance(30, (Interval(1, 5, True, True), Interval(2, 9, False, True),
                           Interval(3, 3), Interval(4, 20, True, False), Interval(10, 30)))
    assert parse_stream(text) == expect
    assert parse_stream(text.splitlines(keepends=True)) == expect
    assert parse_stream("2 5\n1 7 co\n").n == 7


# ---- the block parse against a line-by-line reference -------------------

def reference_parse(lines, require_header=False):
    """A line-by-line reader that builds each interval with Interval(...),
    with the error messages parse_stream writes."""
    declared_n, intervals = None, []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "n":
            if intervals or declared_n is not None:
                raise ParseError(lineno, "header must come first and appear once")
            if len(tokens) != 2:
                raise ParseError(lineno, f"bad header {line.split('#', 1)[0].strip()!r}")
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad header value {tokens[1]!r}") from None
            if declared_n < 1:
                raise DomainError(f"line {lineno}: n must be positive, got {declared_n}")
            if declared_n >= 2 ** 62:
                raise DomainError(f"line {lineno}: n must be below 2**62, got {declared_n}")
            continue
        shown = line.split("#", 1)[0].strip()
        if len(tokens) not in (2, 3):
            raise ParseError(lineno, f"expected 'left right [flags]', got {shown!r}")
        try:
            left, right = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer endpoint in {shown!r}") from None
        flags = tokens[2] if len(tokens) == 3 else "cc"
        if flags not in ("cc", "co", "oc", "oo"):
            raise ParseError(lineno, f"unknown openness flags {flags!r}")
        try:
            iv = Interval(left, right, flags[0] == "o", flags[1] == "o")
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
        if left < 1:
            raise DomainError(f"line {lineno}: endpoint {left} < 1")
        if declared_n is None and right >= 2 ** 62:
            raise DomainError(f"line {lineno}: endpoint {right} must be below 2**62")
        if declared_n is not None and right > declared_n:
            raise DomainError(f"line {lineno}: endpoint {right} > declared n {declared_n}")
        intervals.append(iv)
    if declared_n is None:
        if require_header:
            raise ParseError(0, "header 'n <int>' is required here")
        declared_n = max((iv.right for iv in intervals), default=1)
    return Instance(declared_n, intervals)


# separators that str.split and int() accept, none of which ends a line of
# a text file; np.loadtxt refuses the digits
SPACES = (" ", "  ", "\t", "\xa0", "\u3000", "\x0c", "\x85", "\u2028")
DIGITS = {"0": "\u0660", "1": "\u0661", "2": "\uff12", "5": "\u0665", "7": "\uff17"}


def random_stream(rng, lines):
    """Stream text whose lines mix closed and flagged intervals, comments,
    blank lines, ``+5`` and ``01`` tokens, Unicode digits and whitespace."""
    n = 40
    out = [f"n {n}"] if rng.below(2) else []
    for _ in range(lines):
        kind = rng.below(10)
        if kind == 0:
            out.append("# a comment 1 2 oc")
            continue
        if kind == 1:
            out.append(rng.below(2) * "  ")
            continue
        left = 1 + rng.below(n)
        right = left + rng.below(n - left + 1)
        tokens = [str(left), str(right)]
        if kind == 2 and left < right:
            tokens.append(("co", "oc", "oo", "cc")[rng.below(4)])
        if kind == 3:
            tokens = ["+" + tokens[0], "0" + tokens[1]]
        if kind == 4:
            tokens[0] = "".join(DIGITS.get(c, c) for c in tokens[0])
        line = SPACES[rng.below(len(SPACES))].join(tokens)
        if kind == 5:
            line = "  " + line + " # trailing"
        out.append(line)
    return "\n".join(out) + "\n"


def file_lines(text):
    """The lines of the text with their ends, as a text file gives them:
    split at \\n, \\r and \\r\\n only."""
    return io.StringIO(text, newline=None).readlines()


def outcome(source, **kw):
    """The Instance parse_stream returns, or its error as error_of gives it;
    ``source`` is read once."""
    try:
        return parse_stream(source, **kw)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)


def write_file(path, text, **kw):
    with open(path, "w", newline="", **kw) as fh:
        fh.write(text)
    return path


def from_file(path):
    return outcome(Path(path))


def parse_both_ways(text, path, **kw):
    """parse_stream over the str, over its lines with their ends, over an
    open file at ``path`` that holds the text, and over ``Path(path)`` (the
    one-pass read): all four give the same Instance or the same error,
    which this returns or raises as the str gives it."""
    got = outcome(Path(write_file(path, text)), **kw)
    with open(path) as fh:
        assert outcome(fh, **kw) == got
    assert outcome(iter(file_lines(text)), **kw) == got
    assert outcome(text, **kw) == got
    return parse_stream(text, **kw)


def record_block_reads(monkeypatch):
    """Record, for each _block_codes call, whether it read a file by its
    path and whether it took what it read."""
    block_codes, reads = core._block_codes, []

    def record(lines, *args, **kw):
        codes = block_codes(lines, *args, **kw)
        reads.append((isinstance(lines, str), codes is not None))
        return codes

    monkeypatch.setattr(core, "_block_codes", record)
    return reads


def test_block_parse_equals_line_reference(monkeypatch, tmp_path):
    monkeypatch.setattr(core, "_BLOCK", 3)
    reads = record_block_reads(monkeypatch)
    rng = SplitMix64(2024)
    for _ in range(300):
        text = random_stream(rng, rng.below(25))
        expect = reference_parse(file_lines(text))
        got = parse_both_ways(text, tmp_path / "stream.txt")
        assert got == expect and got.intervals == expect.intervals, text
        assert got.n == expect.n and type(got.n) is int
    # every path ran: np.loadtxt blocks, line-checked blocks, and one-pass
    # file reads both taken and refused
    assert set(reads) == {(False, True), (False, False), (True, True), (True, False)}


BAD_LINES = ("n 12", "1 2 3 4", "7", "1 x", "1 2.0", "1 2 xx", "1 2 3", "5 3",
             "4 4 oo", "3 3 co", "0 3", "-2 3", "1 99", "1\u200b 2",
             f"1 {2 ** 64}", f"{2 ** 64} 3")
BAD_FIRST = ("n 5 6", "n x", "n 0", "n -4", "n", f"n {2 ** 62}")


def error_of(fn, *args, **kw):
    try:
        fn(*args, **kw)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)
    return None


def test_block_parse_errors_equal_line_reference(monkeypatch, tmp_path):
    monkeypatch.setattr(core, "_BLOCK", 3)
    path = tmp_path / "stream.txt"
    rng = SplitMix64(77)
    for _ in range(40):
        body = random_stream(rng, 12).split("\n")[:-1]
        if not body or not body[0].startswith("n "):
            body.insert(0, "n 40")
        for bad in BAD_LINES:
            lines = list(body)
            lines.insert(1 + rng.below(len(lines)), bad)
            text = "\n".join(lines) + "\n"
            expect = error_of(reference_parse, file_lines(text))
            assert expect is not None
            assert error_of(parse_both_ways, text, path) == expect, text
        for bad in BAD_FIRST:
            text = "# lead\n\n" + bad + "\n" + "\n".join(body[1:]) + "\n"
            expect = error_of(reference_parse, file_lines(text))
            assert expect is not None
            assert error_of(parse_both_ways, text, path) == expect, text
    # a header after an interval, and codes that would wrap around int64
    for text in ("1 2\nn 12\n", "# c\n1 2\n3 4\n5 6\nn 9\n",
                 f"1 1\n{-2 ** 62 - 1} {2 ** 62 - 1}\n", f"1 1\n{-2 ** 63} 3\n",
                 f"1 1\n3 {2 ** 62}\n", f"1 1\n{2 ** 63} {2 ** 64}\n"):
        expect = error_of(reference_parse, file_lines(text))
        assert expect is not None and error_of(parse_both_ways, text, path) == expect
    headless = "1 2\n# c\n3 4\n5 6 oc\n"
    assert (error_of(parse_both_ways, headless, path, require_header=True)
            == error_of(reference_parse, headless.splitlines(), require_header=True)
            == (ParseError, "line 0: header 'n <int>' is required here"))


def test_comment_only_block_warns_nothing(monkeypatch):
    monkeypatch.setattr(core, "_BLOCK", 3)
    text = "n 9\n# one\n# two\n\n1 2\n3 4\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_stream(text) == Instance(9, (Interval(1, 2), Interval(3, 4)))
        assert parse_stream("1 2\n" + "# only\n" * 7) == Instance(2, (Interval(1, 2),))
    assert caught == []


def sparse_flag_stream(rng, lines, every):
    """A header and closed intervals, with about one line in ``every`` that
    np.loadtxt refuses: an openness flag or a Unicode digit."""
    n = 40
    out = [f"n {n}"]
    for _ in range(lines):
        left = 1 + rng.below(n - 1)
        right = left + 1 + rng.below(n - left)
        tokens = [str(left), str(right)]
        if rng.below(every) == 0:
            if rng.below(2):
                tokens.append(("co", "oc", "oo")[rng.below(3)])
            else:
                tokens[0] = "".join(DIGITS.get(c, c) for c in tokens[0])
        out.append(" ".join(tokens))
    return "\n".join(out) + "\n"


def record_line_checked(monkeypatch):
    """Record the first line number and the line count of each call of the
    line check."""
    line_codes, pieces = core._LineCheck.codes, []

    def codes(self, lines, lineno):
        lines = list(lines)
        pieces.append((lineno, len(lines)))
        return line_codes(self, lines, lineno)

    monkeypatch.setattr(core._LineCheck, "codes", codes)
    return pieces


def is_flagged(line):
    return not line.isascii() or line[-1] in "co"


@pytest.mark.parametrize("min_piece", [1, 4])
def test_sparse_flag_block_parse_equals_line_reference(monkeypatch, min_piece, tmp_path):
    monkeypatch.setattr(core, "_BLOCK", 64)
    monkeypatch.setattr(core, "_MIN_PIECE", min_piece)
    pieces = record_line_checked(monkeypatch)
    rng = SplitMix64(min_piece)
    for _ in range(40):
        text = sparse_flag_stream(rng, 1 + rng.below(400), 50)
        expect = reference_parse(text.splitlines())
        pieces.clear()
        got = parse_stream(text)
        assert got == expect and got.intervals == expect.intervals, text
        # the header line, then, in order, pieces that hold every flagged
        # line; a piece longer than min_piece has one in each half
        flagged = [i for i, line in enumerate(text.splitlines(), 1) if i > 1 and is_flagged(line)]
        assert pieces[0] == (1, 1)
        starts = [lineno for lineno, _ in pieces]
        assert starts == sorted(starts)
        covered = [f for f in flagged if any(a <= f < a + size for a, size in pieces)]
        assert covered == flagged
        for a, size in pieces[1:]:
            halves = [(a, a + size // 2), (a + size // 2, a + size)] if size > min_piece else [(a, a + size)]
            assert all(any(lo <= f < hi for f in flagged) for lo, hi in halves)
        assert parse_both_ways(text, tmp_path / "stream.txt") == expect


def test_flagged_block_goes_whole_to_the_line_check(monkeypatch):
    """A block of which both halves are refused is not halved further."""
    monkeypatch.setattr(core, "_BLOCK", 64)
    monkeypatch.setattr(core, "_MIN_PIECE", 4)
    pieces = record_line_checked(monkeypatch)
    for body in (["1 2 oc"] * 150, ["1 2 oc", "3 4"] * 75, ["# note", "1 2 oc"] * 75):
        pieces.clear()
        parse_stream("\n".join(["n 9"] + body) + "\n")
        assert pieces == [(1, 1), (2, 64), (66, 64), (130, 22)]


def test_comment_run_skips_the_line_check(monkeypatch):
    """Blocks of comment and blank lines give no interval without the line
    check, as the line check would."""
    monkeypatch.setattr(core, "_BLOCK", 64)
    pieces = record_line_checked(monkeypatch)
    body = ["# note", "", "  \x0c ", "\t# 1 2 oc"] * 40 + ["3 4"] + ["# note"] * 100
    text = "\n".join(["n 9"] + body) + "\n"
    assert parse_stream(text) == reference_parse(text.splitlines()) == Instance(9, [Interval(3, 4)])
    assert pieces == [(1, 1)]


@pytest.mark.parametrize("min_piece", [1, 4])
def test_sparse_flag_block_parse_errors_equal_line_reference(monkeypatch, min_piece, tmp_path):
    monkeypatch.setattr(core, "_BLOCK", 64)
    monkeypatch.setattr(core, "_MIN_PIECE", min_piece)
    rng = SplitMix64(100 + min_piece)
    for _ in range(6):
        body = sparse_flag_stream(rng, 300, 40).splitlines()
        for bad in BAD_LINES:
            lines = list(body)
            lines.insert(1 + rng.below(len(lines)), bad)
            text = "\n".join(lines) + "\n"
            expect = error_of(reference_parse, text.splitlines())
            assert expect is not None
            assert error_of(parse_both_ways, text, tmp_path / "stream.txt") == expect, text


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                 "\u2028", "\u2029", "\r", "\r\n"])
def test_str_splits_lines_as_a_file_does(tmp_path, sep):
    """A str and the same text read from a file give the same Instance or
    the same error: only \\n, \\r and \\r\\n end a line."""
    text = f"n 9\n1 2{sep}3 4\n5 6\n"
    read = from_file(write_file(tmp_path / "stream.txt", text))
    assert outcome(text) == read
    ends_line = sep in ("\r", "\r\n")
    assert isinstance(read, Instance) == ends_line
    if ends_line:
        assert len(read) == 3
    else:
        assert read == (ParseError, f"line 2: expected 'left right [flags]', got {f'1 2{sep}3 4'!r}")


def test_codes_are_int64_below_2_62_and_refused_from_it():
    top = 2 ** 62 - 1
    for text in (f"n {top}\n1 2\n{top} {top}\n", f"1 2\n{top - 1} {top} oc\n"):
        below = parse_stream(text)
        assert below.lcodes.dtype == below.rcodes.dtype == np.int64
        assert below.n == top and max(below.rcodes) == 2 * top
        assert below == reference_parse(text.splitlines())
    for text, message in ((f"1 {2 ** 62}\n", f"line 1: endpoint {2 ** 62} must be below 2**62"),
                          (f"n {2 ** 62}\n1 2\n", f"line 1: n must be below 2**62, got {2 ** 62}"),
                          (f"n {2 ** 70}\n1 2\n", f"line 1: n must be below 2**62, got {2 ** 70}"),
                          (f"n {top}\n1 2\n3 {2 ** 62}\n",
                           f"line 3: endpoint {2 ** 62} > declared n {top}")):
        assert outcome(text) == error_of(reference_parse, text.splitlines()) == (DomainError, message)


# ---- the one-pass read of a regular file named by its path --------------

# the floor of the one-pass read, taken before the autouse fixture zeroes it
ONE_PASS_BYTES = core._ONE_PASS_BYTES
CLOSED = "n 50\n" + "".join(f"{i} {i + 3}\n" for i in range(1, 41))
B62 = 2 ** 62
FILE_CASES = {
    # name: (text, file name, the (read by path, taken) pair of each _block_codes call)
    "crlf": (CLOSED.replace("\n", "\r\n"), "s.txt", [(True, True)]),
    "lone-cr": (CLOSED.replace("\n", "\r"), "s.txt", [(True, True)]),
    "flag-last": (CLOSED + "7 9 oc\n", "s.txt", [(True, False), (False, False), (False, True)]),
    "header-only": ("# c\nn 7\n", "s.txt", [(True, True)]),
    "empty": ("", "s.txt", []),
    "comment-only": ("# c\n\n  # d\n", "s.txt", []),
    "past-2^62": (f"1 2\n3 {B62 - 1}\n{B62 - 1} {B62}\n", "s.txt", [(True, False), (False, False)]),
    "plain-gz": (CLOSED, "s.gz", [(False, True)]),
    "no-header": (CLOSED[5:], "s.txt", [(True, True)]),
}


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_file_one_pass_equals_line_reference(monkeypatch, tmp_path, case):
    """Each file gives what its text gives; a file that np.loadtxt
    refuses, or takes past 2**62, is read on a block at a time, and a
    right end of 2**62 is refused there, with its line number."""
    text, name, expect_reads = FILE_CASES[case]
    path = write_file(tmp_path / name, text)
    reads = record_block_reads(monkeypatch)
    got = from_file(path)
    assert reads == expect_reads
    assert got == outcome(text) == (error_of(reference_parse, file_lines(text))
                                    or reference_parse(file_lines(text)))
    if case == "past-2^62":
        assert got == (DomainError, f"line 3: endpoint {B62} must be below 2**62")


def test_closed_file_is_read_in_one_pass(monkeypatch, tmp_path):
    """The line check reads the header line only, and np.loadtxt the rest
    of the file in one call, past several blocks."""
    monkeypatch.setattr(core, "_BLOCK", 4)
    path = write_file(tmp_path / "s.txt", CLOSED)
    pieces, reads = record_line_checked(monkeypatch), record_block_reads(monkeypatch)
    assert from_file(path) == reference_parse(file_lines(CLOSED))
    assert pieces == [(1, 1)] and reads == [(True, True)]


def test_smaller_file_is_read_a_block_at_a_time(monkeypatch, tmp_path):
    path = write_file(tmp_path / "s.txt", CLOSED)
    reads = record_block_reads(monkeypatch)
    for size, expect_reads in ((len(CLOSED), [(True, True)]), (len(CLOSED) + 1, [(False, True)])):
        monkeypatch.setattr(core, "_ONE_PASS_BYTES", size)
        reads.clear()
        assert from_file(path) == reference_parse(file_lines(CLOSED))
        assert reads == expect_reads


def test_file_bad_line_equals_line_reference(monkeypatch, tmp_path):
    """A file that the one-pass read refuses is read on from its handle: a
    bad line, a late header or a flagged line in the middle gives the line
    reference's outcome."""
    lines = file_lines(CLOSED)
    for middle in ("1 x\n", "n 9\n", "3 3 oo\n", "4 99\n", "5 6 oc\n"):
        text = "".join(lines[:20] + [middle] + lines[20:])
        expect = error_of(reference_parse, file_lines(text)) or reference_parse(file_lines(text))
        assert expect == outcome(text)
        path = write_file(tmp_path / "s.txt", text)
        reads = record_block_reads(monkeypatch)
        assert from_file(path) == expect
        assert reads[0] == (True, False)


def test_handles_the_one_pass_skips(monkeypatch, tmp_path):
    """An open handle is read from the handle, as its own reading splits
    it, whatever its size and however much of it was read: unread, past
    its first line, after next(), opened to split at \\n only, and one
    whose name now names another file."""
    reads = record_block_reads(monkeypatch)
    big = "n 200000\n" + "".join(f"{i} {i + 4}\n" for i in range(100_000, 112_000))
    for floor, text in ((0, CLOSED), (ONE_PASS_BYTES, big)):
        monkeypatch.setattr(core, "_ONE_PASS_BYTES", floor)
        path = write_file(tmp_path / "s.txt", text)
        assert os.path.getsize(path) >= floor
        with open(path) as fh:
            assert outcome(fh) == outcome(text)
        with open(path) as fh:
            fh.readline()
            assert outcome(fh) == outcome(text[text.index("\n") + 1:])
        with open(path) as fh:
            next(fh)
            assert outcome(fh) == outcome(text[text.index("\n") + 1:])
    lone_cr = "n 9\n1 2\r3 4\n5 6\n"
    path = write_file(tmp_path / "s.txt", lone_cr)
    with open(path, newline="\n") as fh:
        assert outcome(fh) == (ParseError, f"line 2: expected 'left right [flags]', got {'1 2' + chr(13) + '3 4'!r}")
    write_file(path, CLOSED)
    with open(path) as fh:
        os.replace(write_file(tmp_path / "other.txt", "n 3\n1 2\n"), path)
        assert outcome(fh) == outcome(CLOSED)
    assert reads and all(not by_path for by_path, _ in reads)


def test_file_encoding_is_the_handles(monkeypatch, tmp_path):
    """np.loadtxt decodes with the encoding the path was opened with; text
    that does not decode strictly is read from the handle, with its error
    handler.  (``core.open`` stands in for the default encoding.)"""
    text = "n 9 # caf\xe9\n1 2\n3 4 # \xe9\n"
    expect = outcome(text)
    path = write_file(tmp_path / "s.txt", text, encoding="latin-1")
    reads = record_block_reads(monkeypatch)
    monkeypatch.setattr(core, "open", partial(open, encoding="latin-1"), raising=False)
    assert from_file(path) == expect
    assert reads == [(True, True)]
    reads.clear()
    monkeypatch.setattr(core, "open", partial(open, encoding="utf-8", errors="replace"), raising=False)
    assert from_file(path) == expect
    assert reads == [(True, False), (False, True)]


class PlainName(os.PathLike):
    """A path that is not normalised as a pathlib.Path is."""

    def __init__(self, name):
        self.name = name

    def __fspath__(self):
        return self.name


def test_url_like_name_is_read_as_a_local_file(monkeypatch, tmp_path):
    """np.loadtxt fetches a name that parses as a URL; the one-pass read
    gives it the absolute path.  (Path("http://host/s.txt") collapses the
    double slash; a plain os.PathLike keeps it.)"""
    import urllib.request

    def refuse(*args, **kw):
        raise AssertionError("a URL was opened")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    write_file(tmp_path / "http:" / "host" / "s.txt", CLOSED)
    monkeypatch.chdir(tmp_path)
    expect = outcome(CLOSED)
    reads = record_block_reads(monkeypatch)
    assert from_file("http://host/s.txt") == expect
    assert outcome(PlainName("http://host/s.txt")) == expect
    assert reads == [(True, True)] * 2


# Parses the text that a FIFO or the redirected stdin gives (argv[1]:
# "fifo" or "fifo-path", with the FIFO's path and the text's file, to parse
# an open handle of the FIFO or its Path; or "stdin"), with the
# one-pass read open to files of any size, and prints the Instance's n and
# codes and whether any _block_codes call read a path.
NOT_A_PATH_CHILD = """
import json, pathlib, sys, threading
from intervalstream import core
core._ONE_PASS_BYTES = 0
by_path = []
block_codes = core._block_codes
def record(lines, *args, **kw):
    by_path.append(isinstance(lines, str))
    return block_codes(lines, *args, **kw)
core._block_codes = record
if sys.argv[1] == "stdin":
    inst = core.parse_stream(sys.stdin)
else:
    def write():
        with open(sys.argv[2], "w") as out, open(sys.argv[3]) as src:
            out.write(src.read())
    threading.Thread(target=write, daemon=True).start()
    if sys.argv[1] == "fifo-path":
        inst = core.parse_stream(pathlib.Path(sys.argv[2]))
    else:
        with open(sys.argv[2]) as fh:
            inst = core.parse_stream(fh)
print(json.dumps([inst.n, inst.lcodes.tolist(), inst.rcodes.tolist(), any(by_path)]))
"""


def not_a_path_child(args, **kw):
    src = os.path.dirname(os.path.dirname(core.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NOT_A_PATH_CHILD, *args], capture_output=True,
                          text=True, timeout=60, env=env, **kw)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_fifo_takes_the_block_path(tmp_path):
    """A FIFO has one reader: the one-pass read would open it a second time
    and wait for a writer that never comes (the timeout fails the test).
    Named by its Path or opened, it is read a block at a time."""
    fifo, source = tmp_path / "fifo", write_file(tmp_path / "s.txt", CLOSED)
    os.mkfifo(fifo)
    inst = parse_stream(CLOSED)
    for mode in ("fifo", "fifo-path"):
        assert not_a_path_child([mode, str(fifo), str(source)]) == [
            inst.n, inst.lcodes.tolist(), inst.rcodes.tolist(), False]


def test_redirected_stdin_takes_the_block_path(tmp_path):
    """stdin redirected from a file is named <stdin>; a file of that name
    in the working directory is another file and is not read."""
    write_file(tmp_path / "<stdin>", "n 3\n1 2\n")
    inst = parse_stream(CLOSED)
    with open(write_file(tmp_path / "s.txt", CLOSED)) as stdin:
        got = not_a_path_child(["stdin"], stdin=stdin, cwd=tmp_path)
    assert got == [inst.n, inst.lcodes.tolist(), inst.rcodes.tolist(), False]


# ---- the Instance surface ------------------------------------------------

def test_instance_surface():
    ivs = (Interval(3, 9, True, False), Interval(1, 2), Interval(4, 4), Interval(2, 7, False, True))
    inst = Instance(10, ivs)
    assert Instance(n=10, intervals=ivs) == inst == Instance(10, list(ivs))
    assert inst.n == 10 and len(inst) == 4
    assert inst.intervals == ivs and all(type(iv) is Interval for iv in inst.intervals)
    assert list(inst) == list(ivs)
    assert list(inst.codes()) == [tuple(iv) for iv in ivs]
    assert inst == parse_stream(format_stream(inst))
    assert inst != Instance(11, ivs) and inst != Instance(10, ivs[:3])
    assert inst.__eq__(ivs) is NotImplemented and inst != ivs
    assert hash(inst) == hash(Instance(10, ivs))
    assert repr(inst) == f"Instance(n=10, intervals={ivs!r})"
    empty = Instance(5)
    assert len(empty) == 0 and empty.intervals == () and list(empty.codes()) == []
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(inst, protocol))
        assert type(back) is Instance and back == inst and back.intervals == ivs
    with pytest.raises(AttributeError):
        inst.n = 3
    with pytest.raises(ValueError):
        inst.lcodes[0] = 4


def test_instance_rejects_plain_tuples():
    # a pair is never read silently as codes
    for bad in ((2, 4), (1, 2, False, False), [2, 4]):
        with pytest.raises(TypeError):
            Instance(5, (Interval(1, 2), bad))
