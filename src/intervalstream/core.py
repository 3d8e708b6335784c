"""Exact integer model of intervals and interval streams.

Endpoint openness is encoded by doubling coordinates into *position codes*:
point ``x`` becomes code ``2*x`` and the open gap just past ``x`` becomes
``2*x + 1``.  Every interval or window is then a closed range of integer
codes, so intersection and containment are plain integer comparisons with
no epsilon handling, even for mixed open/closed inputs.

An Instance holds its stream as two code columns, not as Interval objects.
``parse_stream`` fills them with ``np.loadtxt``: an open regular file in
one call that reads the file by its name, any other text a block of lines
at a time.  Neither holds the whole text at once (``np.loadtxt`` reads a
file in chunks), and the line-by-line check reads only the lines that
``np.loadtxt`` or the range rule refuses.
"""

from __future__ import annotations

import io
import math
import os
import stat
import warnings
from functools import partial, reduce
from itertools import chain, islice
from operator import itemgetter, or_
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np


class ParseError(ValueError):
    """Malformed stream text (carries the 1-based line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DomainError(ValueError):
    """Structurally valid input whose values fall outside the universe."""


def check_eps(eps: float) -> None:
    """Refuse an eps outside (0, 1/2), the range every estimator takes."""
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")


_OPENNESS = {"cc": (False, False), "co": (False, True),
             "oc": (True, False), "oo": (True, True)}
# a line's openness token by lcode % 2 + 2 * (rcode % 2), the openness flags
_SUFFIX = ("", " oc", " co", " oo")


class Interval(tuple):
    """An integer-endpoint interval, any combination of open/closed ends.

    Zero-length intervals must be closed on both ends; an open zero-length
    interval would be empty and is rejected.

    An Interval is stored as its pair of position codes ``(lcode, rcode)``,
    so ``lc, rc = iv`` unpacks them.  The endpoints and openness flags are
    derived from the codes.  Equality and hashing follow the codes, which
    determine the fields one to one; ordering follows the fields
    ``(left, right, left_open, right_open)``.
    """

    __slots__ = ()

    def __new__(cls, left: int, right: int, left_open: bool = False,
                right_open: bool = False) -> "Interval":
        # the one structural check: left > right, and an open zero-length
        # interval, are exactly the cases with lcode > rcode
        lcode = 2 * left + (1 if left_open else 0)
        rcode = 2 * right - (1 if right_open else 0)
        if lcode > rcode:
            if left > right:
                raise DomainError(f"left {left} > right {right}")
            raise DomainError(
                "empty interval: zero-length endpoints must be closed, got "
                f"Interval(left={left!r}, right={right!r}, left_open={left_open!r}, "
                f"right_open={right_open!r})")
        return tuple.__new__(cls, (lcode, rcode))

    lcode = property(itemgetter(0))
    rcode = property(itemgetter(1))

    @property
    def left(self) -> int:
        return self[0] >> 1

    @property
    def right(self) -> int:
        return (self[1] + 1) >> 1

    @property
    def left_open(self) -> bool:
        return bool(self[0] & 1)

    @property
    def right_open(self) -> bool:
        return bool(self[1] & 1)

    @property
    def length(self) -> int:
        return self.right - self.left

    def _field_values(self) -> Tuple[int, int, bool, bool]:
        return (self.left, self.right, self.left_open, self.right_open)

    def __getnewargs__(self):
        return self._field_values()

    def __repr__(self) -> str:
        left, right, left_open, right_open = self._field_values()
        return (f"Interval(left={left!r}, right={right!r}, "
                f"left_open={left_open!r}, right_open={right_open!r})")

    def __str__(self) -> str:
        lb = "(" if self.left_open else "["
        rb = ")" if self.right_open else "]"
        return f"{lb}{self.left},{self.right}{rb}"

    # A plain tuple never equals or orders against an Interval, although
    # an Interval is one: these take precedence over tuple's own
    # comparisons in both operand orders.
    def __eq__(self, other):
        return isinstance(other, Interval) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return self._field_values() < _fields_of(other, "<")

    def __le__(self, other):
        return self._field_values() <= _fields_of(other, "<=")

    def __gt__(self, other):
        return self._field_values() > _fields_of(other, ">")

    def __ge__(self, other):
        return self._field_values() >= _fields_of(other, ">=")


def _fields_of(other, op: str) -> Tuple[int, int, bool, bool]:
    if not isinstance(other, Interval):
        raise TypeError(f"'{op}' not supported between instances of 'Interval' "
                        f"and {type(other).__name__!r}")
    return other._field_values()


def intersects(a: Interval, b: Interval) -> bool:
    """True iff the point sets of the two intervals meet."""
    return max(a.lcode, b.lcode) <= min(a.rcode, b.rcode)


def pairwise_disjoint(intervals: Iterable[Interval]) -> bool:
    """True iff no two of the intervals intersect.  Sorted by left code, an
    intersecting pair implies an intersecting neighbour pair, so one sweep
    over neighbours decides it in O(k log k)."""
    ordered = sorted(intervals, key=itemgetter(0))
    return all(b_lcode > a_rcode
               for (_, a_rcode), (b_lcode, _) in zip(ordered, ordered[1:]))


# Lines per np.loadtxt call in parse_stream, and pairs per slice of
# Instance.codes() and of refuse.
_BLOCK = 8192

# Lines below which a refused piece of a block is not halved.
_MIN_PIECE = 32

# Endpoints below this have int64 position codes: 2 * x + 1 < 2**63.
_CODE_LIMIT = 2 ** 62

# The largest int64, as a Python int: a bound that compares without wrapping.
_INT64_MAX = 2 ** 63 - 1

_make_interval = partial(tuple.__new__, Interval)  # from (lcode, rcode), unchecked


def _column(codes) -> np.ndarray:
    """A code column: int64, or object dtype when a code does not fit."""
    try:
        return np.array(codes, dtype=np.int64)
    except OverflowError:
        return np.array(codes, dtype=object)


def refuse(lcodes: np.ndarray, rcodes: np.ndarray, n: Optional[int] = None,
           length: Optional[int] = None) -> None:
    """Refuse two code columns at their first pair that breaks a rule, with
    the exception and message that the pair gets on its own.  The rules,
    in the order that names a pair's refusal: the pair is a nonempty
    interval, lcode <= rcode (the Interval constructor's DomainError); it
    has length ``length`` when one is given (ValueError, or at length 0 the
    lambda 0 route's DomainError); it lies inside [1, n] when n is given
    (DomainError).  The columns are read in slices of _BLOCK pairs, so the
    masks are bounded by the slice."""
    for start in range(0, len(lcodes), _BLOCK):
        ls, rs = lcodes[start:start + _BLOCK], rcodes[start:start + _BLOCK]
        rules = {"empty": ls > rs}
        if length is not None:
            rules["length"] = ((rs + 1) >> 1) - (ls >> 1) != length
        if n is not None:
            rules["range"] = (ls < 2) | (rs > 2 * n)
        bad = reduce(or_, rules.values())
        if not bad.any():
            continue
        i = int(bad.argmax())
        rule = next(name for name, mask in rules.items() if mask[i])
        lcode, rcode = int(ls[i]), int(rs[i])
        if rule == "empty":  # the constructor words the refusal
            Interval(lcode >> 1, (rcode + 1) >> 1, bool(lcode & 1), bool(rcode & 1))
        iv = _make_interval((lcode, rcode))
        if rule == "length" and length == 0:
            raise DomainError(f"lambda 0 requires zero-length intervals, got {iv}")
        if rule == "length":
            raise ValueError(f"interval {iv} has length {iv.length}, expected {length}")
        raise DomainError(f"interval {iv} outside [1, {n}]")


def code_pairs(lcodes: np.ndarray, rcodes: np.ndarray) -> Iterator[Tuple[int, int]]:
    """The ``(lcode, rcode)`` pairs of two code columns as Python ints, in
    column order.  The columns are read in slices of _BLOCK pairs, so no
    full-length list is built."""
    return chain.from_iterable(zip(lcodes[s:s + _BLOCK].tolist(), rcodes[s:s + _BLOCK].tolist())
                               for s in range(0, len(lcodes), _BLOCK))


def code_columns(intervals) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(lcodes, rcodes)`` columns of an Instance, or of an iterable of
    Intervals (built here, as an Instance builds its own)."""
    if isinstance(intervals, Instance):
        return intervals.lcodes, intervals.rcodes
    intervals = tuple(intervals)
    return _column([iv[0] for iv in intervals]), _column([iv[1] for iv in intervals])


class Instance:
    """A coordinate universe bound plus intervals in stream order.

    The intervals are stored as two position-code columns, ``lcodes`` and
    ``rcodes``: int64 arrays, or object arrays when a code does not fit in
    int64 (endpoints of 2**62 and above).  ``Instance(n, intervals)``,
    ``inst.intervals``, iteration, ``len``, ``==`` and pickling behave as
    for a record of n and a tuple of Intervals, but the Interval objects are
    built only on demand.  ``codes()`` yields the plain ``(lcode, rcode)``
    pairs; the package's own loops read those.

    Constructing one checks n and that every interval lies in [1, n];
    ``parse_stream`` checks its input itself and builds its Instance with
    ``_trusted``.
    """

    __slots__ = ("n", "lcodes", "rcodes")

    def __init__(self, n: int, intervals: Iterable[Interval] = ()):
        if n < 1:
            raise DomainError(f"n must be positive, got {n}")
        intervals = tuple(intervals)
        for iv in intervals:
            if not isinstance(iv, Interval):
                raise TypeError(f"an Instance holds Interval objects, got {iv!r}")
        lcodes, rcodes = code_columns(intervals)
        refuse(lcodes, rcodes, n)
        self._fill(n, lcodes, rcodes)

    @classmethod
    def _trusted(cls, n: int, lcodes: np.ndarray, rcodes: np.ndarray) -> "Instance":
        """An Instance over code columns already checked against [1, n]."""
        inst = object.__new__(cls)
        inst._fill(n, lcodes, rcodes)
        return inst

    def _fill(self, n: int, lcodes: np.ndarray, rcodes: np.ndarray) -> None:
        lcodes.flags.writeable = rcodes.flags.writeable = False
        for name, value in (("n", n), ("lcodes", lcodes), ("rcodes", rcodes)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an Instance")

    def __reduce__(self):
        return (Instance._trusted, (self.n, self.lcodes, self.rcodes))

    def codes(self) -> Iterator[Tuple[int, int]]:
        """The ``(lcode, rcode)`` pairs as Python ints, in stream order."""
        return code_pairs(self.lcodes, self.rcodes)

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.lcodes)

    def __iter__(self) -> Iterator[Interval]:
        return map(_make_interval, self.codes())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and bool(np.array_equal(self.lcodes, other.lcodes))
                and bool(np.array_equal(self.rcodes, other.rcodes)))

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.codes())))

    def __repr__(self) -> str:
        return f"Instance(n={self.n!r}, intervals={self.intervals!r})"


class _LineCheck:
    """The line-by-line parse of stream text, and the only place that writes
    a parse error message.  ``started`` turns true at the first line with
    tokens: a header there sets ``declared_n``, a header after it is an
    error."""

    def __init__(self):
        self.declared_n: Optional[int] = None
        self.started = False

    def codes(self, lines: Iterable[str], lineno: int) -> Tuple[np.ndarray, np.ndarray]:
        """The code columns of the interval lines among ``lines``, whose
        first line is line ``lineno`` of the stream."""
        limit = math.inf if self.declared_n is None else self.declared_n
        lcodes, rcodes = [], []
        for lineno, line in enumerate(lines, start=lineno):
            if "#" in line:
                line = line.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] == "n":
                if self.started:
                    raise ParseError(lineno, "header must come first and appear once")
                if len(tokens) != 2:
                    raise ParseError(lineno, f"bad header {line.strip()!r}")
                try:
                    declared_n = int(tokens[1])
                except ValueError:
                    raise ParseError(lineno, f"bad header value {tokens[1]!r}") from None
                if declared_n < 1:
                    raise DomainError(f"line {lineno}: n must be positive, got {declared_n}")
                self.declared_n = limit = declared_n
                self.started = True
                continue
            self.started = True
            if len(tokens) not in (2, 3):
                raise ParseError(lineno, f"expected 'left right [flags]', got {line.strip()!r}")
            try:
                left, right = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"non-integer endpoint in {line.strip()!r}") from None
            flags = tokens[2] if len(tokens) == 3 else "cc"
            if flags not in _OPENNESS:
                raise ParseError(lineno, f"unknown openness flags {flags!r}")
            left_open, right_open = _OPENNESS[flags]
            # the codes as the Interval constructor computes them: an Interval
            # per line takes this loop about 1.5x as long, so the constructor
            # runs only to word the error when lcode > rcode
            lcode, rcode = 2 * left + left_open, 2 * right - right_open
            if lcode > rcode:
                try:
                    Interval(left, right, left_open, right_open)
                except DomainError as exc:
                    raise ParseError(lineno, str(exc)) from None
            if left < 1:
                raise DomainError(f"line {lineno}: endpoint {left} < 1")
            if right > limit:
                raise DomainError(f"line {lineno}: endpoint {right} > declared n {self.declared_n}")
            lcodes.append(lcode)
            rcodes.append(rcode)
        return _column(lcodes), _column(rcodes)


def _block_codes(lines: Union[List[str], str], n: Optional[int],
                 **read) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The code columns of a block of lines, or of the file at the path
    ``lines`` (``read`` then holds np.loadtxt's ``skiprows`` and
    ``encoding``), by one np.loadtxt call, when every line with tokens is a
    closed interval ``left right`` with endpoints in [1, 2**62) that
    ``refuse`` takes against n; otherwise None.  (With n None, endpoints
    >= 1 are the whole range rule.)  np.loadtxt refuses openness flags,
    ragged rows, tokens that are no int64 and text that does not decode,
    and splits a line as str.split does, so a block without data (comment
    and blank lines only) is one the line check reads no interval from
    either."""
    with warnings.catch_warnings(record=True):  # "input contained no data"
        try:
            ends = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2, **read)
        except (ValueError, OSError):
            return None
    if not len(ends):
        return _column(()), _column(())
    # the bounds first, so that doubling cannot wrap around
    if ends.shape[1] != 2 or ends.min() < 1 or ends.max() >= _CODE_LIMIT:
        return None
    lcodes, rcodes = 2 * ends[:, 0], 2 * ends[:, 1]
    try:
        refuse(lcodes, rcodes, n)
    except DomainError:
        return None
    return lcodes, rcodes


def _parse_block(lines: List[str], lineno: int,
                 check: _LineCheck) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The code columns of a block of lines whose first line is line
    ``lineno``, in pieces, by _block_codes when it takes the block."""
    codes = _block_codes(lines, check.declared_n)
    if codes is not None:
        yield codes
    else:
        yield from _parse_refused(lines, lineno, check)


def _parse_refused(lines: List[str], lineno: int,
                   check: _LineCheck) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The code columns of lines that _block_codes refuses.  While one half
    of them is taken, the other is halved in turn, down to _MIN_PIECE lines;
    a piece of which both halves are refused goes whole, in order, to the
    line check.  So one flagged line in a block costs a few short
    np.loadtxt calls, not a line-by-line parse of the whole block.  Every
    test is per line, so when the first half is taken the second is refused
    and is not tried again."""
    if len(lines) > _MIN_PIECE:
        half = len(lines) // 2
        first, second = lines[:half], lines[half:]
        codes = _block_codes(first, check.declared_n)
        if codes is not None:
            yield codes
            yield from _parse_refused(second, lineno + half, check)
            return
        codes = _block_codes(second, check.declared_n)
        if codes is not None:
            yield from _parse_refused(first, lineno, check)
            yield codes
            return
    yield check.codes(lines, lineno)


# Name suffixes that np.loadtxt reads through a decompressor (numpy's
# DataSource); a text file so named is read a block of lines at a time.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

# Files smaller than this are read a block of lines at a time: np.loadtxt
# by a path goes through numpy's DataSource, which in a fresh process made
# the parse of 1,000-2,000 lines (14-28 kB) about 0.1 ms slower and paid
# off from about 4,000 lines (55 kB); its first call in a process also
# imports gzip (about 0.6 ms).
_ONE_PASS_BYTES = 1 << 17


def _regular_path(text) -> Optional[str]:
    """The absolute path of the regular file of _ONE_PASS_BYTES or more
    that the open text file ``text`` reads, when it has read nothing yet
    and its name names that file (the same device and inode); otherwise
    None.  A pipe, a FIFO and ``sys.stdin`` (named ``<stdin>``) have none."""
    name = getattr(text, "name", None)
    if not isinstance(text, io.TextIOBase) or not isinstance(name, str) or name.endswith(_COMPRESSED):
        return None
    try:
        opened = os.fstat(text.fileno())
        if not stat.S_ISREG(opened.st_mode) or opened.st_size < _ONE_PASS_BYTES or text.tell() != 0:
            return None
        path = os.path.abspath(name)  # a local path: np.loadtxt fetches a name like a URL
        named = os.stat(path)
    except (OSError, ValueError):
        return None
    return path if os.path.samestat(opened, named) else None


def parse_stream(text: Union[str, Iterable[str]], require_header: bool = False) -> Instance:
    """Parse the stream file format into an Instance.

    Format: optional header ``n <int>``, then one interval per line as
    ``<left> <right>`` with an optional openness token in
    {cc, co, oc, oo} (default cc).  ``#`` starts a comment line.
    Without a header, n defaults to the maximum observed endpoint.

    This is the check for text input, and the Instance is built without
    checking again.  The line check reads the lines up to the first with
    tokens, so it reads the header.  An open regular file of 128 KiB or
    more (``_regular_path``) whose reading splits lines as numpy's does
    (``\n``, ``\r`` and ``\r\n``) then goes whole, from the next line
    on, to one np.loadtxt call by its path plus the vectorised check of its
    codes.  Any other text, and a file that either refuses, is read on
    from the handle: the lines go in blocks of _BLOCK lines to one
    np.loadtxt call each plus the check; the pieces of a block that either
    refuses go to the line check, so the first bad line and its message
    are those of a line-by-line parse.  A str is split into lines as a
    text file is read: only at ``\n``, ``\r`` and ``\r\n``.
    """
    path = _regular_path(text)
    lines = iter(io.StringIO(text, newline=None) if isinstance(text, str) else text)
    check = _LineCheck()
    chunks = [(_column(()), _column(()))]
    lineno = 1
    for line in lines:
        chunks.append(check.codes((line,), lineno))
        lineno += 1
        if check.started:
            break
    # a handle that splits lines at \n, \r and \r\n, as np.loadtxt's own
    # reading does, sets text.newlines at the first newline it reads (with
    # none, it is at its end); one that splits at one of them only never does
    codes = None
    if path is not None and check.started and text.newlines is not None:
        codes = _block_codes(path, check.declared_n, skiprows=lineno - 1, encoding=text.encoding)
    if codes is not None:
        chunks.append(codes)
    else:
        while block := list(islice(lines, _BLOCK)):
            chunks.extend(_parse_block(block, lineno, check))
            lineno += len(block)
    lcodes, rcodes = (np.concatenate(column) for column in zip(*chunks))
    declared_n = check.declared_n
    if declared_n is None:
        if require_header:
            raise ParseError(0, "header 'n <int>' is required here")
        declared_n = (int(rcodes.max()) + 1) >> 1 if len(rcodes) else 1
    return Instance._trusted(declared_n, lcodes, rcodes)


def format_stream(inst: Instance) -> str:
    """Canonical text form; parse_stream(format_stream(x)) == x.  Decoded as
    Interval's properties do, a _BLOCK-pair slice of the columns at a time,
    each slice written by one %-format of its left, right, suffix fields."""
    out = [f"n {inst.n}\n"]
    for s in range(0, len(inst), _BLOCK):
        ls, rs = inst.lcodes[s:s + _BLOCK], inst.rcodes[s:s + _BLOCK]
        fields = [None] * (3 * len(ls))
        fields[0::3] = (ls >> 1).tolist()
        fields[1::3] = ((rs + 1) >> 1).tolist()
        fields[2::3] = map(_SUFFIX.__getitem__, ((ls & 1) + 2 * (rs & 1)).tolist())
        out.append("%d %d%s\n" * len(ls) % tuple(fields))
    return "".join(out)
