"""Exact integer model of intervals, windows, and interval streams.

Endpoint openness is encoded by doubling coordinates into *position codes*:
point ``x`` becomes code ``2*x`` and the open gap just past ``x`` becomes
``2*x + 1``.  Every interval or window is then a closed range of integer
codes, so intersection and containment are plain integer comparisons with
no epsilon handling, even for mixed open/closed inputs.

An Instance holds its stream as two code columns, not as Interval objects,
and ``parse_stream`` fills them a block of lines at a time with
``np.loadtxt``; the line-by-line check reads only the pieces of a block
that this refuses.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np


class ParseError(ValueError):
    """Malformed stream text (carries the 1-based line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DomainError(ValueError):
    """Structurally valid input whose values fall outside the universe."""


_OPENNESS = {"cc": (False, False), "co": (False, True),
             "oc": (True, False), "oo": (True, True)}
# by the parities of (lcode, rcode), which are the openness flags
_SUFFIX = {(int(lo), int(ro)): k for k, (lo, ro) in _OPENNESS.items()}


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


# Extended code type for windows: integer codes or +-inf.
Code = Union[int, float]


@dataclass(frozen=True)
class Window:
    """An algorithm-constructed interval of the real line.

    Stored as an inclusive range ``[lo_code, hi_code]`` of position codes;
    either bound may be infinite.  A single-code window is a legal
    (single-point) window.
    """

    lo_code: Code
    hi_code: Code

    def __post_init__(self):
        if self.lo_code > self.hi_code:
            raise DomainError(f"empty window: codes ({self.lo_code}, {self.hi_code})")

    @classmethod
    def whole_line(cls) -> "Window":
        return cls(-math.inf, math.inf)

    @classmethod
    def from_endpoints(cls, low, high, low_closed: bool = True,
                       high_closed: bool = True) -> "Window":
        lo = -math.inf if low == -math.inf else 2 * low + (0 if low_closed else 1)
        hi = math.inf if high == math.inf else 2 * high - (0 if high_closed else 1)
        return cls(lo, hi)

    @property
    def low(self) -> Code:
        if self.lo_code == -math.inf:
            return -math.inf
        return self.lo_code // 2

    @property
    def low_closed(self) -> bool:
        return self.lo_code != -math.inf and self.lo_code % 2 == 0

    @property
    def high(self) -> Code:
        if self.hi_code == math.inf:
            return math.inf
        return (self.hi_code + 1) // 2

    @property
    def high_closed(self) -> bool:
        return self.hi_code != math.inf and self.hi_code % 2 == 0

    def contains_code(self, code: Code) -> bool:
        return self.lo_code <= code <= self.hi_code

    def __str__(self) -> str:
        lb = "[" if self.low_closed else "("
        rb = "]" if self.high_closed else ")"
        lo = "-inf" if self.low == -math.inf else str(self.low)
        hi = "+inf" if self.high == math.inf else str(self.high)
        return f"{lb}{lo},{hi}{rb}"


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


def contained_in(a: Interval, w: Window) -> bool:
    """True iff every point of ``a`` lies in window ``w``."""
    return w.lo_code <= a.lcode and a.rcode <= w.hi_code


# Lines per np.loadtxt call in parse_stream, and pairs per slice of
# Instance.codes().
_BLOCK = 8192

# Lines below which a refused piece of a block is not halved.
_MIN_PIECE = 32

# Endpoints below this have int64 position codes: 2 * x + 1 < 2**63.
_CODE_LIMIT = 2 ** 62

_make_interval = partial(tuple.__new__, Interval)  # from (lcode, rcode), unchecked


def _column(codes) -> np.ndarray:
    """A code column: int64, or object dtype when a code does not fit."""
    try:
        return np.array(codes, dtype=np.int64)
    except OverflowError:
        return np.array(codes, dtype=object)


def _codes_fit(lcodes: np.ndarray, rcodes: np.ndarray, n: Optional[int]) -> bool:
    """The vectorised check of code columns: every pair is a nonempty
    interval (lcode <= rcode) inside [1, n]; n None sets no upper bound."""
    if not len(lcodes):
        return True
    return bool((lcodes <= rcodes).all() and lcodes.min() >= 2
                and (n is None or rcodes.max() <= 2 * n))


def code_pairs(lcodes: np.ndarray, rcodes: np.ndarray,
               order: Optional[np.ndarray] = None) -> Iterator[Tuple[int, int]]:
    """The ``(lcode, rcode)`` pairs of two code columns as Python ints, in
    column order or in the index order ``order``.  The columns are read in
    slices of _BLOCK pairs, so no full-length list is built."""
    starts = range(0, len(lcodes), _BLOCK)
    if order is None:
        parts = (slice(s, s + _BLOCK) for s in starts)
    else:
        parts = (order[s:s + _BLOCK] for s in starts)
    return chain.from_iterable(zip(lcodes[p].tolist(), rcodes[p].tolist()) for p in parts)


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
        if not _codes_fit(lcodes, rcodes, n):
            bad = next(iv for iv in intervals if iv[0] < 2 or iv[1] > 2 * n)
            raise DomainError(f"interval {bad} outside [1, {n}]")
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

    def codes(self, order: Optional[np.ndarray] = None) -> Iterator[Tuple[int, int]]:
        """The ``(lcode, rcode)`` pairs as Python ints, in stream order or in
        the index order ``order``."""
        return code_pairs(self.lcodes, self.rcodes, order)

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


def _block_codes(lines: List[str], n: Optional[int]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The code columns of a block of lines by one np.loadtxt call, when
    every line with tokens is a closed interval ``left right`` inside [1, n]
    with endpoints below 2**62; otherwise None.  np.loadtxt refuses openness
    flags, ragged rows and tokens that are no int64, and splits a line as
    str.split does, so a block without data (comment and blank lines only)
    is one the line check reads no interval from either."""
    with warnings.catch_warnings(record=True):  # "input contained no data"
        try:
            ends = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
        except ValueError:
            return None
    if not len(ends):
        return _column(()), _column(())
    # the bounds first, so that doubling cannot wrap around
    if ends.shape[1] != 2 or ends.min() < 1 or ends.max() >= _CODE_LIMIT:
        return None
    lcodes, rcodes = 2 * ends[:, 0], 2 * ends[:, 1]
    return (lcodes, rcodes) if _codes_fit(lcodes, rcodes, n) else None


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


def parse_stream(text: Union[str, Iterable[str]], require_header: bool = False) -> Instance:
    """Parse the stream file format into an Instance.

    Format: optional header ``n <int>``, then one interval per line as
    ``<left> <right>`` with an optional openness token in
    {cc, co, oc, oo} (default cc).  ``#`` starts a comment line.
    Without a header, n defaults to the maximum observed endpoint.

    This is the check for text input, and the Instance is built without
    checking again.  The line check reads the lines up to the first with
    tokens, so it reads the header.  The lines after it go in blocks of
    _BLOCK lines to one np.loadtxt call each plus the vectorised check of
    their codes; the pieces of a block that either refuses go to the line
    check, so the first bad line and its message are those of a
    line-by-line parse.  A str is split into lines as a text file is read:
    only at ``\n``, ``\r`` and ``\r\n``.
    """
    lines = iter(io.StringIO(text, newline=None) if isinstance(text, str) else text)
    check = _LineCheck()
    chunks = [(_column(()), _column(()))]
    lineno = 1
    for line in lines:
        chunks.append(check.codes((line,), lineno))
        lineno += 1
        if check.started:
            break
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
    """Canonical text form; parse_stream(format_stream(x)) == x."""
    out = [f"n {inst.n}"]
    for lcode, rcode in inst.codes():
        # decoded as Interval's properties do, without an Interval per line
        left, right = lcode >> 1, (rcode + 1) >> 1
        suffix = _SUFFIX[lcode & 1, rcode & 1]
        if suffix == "cc":
            out.append(f"{left} {right}")
        else:
            out.append(f"{left} {right} {suffix}")
    return "\n".join(out) + "\n"
