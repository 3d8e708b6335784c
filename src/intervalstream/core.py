"""Exact integer model of intervals, windows, and interval streams.

Endpoint openness is encoded by doubling coordinates into *position codes*:
point ``x`` becomes code ``2*x`` and the open gap just past ``x`` becomes
``2*x + 1``.  Every interval or window is then a closed range of integer
codes, so intersection and containment are plain integer comparisons with
no epsilon handling, even for mixed open/closed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Tuple, Union


class ParseError(ValueError):
    """Malformed stream text (carries the 1-based line number)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DomainError(ValueError):
    """Structurally valid input whose values fall outside the universe."""


_OPENNESS = {"cc": (False, False), "co": (False, True),
             "oc": (True, False), "oo": (True, True)}
_SUFFIX = {v: k for k, v in _OPENNESS.items()}


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
        return self.lo_code // 2 if self.lo_code % 2 == 0 else (self.lo_code - 1) // 2

    @property
    def low_closed(self) -> bool:
        return self.lo_code != -math.inf and self.lo_code % 2 == 0

    @property
    def high(self) -> Code:
        if self.hi_code == math.inf:
            return math.inf
        return self.hi_code // 2 if self.hi_code % 2 == 0 else (self.hi_code + 1) // 2

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


@dataclass(frozen=True)
class Instance:
    """A coordinate universe bound plus intervals in stream order.

    Constructing one checks n and that every interval lies in [1, n];
    ``parse_stream`` checks each line itself and builds its Instance with
    ``_trusted``.
    """

    n: int
    intervals: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        object.__setattr__(self, "intervals", tuple(self.intervals))
        top = 2 * self.n
        for iv in self.intervals:
            if iv.lcode < 2 or iv.rcode > top:
                raise DomainError(f"interval {iv} outside [1, {self.n}]")

    @classmethod
    def _trusted(cls, n: int, intervals: tuple) -> "Instance":
        """An Instance over intervals already checked against [1, n]."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "n", n)
        object.__setattr__(inst, "intervals", intervals)
        return inst

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)


def parse_stream(text: Union[str, Iterable[str]], require_header: bool = False) -> Instance:
    """Parse the stream file format into an Instance.

    Format: optional header ``n <int>``, then one interval per line as
    ``<left> <right>`` with an optional openness token in
    {cc, co, oc, oo} (default cc).  ``#`` starts a comment line.
    Without a header, n defaults to the maximum observed endpoint.

    This is the check for text input: each line is checked once, for
    shape, structure (by the Interval constructor) and range, and the
    Instance is built without checking again.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    declared_n = None
    limit = math.inf          # the declared n, once the header is read
    intervals = []
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "n":
            if intervals or declared_n is not None:
                raise ParseError(lineno, "header must come first and appear once")
            if len(tokens) != 2:
                raise ParseError(lineno, f"bad header {line.strip()!r}")
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad header value {tokens[1]!r}") from None
            if declared_n < 1:
                raise DomainError(f"line {lineno}: n must be positive, got {declared_n}")
            limit = declared_n
            continue
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
        try:
            iv = Interval(left, right, left_open, right_open)
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
        if left < 1:
            raise DomainError(f"line {lineno}: endpoint {left} < 1")
        if right > limit:
            raise DomainError(f"line {lineno}: endpoint {right} > declared n {declared_n}")
        intervals.append(iv)
    if declared_n is None:
        if require_header:
            raise ParseError(0, "header 'n <int>' is required here")
        declared_n = max((iv.right for iv in intervals), default=1)
    return Instance._trusted(declared_n, tuple(intervals))


def format_stream(inst: Instance) -> str:
    """Canonical text form; parse_stream(format_stream(x)) == x."""
    out = [f"n {inst.n}"]
    for iv in inst.intervals:
        suffix = _SUFFIX[(iv.left_open, iv.right_open)]
        if suffix == "cc":
            out.append(f"{iv.left} {iv.right}")
        else:
            out.append(f"{iv.left} {iv.right} {suffix}")
    return "\n".join(out) + "\n"
