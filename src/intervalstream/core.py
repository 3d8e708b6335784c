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
from typing import Iterable, Iterator, Union


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


@dataclass(frozen=True, order=True)
class Interval:
    """An integer-endpoint interval, any combination of open/closed ends.

    Zero-length intervals must be closed on both ends; an open zero-length
    interval would be empty and is rejected.
    """

    left: int
    right: int
    left_open: bool = False
    right_open: bool = False

    def __post_init__(self):
        if self.left > self.right:
            raise DomainError(f"left {self.left} > right {self.right}")
        if self.lcode > self.rcode:
            raise DomainError(
                f"empty interval: zero-length endpoints must be closed, got {self!r}")

    @property
    def lcode(self) -> int:
        return 2 * self.left + (1 if self.left_open else 0)

    @property
    def rcode(self) -> int:
        return 2 * self.right - (1 if self.right_open else 0)

    @property
    def length(self) -> int:
        return self.right - self.left

    def __str__(self) -> str:
        lb = "(" if self.left_open else "["
        rb = ")" if self.right_open else "]"
        return f"{lb}{self.left},{self.right}{rb}"


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
    ordered = sorted(intervals, key=lambda iv: iv.lcode)
    return all(b.lcode > a.rcode for a, b in zip(ordered, ordered[1:]))


def interval_subset(a: Interval, b: Interval) -> bool:
    """True iff every point of ``a`` lies in interval ``b``."""
    return b.lcode <= a.lcode and a.rcode <= b.rcode


def contained_in(a: Interval, w: Window) -> bool:
    """True iff every point of ``a`` lies in window ``w``."""
    return w.lo_code <= a.lcode and a.rcode <= w.hi_code


@dataclass(frozen=True)
class Instance:
    """A coordinate universe bound plus intervals in stream order."""

    n: int
    intervals: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        object.__setattr__(self, "intervals", tuple(self.intervals))
        for iv in self.intervals:
            if iv.left < 1 or iv.right > self.n:
                raise DomainError(f"interval {iv} outside [1, {self.n}]")

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
    """
    lines = text.splitlines() if isinstance(text, str) else text
    declared_n = None
    intervals = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if intervals or declared_n is not None:
                raise ParseError(lineno, "header must come first and appear once")
            if len(tokens) != 2:
                raise ParseError(lineno, f"bad header {line!r}")
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(lineno, f"bad header value {tokens[1]!r}") from None
            if declared_n < 1:
                raise DomainError(f"line {lineno}: n must be positive, got {declared_n}")
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(lineno, f"expected 'left right [flags]', got {line!r}")
        try:
            left, right = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer endpoint in {line!r}") from None
        flags = tokens[2] if len(tokens) == 3 else "cc"
        if flags not in _OPENNESS:
            raise ParseError(lineno, f"unknown openness flags {flags!r}")
        left_open, right_open = _OPENNESS[flags]
        try:
            iv = Interval(left, right, left_open, right_open)
        except DomainError as exc:
            raise ParseError(lineno, str(exc)) from None
        if iv.left < 1:
            raise DomainError(f"line {lineno}: endpoint {iv.left} < 1")
        if declared_n is not None and iv.right > declared_n:
            raise DomainError(f"line {lineno}: endpoint {iv.right} > declared n {declared_n}")
        intervals.append(iv)
    if declared_n is None:
        if require_header:
            raise ParseError(0, "header 'n <int>' is required here")
        declared_n = max((iv.right for iv in intervals), default=1)
    return Instance(declared_n, tuple(intervals))


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
