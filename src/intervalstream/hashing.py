"""Sampling substrate: k-wise independent hashing over a prime field, the
eps-min-wise permutation family it induces, the bottom-k sketch that samples
under it, and pluggable distinct-element counters (exact set or bottom-k
sketch).

A permutation order over [n] is induced by comparing (h(x), x) pairs
lexicographically, where h is a random degree-(t-1) polynomial modulo a
prime p.  The fixed constants C1 = 8 and C2 = 4 set p >= C1 * n / eps, so
that [n] occupies at most an eps/C1 fraction of the field, and t =
max(2, ceil(C2 * log2(1/eps))).  PolyBank draws and evaluates every such
polynomial; BottomK is the one sampler.  All randomness flows from explicit
64-bit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappush, heapreplace, nsmallest
from operator import neg
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .rng import SplitMix64

C1 = 8
C2 = 4

# Primes up to this keep Horner's rule exact on an int64 column: each step's
# acc * x + c is at most (p - 1)**2 + (p - 1) < 2**63.
_INT64_PRIME = 3_037_000_499

# Ids per PolyBank.keys call from which one int64 column pass is faster than
# Horner on each Python int (at degree 20-27 it breaks even near 32 ids).
_MIN_COLUMN = 32


def next_prime(x: int) -> int:
    """Smallest prime >= x."""
    if x <= 2:
        return 2
    candidate = x if x % 2 else x + 1
    while not _is_prime(candidate):
        candidate += 2
    return candidate


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(x: int) -> bool:
    """Miller-Rabin, deterministic for x < 3.3e24 with these bases."""
    if x < 2:
        return False
    for small in _MR_BASES:
        if x == small:
            return True
        if x % small == 0:
            return False
    d, r = x - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(r - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def horner(coeffs: Sequence[int], x, prime: int):
    """sum(coeffs[i] * x**i) mod prime, on a Python integer, or elementwise
    on an int64 column of values below a prime of at most _INT64_PRIME."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


@dataclass(frozen=True)
class HashFamily:
    """Parameters of the permutation family over [universe].

    Deterministic given (universe, eps): the field prime is the smallest
    prime >= C1 * universe / eps and the polynomial degree gives
    max(2, ceil(C2 * log2(1/eps)))-wise independence.
    """

    universe: int
    eps: float
    prime: int
    degree: int

    @classmethod
    def create(cls, universe: int, eps: float) -> "HashFamily":
        if universe < 1:
            raise ValueError(f"universe must be >= 1, got {universe}")
        if not 0 < eps < 0.5:
            raise ValueError(f"eps must be in (0, 1/2), got {eps}")
        m = math.ceil(C1 * universe / eps)
        prime = next_prime(m)
        degree = max(2, math.ceil(C2 * math.log2(1.0 / eps)))
        return cls(universe, eps, prime, degree)


class PolyBank:
    """A bank of independent family members: row j holds the coefficients of
    one random polynomial, drawn row after row from SplitMix64(seed).below.
    Every value is exact Horner, valid for every prime below 2**64: on
    Python integers, or on one int64 column for a long ``keys`` call under
    a prime of at most _INT64_PRIME."""

    def __init__(self, rows: int, family: HashFamily, seed: int):
        self.family = family
        self.prime = family.prime
        self.columns_hashed = 0
        rng = SplitMix64(seed)
        self.coeffs = [[rng.below(self.prime) for _ in range(family.degree)]
                       for _ in range(rows)]

    def eval(self, xs: Sequence[int]) -> List[List[int]]:
        """Hash values of xs, one list per row."""
        return [[horner(cs, x, self.prime) for x in xs] for cs in self.coeffs]

    def keys(self, xs: Sequence[int]) -> List[int]:
        """Row 0's hash values of xs: the first halves of the (h(x), x) keys
        by which a BottomK sketch ranks the ids."""
        self.columns_hashed += len(xs)
        cs, prime = self.coeffs[0], self.prime
        if len(xs) < _MIN_COLUMN or prime > _INT64_PRIME:
            return [horner(cs, x, prime) for x in xs]
        return horner(cs, np.asarray(xs, dtype=np.int64) % prime, prime).tolist()


class BottomK:
    """Bottom-k sketch: the k smallest (h(x), x) pairs over the ids offered so
    far, under one polynomial h, row 0 of its own one-row PolyBank.

    It samples without replacement.  An id enters only when its pair comes
    before the k-th smallest held one, and that one only falls, so an id
    the sketch rejected or evicted never enters again, and a member's
    repeat is a no-op: an id offered at its first occurrence enters then or
    never.
    """

    def __init__(self, k: int, family: HashFamily, seed: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.bank = PolyBank(1, family, seed)
        self.members: Set[int] = set()
        self._heap: List[Tuple[int, int]] = []  # (-value, -id): top = largest pair

    def offer(self, x: int, value: int) -> Optional[int]:
        """Offer id x with hash value `value` (from bank.keys).  Returns None
        when the sample is unchanged, else the id x evicted, 0 for none."""
        if x in self.members:
            return None
        if len(self._heap) < self.k:
            heappush(self._heap, (-value, -x))
            self.members.add(x)
            return 0
        if (-value, -x) < self._heap[0]:
            return None
        evicted = -heapreplace(self._heap, (-value, -x))[1]
        self.members.remove(evicted)
        self.members.add(x)
        return evicted

    def offer_many(self, xs: Sequence[int], values: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Offer distinct ids xs, none of them a member, with their hash
        values.  The sample afterwards holds what offering them one at a time,
        in any order, leaves.  Returns the ids that entered and the members
        they evicted.  In increasing pair order the smallest fill the free
        places, and each later one enters by evicting the largest held pair
        until one does not, and then no later one does; so no id of xs is
        evicted by another, and after the fill only the pairs below the
        largest held one are sorted.  When all of them fit, they join the
        heap at once."""
        heap, members = self._heap, self.members
        room = max(self.k - len(heap), 0)
        if len(xs) <= room:
            heap.extend(zip(map(neg, values), map(neg, xs)))
            heapify(heap)
            members.update(xs)
            return list(xs), []
        fill = nsmallest(room, zip(values, xs))
        if fill:
            heap.extend((-v, -x) for v, x in fill)
            heapify(heap)
        entered = [x for _, x in fill]
        members.update(entered)
        top_v, top_x = -heap[0][0], -heap[0][1]
        below = sorted((v, x) for v, x in zip(values, xs)
                       if (v < top_v or (v == top_v and x < top_x)) and x not in members)
        evicted = []
        for v, x in below:
            if (-v, -x) < heap[0]:
                break
            evicted.append(-heapreplace(heap, (-v, -x))[1])
            entered.append(x)
            members.add(x)
        members.difference_update(evicted)
        return entered, evicted

    def pairs(self) -> List[Tuple[int, int]]:
        """The held (value, id) pairs in increasing order."""
        return sorted((-v, -x) for v, x in self._heap)

    @property
    def units(self) -> int:
        return len(self._heap)


class ExactDistinct:
    """Distinct counter backed by a plain set; estimate is exact."""

    def __init__(self):
        self.seen = set()

    def add(self, x: int) -> bool:
        """Returns True when x was not seen before."""
        if x in self.seen:
            return False
        self.seen.add(x)
        return True

    def add_many(self, xs: Sequence[int]) -> List[int]:
        """Add distinct ids; returns those not seen before, in order."""
        seen = self.seen
        fresh = [x for x in xs if x not in seen]
        seen.update(fresh)
        return fresh

    def estimate(self) -> float:
        return float(len(self.seen))

    @property
    def units(self) -> int:
        return len(self.seen)


class KMVDistinct(BottomK):
    """Bottom-k distinct counter.  Exact while fewer than k distinct ids were
    added; afterwards estimates (k-1) * prime / (k-th smallest hash value)."""

    def __init__(self, k: int, family: HashFamily, seed: int):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        super().__init__(k, family, seed)

    def add(self, x: int) -> bool:
        """Returns True when x is possibly new: every first occurrence
        returns True, and so may a repeat of an id the sketch rejected or
        evicted, since it no longer remembers it.  False means x is a
        repeat.  Callers that act only on True see every first occurrence."""
        if x in self.members:
            return False
        self.offer(x, self.bank.keys([x])[0])
        return True

    def add_many(self, xs: Sequence[int]) -> List[int]:
        """Add distinct ids, as add does each: returns the ids that were not
        members, which one keys call hashes and one bulk offer takes."""
        fresh = [x for x in xs if x not in self.members]
        self.offer_many(fresh, self.bank.keys(fresh))
        return fresh

    def estimate(self) -> float:
        if len(self._heap) < self.k:
            return float(len(self._heap))
        return (self.k - 1) * self.bank.prime / max(-self._heap[0][0], 1)


def make_counter(kind: str, family: HashFamily, seed: int, kmv_k: int):
    if kind == "exact":
        return ExactDistinct()
    if kind == "kmv":
        return KMVDistinct(kmv_k, family, seed)
    raise ValueError(f"unknown counter kind {kind!r}")
