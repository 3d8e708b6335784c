"""Sampling substrate: k-wise independent hashing over a prime field, the
eps-min-wise permutation family it induces, the bottom-k sketch that samples
under it, and pluggable distinct-element counters (exact set or bottom-k
sketch).

A permutation order over [n] is induced by comparing (h(x), x) pairs
lexicographically, where h is a random degree-(t-1) polynomial modulo a
prime p.  The fixed constants C1 = 8 and C2 = 4 set p >= C1 * n / eps, so
that [n] occupies at most an eps/C1 fraction of the field, and t =
max(2, ceil(C2 * log2(1/eps))).  PolyBank draws and evaluates one such
polynomial; BottomK is the one sampler, and hashes the ids offered to it
with its own PolyBank.  All randomness flows from explicit 64-bit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappush, heapreplace, nsmallest
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .core import check_eps
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
        check_eps(eps)
        prime = next_prime(math.ceil(C1 * universe / eps))
        degree = max(2, math.ceil(C2 * math.log2(1.0 / eps)))
        return cls(universe, eps, prime, degree)


def kmv_k(eps: float) -> int:
    """Size of a KMV counter over a family of this eps: ceil(96 / eps**2)."""
    return math.ceil(96.0 / eps ** 2)


class PolyBank:
    """One random member h of the family, its coefficients drawn in turn from
    SplitMix64(seed).below.  Every value is exact Horner, for every prime
    below 2**64: on Python integers, or on one int64 column for a long
    ``keys`` call under a prime of at most _INT64_PRIME."""

    def __init__(self, family: HashFamily, seed: int):
        self.family = family
        self.prime = family.prime
        self.columns_hashed = 0
        rng = SplitMix64(seed)
        self.coeffs = [rng.below(self.prime) for _ in range(family.degree)]

    def eval(self, xs: Sequence[int]) -> List[int]:
        """h(x) for each x of xs, on Python integers: the reference for keys."""
        return [horner(self.coeffs, x, self.prime) for x in xs]

    def keys(self, xs: Sequence[int]) -> List[int]:
        """h(x) for each x of xs, counted in ``columns_hashed``."""
        self.columns_hashed += len(xs)
        cs, prime = self.coeffs, self.prime
        if len(xs) < _MIN_COLUMN or prime > _INT64_PRIME:
            return [horner(cs, x, prime) for x in xs]
        return horner(cs, np.asarray(xs, dtype=np.int64) % prime, prime).tolist()


class BottomK:
    """Bottom-k sketch: the k smallest (h(x), x) pairs over the ids offered so
    far, under the one polynomial h of its own PolyBank.

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
        self.bank = PolyBank(family, seed)
        self.members: Set[int] = set()
        self._heap: List[Tuple[int, int]] = []  # (-value, -id): top = largest pair

    def offer(self, x: int) -> Optional[int]:
        """Offer id x, hashed alone unless a member: the reference for
        ``offer_many``.  Returns None when the sample is unchanged, else the id
        x evicted, 0 for none."""
        if x in self.members:
            return None
        value = self.bank.keys([x])[0]
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

    def offer_many(self, xs: Sequence[int]) -> Tuple[List[int], List[int]]:
        """Offer distinct ids xs.  Returns the ids that entered and the members
        they evicted; the sample then holds what offering xs one at a time, in
        any order, leaves.  The members among xs are skipped (``_offer_new``)."""
        return self._offer_new([x for x in xs if x not in self.members])

    def _offer_new(self, xs: List[int]) -> Tuple[List[int], List[int]]:
        """``offer_many`` of distinct non-members, hashed in one ``keys`` call
        unless there are none.  In increasing pair order the smallest fill the
        free places, and each later one enters by evicting the largest held
        pair until one does not, and then no later one does; so no id of xs is
        evicted by another, and after the fill only the pairs below the largest
        held one are sorted.  The fill joins the heap at once, or one push at a
        time when it is small against the heap, so a small call costs
        O(len(xs) log k), not O(k)."""
        heap, members = self._heap, self.members
        values = self.bank.keys(xs) if xs else []
        room = max(self.k - len(heap), 0)
        fill = list(zip(values, xs)) if len(xs) <= room else nsmallest(room, zip(values, xs))
        if 8 * len(fill) < len(heap):
            for v, x in fill:
                heappush(heap, (-v, -x))
        else:
            heap.extend((-v, -x) for v, x in fill)
            heapify(heap)
        entered = [x for _, x in fill]
        members.update(entered)
        if len(xs) <= room:
            return entered, []
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
        self.offer(x)
        return True

    def add_many(self, xs: Sequence[int]) -> List[int]:
        """Add distinct ids as add does each: returns the non-members, offered at once."""
        fresh = [x for x in xs if x not in self.members]
        self._offer_new(fresh)
        return fresh

    def estimate(self) -> float:
        if len(self._heap) < self.k:
            return float(len(self._heap))
        return (self.k - 1) * self.bank.prime / max(-self._heap[0][0], 1)


def make_counter(kind: str, family: HashFamily, seed: int):
    if kind == "exact":
        return ExactDistinct()
    if kind == "kmv":
        return KMVDistinct(kmv_k(family.eps), family, seed)
    raise ValueError(f"unknown counter kind {kind!r}")
