"""Sampling substrate: k-wise independent hashing over a prime field, the
eps-min-wise permutation family it induces, streaming min-samplers, and
pluggable distinct-element counters (exact set or bottom-k sketch).

A permutation order over [n] is induced by comparing (h(x), x) pairs
lexicographically, where h is a random degree-(t-1) polynomial modulo a
prime p chosen so that [n] occupies at most an eps/c1 fraction of the
field.  PolyBank draws and evaluates every such polynomial; SamplerRows is
the one min-wise sampler.  All randomness flows from explicit 64-bit seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heappushpop
from typing import List, Sequence

import numpy as np

from .rng import _GOLDEN, _MASK


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


def horner(coeffs: Sequence[int], x: int, prime: int) -> int:
    """sum(coeffs[i] * x**i) mod prime, on Python integers."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


@dataclass(frozen=True)
class HashFamily:
    """Parameters of the permutation family over [universe].

    Deterministic given (universe, eps, c1, c2): the field prime is the
    smallest prime >= c1 * universe / eps and the polynomial degree gives
    max(2, ceil(c2 * log2(1/eps)))-wise independence.
    """

    universe: int
    eps: float
    prime: int
    degree: int

    @classmethod
    def create(cls, universe: int, eps: float, c1: float = 8.0, c2: float = 4.0) -> "HashFamily":
        if universe < 1:
            raise ValueError(f"universe must be >= 1, got {universe}")
        if not 0 < eps < 0.5:
            raise ValueError(f"eps must be in (0, 1/2), got {eps}")
        m = math.ceil(c1 * universe / eps)
        prime = next_prime(m)
        degree = max(2, math.ceil(c2 * math.log2(1.0 / eps)))
        return cls(universe, eps, prime, degree)


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

    def estimate(self) -> float:
        return float(len(self.seen))

    @property
    def units(self) -> int:
        return len(self.seen)


class KMVDistinct:
    """Bottom-k distinct counter: keeps the k smallest (hash, id) pairs.

    Exact while fewer than k distinct ids were observed; afterwards
    estimates (k-1) * prime / (k-th smallest hash value).
    """

    def __init__(self, k: int, family: HashFamily, seed: int):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        self.k = k
        self.prime = family.prime
        self.hash = PolyBank(1, family, seed).row_hash(0)
        self._members = set()
        self._heap: List = []  # (-value, -id): top of heap = largest (value, id)
        self.saturated = False

    def add(self, x: int) -> bool:
        """Returns True when x is possibly new: every first occurrence
        returns True, and so may a repeat of an id the sketch rejected or
        evicted, since it no longer remembers it.  False means x is a
        repeat.  Callers that act only on True see every first occurrence."""
        if x in self._members:
            return False
        v = self.hash(x)
        if len(self._heap) < self.k:
            self._members.add(x)
            heappush(self._heap, (-v, -x))
            if len(self._heap) == self.k:
                self.saturated = True
            return True
        worst_v, worst_x = -self._heap[0][0], -self._heap[0][1]
        if (v, x) < (worst_v, worst_x):
            self._members.add(x)
            self._members.discard(worst_x)
            heappushpop(self._heap, (-v, -x))
        return True

    def estimate(self) -> float:
        if not self.saturated:
            return float(len(self._heap))
        kth_value = -self._heap[0][0]
        return (self.k - 1) * self.prime / max(kth_value, 1)

    @property
    def units(self) -> int:
        return len(self._heap)


def make_counter(kind: str, family: HashFamily, seed: int, kmv_k: int):
    if kind == "exact":
        return ExactDistinct()
    if kind == "kmv":
        return KMVDistinct(kmv_k, family, seed)
    raise ValueError(f"unknown counter kind {kind!r}")


def _np_mix64(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def bulk_u64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Vectorized SplitMix64: element i equals the (offset+i+1)-th draw of
    SplitMix64(seed)."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    counters = (np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN))
    return _np_mix64(counters)


def bulk_below(seed: int, bound: int, count: int) -> np.ndarray:
    """Vectorized unbiased draws in [0, bound) via rejection: draw i is
    replaced by later draws of the stream, in order, while it is rejected.
    A bound dividing 2**64 rejects nothing."""
    if not 0 < bound < 1 << 64:
        raise ValueError(f"bound must be in (0, 2**64), got {bound}")
    draws = bulk_u64(seed, count)
    out = draws % np.uint64(bound)
    rem = (1 << 64) % bound
    if not rem:
        return out
    limit = np.uint64((1 << 64) - rem)
    pending = np.nonzero(draws >= limit)[0]
    offset = count
    while pending.size:
        draws = bulk_u64(seed, pending.size, offset)
        offset += pending.size
        good = draws < limit
        out[pending[good]] = draws[good] % np.uint64(bound)
        pending = pending[~good]
    return out


# Matrix entries per row block of PolyBank._value_blocks: 512 KB float64
# temporaries are reused from the heap, where full rows x columns ones were
# mapped and faulted in afresh on every call.
_BLOCK_ENTRIES = 1 << 16


class PolyBank:
    """A bank of independent family members evaluated jointly.

    Row j holds the coefficients of one random polynomial; eval() returns
    the rows x points matrix of hash values and keys() each row's minimum
    in the min-wise order on (value, point).  Runs exact float64 limb
    matmuls on uint64 data (the "blas" path) when a limb width keeps the
    float64 sums exact; falls back to exact Python integers (the "object"
    path) otherwise.
    """

    def __init__(self, rows: int, family: HashFamily, seed: int):
        self.rows = rows
        self.family = family
        self.prime = family.prime
        self.degree = family.degree
        self.columns_hashed = 0
        self._bits = self._limb_bits()
        self.fast = bool(self._bits)
        flat = bulk_below(seed, self.prime, rows * family.degree)
        if self.fast:
            self.coeffs = flat.reshape(rows, family.degree)
            limbs = (int(self.prime - 1).bit_length() + self._bits - 1) // self._bits
            if limbs == 1:
                self._limb_parts = [self.coeffs.astype(np.float64)]
            else:
                mask = np.uint64((1 << self._bits) - 1)
                self._limb_parts = [
                    ((self.coeffs >> np.uint64(limb * self._bits)) & mask).astype(np.float64)
                    for limb in range(limbs)]
        else:
            self.coeffs = [[int(v) for v in flat[r * family.degree:(r + 1) * family.degree]]
                           for r in range(rows)]

    @property
    def hash_path(self) -> str:
        """"blas" when eval runs the float64 limb matmuls, "object" when it
        runs Python-integer loops."""
        return "blas" if self.fast else "object"

    def eval(self, xs: Sequence[int]) -> np.ndarray:
        """Hash values, shape (rows, len(xs))."""
        if self.fast:
            out = np.empty((self.rows, len(xs)), dtype=np.uint64)
            for lo, values in self._value_blocks(xs):
                out[lo:lo + len(values)] = values
            return out
        out = np.empty((self.rows, len(xs)), dtype=object)
        for r in range(self.rows):
            out[r] = [horner(self.coeffs[r], x, self.prime) for x in xs]
        return out

    def _power_table(self, xs: Sequence[int]) -> np.ndarray:
        """x**i mod p for i < degree, exact in uint64 for any p < 2**62.

        With B = bitlen(p - 1) and w = 63 - B, x splits into a top limb below
        2**(64 - B) and `low` w-bit limbs, so the first product power * top
        and every later step acc * 2**w + power * limb stay below 2**64.
        For p - 1 < 2**32 there are no low limbs: one product per power.
        """
        p = np.uint64(self.prime)
        x = np.asarray(xs, dtype=np.uint64) % p
        bits = (self.prime - 1).bit_length()
        w = 63 - bits
        low = -(-max(0, 2 * bits - 64) // w)
        mask = np.uint64((1 << w) - 1)
        top = x >> np.uint64(w * low)
        limbs = [(x >> np.uint64(w * k)) & mask for k in reversed(range(low))]
        powers = np.empty((self.degree, len(xs)), dtype=np.uint64)
        powers[0] = 1
        for i in range(1, self.degree):
            acc = powers[i - 1] * top % p
            for limb in limbs:
                acc = ((acc << np.uint64(w)) + powers[i - 1] * limb) % p
            powers[i] = acc
        return powers

    def _limb_bits(self) -> int:
        """Widest limb split keeping float64 arithmetic exact: the degree-long
        matmul sums and the limb recombination acc * 2**bits + raw both stay
        below (degree + 1) * 2**bits * (p - 1) < 2**53.  The full width
        bitlen(p - 1) comes first: one limb, nothing to recombine.  0 when
        none fits."""
        for bits in ((self.prime - 1).bit_length(), 16, 8, 4):
            if (self.degree + 1) * (1 << bits) * (self.prime - 1) < (1 << 53):
                return bits
        return 0

    def _float_mod(self, a: np.ndarray) -> np.ndarray:
        """Exact a mod p for nonnegative integer-valued float64 arrays below
        2**53: floor-division remainder with a one-step fixup for the
        quotient rounding slip, computed in one scratch array."""
        p = float(self.prime)
        r = np.multiply(a, 1.0 / p)
        np.floor(r, out=r)
        r *= -p
        r += a
        np.add(r, p, out=r, where=r < 0)
        np.subtract(r, p, out=r, where=r >= p)
        return r

    def _value_blocks(self, xs: Sequence[int]):
        """Exact hash values as float64, one block of rows at a time: yields
        (first row, block).  Limb matmuls and reductions run per block, so
        the float64 temporaries stay small."""
        powers = self._power_table(xs).astype(np.float64)
        shift_mod = float((1 << self._bits) % self.prime)
        step = max(1, _BLOCK_ENTRIES // max(1, powers.shape[1]))
        for lo in range(0, self.rows, step):
            acc = None
            for part in reversed(self._limb_parts):
                raw = part[lo:lo + step] @ powers
                if acc is not None:
                    acc *= shift_mod
                    raw += acc
                acc = self._float_mod(raw)
            yield lo, acc

    def keys(self, xs: Sequence[int]):
        """Each row's smallest hash value over xs and the index in xs of the
        column holding it, as (values, cols), in the min-wise order on
        (value, x): equal values tie to the smaller x and repeated ids to
        the earlier column.

        The columns are stable-sorted by x first, so one argmin per row
        breaks both ties.  On the blas path it runs over each row block's
        exact float64 values while the block is cache-resident, so no
        rows x columns matrix is built."""
        self.columns_hashed += len(xs)
        x = np.asarray(xs, dtype=np.uint64 if self.fast else object)
        order = np.argsort(x, kind="stable")
        x = x[order]
        values = np.empty(self.rows, dtype=x.dtype)
        cols = np.empty(self.rows, dtype=np.intp)
        for lo, block in self._value_blocks(x) if self.fast else [(0, self.eval(x))]:
            arg = block.argmin(axis=1)
            values[lo:lo + len(arg)] = block[np.arange(len(arg)), arg]
            cols[lo:lo + len(arg)] = arg
        return values, order[cols]

    def row_hash(self, r: int):
        """Scalar evaluator for row r: the hash of a KMV counter, and the
        reference of replay checks."""
        cs = [int(c) for c in self.coeffs[r]]
        return lambda x: horner(cs, x, self.prime)


class SamplerRows:
    """Rows of min-wise samplers over positive integer ids, each keeping the
    hash value and the id of its running minimum in the (value, id) order
    (id 0: none yet).  Winner values are uint64 on the bank's blas path and
    Python integers on its object path."""

    def __init__(self, rows: int, family: HashFamily, seed: int):
        self.bank = PolyBank(rows, family, seed)
        # the field prime lies above every hash value
        self.winner_value = np.full(rows, family.prime,
                                    dtype=np.uint64 if self.bank.fast else object)
        self.winner_id = np.zeros(rows, dtype=np.int64)

    def move(self, ids: Sequence[int]):
        """Move every row whose minimum over ids comes first in the (value,
        id) order: a smaller value, or an equal value at a smaller id; a
        repeat of a row's own winner leaves it.  Returns the ids the moved
        rows released, the ids they took, and the index in ids at which
        each was taken."""
        values, cols = self.bank.keys(ids)
        taken = np.asarray(ids, dtype=np.int64)[cols]
        moved = np.nonzero((values < self.winner_value) | (
            (values == self.winner_value) & (taken < self.winner_id)))[0]
        released = self.winner_id[moved]
        self.winner_value[moved] = values[moved]
        self.winner_id[moved] = taken[moved]
        return released, taken[moved], cols[moved]
