"""Instance generators: seeded uniform streams and the adversarial
bit-membership constructions whose optimum takes one of two values
depending on a single membership bit.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

import numpy as np

from .core import _BLOCK, _CODE_LIMIT, Instance, Interval, _column, refuse
from .rng import _MASK, SplitMix64


def _uniform(n: int, count: int, seed: int, max_len: Optional[int], length: int = 0) -> Instance:
    """Closed intervals as ``rng.below`` draws them one at a time: the length,
    ``below(max_len + 1)`` (or ``length``), then the left endpoint,
    ``randrange(1, n - length)``.  A rejected draw shifts every later one, so
    the rest of its block is judged again, in windows of twice the rows the
    last rejection let through.  A bound past 2**64 rejects every draw."""
    width = 1 if max_len is None else 2
    name, value = ("length", length) if width == 1 else ("max_len", max_len)
    if not 1 <= value < n:
        raise ValueError(f"need 1 <= {name} < n, got {name}={value}, n={n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng, dtype = SplitMix64(seed), object if n >= _CODE_LIMIT else np.uint64  # as _column
    done, w = [np.zeros((0, width), dtype=dtype)], _BLOCK
    for start in range(0, count, _BLOCK):
        u = rng.next_u64s(width * min(_BLOCK, count - start))
        while len(u):
            rows = u[:width * w].astype(dtype, copy=False).reshape(-1, width)
            bounds = np.full(rows.shape, n - length if width == 1 else max_len + 1, dtype=dtype)
            if width == 2:
                bounds[:, 1] = n - rows[:, 0] % bounds[:, 0]
            bad = rows > _MASK - (_MASK - bounds + 1) % bounds
            r = int(bad.argmax()) if bad.any() else bad.size
            done.append(rows[:r // width] % bounds[:r // width])
            skip = int(r < bad.size)  # past the rejected draw r
            if skip and bounds.flat[r] > 1 << 64:
                raise ValueError(f"bound must be in (0, 2**64], got {bounds.flat[r]}")
            u = np.concatenate((u[r - r % width:r], u[r + skip:], rng.next_u64s(skip)))
            w = max(2 * (r // width), 16) if skip else min(2 * w, _BLOCK)
    draws = np.concatenate(done)
    lefts, lengths = draws[:, -1] + 1, length if width == 1 else draws[:, 0]
    lcodes, rcodes = _column(2 * lefts), _column(2 * (lefts + lengths))
    refuse(lcodes, rcodes, n)
    return Instance._trusted(n, lcodes, rcodes)


def gen_uniform(n: int, count: int, max_len: int, seed: int) -> Instance:
    """Closed intervals: length uniform in [0, max_len], left endpoint
    uniform in [1, n - length]."""
    return _uniform(n, count, seed, max_len)


def gen_uniform_samelen(n: int, count: int, length: int, seed: int) -> Instance:
    """Closed intervals of one fixed length, left endpoint uniform."""
    return _uniform(n, count, seed, None, length)


def _check_members(n_bits: int, members: Iterable[int], i: int) -> Set[int]:
    members = set(members)
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    if not 1 <= i <= n_bits:
        raise ValueError(f"query index {i} outside [1, {n_bits}]")
    if any(not 1 <= j <= n_bits for j in members):
        raise ValueError(f"members {sorted(members)} not within [1, {n_bits}]")
    return members


def gen_index_samelen(n_bits: int, members: Iterable[int], i: int) -> Instance:
    """Same-length hard instance: one closed length-L interval per member
    bit, then two open flanking intervals for the queried bit.  The optimum
    is 3 when the bit is set, else 2."""
    members = _check_members(n_bits, members, i)
    big = n_bits + 2
    intervals = [Interval(big + j, 2 * big + j) for j in sorted(members)]
    intervals.append(Interval(i, big + i, left_open=True, right_open=True))
    intervals.append(Interval(2 * big + i, 3 * big + i, left_open=True, right_open=True))
    return Instance(3 * big + n_bits, tuple(intervals))


def expected_alpha_index_samelen(members: Iterable[int], i: int) -> int:
    return 3 if i in set(members) else 2


def gen_index_general(n_bits: int, members: Iterable[int], i: int, k: int) -> Instance:
    """General hard instance: a chain of k open intervals per member bit,
    then k+1 zero-length closed intervals for the queried bit.  The optimum
    is 2k+1 when the bit is set, else k+1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    members = _check_members(n_bits, members, i)
    big = n_bits + 2
    intervals = []
    for j in sorted(members):
        for t in range(k):
            intervals.append(Interval(j + t * big, j + (t + 1) * big,
                                      left_open=True, right_open=True))
    for t in range(k + 1):
        intervals.append(Interval(i + t * big, i + t * big))
    return Instance(k * big + n_bits, tuple(intervals))


def expected_alpha_index_general(members: Iterable[int], i: int, k: int) -> int:
    return 2 * k + 1 if i in set(members) else k + 1


def random_index_input(n_bits: int, seed: int):
    """A seeded (members, i) pair with each bit set with probability 1/2."""
    rng = SplitMix64(seed)
    members = {j for j in range(1, n_bits + 1) if rng.below(2) == 1}
    i = rng.randrange(1, n_bits)
    return members, i
