"""Shared test helpers: brute-force geometric predicates over the
half-integer grid, replay validators for the streaming selectors, and
seeded instance makers."""

from __future__ import annotations

import collections
import math

import numpy as np

from intervalstream import oracle
from intervalstream.core import Instance, Interval, Window, intersects
from intervalstream.hashing import ExactDistinct, HashFamily, PolyBank
from intervalstream.rng import SplitMix64


def grid_codes(n: int):
    """Position codes of the half-integer grid {1, 1.5, 2, ..., n}."""
    return range(2, 2 * n + 1)


def brute_intersects(a: Interval, b: Interval, n: int) -> bool:
    return any(a.lcode <= c <= a.rcode and b.lcode <= c <= b.rcode
               for c in grid_codes(n))


def brute_contained(a: Interval, w: Window, n: int) -> bool:
    own = [c for c in grid_codes(n) if a.lcode <= c <= a.rcode]
    return all(w.lo_code <= c <= w.hi_code for c in own)


def all_intervals(n: int):
    """Every interval with endpoints in [1, n], all openness combinations."""
    out = []
    for left in range(1, n + 1):
        for right in range(left, n + 1):
            for lo in (False, True):
                for ro in (False, True):
                    if left == right and (lo or ro):
                        continue
                    out.append(Interval(left, right, lo, ro))
    return out


def recompute_leftmost(contained):
    return min(contained, key=lambda iv: (iv.rcode, -iv.lcode))


def recompute_rightmost(contained):
    return min(contained, key=lambda iv: (-iv.lcode, iv.rcode))


def validate_partition(selector, stream, n: int) -> None:
    """Check every selector invariant against a replay of the stream."""
    windows = selector.windows()
    if not stream:
        assert windows == []
        return
    assert windows, "nonempty stream must create windows"
    assert windows[0].lo_code == -math.inf
    assert windows[-1].hi_code == math.inf
    for prev, nxt in zip(windows, windows[1:]):
        assert nxt.lo_code == prev.hi_code + 1, "windows must tile the line"
    stream_set = set(stream)
    solution = selector.solution()
    assert len(solution) == len(windows)
    for i, a in enumerate(solution):
        for b in solution[i + 1:]:
            assert not intersects(a, b), f"solution overlap: {a} vs {b}"
    for w in windows:
        for witness in (w.leftmost, w.rightmost, w.chosen):
            assert witness in stream_set
            assert w.lo_code <= witness.lcode and witness.rcode <= w.hi_code
        contained = [iv for iv in stream
                     if w.lo_code <= iv.lcode and iv.rcode <= w.hi_code]
        assert contained, "every window has seen a contained interval"
        assert w.leftmost == recompute_leftmost(contained)
        assert w.rightmost == recompute_rightmost(contained)
        core_lo, core_hi = w.rightmost.lcode, w.leftmost.rcode
        assert core_lo <= core_hi, "contained intervals must share a point"
        for i, a in enumerate(contained):
            for b in contained[i + 1:]:
                assert intersects(a, b)


def reference_minima(bank, xs):
    """Each row's smallest hash value over xs and the first column holding
    the smallest id among those with that value, filtered from the full
    eval matrix: the reference for PolyBank.keys, which never builds that
    matrix."""
    values = bank.eval(xs)
    mins = values.min(axis=1)
    ids = np.asarray(xs, dtype=np.int64)
    tied = np.where(values == mins[:, None], ids[None, :], np.iinfo(np.int64).max)
    return mins, tied.argmin(axis=1)


DRAWS = 20000


def minwise_frequencies(n=64, eps=0.25, x_count=16, draws=DRAWS, seed=42):
    """Empirical winner frequencies of a fixed set under independent
    permutations (the min-wise tests and criterion 4)."""
    fam = HashFamily.create(n, eps)
    xs = list(range(3, 3 + 4 * x_count, 4))
    bank = PolyBank(draws, fam, seed=seed)
    _, cols = reference_minima(bank, xs)
    winners = np.asarray(xs)[cols]
    freq = collections.Counter(winners.tolist())
    return xs, winners.tolist(), freq


def general_replay_violations(est, inst, gammas=None, active=None):
    """Replay the general estimator's deterministic sub-checks against the
    oracle; returns one message per violation.  Every row's winner is the
    true permutation minimum over the active set; the trackers of the
    winner node and of its parent, read through the node table, hold the
    exact gamma or are saturated with gamma >= cap; an exact counter counts
    exactly the active segments.  gammas and active may be passed in when
    many runs share one instance."""
    tree = est.tree
    gammas = oracle.gamma_all(inst, tree) if gammas is None else gammas
    active = oracle.active_segments(inst, tree) if active is None else active
    active_ids = sorted(active)
    cap = est.config.gamma_cap
    bad = []
    if isinstance(est.counter, ExactDistinct) and est.counter.estimate() != len(active_ids):
        bad.append(f"counter {est.counter.estimate()} != {len(active_ids)} active")
    for name, group in (("rel", est.rel), ("rho", est.rho)):
        mins, args = reference_minima(group.bank, active_ids)
        for r, v in enumerate(group.winner_id.tolist()):
            if group.winner_value[r] != mins[r] or v != active_ids[args[r]]:
                bad.append(f"{name} row {r}: winner {v} is not the minimum "
                           f"{active_ids[args[r]]}")
                continue
            for u in (v, v >> 1) if v != tree.root else (v,):
                node = est.nodes.get(u)
                if node is None:
                    bad.append(f"{name} row {r}: node {u} has no entry")
                elif node.saturated:
                    if gammas[u] < cap:
                        bad.append(f"node {u} saturated at gamma {gammas[u]} < {cap}")
                elif len(node.seen) != gammas[u]:
                    bad.append(f"node {u} tracks {len(node.seen)} != gamma {gammas[u]}")
    return bad


def random_instance(n: int, count: int, max_len: int, seed: int,
                    open_fraction: float = 0.0) -> Instance:
    """Seeded instance with optional open/half-open endpoints."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        length = rng.below(max_len + 1)
        left = rng.randrange(1, n - length) if n - length >= 1 else 1
        lo = ro = False
        if length > 0 and open_fraction > 0:
            lo = rng.below(1000) < open_fraction * 1000
            ro = rng.below(1000) < open_fraction * 1000
        out.append(Interval(left, left + length, lo, ro))
    return Instance(n, tuple(out))
