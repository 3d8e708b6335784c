"""Shared test helpers: brute-force geometric predicates over the
half-integer grid, replay validators for the streaming selectors, and
seeded instance makers."""

from __future__ import annotations

import collections
import math

from intervalstream import oracle
from intervalstream.core import Instance, Interval, code_columns, intersects
from intervalstream.hashing import ExactDistinct, HashFamily, horner
from intervalstream.rng import SplitMix64
from intervalstream.selector_samelen import ShiftedGridSelector


def grid_codes(n: int):
    """Position codes of the half-integer grid {1, 1.5, 2, ..., n}."""
    return range(2, 2 * n + 1)


def brute_intersects(a: Interval, b: Interval, n: int) -> bool:
    return any(a.lcode <= c <= a.rcode and b.lcode <= c <= b.rcode
               for c in grid_codes(n))


def brute_contained(a: Interval, window, n: int) -> bool:
    """Whether every grid point of ``a`` lies in ``window``, a code range
    ``(lo_code, hi_code)``."""
    lo_code, hi_code = window
    own = [c for c in grid_codes(n) if a.lcode <= c <= a.rcode]
    return all(lo_code <= c <= hi_code for c in own)


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


def reference_records(stream, lam: int):
    """The window records of the same-length layer by brute force, one dict
    per grid a in 0..2: each occupied window j, whose codes are
    [2(a+3j)lam, 2(a+3j+3)lam - 1], maps to its (leftmost, rightmost), the
    interval of the stream contained in it with the smallest rcode and the
    one with the largest lcode, the earliest on a tie."""
    grids = []
    for a in (0, 1, 2):
        contained = collections.defaultdict(list)
        for iv in stream:
            # the window of grid a where iv starts is the only one that can hold it
            j = (iv.lcode - 2 * a * lam) // (6 * lam)
            if 2 * (a + 3 * j) * lam <= iv.lcode and iv.rcode <= 2 * (a + 3 * j + 3) * lam - 1:
                contained[j].append(iv)
        # min and max return the first of equal keys
        grids.append({j: (min(ivs, key=lambda iv: iv.rcode), max(ivs, key=lambda iv: iv.lcode))
                      for j, ivs in contained.items()})
    return grids


def fed_tables(intervals, lam: int):
    """The three grids' RecordTables of a ShiftedGridSelector fed
    ``intervals``, an Instance or Intervals of length lam: ``extremes`` per
    window, and ``len(rows)`` and ``type2_count()`` as gamma1 and gamma2."""
    sel = ShiftedGridSelector(lam)
    sel.feed(*code_columns(intervals))
    return sel.tables


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
    assert solution == [w.leftmost for w in windows]
    for w in windows:
        for witness in (w.leftmost, w.rightmost):
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


def reference_bottom_k(sketch, ids):
    """The min(k, len(ids)) smallest (h(x), x) pairs over the distinct ids,
    h evaluated by horner on the sketch bank's coefficients: the reference
    for a BottomK sketch offered ids."""
    bank = sketch.bank
    pairs = sorted((horner(bank.coeffs, x, bank.prime), x) for x in set(ids))
    return pairs[:sketch.k]


DRAWS = 20000


def coefficient_rows(fam, rows, seed):
    """The coefficients of ``rows`` polynomials of the family, drawn row
    after row from SplitMix64(seed).below: the first row is the polynomial
    of PolyBank(fam, seed), and each row is one permutation of the family."""
    rng = SplitMix64(seed)
    return [[rng.below(fam.prime) for _ in range(fam.degree)] for _ in range(rows)]


def minwise_frequencies(n=64, eps=0.25, x_count=16, draws=DRAWS, seed=42):
    """Empirical winner frequencies of a fixed set under independent
    permutations (the min-wise tests and criterion 4): each coefficient row
    orders the ids by (h(x), x), and its first id wins."""
    fam = HashFamily.create(n, eps)
    xs = list(range(3, 3 + 4 * x_count, 4))
    winners = [min((horner(cs, x, fam.prime), x) for x in xs)[1]
               for cs in coefficient_rows(fam, draws, seed)]
    freq = collections.Counter(winners)
    return xs, winners, freq


def general_replay_violations(est, inst, gammas=None, active=None):
    """Replay the general estimator's deterministic sub-checks against the
    oracle; returns one message per violation.  Each sample holds exactly
    the min(k, active) smallest (h(id), id) pairs over the active ids; the
    trackers of every member and of its parent, read through the node
    table, hold the exact gamma or are saturated with gamma >= cap; an
    exact counter counts exactly the active segments.  gammas and active
    may be passed in when many runs share one instance."""
    tree = est.tree
    gammas = oracle.gamma_all(inst, tree) if gammas is None else gammas
    active = oracle.active_segments(inst, tree) if active is None else active
    cap = est.config.gamma_cap
    bad = []
    if isinstance(est.counter, ExactDistinct) and est.counter.estimate() != len(active):
        bad.append(f"counter {est.counter.estimate()} != {len(active)} active")
    for name, sample in (("rel", est.rel), ("rho", est.rho)):
        expected = reference_bottom_k(sample, active)
        if sample.pairs() != expected:
            bad.append(f"{name} sample is not the {len(expected)} smallest active pairs")
            continue
        for _, v in expected:
            for u in (v, v >> 1) if v != tree.root else (v,):
                node = est.nodes.get(u)
                if node is None:
                    bad.append(f"{name} member {v}: node {u} has no entry")
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
