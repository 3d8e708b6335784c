import collections
import math
from functools import cmp_to_key

import numpy as np
import pytest

from intervalstream import hashing
from intervalstream.estimator import EstimatorConfig
from intervalstream.estimator_samelen import SamelenConfig
from intervalstream.hashing import (ExactDistinct, HashFamily, KMVDistinct,
                                    PolyBank, SamplerRows, bulk_below, bulk_u64,
                                    next_prime)
from intervalstream.rng import SplitMix64

from conftest import DRAWS, minwise_frequencies, reference_minima


def _is_prime_slow(x: int) -> bool:
    return x > 1 and all(x % d for d in range(2, int(math.isqrt(x)) + 1))


def test_family_example():
    fam = HashFamily.create(64, 0.25)
    assert fam.prime == 2053
    assert _is_prime_slow(fam.prime)
    assert fam.prime >= 8 * 64 / 0.25
    assert fam.degree == 8


def test_family_validation_and_determinism():
    with pytest.raises(ValueError):
        HashFamily.create(64, 0.5)
    with pytest.raises(ValueError):
        HashFamily.create(0, 0.25)
    assert HashFamily.create(100, 0.1) == HashFamily.create(100, 0.1)


def test_next_prime():
    assert next_prime(2048) == 2053
    assert next_prime(2) == 2
    assert next_prime(14) == 17
    for x in (10, 100, 1000, 10_000, 1_000_000):
        assert _is_prime_slow(next_prime(x))


def _order_key(bank, r):
    """Row r's min-wise order on ids: x before y when (h(x), x) < (h(y), y)."""
    h = bank.row_hash(r)
    return lambda x: (h(x), x)


def test_perm_less_total_order():
    fam = HashFamily.create(16, 0.25)
    key = _order_key(PolyBank(1, fam, seed=7), 0)

    def less(x, y):
        return key(x) < key(y)

    xs = list(range(1, 17))
    for x in xs:
        assert not less(x, x)
        for y in xs:
            if x != y:
                assert less(x, y) != less(y, x)
    ranked = sorted(xs, key=cmp_to_key(lambda a, b: -1 if less(a, b) else 1))
    assert sorted(ranked) == xs
    for a, b in zip(ranked, ranked[1:]):
        assert less(a, b)


def test_min_sampler_examples():
    fam = HashFamily.create(64, 0.25)
    s = SamplerRows(1, fam, seed=3)
    s.move([5])
    assert s.winner_id[0] == 5
    for _ in range(5):
        s.move([5])
    assert s.winner_id[0] == 5

    rng = SplitMix64(11)
    for trial in range(25):
        xs = sorted({rng.randrange(1, 64) for _ in range(rng.randrange(1, 20))})
        samp = SamplerRows(1, fam, seed=rng.spawn(trial).seed)
        for x in xs:
            samp.move([x])
        assert samp.winner_id[0] == min(xs, key=_order_key(samp.bank, 0))


def test_exact_distinct():
    c = ExactDistinct()
    assert c.estimate() == 0.0
    for x in [3, 3, 5, 9, 5]:
        c.add(x)
    assert c.estimate() == 3.0
    assert c.units == 3


def test_kmv_exact_below_saturation():
    fam = HashFamily.create(1024, 0.25)
    c = KMVDistinct(16, fam, seed=2)
    for x in list(range(1, 11)) * 3:
        c.add(x)
    assert c.estimate() == 10.0
    assert not c.saturated


def test_kmv_add_true_at_every_first_occurrence():
    # a sketch of 4 saturates and evicts; add() may return True again for a
    # rejected or evicted id, but never False at a first occurrence
    fam = HashFamily.create(1024, 0.25)
    c = KMVDistinct(4, fam, seed=3)
    rng = SplitMix64(8)
    seen, repeats_true = set(), 0
    for _ in range(400):
        x = rng.randrange(1, 200)
        fresh = c.add(x)
        if x not in seen:
            assert fresh, x
            seen.add(x)
        elif fresh:
            repeats_true += 1
        assert len(c._heap) == len(c._members) <= 4
    assert c.saturated and repeats_true > 0


def test_kmv_monte_carlo_calibration():
    # 4096 distinct ids at k = ceil(96/0.2^2): within 20% in >= 90 of 100 runs
    fam = HashFamily.create(4096, 0.2)
    k = math.ceil(96.0 / 0.2 ** 2)
    good = 0
    for seed in range(100):
        c = KMVDistinct(k, fam, seed)
        for x in range(1, 4097):
            c.add(x)
        if abs(c.estimate() - 4096) <= 0.2 * 4096:
            good += 1
    assert good >= 90


def test_kmv_hash_is_row_0_of_a_one_row_bank():
    # the counter draws and evaluates its polynomial as every bank does
    for fam in (HashFamily.create(4096, 0.2),
                HashFamily(universe=8, eps=0.3, prime=next_prime(1 << 63), degree=2)):
        bank = PolyBank(1, fam, seed=6)
        c = KMVDistinct(8, fam, seed=6)
        xs = [1, 2, 3, 77, fam.universe]
        assert [c.hash(x) for x in xs] == [int(v) for v in bank.eval(xs)[0]]
        assert [c.hash(x) for x in xs] == [bank.row_hash(0)(x) for x in xs]


def _assert_keys_are_row_minima(bank, xs):
    """keys() holds each row's smallest (row_hash(x), x) over xs: its value,
    and the first column holding it."""
    values, cols = bank.keys(xs)
    assert values.dtype == (np.uint64 if bank.fast else object)
    assert values.shape == cols.shape == (bank.rows,)
    for r in range(bank.rows):
        h = bank.row_hash(r)
        row = [(h(x), x) for x in xs]
        assert int(values[r]) == min(row)[0]
        assert int(cols[r]) == row.index(min(row))


def test_kwise_scalar_matches_bank_rows():
    fam = HashFamily.create(256, 0.3)
    bank = PolyBank(8, fam, seed=99)
    xs = [1, 7, 19, 250]
    values = bank.eval(xs)
    mins, cols = bank.keys(xs)
    for r in range(8):
        h = bank.row_hash(r)
        for j, x in enumerate(xs):
            assert int(values[r, j]) == h(x)
        # row r's scalar order on xs agrees with the bank's minimum
        key = _order_key(bank, r)
        assert (int(mins[r]), xs[int(cols[r])]) == key(min(xs, key=key))
    _assert_keys_are_row_minima(bank, xs)


def test_bulk_u64_matches_scalar():
    rng = SplitMix64(1234)
    scalar = [rng.next_u64() for _ in range(20)]
    assert bulk_u64(1234, 20).tolist() == scalar
    assert bulk_u64(1234, 10, offset=10).tolist() == scalar[10:]


def test_bulk_below_bounds_and_determinism():
    a = bulk_below(5, 97, 1000)
    b = bulk_below(5, 97, 1000)
    assert (a == b).all()
    assert a.max() < 97


def test_draw_bounds_past_2_64_rejected():
    # the rejection limit of a bound past 2**64 is 0: no draw would pass
    rng = SplitMix64(5)
    assert 0 <= rng.below(1 << 64) < 1 << 64
    assert 0 <= bulk_below(5, (1 << 64) - 1, 3).max() < (1 << 64) - 1
    for bad in ((1 << 64) + 1, 10 ** 23, 0):
        with pytest.raises(ValueError):
            rng.below(bad)
    for bad in (1 << 64, 10 ** 23, 0):
        with pytest.raises(ValueError):
            bulk_below(5, bad, 3)


def _bulk_below_by_rounds(seed, bound, count):
    """Rejection in rounds: every pending draw is redrawn from the stream's
    next values, in order, until it falls below the largest multiple of
    bound up to 2**64."""
    limit = (1 << 64) - ((1 << 64) % bound)
    out = np.empty(count, dtype=np.uint64)
    pending = np.arange(count)
    offset = 0
    while pending.size:
        draws = bulk_u64(seed, pending.size, offset)
        offset += pending.size
        good = np.array([int(d) < limit for d in draws], dtype=bool)
        out[pending[good]] = draws[good] % np.uint64(bound)
        pending = pending[~good]
    return out


@pytest.mark.parametrize("bound,rejects", [(97, False), (next_prime(1 << 23), False),
                                           ((1 << 63) + 1, True), (2, False),
                                           (1 << 63, False)],
                         ids=["small", "p-2^23", "2^63+1", "2", "2^63"])
def test_bulk_below_matches_rejection_rounds(bound, rejects):
    # at bound 2**63 + 1 every draw from 2**63 + 1 up is rejected: about half;
    # a bound dividing 2**64 (2, 2**63) rejects none
    count = 2000
    draws = bulk_u64(21, count)
    limit = (1 << 64) - ((1 << 64) % bound)
    assert any(int(d) >= limit for d in draws) == rejects
    got = bulk_below(21, bound, count)
    assert (got == _bulk_below_by_rounds(21, bound, count)).all()
    assert all(int(v) < bound for v in got)
    if not rejects:
        assert (got == draws % np.uint64(bound)).all()
        # with no rejection, draw i is the i-th scalar draw
        rng = SplitMix64(21)
        assert got.tolist() == [rng.below(bound) for _ in range(count)]


def test_minwise_statistical_bound():
    eps = 0.25
    xs, _, freq = minwise_frequencies(eps=eps)
    p0 = 1.0 / len(xs)
    sigma = math.sqrt(p0 * (1 - p0) / DRAWS)
    lo = (1 - eps) * p0 - 3 * sigma
    hi = (1 + eps) * p0 + 3 * sigma
    for x in xs:
        assert lo <= freq[x] / DRAWS <= hi, (x, freq[x] / DRAWS, lo, hi)


def test_conditional_sampling_bound():
    eps = 0.25
    xs, winners, _ = minwise_frequencies(eps=eps)
    y_set = set(xs[:4])
    conditioned = [w for w in winners if w in y_set]
    n_cond = len(conditioned)
    assert n_cond > 0
    q0 = 1.0 / len(y_set)
    sigma = math.sqrt(q0 * (1 - q0) / n_cond)
    lo = (1 - 4 * eps) * q0 - 3 * sigma
    hi = (1 + 4 * eps) * q0 + 3 * sigma
    counts = collections.Counter(conditioned)
    for y in y_set:
        assert lo <= counts[y] / n_cond <= hi


def test_pairwise_collision_rate():
    # degree-2 rows: Pr[h(x) = h(y)] = 1/p for fixed x != y
    p = 149
    c0 = bulk_below(17, p, DRAWS).astype(np.int64)
    c1 = bulk_below(18, p, DRAWS).astype(np.int64)
    x, y = 5, 131
    hx = (c0 + c1 * x) % p
    hy = (c0 + c1 * y) % p
    collisions = int((hx == hy).sum())
    expected = DRAWS / p
    sigma = math.sqrt(DRAWS * (1 / p) * (1 - 1 / p))
    assert abs(collisions - expected) <= 3 * sigma


def _blas_rule(bank) -> bool:
    """The dispatch rule: some limb width, the full bitlen(p - 1) or 16, 8
    or 4 bits, keeps the float64 limb sums exact."""
    return any((bank.degree + 1) * (1 << b) * (bank.prime - 1) < (1 << 53)
               for b in ((bank.prime - 1).bit_length(), 16, 8, 4))


def test_polybank_fast_iff_limb_bound():
    # p ~ 2**40 passes the limb bound at width 8; p ~ 2**50 fails every width
    for prime, fast in ((next_prime(1 << 40), True), (next_prime(1 << 50), False)):
        fam = HashFamily(universe=10, eps=0.4, prime=prime, degree=3)
        bank = PolyBank(4, fam, seed=5)
        assert bank.fast == _blas_rule(bank) == fast
        assert bank.hash_path == ("blas" if fast else "object")
        _assert_keys_are_row_minima(bank, [9, 1, 5])


def _largest_prime_for_limb(degree: int, bits: int) -> int:
    """Largest prime p with (degree + 1) * 2**bits * (p - 1) < 2**53."""
    p = ((1 << 53) - 1) // ((degree + 1) << bits) + 1
    while next_prime(p) != p:
        p -= 1
    return p


def _largest_prime_one_limb(degree: int) -> int:
    """Largest prime p with (degree + 1) * 2**bitlen(p - 1) * (p - 1) < 2**53:
    one full-width limb still keeps the float64 sums exact."""
    for bits in range(52, 0, -1):
        top = min((1 << bits) - 1, ((1 << 53) - 1) // ((degree + 1) << bits))
        if top >= 1 << (bits - 1):
            p = top + 1
            while next_prime(p) != p:
                p -= 1
            return p
    raise AssertionError("no prime fits one limb")


def _assert_eval_matches_row_hash(bank):
    fam = bank.family
    rng = SplitMix64(fam.prime)
    xs = [1, 2, fam.universe, fam.prime - 1] + [rng.randrange(1, fam.prime - 1) for _ in range(40)]
    values = bank.eval(xs)
    assert values.dtype == np.uint64
    for r in range(bank.rows):
        h = bank.row_hash(r)
        assert [int(v) for v in values[r]] == [h(x) for x in xs]


def _families_above_2_32():
    """(family, limb width, at the float64 edge): the general estimator's
    rel and rho families over the universe 4096**2 (the n=4096 seg-id
    universe before heap-index ids) and, per limb width 8 and 4, the largest
    prime passing it."""
    cfg = EstimatorConfig(n=4096, user_eps=0.45, seed=0)
    fams = [(HashFamily.create(4096 ** 2, cfg.eps_rel), 8, False),
            (HashFamily.create(4096 ** 2, cfg.eps_rho), 8, False)]
    for degree, bits in ((27, 8), (3, 4)):
        prime = _largest_prime_for_limb(degree, bits)
        fams.append((HashFamily(universe=1000, eps=0.4, prime=prime, degree=degree), bits, True))
    return fams


@pytest.mark.parametrize("fam,bits,edge", _families_above_2_32(),
                         ids=["u4096sq-rel", "u4096sq-rho", "edge-b8", "edge-b4"])
def test_polybank_blas_exact_above_2_32(fam, bits, edge):
    assert fam.prime > 1 << 32
    bank = PolyBank(6, fam, seed=11)
    assert bank.fast and bank.hash_path == "blas"
    assert bank._limb_bits() == bits
    _assert_eval_matches_row_hash(bank)
    if edge:
        above = HashFamily(universe=fam.universe, eps=fam.eps,
                           prime=next_prime(fam.prime + 1), degree=fam.degree)
        assert PolyBank(1, above, seed=1)._limb_bits() < bits


def _one_limb_families():
    """(family, at the float64 edge): the same-length estimator at n=2**20
    (lambda 16, eps 0.2), the general estimator's rel family at n=4096 over
    heap-index ids (universe 2*4096), and the largest prime one full-width
    limb takes at degree 20."""
    samelen = SamelenConfig(n=1 << 20, lam=16, user_eps=0.2, seed=0)
    general = EstimatorConfig(n=4096, user_eps=0.45, seed=0)
    return [(HashFamily.create(samelen.index_domain, samelen.eps2), False),
            (HashFamily.create(2 * 4096, general.eps_rel), False),
            (HashFamily(universe=1000, eps=0.4, prime=_largest_prime_one_limb(20), degree=20),
             True)]


@pytest.mark.parametrize("fam,edge", _one_limb_families(),
                         ids=["samelen-n2^20", "general-n4096-rel", "edge-one-limb"])
def test_polybank_one_full_width_limb(fam, edge):
    bank = PolyBank(6, fam, seed=11)
    assert bank.fast and bank._limb_bits() == (fam.prime - 1).bit_length()
    assert len(bank._limb_parts) == 1
    _assert_eval_matches_row_hash(bank)
    if edge:
        above = HashFamily(universe=fam.universe, eps=fam.eps,
                           prime=next_prime(fam.prime + 1), degree=fam.degree)
        assert PolyBank(1, above, seed=1)._limb_bits() == 16


@pytest.mark.parametrize("fam", [_one_limb_families()[0][0], _families_above_2_32()[0][0]],
                         ids=["one-limb", "limbs-b8"])
def test_polybank_row_blocks_match_row_hash(fam, monkeypatch):
    # 44 points in blocks of 2 rows: 7 rows leave a short last block
    monkeypatch.setattr(hashing, "_BLOCK_ENTRIES", 2 * 44)
    bank = PolyBank(7, fam, seed=3)
    _assert_eval_matches_row_hash(bank)
    rng = SplitMix64(4)
    xs = [rng.randrange(1, fam.universe) for _ in range(44)]
    mins, cols = bank.keys(xs)
    ref_mins, ref_cols = reference_minima(bank, xs)
    assert (mins == ref_mins).all() and (cols == ref_cols).all()
    _assert_keys_are_row_minima(bank, xs)


def _kernel(bank) -> str:
    if not bank.fast:
        return "object"
    return "one-limb" if len(bank._limb_parts) == 1 else "multi-limb"


_TIE_FAMILIES = [_one_limb_families()[0][0], _families_above_2_32()[0][0],
                 HashFamily(universe=64, eps=0.3, prime=next_prime(1 << 63), degree=3)]


@pytest.mark.parametrize("fam,kernel", zip(_TIE_FAMILIES, ["one-limb", "multi-limb", "object"]),
                         ids=["one-limb", "multi-limb", "object"])
def test_keys_ties_to_smaller_id_and_earlier_column(fam, kernel, monkeypatch):
    # blocks of 3 rows leave a short last block on the blas path
    monkeypatch.setattr(hashing, "_BLOCK_ENTRIES", 3 * 6)
    # degree 1: constant polynomials, every id gets its row's one value
    const = PolyBank(5, HashFamily(fam.universe, fam.eps, fam.prime, degree=1), seed=8)
    assert _kernel(const) == kernel
    assert (const.eval([5, 2, 9]) == const.eval([5, 2, 9])[:, :1]).all()
    mins, cols = const.keys([5, 9, 2, 7, 2, 3])
    assert cols.tolist() == [2] * 5
    assert all(int(m) == const.row_hash(r)(2) for r, m in enumerate(mins))
    # across move calls: an equal value moves a row only at a smaller id, so
    # neither a larger id nor a repeat of its winner (an id an evicting KMV
    # sketch reports again) moves it
    rows = SamplerRows(5, const.family, seed=8)
    assert _kernel(rows.bank) == kernel
    values = [const.row_hash(r)(1) for r in range(5)]
    for ids, winner, moved in (([9, 5, 7], 5, [0] * 5), ([6, 3], 3, [5] * 5),
                               ([4], 3, []), ([3, 3], 3, []), ([8, 2, 2], 2, [3] * 5)):
        released, taken, cols = rows.move(ids)
        assert released.tolist() == moved
        assert taken.tolist() == [winner] * len(moved)
        assert cols.tolist() == [ids.index(winner) for _ in moved]
        assert rows.winner_id.tolist() == [winner] * 5
        assert [int(v) for v in rows.winner_value] == values
    bank = PolyBank(5, fam, seed=9)
    assert _kernel(bank) == kernel
    chunks = ([40, 3, 17, 3, 8, 40], [7, 7, 7], [12, 1, 30, 6, 6, 2])
    for xs in chunks:
        mins, cols = bank.keys(xs)
        ref_mins, ref_cols = reference_minima(bank, xs)
        assert (mins == ref_mins).all() and (cols == ref_cols).all()
        _assert_keys_are_row_minima(bank, xs)
    # moving over the chunks in turn ends at each row's minimum over them all
    rows = SamplerRows(5, fam, seed=9)
    for xs in chunks:
        rows.move(xs)
    union = [x for xs in chunks for x in xs]
    ref_mins, ref_cols = reference_minima(bank, union)
    assert (rows.winner_value == ref_mins).all()
    assert rows.winner_id.tolist() == [union[c] for c in ref_cols]


def test_float_mod_exact_at_quotient_slips():
    # a = k*p + {0, 1, p-1} below 2**53: floor(a * (1/p)) lands one off in
    # both directions for these primes, so both fixups of _float_mod run
    slips = {"low": 0, "high": 0}
    for prime in (next_prime(3 * 10 ** 10), next_prime(10 ** 11), next_prime(10 ** 12),
                  _largest_prime_for_limb(3, 4)):
        bank = PolyBank(1, HashFamily(universe=1, eps=0.4, prime=prime, degree=2), seed=1)
        top = ((1 << 53) - 1) // prime
        ks = np.unique(np.linspace(0, top - 1, 2000).astype(np.int64)).astype(object)
        for rem in (0, 1, prime - 1):
            a = (ks * prime + rem).astype(np.float64)
            raw = a - np.floor(a * (1.0 / prime)) * prime
            slips["low"] += int((raw < 0).sum())
            slips["high"] += int((raw >= prime).sum())
            assert [int(v) for v in bank._float_mod(a)] == [rem] * len(ks)
    assert slips["low"] > 0 and slips["high"] > 0


def test_polybank_object_mode_forced():
    huge = HashFamily(universe=8, eps=0.3, prime=next_prime(1 << 63), degree=2)
    # the general estimator's rel bank at n = 2**34: nodes span
    # 2 * n_pow2 = 2**35, and no limb width keeps the float64 sums exact;
    # at n = 2**26 it is still on BLAS
    eps_rel = EstimatorConfig(n=2, user_eps=0.45, seed=0).eps_rel
    assert PolyBank(3, HashFamily.create(2 << 26, eps_rel), seed=1).fast
    n34 = HashFamily.create(2 << 34, eps_rel)
    for fam, xs in ((huge, [1, 2, 8]), (n34, [1, 2, 12345, n34.universe])):
        bank = PolyBank(3, fam, seed=1)
        assert not bank.fast and bank.hash_path == "object"
        mins, _ = bank.keys(xs)
        assert all(0 <= v < bank.prime for v in mins)
        _assert_keys_are_row_minima(bank, xs)
