import collections
import math
from functools import cmp_to_key

import numpy as np
import pytest

from intervalstream import hashing
from intervalstream.estimator import EstimatorConfig
from intervalstream.estimator_samelen import SamelenConfig
from intervalstream.hashing import (ExactDistinct, HashFamily, KMVDistinct,
                                    KWiseHash, MinSampler, MinWisePermutation,
                                    PolyBank, bulk_below, bulk_u64, next_prime)
from intervalstream.rng import SplitMix64

DRAWS = 20000


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


def test_perm_less_total_order():
    fam = HashFamily.create(16, 0.25)
    perm = MinWisePermutation(fam, SplitMix64(7))
    xs = list(range(1, 17))
    for x in xs:
        assert not perm.less(x, x)
        for y in xs:
            if x != y:
                assert perm.less(x, y) != perm.less(y, x)
    ranked = sorted(xs, key=cmp_to_key(lambda a, b: -1 if perm.less(a, b) else 1))
    assert sorted(ranked) == xs
    for a, b in zip(ranked, ranked[1:]):
        assert perm.less(a, b)


def test_min_sampler_examples():
    fam = HashFamily.create(64, 0.25)
    perm = MinWisePermutation(fam, SplitMix64(3))
    s = MinSampler(perm)
    s.observe(5)
    assert s.winner == 5
    for _ in range(5):
        s.observe(5)
    assert s.winner == 5

    rng = SplitMix64(11)
    for trial in range(25):
        xs = sorted({rng.randrange(1, 64) for _ in range(rng.randrange(1, 20))})
        perm = MinWisePermutation(fam, rng.spawn(trial))
        samp = MinSampler(perm)
        for x in xs:
            samp.observe(x)
        assert samp.winner == min(xs, key=perm.key)


def test_exact_distinct():
    c = ExactDistinct()
    assert c.estimate() == 0.0
    for x in [3, 3, 5, 9, 5]:
        c.add(x)
    assert c.estimate() == 3.0
    assert c.units == 3


def test_kmv_exact_below_saturation():
    fam = HashFamily.create(1024, 0.25)
    c = KMVDistinct(16, fam, SplitMix64(2))
    for x in list(range(1, 11)) * 3:
        c.add(x)
    assert c.estimate() == 10.0
    assert not c.saturated


def test_kmv_add_true_at_every_first_occurrence():
    # a sketch of 4 saturates and evicts; add() may return True again for a
    # rejected or evicted id, but never False at a first occurrence
    fam = HashFamily.create(1024, 0.25)
    c = KMVDistinct(4, fam, SplitMix64(3))
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
        c = KMVDistinct(k, fam, SplitMix64(seed))
        for x in range(1, 4097):
            c.add(x)
        if abs(c.estimate() - 4096) <= 0.2 * 4096:
            good += 1
    assert good >= 90


def test_kwise_scalar_matches_bank_rows():
    fam = HashFamily.create(256, 0.3)
    bank = PolyBank(8, fam, seed=99)
    xs = [1, 7, 19, 250]
    values = bank.eval(xs)
    for r in range(8):
        h = bank.row_hash(r)
        for j, x in enumerate(xs):
            assert int(values[r, j]) == h(x)
            assert int(bank.keys(xs)[r, j]) == h(x) * bank.key_span + x


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


def minwise_frequencies(n=64, eps=0.25, x_count=16, draws=DRAWS, seed=42):
    """Empirical winner frequencies of a fixed set under independent
    permutations; shared with the acceptance suite."""
    fam = HashFamily.create(n, eps)
    xs = list(range(3, 3 + 4 * x_count, 4))
    bank = PolyBank(draws, fam, seed=seed)
    keys = bank.keys(xs)
    winners = np.asarray(xs)[keys.argmin(axis=1)]
    freq = collections.Counter(winners.tolist())
    return xs, winners.tolist(), freq


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
    """The dispatch rule: the combined key fits in uint64 and some limb width
    keeps the float64 limb sums exact."""
    limb_ok = any((bank.degree + 1) * (1 << b) * (bank.prime - 1) < (1 << 53)
                  for b in (16, 8, 4))
    return bank.prime * bank.key_span < (1 << 63) and limb_ok


def test_polybank_fast_iff_key_and_limb_bounds():
    # p ~ 2**40 passes the limb bound at width 8; p ~ 2**50 fails every width
    for prime, fast in ((next_prime(1 << 40), True), (next_prime(1 << 50), False)):
        fam = HashFamily(universe=10, eps=0.4, prime=prime, degree=3)
        bank = PolyBank(4, fam, seed=5)
        assert bank.fast == _blas_rule(bank) == fast
        assert bank.hash_path == ("blas" if fast else "object")
        xs = [1, 5, 9]
        keys = bank.keys(xs)
        assert keys.dtype == bank.max_keys().dtype
        for r in range(4):
            h = bank.row_hash(r)
            for j, x in enumerate(xs):
                assert int(keys[r, j]) == h(x) * bank.key_span + x


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
    _assert_eval_matches_row_hash(PolyBank(7, fam, seed=3))


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
    # the general estimator at n = 2**26: nodes span 2 * n_pow2 = 2**27, so
    # value * key_span overflows uint64
    n26 = HashFamily.create(2 << 26, EstimatorConfig(n=1 << 26, user_eps=0.45, seed=0).eps_rel)
    for fam, xs in ((huge, [1, 2, 8]), (n26, [1, 2, 12345, n26.universe])):
        bank = PolyBank(3, fam, seed=1)
        assert not bank.fast and bank.hash_path == "object"
        keys = bank.keys(xs)
        mins = keys.min(axis=1)
        assert mins.shape == (3,)
        assert (mins < bank.max_keys()).all()
        for r in range(3):
            assert int(mins[r]) == min(bank.row_key(r, x) for x in xs)
