import collections
import math
from functools import cmp_to_key

import numpy as np
import pytest

from intervalstream import hashing
from intervalstream.estimator import EstimatorConfig, GeneralAlphaEstimator
from intervalstream.estimator_samelen import DistinctPoints, SamelenAlphaEstimator, SamelenConfig
from intervalstream.hashing import (BottomK, ExactDistinct, HashFamily, KMVDistinct,
                                    PolyBank, horner, kmv_k, make_counter, next_prime)
from intervalstream.rng import SplitMix64

from conftest import DRAWS, coefficient_rows, minwise_frequencies, reference_bottom_k


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


def _order_key(bank):
    """The bank's min-wise order on ids: x before y when (h(x), x) < (h(y), y)."""
    return lambda x: (horner(bank.coeffs, x, bank.prime), x)


def _offer_all(sketch, xs):
    """Offer xs in turn; returns what each offer returned."""
    return [sketch.offer(x) for x in xs]


def test_perm_less_total_order():
    fam = HashFamily.create(16, 0.25)
    key = _order_key(PolyBank(fam, seed=7))

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
    # a k=1 sketch is a single streaming min-sampler
    fam = HashFamily.create(64, 0.25)
    s = BottomK(1, fam, seed=3)
    assert _offer_all(s, [5]) == [0]
    assert _offer_all(s, [5] * 5) == [None] * 5
    assert [x for _, x in s.pairs()] == [5]

    rng = SplitMix64(11)
    for trial in range(25):
        xs = [rng.randrange(1, 64) for _ in range(rng.randrange(1, 20))]
        samp = BottomK(1, fam, seed=rng.spawn(trial).seed)
        _offer_all(samp, xs)
        assert [x for _, x in samp.pairs()] == [min(xs, key=_order_key(samp.bank))]


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
    assert c.units == 10 < c.k


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
        assert c.units == len(c.members) <= 4
    assert c.units == 4 and repeats_true > 0


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
    # the counter draws and evaluates its polynomial as every bank does: the
    # first coefficient row drawn from its seed
    for fam in (HashFamily.create(4096, 0.2),
                HashFamily(universe=8, eps=0.3, prime=next_prime(1 << 63), degree=2)):
        bank = PolyBank(fam, seed=6)
        c = KMVDistinct(8, fam, seed=6)
        xs = [1, 2, 3, 77, fam.universe]
        assert c.bank.coeffs == bank.coeffs == coefficient_rows(fam, 2, seed=6)[0]
        assert c.bank.keys(xs) == bank.eval(xs)
        for x in xs:
            c.add(x)
        assert c.pairs() == sorted(zip(bank.eval(xs), xs))


def test_kwise_scalar_matches_bank_rows():
    # eight coefficient rows drawn from one seed, the first of them the
    # bank's: on each, horner over an int64 column equals horner on each
    # Python int; the bank's keys and eval equal the first row's values, and
    # only keys counts the ids it hashed
    fam = HashFamily.create(256, 0.3)
    rows = coefficient_rows(fam, 8, seed=99)
    bank = PolyBank(fam, seed=99)
    xs = [1, 7, 19, 250]
    assert bank.coeffs == rows[0]
    assert bank.keys(xs) == bank.eval(xs) == [horner(rows[0], x, fam.prime) for x in xs]
    assert bank.columns_hashed == len(xs)
    column = np.asarray(xs, dtype=np.int64)
    for cs in rows:
        assert horner(cs, column, fam.prime).tolist() == [horner(cs, x, fam.prime) for x in xs]


def _power_sum(coeffs, x, prime):
    """sum(c_i * x**i) mod prime term by term: a second formula for horner."""
    return sum(c * pow(x, i, prime) for i, c in enumerate(coeffs)) % prime


def _families_up_to_2_64():
    """The families the estimators use at small and large n, and primes up to
    the largest below 2**64."""
    general = EstimatorConfig(n=2, user_eps=0.45, seed=0)
    samelen = SamelenConfig(n=1 << 20, lam=16, user_eps=0.2, seed=0)
    fams = [HashFamily.create(samelen.index_domain, samelen.eps2),
            HashFamily.create(2 * 4096, general.eps_rel),
            HashFamily.create(2 << 50, general.eps_rel)]
    top = (1 << 64) - 1
    while next_prime(top) != top:
        top -= 2
    for prime in (next_prime(1 << 40), next_prime(1 << 50), next_prime(1 << 63), top):
        fams.append(HashFamily(universe=1000, eps=0.4, prime=prime, degree=5))
    return fams


@pytest.mark.parametrize("fam", _families_up_to_2_64(),
                         ids=["samelen-n2^20", "general-n4096-rel", "general-n2^50-rel",
                              "p-2^40", "p-2^50", "p-2^63", "p-below-2^64"])
def test_polybank_exact_for_every_prime_below_2_64(fam):
    _assert_eval_matches_power_sum(fam, rows=3)


def _assert_eval_matches_power_sum(fam, rows, seed=11):
    """On each of ``rows`` coefficient rows drawn from seed, horner equals
    the power sum; the bank of that seed, whose polynomial is the first
    row, gives the same values by eval and by keys."""
    coeffs = coefficient_rows(fam, rows, seed)
    assert all(0 <= c < fam.prime for cs in coeffs for c in cs)
    rng = SplitMix64(fam.prime % 1000)
    xs = [1, 2, fam.universe, fam.prime - 1] + [rng.randrange(1, fam.universe) for _ in range(20)]
    for cs in coeffs:
        assert [horner(cs, x, fam.prime) for x in xs] == [_power_sum(cs, x, fam.prime) for x in xs]
    bank = PolyBank(fam, seed)
    assert bank.coeffs == coeffs[0]
    assert bank.eval(xs) == bank.keys(xs) == [_power_sum(coeffs[0], x, fam.prime) for x in xs]


def _largest_prime_for_limb(degree: int, bits: int) -> int:
    """Largest prime p with (degree + 1) * 2**bits * (p - 1) < 2**53: past it
    a float64 sum of degree + 1 products of a bits-wide limb with a residue
    is no longer exact.  Horner on Python integers has no such edge."""
    p = ((1 << 53) - 1) // ((degree + 1) << bits) + 1
    while next_prime(p) != p:
        p -= 1
    return p


def _families_above_2_32():
    """(family, at a float64 edge): the general estimator's rel and rho
    families over the universe 4096**2, and at degrees 27 and 3 the largest
    prime an 8- and a 4-bit limb keeps exact in float64."""
    cfg = EstimatorConfig(n=4096, user_eps=0.45, seed=0)
    fams = [(HashFamily.create(4096 ** 2, cfg.eps_rel), False),
            (HashFamily.create(4096 ** 2, cfg.eps_rho), False)]
    for degree, bits in ((27, 8), (3, 4)):
        prime = _largest_prime_for_limb(degree, bits)
        fams.append((HashFamily(universe=1000, eps=0.4, prime=prime, degree=degree), True))
    return fams


@pytest.mark.parametrize("fam,edge", _families_above_2_32(),
                         ids=["u4096sq-rel", "u4096sq-rho", "edge-b8", "edge-b4"])
def test_polybank_blas_exact_above_2_32(fam, edge):
    # exact on both sides of each float64 edge
    assert fam.prime > 1 << 32
    _assert_eval_matches_power_sum(fam, rows=6)
    if edge:
        above = HashFamily(universe=fam.universe, eps=fam.eps,
                           prime=next_prime(fam.prime + 1), degree=fam.degree)
        _assert_eval_matches_power_sum(above, rows=6)


# primes below 2**32, above 2**32 and near 2**63: the same-length
# estimator's family at n=2**20, the general estimator's rel family over the
# universe 4096**2, and a degree-3 family
_SAMELEN = SamelenConfig(n=1 << 20, lam=16, user_eps=0.2, seed=0)
_TIE_FAMILIES = [HashFamily.create(_SAMELEN.index_domain, _SAMELEN.eps2),
                 _families_above_2_32()[0][0],
                 HashFamily(universe=64, eps=0.3, prime=next_prime(1 << 63), degree=3)]


@pytest.mark.parametrize("fam", _TIE_FAMILIES, ids=["one-limb", "multi-limb", "object"])
def test_keys_ties_to_smaller_id_and_earlier_column(fam):
    # degree 1: a constant polynomial, so every id has the same value and
    # the sketch keeps the k smallest ids; a repeat later in the same chunk
    # is a no-op, and an evicted id never enters again
    const = BottomK(3, HashFamily(fam.universe, fam.eps, fam.prime, degree=1), seed=8)
    assert len(set(const.bank.keys([1, 2, 40]))) == 1
    assert _offer_all(const, [9, 5, 9, 7]) == [0, 0, None, 0]
    assert _offer_all(const, [6, 9, 8, 2, 7, 9]) == [9, None, None, 7, None, None]
    assert [x for _, x in const.pairs()] == [2, 5, 6]
    assert const.members == {2, 5, 6} and const.units == 3
    # offering the chunks in turn ends at the k smallest pairs over them all
    s = BottomK(4, fam, seed=9)
    chunks = ([40, 3, 17, 3, 8, 40], [7, 7, 7], [12, 1, 30, 6, 6, 2])
    for xs in chunks:
        assert s.bank.keys(xs) == [horner(s.bank.coeffs, x, fam.prime) for x in xs]
        _offer_all(s, xs)
    assert s.pairs() == reference_bottom_k(s, [x for xs in chunks for x in xs])


@pytest.mark.parametrize("k", [1, 7, 500])
@pytest.mark.parametrize("fam", [HashFamily.create(4096, 0.2),
                                 HashFamily(universe=4096, eps=0.3,
                                            prime=next_prime(1 << 63), degree=4)],
                         ids=["p-2^18", "p-2^63"])
def test_bottom_k_holds_the_k_smallest_pairs(fam, k):
    # a stream with repeats: the sketch ends at the k smallest (h(x), x)
    # pairs over its distinct ids, and an id enters at its first offer or
    # never
    rng = SplitMix64(k)
    xs = [rng.randrange(1, 300) for _ in range(600)]
    s = BottomK(k, fam, seed=5)
    offered = set()
    for x, out in zip(xs, _offer_all(s, xs)):
        assert out is None or x not in offered
        offered.add(x)
    assert s.pairs() == reference_bottom_k(s, xs)
    assert s.units == len(s.members) == min(k, len(offered))


def test_draw_bounds_past_2_64_rejected():
    # the rejection limit of a bound past 2**64 is 0: no draw would pass
    rng = SplitMix64(5)
    assert 0 <= rng.below(1 << 64) < 1 << 64
    for bad in ((1 << 64) + 1, 10 ** 23, 0):
        with pytest.raises(ValueError):
            rng.below(bad)


def _below_by_skipping(seed, bound, count):
    """Rejection by skipping: the stream's draws in order, each one at or
    above the largest multiple of bound up to 2**64 dropped, the rest
    reduced modulo bound."""
    limit = (1 << 64) - ((1 << 64) % bound)
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        u = rng.next_u64()
        if u < limit:
            out.append(u % bound)
    return out


@pytest.mark.parametrize("bound,rejects", [(97, False), (next_prime(1 << 23), False),
                                           ((1 << 63) + 1, True), (2, False),
                                           (1 << 63, False)],
                         ids=["small", "p-2^23", "2^63+1", "2", "2^63"])
def test_bulk_below_matches_rejection_rounds(bound, rejects):
    # SplitMix64.below, which draws every PolyBank's coefficients, row after
    # row, against a reference that skips rejected draws; at bound 2**63 + 1 every draw from 2**63 + 1 up is rejected: about half;
    # a bound dividing 2**64 (2, 2**63) rejects none
    count = 2000
    rng = SplitMix64(21)
    draws = [rng.next_u64() for _ in range(count)]
    limit = (1 << 64) - ((1 << 64) % bound)
    assert any(d >= limit for d in draws) == rejects
    rng = SplitMix64(21)
    got = [rng.below(bound) for _ in range(count)]
    assert got == _below_by_skipping(21, bound, count)
    assert all(v < bound for v in got)
    if not rejects:
        # with no rejection, draw i is the i-th raw draw modulo bound
        assert got == [d % bound for d in draws]


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
    rng0, rng1 = SplitMix64(17), SplitMix64(18)
    c0 = np.array([rng0.below(p) for _ in range(DRAWS)], dtype=np.int64)
    c1 = np.array([rng1.below(p) for _ in range(DRAWS)], dtype=np.int64)
    x, y = 5, 131
    hx = (c0 + c1 * x) % p
    hy = (c0 + c1 * y) % p
    collisions = int((hx == hy).sum())
    expected = DRAWS / p
    sigma = math.sqrt(DRAWS * (1 / p) * (1 - 1 / p))
    assert abs(collisions - expected) <= 3 * sigma


def _int64_limit_families():
    samelen = SamelenConfig(n=1 << 20, lam=16, user_eps=0.2, seed=0)
    general = EstimatorConfig(n=4096, user_eps=0.45, seed=0)
    return [HashFamily.create(samelen.index_domain, samelen.eps2),
            HashFamily.create(2 * 4096, general.eps_rel),
            HashFamily(universe=10 ** 8, eps=0.3, prime=3_037_000_493, degree=20),
            HashFamily(universe=10 ** 8, eps=0.3, prime=next_prime(3_037_000_500), degree=20)]


@pytest.mark.parametrize("fam", _int64_limit_families(),
                         ids=["samelen-n2^20", "general-n4096-rel", "p-below-int64-limit",
                              "p-above-int64-limit"])
def test_column_keys_equal_horner(fam, monkeypatch):
    # a keys call of at least 32 ids under a prime up to 3,037,000,499 is one
    # int64 Horner pass over the column; shorter calls and larger primes
    # evaluate each id on Python ints.  Every value equals horner's.
    assert _is_prime_slow(3_037_000_493)
    assert 3_037_000_498 ** 2 + 3_037_000_498 < 2 ** 63 <= 3_037_000_501 * 3_037_000_500
    bank = PolyBank(fam, seed=fam.prime % 1009)
    rng = SplitMix64(fam.prime)
    xs = [0, 1, fam.prime - 1, fam.universe] + [rng.below(fam.prime) for _ in range(10 ** 4)]
    expected = [horner(bank.coeffs, x, fam.prime) for x in xs]
    calls = []
    counting = lambda cs, x, p: calls.append(x) or horner(cs, x, p)
    monkeypatch.setattr(hashing, "horner", counting)
    assert bank.keys(xs) == expected
    assert len(calls) == (1 if fam.prime <= 3_037_000_499 else len(xs))
    assert bank.keys(xs[:31]) == expected[:31]
    assert len(calls) == (1 if fam.prime <= 3_037_000_499 else len(xs)) + 31
    assert bank.columns_hashed == len(xs) + 31


@pytest.mark.parametrize("k", [1, 3, 40])
def test_offer_many_equals_offers_one_at_a_time(k, monkeypatch):
    # chunks of distinct ids, members among them, offered at once or one by
    # one in stream order, leave the same sample; the bulk offer reports the
    # ids that entered and the members they evicted, and hashes only the
    # non-members, in one keys call, or in none when there are none (an
    # empty chunk, a chunk of members only)
    fam = HashFamily.create(512, 0.25)
    one, bulk = BottomK(k, fam, seed=9), BottomK(k, fam, seed=9)
    calls = []
    keys = PolyBank.keys
    monkeypatch.setattr(PolyBank, "keys", lambda bank, xs: calls.append(bank) or keys(bank, xs))
    rng = SplitMix64(k)
    for step in range(40):
        if step % 10 == 5:
            chunk = sorted(bulk.members)
        elif step % 10 == 6:
            chunk = []
        else:
            chunk = sorted({rng.randrange(1, 500) for _ in range(rng.randrange(0, 12))})
        before, hashed = set(bulk.members), bulk.bank.columns_hashed
        for x in chunk:
            one.offer(x)
        del calls[:]
        entered, evicted = bulk.offer_many(chunk)
        assert one.pairs() == bulk.pairs() and one.members == bulk.members
        assert set(entered) == bulk.members - before and set(evicted) == before - bulk.members
        fresh = set(chunk) - before
        assert bulk.bank.columns_hashed - hashed == len(fresh)
        assert calls == ([bulk.bank] if fresh else [])


def test_make_counter_sizes_kmv_from_the_family():
    # ceil(96 / eps**2) over the eps of the counter's family, as each
    # estimator builds it: rel eps 0.45/42, grid eps 0.2/6, points eps 0.3/3
    general = GeneralAlphaEstimator(EstimatorConfig(n=1 << 20, user_eps=0.45, seed=0,
                                                    counter_kind="kmv", scale=1e-7))
    samelen = SamelenAlphaEstimator(SamelenConfig(n=1 << 20, lam=16, user_eps=0.2, seed=0,
                                                  counter_kind="kmv"))
    points = DistinctPoints(100_000, 0.3, seed=0, counter_kind="kmv")
    assert general.counter.k == 836_267
    assert [st.counter.k for st in samelen.states] == [86_400] * 3
    assert points.counter.k == 9_601
    fam = HashFamily.create(512, 0.25)
    assert make_counter("kmv", fam, seed=1).k == kmv_k(0.25) == math.ceil(96.0 / 0.25 ** 2)
    assert isinstance(make_counter("exact", fam, seed=1), ExactDistinct)
    with pytest.raises(ValueError, match="unknown counter kind"):
        make_counter("bloom", fam, seed=1)


def test_counters_add_many_equal_add():
    fam = HashFamily.create(512, 0.25)
    for make in (ExactDistinct, lambda: KMVDistinct(6, fam, seed=4)):
        one, bulk = make(), make()
        rng = SplitMix64(17)
        for _ in range(30):
            chunk = sorted({rng.randrange(1, 300) for _ in range(rng.randrange(0, 15))})
            fresh = [x for x in chunk if one.add(x)]
            assert bulk.add_many(chunk) == fresh
            assert bulk.estimate() == one.estimate() and bulk.units == one.units
