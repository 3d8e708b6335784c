import math

import numpy as np
import pytest

from intervalstream.core import DomainError, Instance, Interval
from intervalstream import oracle
from intervalstream.estimator_samelen import (DistinctPoints, SamelenAlphaEstimator,
                                              SamelenConfig,
                                              samelen_estimate_oracle)
from intervalstream.generators import gen_uniform_samelen
from intervalstream.hashing import PolyBank
from intervalstream.selector_samelen import grid_window, holds_pair

from conftest import fed_tables, reference_bottom_k, reference_records


def run(inst, lam, eps, seed, counter="exact"):
    est = SamelenAlphaEstimator(SamelenConfig(
        n=inst.n, lam=lam, user_eps=eps, seed=seed, counter_kind=counter))
    for iv in inst:
        est.process(iv)
    return est, est.estimate()


def test_config_constants():
    cfg = SamelenConfig(n=4096, lam=16, user_eps=0.2, seed=0)
    assert cfg.eps_shift == pytest.approx(0.1)
    assert cfg.eps2 == pytest.approx(0.1 / 3)
    assert cfg.k == math.ceil(18.0 / (0.1 / 3) ** 2) == 16200
    assert cfg.index_domain == math.ceil(2 * 4096 / 48) + 2
    with pytest.raises(ValueError):
        SamelenConfig(n=16, lam=0, user_eps=0.2, seed=0)
    with pytest.raises(ValueError):
        SamelenConfig(n=16, lam=2, user_eps=0.5, seed=0)


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_distinct_points_refuses_eps_with_value_error(eps):
    # as every other eps check: a plain ValueError, not its DomainError subclass
    with pytest.raises(ValueError, match="eps must be in") as refused:
        DistinctPoints(16, eps, 0)
    assert type(refused.value) is ValueError


@pytest.mark.parametrize("counter", ["exact", "kmv"])
def test_keys_calls_hash_something_per_item(monkeypatch, counter):
    # per-item process feeds one-pair chunks, and every interval comes
    # twice, so most chunks bring no new window: no keys call is made for
    # them.  Each occupied window of a grid is hashed once by the sample,
    # and under KMV once more by the counter's sketch (k far above the count)
    lam = 4
    stream = [iv for iv in gen_uniform_samelen(512, 60, lam, seed=3) for _ in range(2)]
    sizes = []
    keys = PolyBank.keys

    def counted_keys(bank, xs):
        sizes.append(len(xs))
        return keys(bank, xs)

    monkeypatch.setattr(PolyBank, "keys", counted_keys)
    est = SamelenAlphaEstimator(SamelenConfig(n=512, lam=lam, user_eps=0.3, seed=1,
                                              counter_kind=counter))
    for iv in stream:
        est.process(iv)
    occupied = sum(len(grid) for grid in reference_records(stream, lam))
    assert 0 not in sizes
    assert sizes == [1] * occupied * (2 if counter == "kmv" else 1)
    assert est.columns_hashed == occupied


def test_process_validation():
    est = SamelenAlphaEstimator(SamelenConfig(n=32, lam=2, user_eps=0.3, seed=0))
    with pytest.raises(ValueError):
        est.process(Interval(1, 4))
    with pytest.raises(DomainError):
        est.process(Interval(31, 33))


def test_containment_examples():
    iv = Interval(1, 2)
    # shift 0: window [0,3) has index 0 and contains [1,2]
    assert grid_window(1, 0, iv) == 0
    # [4,5] is contained for shifts 0 and 1, straddles a shift-2 boundary
    iv2 = Interval(4, 5)
    assert [grid_window(1, a, iv2) for a in (0, 1, 2)] == [1, 1, None]


def test_hand_example_three_intervals():
    inst = Instance(9, (Interval(1, 2), Interval(4, 5), Interval(7, 8)))
    est, res = run(inst, lam=1, eps=0.3, seed=7)
    assert res.gamma1_hats[0] == 3.0 and res.type2_counts[0] == 0
    assert max(res.shift_values) == 3.0
    assert res.value == pytest.approx(3.0 / 1.15)
    a = oracle.alpha(inst)
    assert (2 / 3) * (1 - 0.3) * a <= res.value <= a


def test_empty_stream():
    est = SamelenAlphaEstimator(SamelenConfig(n=16, lam=2, user_eps=0.3, seed=1))
    assert est.estimate().value == 0.0


def test_type2_window_counts_toward_m():
    # one window with two disjoint intervals, exact counter: each grid's
    # sample holds its occupied windows, here the single one holding them
    inst = Instance(32, (Interval(7, 9), Interval(10, 12)))
    est, res = run(inst, lam=2, eps=0.3, seed=5)
    # shift 0 window [6,12) holds only [7,9]; [10,12] straddles
    for a, table in enumerate(fed_tables(inst, 2)):
        eg1, eg2 = len(table.rows), table.type2_count()
        assert res.gamma1_hats[a] == float(eg1)
        if eg1 == 1 and eg2 == 1:
            # the unique occupied window is type 2, and the sample holds it
            assert res.type2_counts[a] == 1
            assert res.shift_values[a] == 2.0


def test_oracle_mode_identity_and_bracket():
    for seed in range(10):
        lam = 1 + seed % 5
        inst = gen_uniform_samelen(256, 80, lam, seed=seed)
        tables = fed_tables(inst, lam)
        best = 0
        for a in (0, 1, 2):
            sub = [iv for iv in inst if grid_window(lam, a, iv) is not None]
            alpha_a = oracle.alpha(Instance(inst.n, tuple(sub)))
            g1, g2 = len(tables[a].rows), tables[a].type2_count()
            assert g1 + g2 == alpha_a  # per-grid identity of the two counts
            best = max(best, alpha_a)
        for eps in (0.2, 0.45):
            v = samelen_estimate_oracle(inst, lam, eps)
            assert v == pytest.approx(best / (1 + eps / 2.0))
            a_all = oracle.alpha(inst)
            assert (2 / 3) * (1 - eps) * a_all <= v <= a_all


def test_exact_counter_estimate_matches_exact_counts():
    inst = gen_uniform_samelen(512, 120, 8, seed=3)
    est, res = run(inst, lam=8, eps=0.3, seed=11)
    for a, table in enumerate(fed_tables(inst, 8)):
        assert res.gamma1_hats[a] == float(len(table.rows))


def test_sampler_winner_replay(monkeypatch):
    # each grid's sample is the min(k, occupied) smallest (h(id), id) pairs
    # over its occupied window ids, and each member's extremes are its
    # window's; with k = 5 the samples fill and evict
    lam = 4
    inst = gen_uniform_samelen(256, 60, lam, seed=9)
    for k in (None, 5):
        if k is not None:
            monkeypatch.setattr(SamelenConfig, "k", property(lambda self: k))
        est, res = run(inst, lam=lam, eps=0.3, seed=13)
        for a, st in enumerate(est.states):
            stats = fed_tables(inst, lam)[a].extremes
            expected = reference_bottom_k(st.sample, [j + 2 for j in stats])
            assert st.sample.pairs() == expected
            assert len(expected) == min(est.config.k, len(stats))
            assert set(st.table.extremes) == {w for _, w in expected}
            for _, w in expected:
                j = w - 2
                assert st.table.extremes[w] == stats[j]
                # type classification matches the exact sub-instance optimum
                sub = [iv for iv in inst if grid_window(lam, a, iv) == j]
                window_alpha = oracle.alpha(Instance(inst.n, tuple(sub)))
                assert holds_pair(stats[j]) == (window_alpha >= 2)
            assert res.type2_counts[a] == sum(holds_pair(stats[w - 2]) for _, w in expected)
    assert all(len(table.rows) > 5 for table in fed_tables(inst, lam))


def test_space_units_bound():
    inst = gen_uniform_samelen(512, 100, 8, seed=1)
    est, res = run(inst, lam=8, eps=0.3, seed=2)
    cfg = est.config
    expected_cap = sum(st.counter.units + 3 * cfg.k for st in est.states)
    assert res.units <= expected_cap
    # below k occupied windows, each grid keeps every window once
    assert res.units == sum(4 * len(table.rows) for table in fed_tables(inst, 8))


def _entries(obj) -> int:
    """Entries a container retains: the rows of an array (an element of a
    column, or a fixed-width row of a matrix), the entries of a dict's values
    or of a list's items; anything else (a scalar or a fixed-size record)
    counts once."""
    if isinstance(obj, np.ndarray):
        return len(obj)
    if isinstance(obj, dict):
        return sum(_entries(v) for v in obj.values())
    if isinstance(obj, (list, set)):
        return sum(_entries(v) for v in obj)
    return 1


def test_retained_state_does_not_grow_with_m():
    # The samples keep O(k) whatever the number of occupied windows: every
    # container of a shift state holds at most k entries, before and after
    # estimate, and only the sample's members keep a row of the record
    # table: one code matrix of four columns and at most k rows.  (The distinct counter
    # is accounted for separately, in units.)
    lam, eps, seed = 4, 0.45, 21
    occupied = []
    for m in (300, 3000):
        inst = gen_uniform_samelen(1 << 16, m, lam, seed=seed)
        est = SamelenAlphaEstimator(SamelenConfig(n=inst.n, lam=lam, user_eps=eps, seed=seed))
        for iv in inst:
            est.process(iv)
        bound = est.config.k
        for phase in ("streamed", "estimated"):
            if phase == "estimated":
                est.estimate()
            for a, st in enumerate(est.states):
                containers = {name: v for obj in (st, st.sample, st.table)
                              for name, v in vars(obj).items()
                              if isinstance(v, (np.ndarray, dict, list, set))}
                assert {"members", "_heap", "rows", "codes"} <= set(containers)
                assert st.table.codes.shape[1:] == (4,)
                for name, v in containers.items():
                    assert _entries(v) <= bound, (m, phase, a, name, _entries(v))
        for a, st in enumerate(est.states):
            assert set(st.table.rows) == st.sample.members
            assert sorted(st.table.rows.values()) == list(range(len(st.table.rows)))
        occupied.append(sum(len(table.rows) for table in fed_tables(inst, lam)))
    assert occupied[1] > 5 * occupied[0]


def test_kmv_counter_mode_runs():
    inst = gen_uniform_samelen(512, 100, 8, seed=4)
    est, res = run(inst, lam=8, eps=0.3, seed=2, counter="kmv")
    # far fewer occupied windows than the sketch size: still exact
    for a, table in enumerate(fed_tables(inst, 8)):
        assert res.gamma1_hats[a] == float(len(table.rows))


def test_determinism():
    inst = gen_uniform_samelen(256, 60, 4, seed=6)
    _, r1 = run(inst, lam=4, eps=0.25, seed=42)
    _, r2 = run(inst, lam=4, eps=0.25, seed=42)
    assert r1 == r2
