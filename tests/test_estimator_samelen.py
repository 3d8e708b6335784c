import math

import numpy as np
import pytest

from intervalstream.core import DomainError, Instance, Interval
from intervalstream import oracle
from intervalstream.estimator_samelen import (_CHUNK, SamelenAlphaEstimator,
                                              SamelenConfig,
                                              samelen_estimate_oracle,
                                              shift_gamma_counts,
                                              shift_window_stats)
from intervalstream.generators import gen_uniform_samelen
from intervalstream.selector_samelen import ShiftedGridSelector, shift_subinstance


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


def test_process_validation():
    est = SamelenAlphaEstimator(SamelenConfig(n=32, lam=2, user_eps=0.3, seed=0))
    with pytest.raises(ValueError):
        est.process(Interval(1, 4))
    with pytest.raises(DomainError):
        est.process(Interval(31, 33))


def test_containment_examples():
    grid = ShiftedGridSelector(1)
    iv = Interval(1, 2)
    # shift 0: window [0,3) has index 0 and contains [1,2]
    assert grid.containing_window(0, iv) == 0
    # [4,5] is contained for shifts 0 and 1, straddles a shift-2 boundary
    iv2 = Interval(4, 5)
    assert [grid.containing_window(a, iv2) for a in (0, 1, 2)] == [1, 1, None]


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
    # one window with two disjoint intervals, exact counter: every sampler
    # locks on the single occupied window per shift that holds them
    inst = Instance(32, (Interval(7, 9), Interval(10, 12)))
    est, res = run(inst, lam=2, eps=0.3, seed=5)
    # shift 0 window [6,12) holds only [7,9]; [10,12] straddles
    g1, g2 = shift_gamma_counts(inst.intervals, 0, 2)
    for a in (0, 1, 2):
        eg1, eg2 = shift_gamma_counts(inst.intervals, a, 2)
        assert res.gamma1_hats[a] == float(eg1)
        if eg1 == 1 and eg2 == 1:
            # the unique occupied window is type 2: every sampler sees it
            assert res.type2_counts[a] == est.config.k


def test_oracle_mode_identity_and_bracket():
    for seed in range(10):
        lam = 1 + seed % 5
        inst = gen_uniform_samelen(256, 80, lam, seed=seed)
        best = 0
        for a in (0, 1, 2):
            sub = shift_subinstance(inst.intervals, a, lam)
            alpha_a = oracle.alpha(Instance(inst.n, tuple(sub)))
            g1, g2 = shift_gamma_counts(inst.intervals, a, lam)
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
    for a in (0, 1, 2):
        g1, _ = shift_gamma_counts(inst.intervals, a, 8)
        assert res.gamma1_hats[a] == float(g1)


def test_sampler_winner_replay():
    lam = 4
    inst = gen_uniform_samelen(256, 60, lam, seed=9)
    est, _ = run(inst, lam=lam, eps=0.3, seed=13)
    for a, st in enumerate(est.states):
        stats = shift_window_stats(inst.intervals, a, lam)
        occupied_keys = [j + 2 for j in stats]
        if not occupied_keys:
            assert (st.winner_idx == -2).all()
            continue
        keys = st.bank.keys(occupied_keys)
        mins = keys.min(axis=1)
        arg = keys.argmin(axis=1)
        occ = list(stats)
        for r in range(est.config.k):
            assert st.winner_key[r] == mins[r]
            j = occ[int(arg[r])]
            assert st.winner_idx[r] == j
            # a row's extremes are those of its winner window's entry
            lm_l, lm_r, rm_l, rm_r = st.extremes[j]
            assert (lm_l, lm_r, rm_l, rm_r) == stats[j]
            # type classification matches the exact sub-instance optimum
            sub = [iv for iv in inst if est._grid.containing_window(a, iv) == j]
            window_alpha = oracle.alpha(Instance(inst.n, tuple(sub)))
            is_type2 = bool(rm_l > lm_r)
            assert is_type2 == (window_alpha >= 2)


def test_space_units_bound():
    inst = gen_uniform_samelen(512, 100, 8, seed=1)
    est, res = run(inst, lam=8, eps=0.3, seed=2)
    cfg = est.config
    expected_cap = sum(st.counter.units + 3 * cfg.k for st in est.states)
    assert res.units <= expected_cap


def _entries(obj) -> int:
    """Entries a container retains: the elements of an array, the entries of
    a dict's values or of a list's items; anything else (a scalar or a
    fixed-size record) counts once."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if isinstance(obj, dict):
        return sum(_entries(v) for v in obj.values())
    if isinstance(obj, (list, set)):
        return sum(_entries(v) for v in obj)
    return 1


def test_retained_state_does_not_grow_with_m():
    # The samplers keep O(k) whatever the number of occupied windows: every
    # container of a shift state holds at most k + chunk entries, before and
    # after the final flush, and only windows holding a row keep extremes.
    # (The distinct counter is accounted for separately, in units.)
    lam, eps, seed = 4, 0.45, 21
    occupied = []
    for m in (300, 3000):
        inst = gen_uniform_samelen(1 << 16, m, lam, seed=seed)
        est = SamelenAlphaEstimator(SamelenConfig(n=inst.n, lam=lam, user_eps=eps, seed=seed))
        for iv in inst:
            est.process(iv)
        bound = est.config.k + _CHUNK
        for phase in ("streamed", "estimated"):
            if phase == "estimated":
                est.estimate()
            for a, st in enumerate(est.states):
                containers = {name: v for name, v in vars(st).items()
                              if isinstance(v, (np.ndarray, dict, list, set))}
                assert {"winner_key", "winner_idx"} <= set(containers)
                for name, v in containers.items():
                    assert _entries(v) <= bound, (m, phase, a, name, _entries(v))
        for a, st in enumerate(est.states):
            assert not st.pending
            assert set(st.extremes) == set(st.winner_idx[st.winner_idx != -2].tolist())
        occupied.append(sum(len(shift_window_stats(inst.intervals, a, lam)) for a in (0, 1, 2)))
    assert occupied[1] > 5 * occupied[0]


def test_kmv_counter_mode_runs():
    inst = gen_uniform_samelen(512, 100, 8, seed=4)
    est, res = run(inst, lam=8, eps=0.3, seed=2, counter="kmv")
    # far fewer occupied windows than the sketch size: still exact
    for a in (0, 1, 2):
        g1, _ = shift_gamma_counts(inst.intervals, a, 8)
        assert res.gamma1_hats[a] == float(g1)


def test_determinism():
    inst = gen_uniform_samelen(256, 60, 4, seed=6)
    _, r1 = run(inst, lam=4, eps=0.25, seed=42)
    _, r2 = run(inst, lam=4, eps=0.25, seed=42)
    assert r1 == r2
