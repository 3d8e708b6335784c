import concurrent.futures

import numpy as np
import pytest

from intervalstream.core import Instance, Interval, format_stream
from intervalstream import generators, harness, oracle
from intervalstream.generators import (expected_alpha_index_general,
                                       expected_alpha_index_samelen,
                                       gen_index_general, gen_index_samelen,
                                       gen_uniform, gen_uniform_samelen,
                                       random_index_input)
from intervalstream.harness import (median_of_groups, run_single, run_trials,
                                    trial_success)
from intervalstream.rng import SplitMix64


def test_gen_uniform_basics():
    assert len(gen_uniform(100, 0, 10, seed=1)) == 0
    a = gen_uniform(100, 50, 10, seed=7)
    b = gen_uniform(100, 50, 10, seed=7)
    assert a == b
    assert a != gen_uniform(100, 50, 10, seed=8)
    for iv in a:
        assert 1 <= iv.left and iv.right <= 100 and 0 <= iv.length <= 10
    with pytest.raises(ValueError):
        gen_uniform(10, 5, 10, seed=0)


def test_gen_uniform_samelen():
    inst = gen_uniform_samelen(64, 30, 5, seed=3)
    assert all(iv.length == 5 for iv in inst)
    assert inst == gen_uniform_samelen(64, 30, 5, seed=3)


def reference_uniform(n, count, max_len, seed):
    """gen_uniform one item at a time: the per-item loop it reproduces."""
    if not 1 <= max_len < n:
        raise ValueError(f"need 1 <= max_len < n, got max_len={max_len}, n={n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = SplitMix64(seed)
    intervals = []
    for _ in range(count):
        length = rng.below(max_len + 1)
        left = rng.randrange(1, n - length)
        intervals.append(Interval(left, left + length))
    return Instance(n, tuple(intervals))


def reference_uniform_samelen(n, count, length, seed):
    """gen_uniform_samelen one item at a time."""
    if not 1 <= length < n:
        raise ValueError(f"need 1 <= length < n, got length={length}, n={n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = SplitMix64(seed)
    return Instance(n, tuple(Interval(left, left + length)
                             for left in (rng.randrange(1, n - length) for _ in range(count))))


def outcome(gen, *args):
    """What a generator call gives: its Instance with the dtypes of its code
    columns, or the type and message of what it raises."""
    try:
        inst = gen(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return inst, inst.lcodes.dtype, inst.rcodes.dtype, format_stream(inst)


def test_next_u64s_equals_next_u64_one_at_a_time():
    # 2**64 - 1 and 2**64 - 3 * golden put the counter right at the wrap
    for seed in (0, 1, 12345, 2**64 - 1, 2**64 - 3 * 0x9E3779B97F4A7C15 % 2**64):
        col, one = SplitMix64(seed), SplitMix64(seed)
        drawn = []
        for count in (0, 1, 5, 0, 64):
            block = col.next_u64s(count)
            assert block.dtype == np.uint64 and len(block) == count
            drawn += block.tolist()
        assert drawn == [one.next_u64() for _ in range(70)]
        assert col.next_u64() == one.next_u64()


BOUNDARY_N = [2, 3, 2**31, 2**62 - 1, 2**62, 2**63 + 1, 2**64]


@pytest.mark.parametrize("n", BOUNDARY_N)
def test_generators_match_per_item_reference(n):
    """Both generators give the reference's instance, code dtypes and bytes,
    or its refusal.  2**63 + 1 rejects about half its left draws."""
    for seed in (0, 1, 7, 12345):
        for count in (0, 1, 2, 97):
            for size in sorted({1, min(3, n - 1), min(64, n - 1), n - 1}):
                assert outcome(gen_uniform, n, count, size, seed) == \
                    outcome(reference_uniform, n, count, size, seed), (seed, count, size)
                assert outcome(gen_uniform_samelen, n, count, size, seed) == \
                    outcome(reference_uniform_samelen, n, count, size, seed), (seed, count, size)


def test_generators_match_reference_across_blocks():
    for seed in (1, 2):
        assert outcome(gen_uniform, 2**20, 2 * 8192 + 5, 16384, seed) == \
            outcome(reference_uniform, 2**20, 2 * 8192 + 5, 16384, seed)
        assert outcome(gen_uniform_samelen, 2**20, 2 * 8192 + 5, 16, seed) == \
            outcome(reference_uniform_samelen, 2**20, 2 * 8192 + 5, 16, seed)


def test_generators_refuse_as_reference():
    cases = [(10**23, 5, 3), (10**23, 0, 3), (2**64 + 5, 40, 100), (2**64 + 1, 3, 2**64),
             (100, -1, 5), (100, 5, 0), (100, -1, 0), (100, 5, 100), (100, 5, -2)]
    for n, count, size in cases:
        for gen, ref in ((gen_uniform, reference_uniform),
                         (gen_uniform_samelen, reference_uniform_samelen)):
            got = outcome(gen, n, count, size, 3)
            assert got == outcome(ref, n, count, size, 3), (gen.__name__, n, count, size)
    # the first item's left bound, n minus its length, names the refusal
    first_length = SplitMix64(1).below(4)
    assert outcome(gen_uniform, 10**23, 5, 3, 1) == (
        ValueError, f"bound must be in (0, 2**64], got {10**23 - first_length}")
    assert len(gen_uniform(10**23, 0, 3, 1)) == 0  # no draw, no refusal


@pytest.mark.parametrize("block", [3, 4])
def test_rejection_on_a_block_edge(block, monkeypatch):
    """Blocks of 3 or 4 items: at n = 2**63 + 1 a rejection lands on every
    item position of a block, its first and last among them."""
    monkeypatch.setattr(generators, "_BLOCK", block)
    n, count = 2**63 + 1, 60
    rng, where = SplitMix64(5), set()

    def limit(bound):
        return (1 << 64) - (1 << 64) % bound

    for i in range(count):  # replay the reference and note each rejection's item
        while (length := rng.next_u64()) >= limit(4):
            where.add(i % block)
        length %= 4
        while rng.next_u64() >= limit(n - length):
            where.add(i % block)
    assert where == set(range(block))
    for seed in (5, 6):
        assert outcome(gen_uniform, n, count, 3, seed) == outcome(reference_uniform, n, count, 3, seed)
        assert outcome(gen_uniform_samelen, n, count, 3, seed) == \
            outcome(reference_uniform_samelen, n, count, 3, seed)


def test_index_samelen_figure_instance():
    # n_bits=7, S={1,3,4,6}, L=9: queried bit out of the set gives alpha 2
    inst = gen_index_samelen(7, {1, 3, 4, 6}, 2)
    assert oracle.alpha(inst) == 2 == expected_alpha_index_samelen({1, 3, 4, 6}, 2)
    assert Interval(10, 19) in inst.intervals  # member bit 1 -> [L+1, 2L+1]
    inst2 = gen_index_samelen(7, {1, 3, 4, 6}, 1)
    assert oracle.alpha(inst2) == 3
    assert Interval(1, 10, True, True) in inst2.intervals
    assert Interval(19, 28, True, True) in inst2.intervals
    empty_s = gen_index_samelen(7, set(), 4)
    assert oracle.alpha(empty_s) == 2


def test_index_samelen_intervals_have_equal_length():
    inst = gen_index_samelen(9, {2, 5}, 5)
    lengths = {iv.length for iv in inst}
    assert lengths == {11}


def test_index_general_two_point_alpha():
    inst = gen_index_general(7, {1, 3, 4, 6}, 3, k=3)
    assert oracle.alpha(inst) == 7 == expected_alpha_index_general({1, 3, 4, 6}, 3, 3)
    inst2 = gen_index_general(7, {1, 3, 4, 6}, 2, k=3)
    assert oracle.alpha(inst2) == 4
    inst3 = gen_index_general(5, {2}, 2, k=1)
    assert oracle.alpha(inst3) == 3
    inst4 = gen_index_general(5, {3}, 2, k=1)
    assert oracle.alpha(inst4) == 2


@pytest.mark.parametrize("seed", range(12))
def test_index_constructions_brute_checked(seed):
    members, i = random_index_input(8, seed)
    s1 = gen_index_samelen(8, members, i)
    assert oracle.alpha(s1) == oracle.brute_force_alpha(s1) \
        == expected_alpha_index_samelen(members, i)
    if len(members) * 2 + 3 <= 24:
        s2 = gen_index_general(8, members, i, k=2)
        assert oracle.alpha(s2) == oracle.brute_force_alpha(s2) \
            == expected_alpha_index_general(members, i, 2)


def test_trial_success_definitions():
    assert trial_success("select-general", 3, 5)
    assert not trial_success("select-general", 2, 5)
    assert trial_success("select-general", 0, 0)
    assert trial_success("select-samelen", 0, 0)
    assert trial_success("select-samelen", 4, 6)
    assert not trial_success("select-samelen", 3, 6)
    assert trial_success("estimate-general", 4.0, 5, eps=0.3)
    assert not trial_success("estimate-general", 5.1, 5, eps=0.3)
    assert not trial_success("estimate-general", 1.0, 5, eps=0.3)
    assert trial_success("estimate-samelen", 4.5, 5, eps=0.2)
    assert trial_success("estimate-general", 0.0, 0, eps=0.2)


def test_run_single_selector_report():
    inst = gen_uniform(200, 80, 20, seed=5)
    rep = run_single("select-general", inst, seed=0, instance_id="u200")
    assert rep.alpha == oracle.alpha(inst)
    assert rep.success and rep.details["disjoint"]
    assert rep.peak_memory_units <= rep.alpha
    assert rep.wall_time_s is None
    line = rep.to_json()
    assert '"kind":"trial"' in line and '"wall_time_s":null' in line


def test_run_trials_deterministic_selector():
    inst = gen_uniform(200, 60, 15, seed=2)
    reports, summary = run_trials("select-general", inst, trials=5, base_seed=10)
    assert summary["success_fraction"] == 1.0
    assert len({r.output for r in reports}) == 1
    assert summary["trials"] == 5
    assert [r.params["seed"] for r in reports] == list(range(10, 15))


def test_run_trials_oracle_mode_always_succeeds():
    inst = gen_uniform(256, 100, 25, seed=3)
    _, summary = run_trials("estimate-general-oracle", inst, trials=3,
                            base_seed=0, eps=0.3)
    assert summary["success_fraction"] == 1.0
    inst2 = gen_uniform_samelen(256, 80, 6, seed=4)
    _, summary2 = run_trials("estimate-samelen-oracle", inst2, trials=3,
                             base_seed=0, eps=0.3, lam=6)
    assert summary2["success_fraction"] == 1.0


def test_run_trials_workers_match_serial():
    inst = gen_uniform_samelen(256, 60, 4, seed=8)
    r1, s1 = run_trials("estimate-samelen", inst, trials=4, base_seed=5,
                        eps=0.3, lam=4)
    r2, s2 = run_trials("estimate-samelen", inst, trials=4, base_seed=5,
                        eps=0.3, lam=4, workers=2)
    assert [r.to_json() for r in r1] == [r.to_json() for r in r2]
    assert s1 == s2


def test_median_of_groups():
    vals = [1.0, 2.0, 3.0, 10.0, 11.0, 12.0]
    assert median_of_groups(vals, 2) == [2.0, 11.0]
    with pytest.raises(ValueError):
        median_of_groups(vals, 9)
    _, summary = run_trials("select-general", gen_uniform(64, 20, 8, seed=1),
                            trials=6, base_seed=0, groups=3)
    assert len(summary["group_medians"]) == 3
    assert summary["median_of_groups"] == summary["median_output"]


@pytest.mark.parametrize("groups", [0, -1, 4])
def test_run_trials_refuses_groups_before_any_trial(groups, monkeypatch):
    # groups outside [1, trials] is refused before the first trial runs
    calls = []
    monkeypatch.setattr(harness, "run_single", lambda **kw: calls.append(kw))
    with pytest.raises(ValueError, match=rf"^groups must be in \[1, 3\], got {groups}$"):
        run_trials("select-general", gen_uniform(64, 20, 8, seed=1), trials=3,
                   base_seed=0, groups=groups)
    assert calls == []


def test_median_of_groups_counts_every_value():
    # 10 values in 3 groups: sizes 4, 3, 3, so the last value counts
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 100.0]
    assert median_of_groups(vals, 3) == [2.5, 6.0, 9.0]
    assert median_of_groups(vals[:7], 3) == [2.0, 4.5, 6.5]
    assert median_of_groups(vals, 10) == vals
    assert median_of_groups(vals, 1) == [5.5]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for
    and runs the tasks in this process."""
    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_run_trials_pool_capped_by_trials_and_cpus(monkeypatch):
    # run_trials imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    inst = gen_uniform(64, 20, 8, seed=1)
    serial, _ = run_trials("select-general", inst, trials=5, base_seed=0)
    for workers, trials, sizes in [(8, 2, [2]), (8, 5, [3]), (2, 5, [2]),
                                   (4, 1, []), (1, 5, [])]:
        RecordingPool.sizes = []
        reports, _ = run_trials("select-general", inst, trials=trials, base_seed=0,
                                workers=workers)
        assert RecordingPool.sizes == sizes, (workers, trials)
        assert [r.to_json() for r in reports] == [r.to_json() for r in serial[:trials]]
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            run_trials("select-general", inst, trials=2, base_seed=0, workers=workers)


def test_success_recomputable_from_fields():
    inst = gen_uniform_samelen(512, 120, 8, seed=6)
    reports, _ = run_trials("estimate-samelen", inst, trials=6, base_seed=3,
                            eps=0.25, lam=8)
    for r in reports:
        assert r.success == trial_success(r.algorithm, r.output, r.alpha,
                                          r.params["eps"])
