import math

import pytest

from intervalstream.core import Instance, Interval
from intervalstream import harness, oracle
from intervalstream.generators import (expected_alpha_index_general,
                                       expected_alpha_index_samelen,
                                       gen_index_general, gen_index_samelen,
                                       gen_uniform, gen_uniform_samelen,
                                       random_index_input)
from intervalstream.harness import (median_of_groups, run_single, run_trials,
                                    trial_success)


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
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
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
