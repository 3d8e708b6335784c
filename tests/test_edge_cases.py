"""Edges the mainline suites do not reach: mixed open/closed same-length
streams, negative grid window indices, single-point windows, CLI
guardrails, and the argument refusals of the generators, the harness and
the hashing and tree constructors."""

import json
import math

import pytest

from intervalstream.core import DomainError, Instance, Interval, intersects
from intervalstream import oracle
from intervalstream.estimator import EstimatorConfig, GeneralAlphaEstimator
from intervalstream.estimator_samelen import (DistinctPoints, SamelenAlphaEstimator, SamelenConfig,
                                              samelen_estimate_oracle)
from intervalstream.generators import (gen_index_general, gen_index_samelen, gen_uniform,
                                       gen_uniform_samelen, random_index_input)
from intervalstream.harness import run_single, run_trials, trial_success
from intervalstream.hashing import BottomK, HashFamily, KMVDistinct
from intervalstream.selector import PartitionSelector
from intervalstream.selector_samelen import ShiftedGridSelector, grid_window

from conftest import validate_partition
from test_cli import run_cli


def test_samelen_selector_negative_window_index():
    # lam=5, shift 2: window [-5, 10) has index -1 and contains [1,6]
    sel = ShiftedGridSelector(5)
    iv = Interval(1, 6)
    assert grid_window(5, 2, iv) == -1
    sel.process(iv)
    assert -1 in sel.tables[2].extremes
    assert sel.shift_size(2) == 1


def test_samelen_selector_mixed_types_runs_and_stays_disjoint():
    # open/closed mixed equal-length stream: solution stays an independent
    # set drawn from the stream (the 3/2 ratio is only claimed for closed)
    for seed in range(10):
        members, i = random_index_input(10, 4000 + seed)
        inst = gen_index_samelen(10, members, i)
        lam = inst.intervals[0].length
        sel = ShiftedGridSelector(lam)
        for iv in inst:
            sel.process(iv)
        sol = sel.solution()
        stream_set = set(inst.intervals)
        assert all(iv in stream_set for iv in sol)
        for a in range(len(sol)):
            for b in range(a + 1, len(sol)):
                assert not intersects(sol[a], sol[b])
        assert len(sol) <= oracle.alpha(inst)


def test_samelen_oracle_mode_bracket_on_adversarial_instances():
    for seed in range(15):
        members, i = random_index_input(12, 5000 + seed)
        inst = gen_index_samelen(12, members, i)
        lam = inst.intervals[0].length
        a = oracle.alpha(inst)
        for eps in (0.2, 0.45):
            v = samelen_estimate_oracle(inst, lam, eps)
            assert (2.0 / 3.0) * (1 - eps) * a <= v <= a


def test_single_point_window_arises_and_behaves():
    # a zero-length witness on a window edge makes a split produce a
    # one-point window [5,5]
    stream = [Interval(1, 9), Interval(5, 5), Interval(1, 2), Interval(7, 9)]
    sel = PartitionSelector()
    for iv in stream:
        sel.process(iv)
    validate_partition(sel, stream, 9)
    # (-inf,5), [5,5] and (5,+inf) as code ranges
    windows = [(w.lo_code, w.hi_code) for w in sel.windows()]
    assert windows == [(-math.inf, 9), (10, 10), (11, math.inf)]
    assert set(sel.solution()) == {Interval(1, 2), Interval(5, 5), Interval(7, 9)}
    # further processing of the point window stays a no-op
    sel.process(Interval(5, 5))
    validate_partition(sel, stream + [Interval(5, 5)], 9)


def test_selector_mixed_zero_length_duplicates():
    stream = [Interval(3, 3)] * 4 + [Interval(3, 8), Interval(5, 8, True, False)]
    sel = PartitionSelector()
    for iv in stream:
        sel.process(iv)
    validate_partition(sel, stream, 8)
    a = oracle.brute_force_alpha(Instance(8, tuple(stream)))
    assert sel.window_count > a / 2.0


def test_cli_sampler_limit_guard():
    code, _ = run_cli(["estimate", "--algo", "general", "--eps", "0.2",
                       "--seed", "1"], stdin_text="n 1024\n1 3\n")
    assert code == 2  # full-scale sampler counts refused with guidance


def test_cli_mixed_length_samelen_rejected():
    code, _ = run_cli(["select", "--algo", "samelen", "--lambda", "2"],
                      stdin_text="n 9\n1 3\n4 5\n")
    assert code == 2


def test_cli_select_solution_field_is_reported():
    code, out = run_cli(["select", "--algo", "general"],
                        stdin_text="n 10\n2 3\n5 6\n")
    assert code == 0
    obj = json.loads(out)
    assert obj["output"] == 2.0 and obj["kind"] == "trial"


def test_estimator_samelen_accepts_open_intervals():
    # mixed-type equal-length stream through the sampled estimator: upper
    # bound of the bracket still holds with exact counters
    members, i = random_index_input(10, 77)
    inst = gen_index_samelen(10, members, i)
    lam = inst.intervals[0].length
    from intervalstream.estimator_samelen import (SamelenAlphaEstimator,
                                                  SamelenConfig)
    est = SamelenAlphaEstimator(SamelenConfig(n=inst.n, lam=lam,
                                              user_eps=0.3, seed=3))
    for iv in inst:
        est.process(iv)
    res = est.estimate()
    assert res.value <= oracle.alpha(inst)


@pytest.mark.parametrize("call,error,message", [
    (lambda: gen_uniform(10, -1, 3, 0), ValueError, "count must be >= 0, got -1"),
    (lambda: gen_uniform_samelen(10, -1, 3, 0), ValueError, "count must be >= 0, got -1"),
    (lambda: gen_uniform_samelen(10, 5, 10, 0), ValueError,
     "need 1 <= length < n, got length=10, n=10"),
    (lambda: gen_index_samelen(0, (), 1), ValueError, "n_bits must be >= 1, got 0"),
    (lambda: gen_index_samelen(4, (), 5), ValueError, "query index 5 outside [1, 4]"),
    (lambda: gen_index_samelen(4, (5, 2), 1), ValueError, "members [2, 5] not within [1, 4]"),
    (lambda: gen_index_general(4, (), 1, 0), ValueError, "k must be >= 1, got 0"),
    (lambda: SamelenConfig(n=0, lam=1, user_eps=0.3, seed=0), DomainError,
     "n must be positive, got 0"),
    (lambda: oracle.SegTree(0), DomainError, "n must be positive, got 0"),
    (lambda: BottomK(0, HashFamily.create(16, 0.3), 0), ValueError, "k must be >= 1, got 0"),
    (lambda: KMVDistinct(1, HashFamily.create(16, 0.3), 0), ValueError, "k must be >= 2, got 1"),
    (lambda: run_trials("select-general", Instance(4), 0, 0), ValueError,
     "trials must be >= 1, got 0"),
    (lambda: trial_success("select-nothing", 1.0, 1), ValueError,
     "unknown algorithm 'select-nothing'"),
    (lambda: run_single("select-nothing", Instance(4), 0), ValueError,
     "unknown algorithm 'select-nothing'"),
    (lambda: Instance(2 ** 62), DomainError, f"n must be below 2**62, got {2 ** 62}"),
    (lambda: oracle.SegTree(2 ** 62), DomainError, f"n must be below 2**62, got {2 ** 62}"),
    (lambda: SamelenConfig(n=2 ** 62, lam=1, user_eps=0.3, seed=0), DomainError,
     f"n must be below 2**62, got {2 ** 62}"),
    (lambda: gen_uniform(2 ** 62, 5, 3, 0), DomainError, f"n must be below 2**62, got {2 ** 62}"),
], ids=["gen-uniform-count", "gen-samelen-count", "gen-samelen-length", "index-n-bits",
        "index-query", "index-members", "index-general-k", "samelen-config-n", "segtree-n",
        "bottomk-k", "kmv-k", "run-trials-trials", "trial-success-algorithm",
        "run-single-algorithm", "instance-n-2^62", "segtree-n-2^62", "samelen-config-n-2^62",
        "gen-uniform-n-2^62"])
def test_argument_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("iv", [Interval(1, 2 ** 63), Interval(2 ** 63, 2 ** 63 + 3),
                                Interval(-2 ** 63, 3)], ids=["right", "both", "left"])
def test_interval_past_int64_is_refused_by_name(iv):
    """An Interval whose codes do not fit int64 lies outside every universe:
    an Instance and every process that builds code columns refuse it by
    name as outside [1, n], never with an OverflowError; a component
    without an n words the largest n."""
    top = 2 ** 62 - 1
    cases = [(lambda: Instance(40, [Interval(1, 2), iv]), 40),
             (lambda: ShiftedGridSelector(3).process(iv), top),
             (lambda: SamelenAlphaEstimator(SamelenConfig(n=40, lam=3, user_eps=0.3,
                                                          seed=0)).process(iv), 40),
             (lambda: DistinctPoints(40, 0.3, 0).process(iv), 40),
             (lambda: GeneralAlphaEstimator(EstimatorConfig(n=40, user_eps=0.45, seed=0,
                                                            scale=1e-6)).process(iv), 40)]
    for call, n in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == f"interval {iv} outside [1, {n}]"
    # an earlier interval that breaks a rule is named first
    with pytest.raises(DomainError, match=r"^interval \[50,60\] outside \[1, 40\]$"):
        Instance(40, [Interval(50, 60), iv])
