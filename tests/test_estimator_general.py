import math
import time
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

from intervalstream.core import DomainError, Instance, Interval
from intervalstream import estimator, hashing, oracle
from intervalstream.estimator import EstimatorConfig, GeneralAlphaEstimator, estimate_oracle_mode
from intervalstream.generators import gen_uniform
from intervalstream.hashing import ExactDistinct, KMVDistinct
from intervalstream.oracle import SegTree, beta_hat, relevant_segments
from intervalstream.selector import PartitionSelector

from conftest import all_intervals, general_replay_violations, random_instance


def dense_instance(n: int) -> Instance:
    return Instance(n, tuple(Interval(i, i) for i in range(1, n + 1)))


def emitted_segments(tree: SegTree, iv: Interval):
    """Nodes activated by one interval, the reference for a chunk's emitted
    ids: the root followed by both children of every internal node
    containing the interval, sizes non-increasing."""
    out = [tree.root]
    for u in tree.containing_path(iv):
        if u < tree.n_pow2:
            out += (2 * u, 2 * u + 1)
    return out


def run_estimator(inst, **cfg_kwargs):
    cfg = EstimatorConfig(**cfg_kwargs)
    est = GeneralAlphaEstimator(cfg)
    for iv in inst:
        est.process(iv)
    return est, est.estimate()


def test_emitted_segments_examples():
    tree = SegTree(4)
    segs = emitted_segments(tree, Interval(1, 2))
    assert segs == [1, 2, 3, 4, 5]
    assert [tree.span(s) for s in segs] == [(1, 5), (1, 3), (3, 5), (1, 2), (2, 3)]
    assert [tree.span(s) for s in emitted_segments(tree, Interval(2, 3))] == \
        [(1, 5), (1, 3), (3, 5)]


def test_emitted_segments_exhaustive_properties():
    tree = SegTree(16)
    levels = tree.depth_levels
    for iv in all_intervals(16):
        segs = emitted_segments(tree, iv)
        assert len(segs) <= 2 * levels + 1
        sizes = [tree.span(s)[1] - tree.span(s)[0] for s in segs]
        assert sizes == sorted(sizes, reverse=True)
        for s in segs:
            assert s == tree.root or tree.contains(s >> 1, iv)
        expect = {tree.root}
        for node in tree.segments():
            if node < tree.n_pow2 and tree.contains(node, iv):
                expect.update((2 * node, 2 * node + 1))
        assert set(segs) == expect
        assert len(segs) == len(set(segs))


def test_config_derived_constants():
    cfg = EstimatorConfig(n=1024, user_eps=0.45, seed=0, scale=1.0)
    assert cfg.eps1 == pytest.approx(0.075)
    assert cfg.eps_rel == pytest.approx(0.075 / 7)
    assert cfg.eps_rho == pytest.approx(0.015)
    assert cfg.levels == 10
    assert cfg.gamma_cap == 2667
    assert cfg.k_rel == 5917265945
    assert cfg.k_rho == 2133333334
    assert cfg.k0 == 173265651492386


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n=1, user_eps=0.3, seed=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n=64, user_eps=0.5, seed=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n=64, user_eps=0.3, seed=0, scale=0)
    # a scale that is not finite would size the samplers by inf or nan
    for scale in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^scale must be finite and positive, got {scale}$"):
            EstimatorConfig(n=64, user_eps=0.3, seed=0, scale=scale)
    with pytest.raises(ValueError, match="scale"):
        GeneralAlphaEstimator(EstimatorConfig(n=64, user_eps=0.3, seed=0))


def test_process_rejects_out_of_range():
    est = GeneralAlphaEstimator(EstimatorConfig(n=16, user_eps=0.3, seed=0, scale=1e-9))
    with pytest.raises(DomainError):
        est.process(Interval(3, 17))


def test_feed_refuses_the_first_interval_process_refuses():
    inst = Instance(32, (Interval(2, 5), Interval(1, 3, True, False), Interval(9, 17),
                         Interval(20, 30)))
    est = GeneralAlphaEstimator(EstimatorConfig(n=16, user_eps=0.3, seed=0, scale=1e-9))
    with pytest.raises(DomainError) as refused:
        est.process(Interval(9, 17))
    with pytest.raises(DomainError) as fed:
        est.feed(inst.lcodes, inst.rcodes)
    assert str(fed.value) == str(refused.value)
    assert est.items == 0  # nothing of the columns was taken


@pytest.mark.parametrize("fields", [(10, 3, False, False), (3, 3, True, True), (3, 3, False, True)])
def test_feed_refuses_an_empty_pair_with_the_constructor_message(fields):
    # lcode > rcode: the Interval constructor's refusal, and the call is
    # refused whole, past a _CHUNK of valid pairs before the empty one
    with pytest.raises(DomainError) as built:
        Interval(*fields)
    left, right, left_open, right_open = fields
    valid = gen_uniform(64, 2 * estimator._CHUNK, 8, seed=3)
    lcodes = np.append(valid.lcodes, 2 * left + left_open)
    rcodes = np.append(valid.rcodes, 2 * right - right_open)
    assert lcodes[-1] > rcodes[-1]
    est = GeneralAlphaEstimator(EstimatorConfig(n=64, user_eps=0.3, seed=0, scale=1e-9))
    with pytest.raises(DomainError) as fed:
        est.feed(lcodes, rcodes)
    assert str(fed.value) == str(built.value)
    assert est.items == 0 and est.columns_hashed == 0


@pytest.mark.parametrize("counter", ["exact", "kmv"])
@pytest.mark.parametrize("n, kw", [(64, dict(user_eps=0.3, scale=1e-9)),
                                   (2048, dict(user_eps=0.45, scale=8e-8))])
def test_feed_matches_process_on_every_prefix(monkeypatch, counter, n, kw):
    # an 8-entry KMV sketch forgets ids, so fresh ids repeat; at n=2048 the
    # root saturates, so the prefixes cross into the sampled branch
    monkeypatch.setattr(hashing, "kmv_k", lambda eps: 8)
    if n == 64:
        inst = random_instance(n, 60, 16, seed=5, open_fraction=0.3)
    else:
        inst = dense_instance(n)
    cfg = EstimatorConfig(n=n, seed=3, counter_kind=counter, **kw)
    # each prefix goes to a fresh reference
    for stop in range(0, len(inst) + 1, 1 if n == 64 else 512):
        ref = GeneralAlphaEstimator(cfg)
        for iv in islice(inst, stop):
            ref.process(iv)
        est = GeneralAlphaEstimator(cfg)
        est.feed(inst.lcodes[:stop], inst.rcodes[:stop])
        assert est.estimate() == ref.estimate()
        assert (est.items, est.columns_hashed) == (ref.items, ref.columns_hashed)
        assert (est.rel.pairs(), est.rho.pairs()) == (ref.rel.pairs(), ref.rho.pairs())
    assert ref.estimate().branch == ("fallback" if n == 64 else "sampled")


def test_chunk_emits_each_id_once(monkeypatch):
    # a flush passes the counter each id its chunk emits exactly once: the
    # union of the per-interval emitted_segments over the chunk's intervals
    added = []
    add = ExactDistinct.add
    monkeypatch.setattr(ExactDistinct, "add", lambda c, x: added.append(x) or add(c, x))
    for n, inst in ((16, Instance(16, tuple(all_intervals(16)))),
                    (64, random_instance(64, 300, 40, seed=8, open_fraction=0.3)),
                    (1 << 20, gen_uniform(1 << 20, 200, 64, seed=4))):
        est = GeneralAlphaEstimator(EstimatorConfig(n=n, user_eps=0.3, seed=1, scale=1e-9))
        ivs = list(inst)
        for start in range(0, len(ivs), 37):
            added.clear()
            est.feed(inst.lcodes[start:start + 37], inst.rcodes[start:start + 37])
            est.flush()
            expect = {v for iv in ivs[start:start + 37] for v in emitted_segments(est.tree, iv)}
            assert len(added) == len(set(added)) and set(added) == expect


# (instance, eps, scale, seed, gamma_cap patch) and the (value, branch,
# relevant_count, rho_available, degraded, n_act_hat, rho_hat,
# columns_hashed) that the per-interval flush gave, the same for both
# counters; the instances are uniform (n, count, max-len, seed) or the
# points 1..count at n: the estimate-general input, the criterion-8 and 8b
# instances, fallback and sampled runs up to n=2**50, and two runs whose
# patched cap leaves relevant nodes, one with rho_hat > 0
PARITY = [
    ("uniform", (4096, 200, 64, 1), 0.45, 1e-07, 1, None, (85.0, "fallback", 0, 0, False, 0.0, 0.0, 834)),
    ("uniform", (4096, 200, 64, 2), 0.45, 1e-07, 2, None, (82.0, "fallback", 0, 0, False, 0.0, 0.0, 834)),
    ("uniform", (4096, 200, 64, 3), 0.45, 1e-07, 3, None, (82.0, "fallback", 0, 0, False, 0.0, 0.0, 826)),
    ("points", (1024, 1024), 0.45, 1.4e-07, 0, None, (1024.0, "fallback", 0, 0, False, 0.0, 0.0, 4094)),
    ("points", (1024, 1024), 0.45, 1.4e-07, 1, None, (1024.0, "fallback", 0, 0, False, 0.0, 0.0, 4094)),
    ("points", (2048, 1664), 0.45, 1.4e-07, 0, None, (0.0, "sampled", 1, 0, True, 3331.0, 0.0, 6662)),
    ("points", (2048, 1664), 0.45, 1.4e-07, 1, None, (0.0, "sampled", 0, 0, True, 3331.0, 0.0, 6662)),
    ("points", (2048, 2048), 0.45, 8e-08, 3, None, (0.0, "sampled", 0, 0, True, 4095.0, 0.0, 8190)),
    ("uniform", (2048, 6000, 2, 2), 0.45, 8e-08, 9, None, (0.0, "sampled", 0, 0, True, 3997.0, 0.0, 7994)),
    ("uniform", (4096, 3000, 6, 1), 0.45, 1e-07, 0, 12,
     (625.6385220108839, "sampled", 46, 1, True, 4469.0, 3.0, 8938)),
    ("uniform", (4096, 3000, 6, 1), 0.45, 1e-07, 1, 40, (0.0, "sampled", 17, 0, True, 4469.0, 0.0, 8938)),
    ("uniform", (1 << 16, 5000, 64, 1), 0.45, 1e-07, 1, None,
     (1647.0, "fallback", 0, 0, False, 0.0, 0.0, 16718)),
    ("uniform", (1 << 20, 3000, 64, 1), 0.45, 1e-07, 1, None,
     (2744.0, "fallback", 0, 0, False, 0.0, 0.0, 41322)),
    ("uniform", (1 << 20, 5000, 64, 1), 0.45, 1e-07, 1, None,
     (0.0, "sampled", 0, 0, True, 29001.0, 0.0, 58002)),
    ("uniform", (1 << 50, 50, 64, 7), 0.45, 3e-08, 3, None, (50.0, "fallback", 0, 0, False, 0.0, 0.0, 7786)),
    ("uniform", (64, 200, 8, 5), 0.3, 1e-09, 2, None, (27.0, "fallback", 0, 0, False, 0.0, 0.0, 206)),
]


@pytest.mark.parametrize("counter", ["exact", "kmv"])
@pytest.mark.parametrize("kind, args, eps, scale, seed, cap, expect", PARITY)
def test_outputs_match_the_per_interval_flush(monkeypatch, counter, kind, args, eps, scale,
                                              seed, cap, expect):
    if cap is not None:
        monkeypatch.setattr(EstimatorConfig, "gamma_cap", property(lambda self: cap))
    if kind == "uniform":
        inst = gen_uniform(*args)
    else:
        n, count = args
        inst = Instance(n, tuple(Interval(i, i) for i in range(1, count + 1)))
    est = GeneralAlphaEstimator(EstimatorConfig(n=inst.n, user_eps=eps, seed=seed, scale=scale,
                                                counter_kind=counter))
    est.feed(inst.lcodes, inst.rcodes)
    res = est.estimate()
    assert (res.value, res.branch, res.relevant_count, res.rho_available, res.degraded,
            res.n_act_hat, res.rho_hat, est.columns_hashed) == expect


@pytest.mark.parametrize("counter", ["exact", "kmv"])
def test_peak_units_do_not_depend_on_flushes(counter):
    # one feed and per-item process flush at the same 1,024-item boundaries,
    # so they give the same estimate, every field included; estimate()
    # flushes the buffer, so reading it after every item applies each item
    # as a chunk of its own, which may move only the peak units and the
    # table size, as both are taken once per chunk
    # each run with the (peak_units, tracked_nodes) of the fed estimator
    runs = [(random_instance(64, 60, 16, seed=5, open_fraction=0.3),
             dict(n=64, user_eps=0.3, scale=1e-9), "fallback", (152, 14)),
            (Instance(2048, tuple(Interval(i, i) for i in range(1, 1665))),
             dict(n=2048, user_eps=0.45, scale=1.4e-7), "sampled", (34634, 1603))]
    for inst, kw, branch, peak in runs:
        cfg = EstimatorConfig(seed=3, counter_kind=counter, **kw)
        fed, queued, stepped = (GeneralAlphaEstimator(cfg) for _ in range(3))
        fed.feed(inst.lcodes, inst.rcodes)
        for iv in inst:
            queued.process(iv)
            stepped.process(iv)
            stepped.estimate()
        res = fed.estimate()
        assert res == queued.estimate() and res.branch == branch
        assert (res.peak_units, res.tracked_nodes) == peak
        assert replace(stepped.estimate(), peak_units=res.peak_units,
                       tracked_nodes=res.tracked_nodes) == res


def test_fallback_branch_small_universe():
    # at n=16 the tracker cap exceeds the largest possible gamma, so the
    # estimate always equals the nested 2-approximation on the whole stream
    inst = random_instance(16, 40, 6, seed=5)
    est, res = run_estimator(inst, n=16, user_eps=0.3, seed=1, scale=1e-9)
    assert res.branch == "fallback"
    sel = PartitionSelector()
    for iv in inst:
        sel.process(iv)
    assert res.value == float(sel.window_count)
    a = oracle.alpha(inst)
    assert a / 2.0 < res.value <= a


def test_fallback_empty_stream():
    est = GeneralAlphaEstimator(EstimatorConfig(n=16, user_eps=0.3, seed=0, scale=1e-9))
    res = est.estimate()
    assert res.branch == "fallback" and res.value == 0.0


def test_duplicate_intervals_do_not_change_counter():
    inst = Instance(16, (Interval(2, 5), Interval(2, 5), Interval(2, 5)))
    est, _ = run_estimator(inst, n=16, user_eps=0.3, seed=1, scale=1e-9)
    tree = est.tree
    assert est.counter.estimate() == len(oracle.active_segments(inst, tree))


def test_n_act_exact_replay():
    inst = random_instance(64, 80, 20, seed=11, open_fraction=0.2)
    est, _ = run_estimator(inst, n=64, user_eps=0.3, seed=2, scale=1e-9)
    active = oracle.active_segments(inst, est.tree)
    assert est.counter.estimate() == float(len(active))
    assert est.counter.seen == active


def test_winner_and_tracker_replay_fallback_regime():
    inst = random_instance(64, 100, 16, seed=3, open_fraction=0.15)
    est, res = run_estimator(inst, n=64, user_eps=0.3, seed=7, scale=1e-9)
    assert res.branch == "fallback"
    assert general_replay_violations(est, inst) == []


def test_sampled_branch_dense():
    n = 2048
    inst = dense_instance(n)
    est, res = run_estimator(inst, n=n, user_eps=0.45, seed=3, scale=8e-8)
    assert res.branch == "sampled"
    assert res.n_act_hat == float(len(oracle.active_segments(inst, est.tree)))
    assert general_replay_violations(est, inst) == []
    # relevance classification of every sample member matches the oracle
    rel_set = relevant_segments(inst, est.config.eps1, est.tree)
    for sample in (est.rel, est.rho):
        for v in sample.members:
            assert est.is_relevant(v) == (v in rel_set)


def test_sampled_branch_random_instance():
    # a random stream of short intervals also saturates the root tracker
    n = 2048
    inst = gen_uniform(n, 6000, 2, seed=2)
    est, res = run_estimator(inst, n=n, user_eps=0.45, seed=9, scale=8e-8)
    assert res.branch == "sampled"
    assert general_replay_violations(est, inst) == []


@pytest.mark.parametrize("n, branch", [(64, "fallback"), (2048, "sampled")])
def test_kmv_evicting_sketch_matches_exact_counter(monkeypatch, n, branch):
    # an 8-entry sketch forgets ids, which then come back as possibly new in
    # a later chunk and are offered again; an id offered before is a member
    # or never enters, so both samples keep the members and the trackers of
    # the exact run; a chunk passes each of its ids to the counter once, so
    # chunks of 8 intervals let forgotten ids come back
    monkeypatch.setattr(estimator, "_CHUNK", 8)
    if n == 64:
        inst, kw = random_instance(64, 100, 16, seed=3), dict(user_eps=0.3, scale=1e-9)
    else:
        inst, kw = dense_instance(n), dict(user_eps=0.45, scale=8e-8)
    est_exact, res_exact = run_estimator(inst, n=n, seed=7, counter_kind="exact", **kw)
    monkeypatch.setattr(hashing, "kmv_k", lambda eps: 8)
    fresh = []
    add = KMVDistinct.add

    def counted_add(sketch, x):
        fresh.append(add(sketch, x))
        return fresh[-1]

    monkeypatch.setattr(KMVDistinct, "add", counted_add)
    est_kmv, res_kmv = run_estimator(inst, n=n, seed=7, counter_kind="kmv", **kw)
    active = oracle.active_segments(inst, est_kmv.tree)
    assert est_kmv.counter.k == 8 and sum(fresh) > len(active), "no id was forgotten"
    assert res_exact.branch == res_kmv.branch == branch
    assert general_replay_violations(est_exact, inst) == []
    assert general_replay_violations(est_kmv, inst) == []
    for s_exact, s_kmv in ((est_exact.rel, est_kmv.rel), (est_exact.rho, est_kmv.rho)):
        assert s_kmv.pairs() == s_exact.pairs()
        assert [est_kmv.is_relevant(v) for _, v in s_kmv.pairs()] == \
            [est_exact.is_relevant(v) for _, v in s_exact.pairs()]


@pytest.mark.parametrize("counter", ["exact", "kmv"])
def test_selectors_hold_the_nested_approximation(monkeypatch, counter):
    # a chunk feeds each selector the pairs inside its node, in stream
    # order, so after every flush each selector holds the 2-approximation
    # over the prefix's intervals contained in its node; the patched cap
    # leaves unsaturated rho members under saturated parents
    monkeypatch.setattr(estimator, "_CHUNK", 100)
    monkeypatch.setattr(EstimatorConfig, "gamma_cap", property(lambda self: 12))
    inst = gen_uniform(4096, 3000, 6, seed=1)
    est = GeneralAlphaEstimator(EstimatorConfig(n=4096, user_eps=0.45, seed=0, scale=1e-7,
                                                counter_kind=counter))
    checked = 0
    for stop in range(0, len(inst), 500):
        est.feed(inst.lcodes[stop:stop + 500], inst.rcodes[stop:stop + 500])
        prefix = Instance(inst.n, tuple(islice(inst, stop + 500)))
        for u, node in est.nodes.items():
            if node.selector is not None:
                assert node.selector.window_count == beta_hat(prefix, u), f"node {u}"
                checked += 1
    res = est.estimate()
    assert res.branch == "sampled" and res.rho_hat > 0 and checked > 12


@pytest.mark.parametrize("m", [1664, 2048])
def test_retained_state_is_per_held_node(monkeypatch, m):
    # sampled branch: the root saturates, so its selector goes, and no
    # selector is fed once its node's tracker saturates; after every flush
    # the table holds exactly the root and each node that a sample holds, or
    # whose child a sample holds, whichever counter runs, and a node other
    # than the root has a selector iff it is an unsaturated member of the
    # rho sample; flushes come every 128 intervals, so the table is checked
    # a dozen times a run
    monkeypatch.setattr(estimator, "_CHUNK", 128)
    n = 2048
    inst = Instance(n, tuple(Interval(i, i) for i in range(1, m + 1)))
    feed = PartitionSelector.process
    for counter in ("exact", "kmv"):
        est = GeneralAlphaEstimator(EstimatorConfig(n=n, user_eps=0.45, seed=4, scale=1.4e-7,
                                                    counter_kind=counter))
        owner = {}

        def process(sel, iv):
            v = owner.get(id(sel))
            if v is None or v not in est.nodes or est.nodes[v].selector is not sel:
                owner.clear()
                owner.update((id(node.selector), u) for u, node in est.nodes.items()
                             if node.selector is not None)
                v = owner.get(id(sel))
            assert v is not None, "a selector outside the node table was fed"
            assert not est.nodes[v].saturated, f"selector of saturated node {v} was fed"
            return feed(sel, iv)

        monkeypatch.setattr(PartitionSelector, "process", process)
        flush = est.flush
        flushes = []

        def checked_flush():
            flush()
            held = est.rel.members | est.rho.members
            needed = held | {v >> 1 for v in held if v > 1} | {est.tree.root}
            assert set(est.nodes) == needed
            root = est.nodes[est.tree.root]
            assert not root.saturated or root.selector is None
            for u, node in est.nodes.items():
                if u != est.tree.root:
                    assert (node.selector is not None) == \
                        (u in est.rho.members and not node.saturated), f"node {u}"
            flushes.append(len(est.nodes))

        est.flush = checked_flush
        for iv in inst:
            est.process(iv)
        res = est.estimate()
        assert res.branch == "sampled" and len(flushes) > m // 128
        assert est.nodes[est.tree.root].selector is None
        assert res.tracked_nodes == max(flushes)
        assert general_replay_violations(est, inst) == []


@pytest.mark.parametrize("n", [1 << 14, 1 << 20])
@pytest.mark.parametrize("eps", [0.45, 0.1])
def test_hash_path_blas_up_to_2_20(n, eps):
    # nodes are hashed over the universe 2 * n_pow2
    est = GeneralAlphaEstimator(EstimatorConfig(n=n, user_eps=eps, seed=0, scale=1e-12))
    assert est.rel.bank.family.universe == 2 * est.tree.n_pow2
    est.process(Interval(1, 2))
    est.process(Interval(n - 5, n, True, False))
    assert est.estimate().value == 2.0


def _assert_no_cliff(n):
    # one hash evaluation per fresh id and sample, whatever the prime (about
    # 2**60.6 for the rel sample at n=2**50): the gate fails hashing whose
    # cost per id grows with k_rel + k0 (4,536 at this scale)
    inst = gen_uniform(n, 50, 64, seed=7)
    start = time.perf_counter()
    est, res = run_estimator(inst, n=inst.n, user_eps=0.45, seed=3, scale=3e-8)
    elapsed = time.perf_counter() - start
    assert est.rel.bank.family.universe == 2 * est.tree.n_pow2
    assert res.branch == "fallback"
    assert elapsed < 2.5, elapsed
    assert general_replay_violations(est, inst) == []


def test_n_2_26_uniform_stays_on_blas():
    _assert_no_cliff(1 << 26)


def test_no_cliff_at_large_n():
    _assert_no_cliff(1 << 50)


def test_fallback_regime_matches_oracle_rule():
    # at n=1024 no instance can saturate the root tracker at eps=0.45
    n = 1024
    inst = dense_instance(n)
    cfg = EstimatorConfig(n=n, user_eps=0.45, seed=1, scale=8e-8)
    assert oracle.gamma_all(inst, SegTree(n))[SegTree(n).root] == 2 * n - 1
    assert 2 * n - 1 < cfg.gamma_cap
    est, res = run_estimator(inst, n=n, user_eps=0.45, seed=1, scale=8e-8)
    assert res.branch == "fallback"


def test_oracle_mode_fallback_cases():
    assert estimate_oracle_mode(Instance(16, (Interval(3, 7),)), 0.3) == 1.0
    inst = random_instance(64, 60, 12, seed=21)
    tree = SegTree(64)
    assert relevant_segments(inst, 0.3 / 6, tree) == {tree.root}
    assert estimate_oracle_mode(inst, 0.3) == float(beta_hat(inst, tree.root))


def test_oracle_mode_nonfallback_formula_and_bracket():
    n = 2048
    inst = dense_instance(n)
    eps = 0.45
    eps1 = eps / 6.0
    tree = SegTree(n)
    rel = relevant_segments(inst, eps1, tree)
    assert rel != {tree.root}
    expect = sum(beta_hat(inst, s) for s in rel) / (1 + eps1) ** 2
    got = estimate_oracle_mode(inst, eps)
    assert got == expect
    a = oracle.alpha(inst)
    assert (0.5 - eps1) / (1 + eps1) ** 2 * a <= got <= a


@pytest.mark.parametrize("eps", [0.3, 0.45])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_mode_bracket_random(eps, seed):
    inst = random_instance(512, 300, 30, seed, open_fraction=0.1)
    a = oracle.alpha(inst)
    eps1 = eps / 6.0
    v = estimate_oracle_mode(inst, eps)
    assert (0.5 - eps1) / (1 + eps1) ** 2 * a <= v <= a


def test_degraded_flag_reported():
    n = 2048
    inst = dense_instance(n)
    est, res = run_estimator(inst, n=n, user_eps=0.45, seed=9, scale=8e-8)
    assert res.branch == "sampled"
    # only two segments are relevant at this eps, so the rho sample of a
    # handful of nodes essentially never holds enough relevant members
    assert res.rho_available <= est.config.k_rho
    if res.rho_available < est.config.k_rho:
        assert res.degraded


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_samples_give_the_oracle_mode_value(seed):
    # the criterion-8b instance at a scale where both samples hold every
    # active node (k0 = 4,060 >= 3,331): relevant count, relevant fraction
    # and rho are then exact, so the estimate is the oracle-mode value
    n = 2048
    inst = Instance(n, tuple(Interval(i, i) for i in range(1, 1665)))
    est, res = run_estimator(inst, n=n, user_eps=0.45, seed=seed, scale=4e-6)
    active = oracle.active_segments(inst, est.tree)
    assert (est.config.k_rel, est.config.k0, len(active)) == (28640, 4060, 3331)
    assert res.branch == "sampled"
    assert est.rel.members == est.rho.members == active
    assert res.relevant_count == res.rho_available == 2
    assert res.value == pytest.approx(estimate_oracle_mode(inst, 0.45), rel=1e-12)
    assert res.value == pytest.approx(1439.91, abs=0.01)


def test_kmv_counter_mode_matches_exact_below_saturation():
    inst = random_instance(256, 300, 20, seed=3)
    _, r_exact = run_estimator(inst, n=256, user_eps=0.3, seed=1, scale=1e-9,
                               counter_kind="exact")
    _, r_kmv = run_estimator(inst, n=256, user_eps=0.3, seed=1, scale=1e-9,
                             counter_kind="kmv")
    assert r_exact.branch == r_kmv.branch == "fallback"
    assert r_exact.value == r_kmv.value


def test_estimator_determinism():
    inst = random_instance(64, 50, 10, seed=2)
    _, r1 = run_estimator(inst, n=64, user_eps=0.3, seed=123, scale=1e-9)
    _, r2 = run_estimator(inst, n=64, user_eps=0.3, seed=123, scale=1e-9)
    assert r1 == r2
