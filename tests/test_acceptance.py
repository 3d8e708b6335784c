"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 runs the general estimator end to end in two regimes with one
shared protocol.  At n=1024 the relevance threshold exceeds the largest root
gamma count any instance can have (2*1024-1 = 2047 segments against a cap of
at least 2401 for every legal epsilon), so every run takes the fallback branch
and criterion 8 checks that branch against the oracle; the n=2048 variant uses
an instance that beats the threshold and so checks the sampled branch.
"""

import math
import time
from collections import Counter

import pytest

from intervalstream.core import Instance, Interval, format_stream, pairwise_disjoint
from intervalstream import oracle
from intervalstream.estimator import (EstimatorConfig, GeneralAlphaEstimator,
                                      estimate_oracle_mode)
from intervalstream.estimator_samelen import samelen_estimate_oracle
from intervalstream.generators import (expected_alpha_index_general,
                                       expected_alpha_index_samelen,
                                       gen_index_general, gen_index_samelen,
                                       gen_uniform, gen_uniform_samelen,
                                       random_index_input)
from intervalstream.harness import run_trials
from intervalstream.oracle import SegTree
from intervalstream.selector import PartitionSelector
from intervalstream.selector_samelen import ShiftedGridSelector, grid_window

from conftest import DRAWS, general_replay_violations, minwise_frequencies
from test_cli import run_cli


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} ({name}): {status}" + (f" - {detail}" if detail else ""),
          flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def uniform_corpus():
    instances = []
    for seed in range(200):
        n = (64, 256, 1024, 4096)[seed % 4]
        if seed in (42, 137):
            n, count = 4096, 10_000
        else:
            count = 10 + (seed * 97) % 1200
        max_len = 1 + (seed * 31) % max(2, n // 8)
        instances.append((f"uniform-{seed}", gen_uniform(n, count, max_len, seed)))
    return instances


@pytest.fixture(scope="module")
def adversarial_corpus():
    instances = []
    for seed in range(20):
        members, i = random_index_input(16, 3000 + seed)
        instances.append((f"idx-samelen-{seed}", gen_index_samelen(16, members, i)))
        instances.append((f"idx-general-{seed}", gen_index_general(16, members, i, k=3)))
    return instances


@pytest.fixture(scope="module")
def samelen_corpus():
    instances = []
    for seed in range(200):
        n = (128, 512, 2048)[seed % 3]
        lam = 1 + (seed * 7) % 16
        count = 10 + (seed * 53) % 600
        instances.append((f"samelen-{seed}", lam,
                          gen_uniform_samelen(n, count, lam, 500 + seed)))
    return instances


@pytest.fixture(scope="module")
def selector_runs(uniform_corpus, adversarial_corpus):
    """Criterion 1/2 shared pass: selector output and checks per instance."""
    results = []
    start = time.perf_counter()
    for name, inst in uniform_corpus + adversarial_corpus:
        sel = PartitionSelector()
        for iv in inst:
            sel.process(iv)
        solution = sel.solution()
        stream_set = set(inst.intervals)
        a = oracle.alpha(inst)
        results.append({
            "name": name,
            "alpha": a,
            "size": len(solution),
            "peak": sel.peak_windows,
            "disjoint": pairwise_disjoint(solution),
            "from_stream": all(iv in stream_set for iv in solution),
        })
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_selector_correctness(selector_runs):
    results, elapsed = selector_runs
    bad = [r for r in results
           if not (r["disjoint"] and r["from_stream"] and r["size"] > r["alpha"] / 2.0)]
    ok = not bad and elapsed < 10.0
    verdict(1, "general selector 2-approximation", ok,
            f"{len(results)} instances, failures={len(bad)}, runtime={elapsed:.2f}s")


def test_criterion_2_selector_space(selector_runs):
    results, _ = selector_runs
    bad = [r for r in results if r["peak"] > r["alpha"]]
    verdict(2, "selector peak windows <= alpha", not bad,
            f"{len(results)} instances, violations={len(bad)}")


def test_criterion_3_samelen_selector(samelen_corpus):
    failures = 0
    for name, lam, inst in samelen_corpus:
        sel = ShiftedGridSelector(lam)
        for iv in inst:
            sel.process(iv)
        a = oracle.alpha(inst)
        for shift in (0, 1, 2):
            sub = [iv for iv in inst if grid_window(lam, shift, iv) is not None]
            if sel.shift_size(shift) != oracle.alpha(Instance(inst.n, tuple(sub))):
                failures += 1
        if len(sel.solution()) < math.ceil(2.0 * a / 3.0):
            failures += 1
    verdict(3, "same-length selector optimal per grid and 3/2 overall",
            failures == 0, f"{len(samelen_corpus)} instances, failures={failures}")


def test_criterion_4_minwise_family():
    start = time.perf_counter()
    eps = 0.25
    xs, winners, freq = minwise_frequencies(eps=eps)
    p0 = 1.0 / len(xs)
    sigma = math.sqrt(p0 * (1 - p0) / DRAWS)
    lo, hi = (1 - eps) * p0 - 3 * sigma, (1 + eps) * p0 + 3 * sigma
    ok_min = all(lo <= freq[x] / DRAWS <= hi for x in xs)

    y_set = set(xs[:4])
    conditioned = [w for w in winners if w in y_set]
    q0 = 0.25
    sig_c = math.sqrt(q0 * (1 - q0) / len(conditioned))
    lo_c, hi_c = (1 - 4 * eps) * q0 - 3 * sig_c, (1 + 4 * eps) * q0 + 3 * sig_c
    counts = Counter(conditioned)
    ok_cond = all(lo_c <= counts[y] / len(conditioned) <= hi_c for y in y_set)
    elapsed = time.perf_counter() - start
    verdict(4, "eps-min-wise and conditional sampling bounds",
            ok_min and ok_cond and elapsed < 30.0,
            f"minwise={ok_min}, conditional={ok_cond}, runtime={elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_5_relevant_sum_bracket(uniform_corpus, adversarial_corpus):
    failures = 0
    checked = 0
    for name, inst in uniform_corpus + adversarial_corpus:
        a = oracle.alpha(inst)
        for eps in (0.1, 0.25, 0.45):
            s = oracle.relevant_sum(inst, eps)
            checked += 1
            if not (0.5 - eps) * a <= s <= a:
                failures += 1
    verdict(5, "relevant-segment sum bracket", failures == 0,
            f"{checked} checks, failures={failures}")


@pytest.mark.slow
def test_criterion_6_oracle_mode_estimators(uniform_corpus, adversarial_corpus,
                                            samelen_corpus):
    failures = 0
    checked = 0
    for name, inst in uniform_corpus + adversarial_corpus:
        a = oracle.alpha(inst)
        for eps in (0.3, 0.45):
            eps1 = eps / 6.0
            v = estimate_oracle_mode(inst, eps)
            checked += 1
            if not (0.5 - eps1) / (1 + eps1) ** 2 * a <= v <= a:
                failures += 1
    for name, lam, inst in samelen_corpus:
        a = oracle.alpha(inst)
        for eps in (0.2, 0.45):
            v = samelen_estimate_oracle(inst, lam, eps)
            checked += 1
            if not (2.0 / 3.0) * (1 - eps) * a <= v <= a:
                failures += 1
    verdict(6, "deterministic estimator pipelines in bracket", failures == 0,
            f"{checked} checks, failures={failures}")


@pytest.mark.slow
def test_criterion_7_samelen_estimator_end_to_end():
    start = time.perf_counter()
    inst = gen_uniform_samelen(4096, 500, 16, seed=100)
    reports, summary = run_trials("estimate-samelen", inst, trials=100,
                                  base_seed=0, eps=0.2, lam=16,
                                  counter="exact", instance_id="c7")
    elapsed = time.perf_counter() - start
    frac = summary["success_fraction"]
    verdict(7, "same-length estimator success frequency",
            frac >= 0.55 and elapsed < 60.0,
            f"fraction={frac:.2f} (need >= 0.55), alpha={summary['alpha']}, "
            f"runtime={elapsed:.1f}s")


def crafted_point_instance(n: int, count: int) -> Instance:
    return Instance(n, tuple(Interval(i, i) for i in range(1, count + 1)))


def general_trials(inst, eps, scale, trials=100):
    """The criterion-8 protocol: run the streaming estimator over inst once
    per seed in range(trials) with the exact counter.  Returns one
    (estimate, sub-check violations) pair per trial."""
    tree = SegTree(inst.n)
    gammas = oracle.gamma_all(inst, tree)
    active = oracle.active_segments(inst, tree)
    outcomes = []
    for seed in range(trials):
        est = GeneralAlphaEstimator(EstimatorConfig(
            n=inst.n, user_eps=eps, seed=seed, counter_kind="exact", scale=scale))
        for iv in inst:
            est.process(iv)
        outcomes.append((est.estimate(),
                         len(general_replay_violations(est, inst, gammas, active))))
    return outcomes


@pytest.mark.slow
def test_criterion_8_general_estimator_n1024():
    start = time.perf_counter()
    n, eps, scale = 1024, 0.45, 1.4e-7
    inst = crafted_point_instance(n, n)
    tree = SegTree(n)
    gamma_root = oracle.gamma_all(inst, tree)[tree.root]
    cfg0 = EstimatorConfig(n=n, user_eps=eps, seed=0, scale=scale)
    cap = cfg0.gamma_cap
    # No n=1024 instance reaches the sampled branch: the tree has
    # 2*n_pow2-1 segments, fewer than the cap's infimum over eps < 1/2.
    max_gamma = 2 * tree.n_pow2 - 1
    cap_inf = math.ceil(2.0 * cfg0.levels ** 2 / (0.5 / 6.0))
    assert gamma_root <= max_gamma < cap_inf <= cap
    expected_branch = "sampled" if gamma_root >= cap else "fallback"
    a = oracle.alpha(inst)
    oracle_value = estimate_oracle_mode(inst, eps)

    outcomes = general_trials(inst, eps, scale)
    branch_mismatches = sum(res.branch != expected_branch for res, _ in outcomes)
    value_mismatches = sum(res.value != oracle_value for res, _ in outcomes)
    out_of_bracket = sum(not 0.5 * (1 - eps) * a <= res.value <= a
                         for res, _ in outcomes)
    subcheck_violations = sum(bad for _, bad in outcomes)
    elapsed = time.perf_counter() - start
    verdict(8, "general estimator end-to-end at n=1024",
            branch_mismatches == 0 and value_mismatches == 0
            and out_of_bracket == 0 and subcheck_violations == 0
            and elapsed < 300.0,
            f"gamma(root)={gamma_root} <= 2*n_pow2-1={max_gamma} < "
            f"ceil(2L^2/(1/2/6))={cap_inf} <= cap={cap}, so every run takes "
            f"the {expected_branch} branch; {len(outcomes)} trials: "
            f"branch mismatches={branch_mismatches}, "
            f"value != oracle-mode {oracle_value:g}: {value_mismatches}, "
            f"outside [1/2(1-eps)alpha, alpha] (alpha={a}): {out_of_bracket}, "
            f"sub-check violations={subcheck_violations}, runtime={elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_8b_general_estimator_n2048():
    start = time.perf_counter()
    n, eps, scale = 2048, 0.45, 1.4e-7
    inst = crafted_point_instance(n, 1664)
    tree = SegTree(n)
    gammas = oracle.gamma_all(inst, tree)
    cap = EstimatorConfig(n=n, user_eps=eps, seed=0, scale=scale).gamma_cap
    assert gammas[tree.root] >= cap, "crafted instance must beat the threshold"
    a = oracle.alpha(inst)

    cfg0 = EstimatorConfig(n=n, user_eps=eps, seed=0, scale=scale)
    assert cfg0.k_rel <= 2000 and cfg0.k0 <= 2000

    subcheck_violations = 0
    successes = 0
    trials = 100
    for res, bad in general_trials(inst, eps, scale, trials):
        assert res.branch == "sampled"
        subcheck_violations += bad
        if 0.5 * (1 - eps) * a <= res.value <= (1 + eps) * a:
            successes += 1
    elapsed = time.perf_counter() - start
    frac = successes / trials
    print(f"CRITERION 8b report: empirical success fraction {frac:.2f} over "
          f"{trials} trials at k_rel={cfg0.k_rel}, k_rho={cfg0.k_rho}, "
          f"k0={cfg0.k0} (analysis-faithful counts are ~1e9; accuracy at this "
          f"sample budget is not expected)", flush=True)
    verdict("8b", "general estimator deterministic sub-checks at n=2048",
            subcheck_violations == 0 and elapsed < 300.0,
            f"sub-check violations={subcheck_violations}, "
            f"reported fraction={frac:.2f}, runtime={elapsed:.1f}s")


def test_criterion_9_lower_bound_constructions():
    failures = 0
    for trial in range(50):
        members, i = random_index_input(16, 9000 + trial)
        s_inst = gen_index_samelen(16, members, i)
        if oracle.alpha(s_inst) != expected_alpha_index_samelen(members, i):
            failures += 1
        g_inst = gen_index_general(16, members, i, k=3)
        if oracle.alpha(g_inst) != expected_alpha_index_general(members, i, 3):
            failures += 1
    verdict(9, "membership-bit constructions hit both optimum values",
            failures == 0, f"100 instances, failures={failures}")


def test_criterion_10_determinism(tmp_path):
    inst_path = tmp_path / "det.txt"
    code, text = run_cli(["gen", "uniform", "--n", "512", "--count", "120",
                          "--max-len", "24", "--seed", "77"])
    assert code == 0
    inst_path.write_text(text)
    commands = [
        ["gen", "uniform", "--n", "512", "--count", "120", "--max-len", "24",
         "--seed", "77"],
        ["gen", "index-general", "--n-bits", "12", "--seed", "5", "--k", "3"],
        ["select", "--algo", "general", "--in", str(inst_path)],
        ["select", "--algo", "samelen", "--lambda", "4", "--in",
         str(_samelen_file(tmp_path))],
        ["estimate", "--algo", "general", "--eps", "0.3", "--seed", "9",
         "--scale", "1e-9", "--in", str(inst_path)],
        ["estimate", "--algo", "general", "--eps", "0.3", "--oracle-mode",
         "--in", str(inst_path)],
        ["estimate", "--algo", "samelen", "--lambda", "4", "--eps", "0.3",
         "--seed", "9", "--in", str(_samelen_file(tmp_path))],
        ["trials", "--algo", "estimate-samelen", "--lambda", "4", "--eps", "0.3",
         "--trials", "4", "--seed", "2", "--in", str(_samelen_file(tmp_path))],
    ]
    mismatches = 0
    for args in commands:
        c1, o1 = run_cli(args)
        c2, o2 = run_cli(args)
        if o1 != o2 or c1 != c2:
            mismatches += 1
    c3, o3 = run_cli(commands[-1])
    c4, o4 = run_cli(commands[-1] + ["--workers", "2"])
    if o3 != o4:
        mismatches += 1
    verdict(10, "byte-identical reports for identical flags and seeds",
            mismatches == 0, f"{len(commands) + 1} comparisons, mismatches={mismatches}")


def _samelen_file(tmp_path):
    path = tmp_path / "samelen.txt"
    if not path.exists():
        inst = gen_uniform_samelen(512, 100, 4, seed=12)
        path.write_text(format_stream(inst))
    return path
