"""The randomized size estimator for equal-length intervals.

Per grid: a distinct count over occupied window indices estimates how many
windows hold an interval, and a bottom-k sample of the occupied windows
estimates the fraction holding two disjoint intervals.  Their combination recovers the
per-grid optimum; the best grid (epsilon-corrected) estimates alpha.
"""

from intervalstream import oracle
from intervalstream.estimator_samelen import (SamelenAlphaEstimator,
                                              SamelenConfig,
                                              samelen_estimate_oracle)
from intervalstream.generators import gen_uniform_samelen
from intervalstream.harness import run_trials

inst = gen_uniform_samelen(4096, 500, 16, seed=100)
a = oracle.alpha(inst)
eps = 0.2

est = SamelenAlphaEstimator(SamelenConfig(n=4096, lam=16, user_eps=eps, seed=0))
for iv in inst:
    est.process(iv)
res = est.estimate()
print(f"one run (eps={eps}, a sample of up to k = {res.k} windows per grid):")
for aidx in (0, 1, 2):
    print(f"  grid {aidx}: occupied windows = {res.gamma1_hats[aidx]:.0f}, "
          f"type-2 sampled windows = {res.type2_counts[aidx]}"
          f"/{est.states[aidx].sample.units}, "
          f"per-grid estimate = {res.shift_values[aidx]:.1f}")
print(f"estimate = {res.value:.1f}, alpha = {a}, "
      f"bracket = [{(2 / 3) * (1 - eps) * a:.1f}, {a}]")
print(f"oracle-mode value = {samelen_estimate_oracle(inst, 16, eps):.1f}")

print("\n30 independent seeded trials:")
reports, summary = run_trials("estimate-samelen", inst, trials=30, base_seed=0,
                              eps=eps, lam=16)
print(f"  success fraction = {summary['success_fraction']:.2f} "
      f"(the guarantee promises >= 2/3 at full sample sizes)")
print(f"  median estimate = {summary['median_output']:.1f} vs alpha = {a}")
