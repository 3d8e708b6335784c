"""The randomized size estimator for arbitrary intervals.

The estimator never stores a solution.  It streams each interval as a short
sequence of segment-tree segments, counts distinct active segments, keeps a
bottom-k sample of the active segments to estimate how many are *relevant*
(small capped subtree count under a saturated parent), and averages nested
2-approximation sizes over the relevant members of a second sample.  A deterministic oracle mode replaces
every estimate by its exact value to validate the combination formula.

Two regimes appear below: a small universe where the relevance threshold is
unreachable and the estimator falls back to a single nested selector, and a
dense large universe where the sampled pipeline engages.  At the desk-scale
sampler counts used here the sampled estimate is 0: only 2 of the 3331
active segments are relevant, the rho sample of the 5 smallest keys
holds none of them (rho_available = 0), so the average nested size rho_hat
is 0.
"""

from intervalstream.core import Instance, Interval
from intervalstream import oracle
from intervalstream.estimator import (EstimatorConfig, GeneralAlphaEstimator,
                                      estimate_oracle_mode)
from intervalstream.generators import gen_uniform

print("regime 1: n = 256, eps = 0.3 (threshold out of reach -> fallback)")
inst = gen_uniform(256, 400, 24, seed=7)
est = GeneralAlphaEstimator(EstimatorConfig(n=256, user_eps=0.3, seed=1, scale=1e-9))
for iv in inst:
    est.process(iv)
res = est.estimate()
a = oracle.alpha(inst)
print(f"  branch = {res.branch}, estimate = {res.value}, alpha = {a}")
print(f"  oracle-mode value = {estimate_oracle_mode(inst, 0.3):.2f}")
print(f"  guarantee bracket: [{0.5 * (1 - 0.3) * a:.1f}, {a}]")

print("\nregime 2: n = 2048 dense point instance (sampled pipeline)")
n = 2048
inst = Instance(n, tuple(Interval(i, i) for i in range(1, 1665)))
a = oracle.alpha(inst)
cfg = EstimatorConfig(n=n, user_eps=0.45, seed=5, scale=1.4e-7)
print(f"  sample sizes at this scale: k_rel={cfg.k_rel}, k_rho={cfg.k_rho}, "
      f"k0={cfg.k0} (the analysis-faithful counts would be ~1e9)")
est = GeneralAlphaEstimator(cfg)
for iv in inst:
    est.process(iv)
res = est.estimate()
print(f"  branch = {res.branch}, N_act = {res.n_act_hat:.0f}, "
      f"relevant members = {res.relevant_count}/{est.rel.units} of the rel sample, "
      f"degraded = {res.degraded}")
relevant = oracle.relevant_segments(inst, cfg.eps1)
print(f"  relevant members of the rho sample: rho_available = {res.rho_available} "
      f"of k0 = {cfg.k0} (k_rho = {cfg.k_rho} wanted)")
print(f"  only {len(relevant)} of {res.n_act_hat:.0f} active segments are relevant, "
      f"so the k0 smallest keys almost never include one")
print(f"  sampled estimate = {res.value:.1f}: N_rel * rho_hat / (1 + eps1)^2 with "
      f"rho_hat = {res.rho_hat:g}, the mean nested size over the relevant members "
      f"of the rho sample (0 when there are none)")
print(f"  oracle-mode value = {estimate_oracle_mode(inst, 0.45):.1f}, alpha = {a}")
