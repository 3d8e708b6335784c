"""The sampling substrate: min-wise permutation orders and distinct counters.

A random degree-(t-1) polynomial over a prime field orders the universe by
(hash value, id).  Tracking the order-minimum of a stream yields a
nearly-uniform sample of its distinct elements; keeping the k smallest
yields a distinct-count sketch.
"""

import collections

from intervalstream.hashing import BottomK, HashFamily, KMVDistinct, horner, kmv_k
from intervalstream.rng import SplitMix64

fam = HashFamily.create(64, eps=0.25)
print(f"family over [64] at eps=0.25: prime = {fam.prime}, degree = {fam.degree}")

sampler = BottomK(1, fam, seed=7)  # k = 1: the minimum under one permutation of [64]
stream = [9, 33, 9, 57, 12, 9, 33]
for x in stream:
    sampler.offer(x)
print(f"stream {stream} -> sampled element {sampler.pairs()[0][1]} "
      "(multiplicity never matters)")

print("\nempirical min-wise uniformity over 20000 permutations, |X| = 16:")
xs = list(range(3, 67, 4))
rng = SplitMix64(42)
# each permutation is one polynomial of the family, its degree coefficients
# drawn in turn; its minimum over xs is taken in the (h(x), x) order
rows = [[rng.below(fam.prime) for _ in range(fam.degree)] for _ in range(20000)]
freq = collections.Counter(min((horner(cs, x, fam.prime), x) for x in xs)[1] for cs in rows)
worst = max(abs(freq[x] / 20000 - 1 / 16) for x in xs)
print(f"  ideal frequency 1/16 = {1 / 16:.4f}; worst deviation = {worst:.4f} "
      f"(allowed bias at eps=0.25: {0.25 / 16:.4f})")

print("\nbottom-k distinct counter, k = ceil(96/0.2^2):")
kmv_fam = HashFamily.create(100_000, eps=0.2)
k = kmv_k(kmv_fam.eps)  # the size every KMV counter of the family takes
counter = KMVDistinct(k, kmv_fam, seed=5)
for x in range(1, 50_001):
    counter.add(x)
print(f"  50000 distinct ids -> estimate {counter.estimate():.0f} "
      f"using only {counter.units} stored pairs")
