"""Walkthrough of the one-pass 2-approximation selector.

The selector keeps a partition of the real line into windows.  Each window
remembers the leftmost/rightmost witnesses of the intervals it has seen; its
leftmost witness is its solution interval.  When a new interval avoids the
witnesses' common core, the window splits and the solution grows by one.
A window is printed as its range of position codes: point x is code 2x and
the open gap just past x is 2x + 1, so (3,+inf) is codes 7..inf.
"""

from intervalstream import PartitionSelector, Interval
from intervalstream import oracle
from intervalstream.core import Instance
from intervalstream.generators import gen_uniform

stream = [Interval(1, 10), Interval(2, 3), Interval(5, 6), Interval(8, 9)]
sel = PartitionSelector()
print("processing a small stream:")
for iv in stream:
    sel.process(iv)
    windows = "  ".join(f"codes {w.lo_code}..{w.hi_code}->{w.leftmost}" for w in sel.windows())
    print(f"  after {iv}: {windows}")

print(f"\nsolution: {[str(i) for i in sel.solution()]}")
print(f"exact optimum: {oracle.alpha(Instance(10, tuple(stream)))}")

print("\nbigger run: 2000 random intervals on [1, 4096]")
inst = gen_uniform(4096, 2000, 64, seed=1)
sel = PartitionSelector()
for iv in inst:
    sel.process(iv)
a = oracle.alpha(inst)
size = sel.window_count
print(f"  selector size = {size}, alpha = {a}, ratio = {a / size:.3f} (< 2 guaranteed)")
print(f"  peak windows = {sel.peak_windows} (never exceeds alpha = {a})")
