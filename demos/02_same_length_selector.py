"""Walkthrough of the 3/2-approximation for equal-length intervals.

Three staggered grids of windows of length 3*lam cover the line; each
interval fits in exactly two of the grids.  Per grid the algorithm keeps an
*optimal* solution restricted to contained intervals (a window never holds
more than two disjoint intervals), and the best grid is returned.
"""

from intervalstream import ShiftedGridSelector
from intervalstream.core import Instance, Interval
from intervalstream import oracle
from intervalstream.generators import gen_uniform_samelen
from intervalstream.selector_samelen import grid_window

lam = 2
stream = [Interval(1, 3), Interval(4, 6), Interval(8, 10), Interval(6, 8)]
sel = ShiftedGridSelector(lam)
for iv in stream:
    sel.process(iv)

print(f"stream: {[str(i) for i in stream]} (all length {lam})")
for a in (0, 1, 2):
    sub = [iv for iv in stream if grid_window(lam, a, iv) is not None]
    exact = oracle.alpha(Instance(10, tuple(sub)))
    print(f"  grid {a}: solution {[str(i) for i in sel.shift_solution(a)]} "
          f"(optimal for this grid: {exact})")
best = sel.best_shift()
print(f"returned: grid {best}, size {len(sel.solution())}, "
      f"alpha = {oracle.alpha(Instance(10, tuple(stream)))}")

print("\nbigger run: 1500 length-8 intervals on [1, 4096]")
inst = gen_uniform_samelen(4096, 1500, 8, seed=3)
sel = ShiftedGridSelector(8)
for iv in inst:
    sel.process(iv)
a = oracle.alpha(inst)
size = len(sel.solution())
print(f"  best grid size = {size}, alpha = {a}, ratio = {a / size:.3f} (<= 1.5 guaranteed)")
