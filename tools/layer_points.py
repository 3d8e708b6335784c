"""Items per second of single layers at fixed seeded points.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/layer_points.py

It prints one JSON object.  Each rate is the best of three in-process runs:
``parse_stream`` on the text of a uniform stream, ``PartitionSelector.feed``
on the same stream and on dense streams of 100k and 400k items,
``oracle.alpha``, and ``ShiftedGridSelector.process`` and
``SamelenAlphaEstimator.process`` on a stream of equal-length intervals
(the estimator on its first 20k items).  ``dense_ratio`` is the 400k time
over the 100k time; a selector linear in m reads 4.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np

from intervalstream import oracle
from intervalstream.core import format_stream, parse_stream
from intervalstream.estimator_samelen import SamelenAlphaEstimator, SamelenConfig
from intervalstream.generators import gen_uniform, gen_uniform_samelen
from intervalstream.selector import PartitionSelector
from intervalstream.selector_samelen import ShiftedGridSelector

ROUNDS = 3
SEED = 1
UNIFORM = dict(n=1 << 20, count=200_000, max_len=64)  # the ROADMAP Baseline point
DENSE = dict(n=1 << 22, max_len=1)  # length <= 1: the selector keeps most items
SAMELEN = dict(n=1 << 20, count=200_000, lam=16, estimator_count=20_000, eps=0.2)


def best_seconds(fn, *args) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def feed(inst) -> None:
    PartitionSelector().feed(inst.lcodes, inst.rcodes)


def run_samelen(inst) -> None:
    sel = ShiftedGridSelector(SAMELEN["lam"])
    for iv in inst:
        sel.process(iv)


def run_samelen_estimator(intervals) -> None:
    est = SamelenAlphaEstimator(SamelenConfig(n=SAMELEN["n"], lam=SAMELEN["lam"],
                                              user_eps=SAMELEN["eps"], seed=SEED))
    for iv in intervals:
        est.process(iv)


def main() -> int:
    uniform = gen_uniform(UNIFORM["n"], UNIFORM["count"], UNIFORM["max_len"], SEED)
    text = format_stream(uniform)
    seconds = {
        "parse_stream": best_seconds(parse_stream, text),
        "PartitionSelector.feed": best_seconds(feed, uniform),
        "oracle.alpha": best_seconds(oracle.alpha, uniform),
    }
    result = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__},
              "seed": SEED, "rounds": ROUNDS, "uniform": UNIFORM, "dense": DENSE,
              "samelen": SAMELEN,
              "items_per_s": {name: round(UNIFORM["count"] / s) for name, s in seconds.items()}}
    dense_s = {}
    for count in (100_000, 400_000):
        dense = gen_uniform(DENSE["n"], count, DENSE["max_len"], SEED)
        dense_s[count] = best_seconds(feed, dense)
        result["items_per_s"][f"PartitionSelector.feed.dense_{count // 1000}k"] = round(count / dense_s[count])
    result["dense_ratio"] = round(dense_s[400_000] / dense_s[100_000], 2)
    samelen = gen_uniform_samelen(SAMELEN["n"], SAMELEN["count"], SAMELEN["lam"], SEED)
    head = samelen.intervals[:SAMELEN["estimator_count"]]
    result["items_per_s"]["ShiftedGridSelector.process"] = round(
        SAMELEN["count"] / best_seconds(run_samelen, samelen))
    result["items_per_s"]["SamelenAlphaEstimator.process"] = round(
        len(head) / best_seconds(run_samelen_estimator, head))
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
