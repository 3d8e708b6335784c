"""Items per second of single layers at fixed seeded points.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/layer_points.py

It prints one JSON object.  Each rate is the best of three in-process runs:
``parse_stream`` on the text of a uniform stream, ``PartitionSelector.feed``
on the same stream and on dense streams of 100k and 400k items,
``oracle.alpha``, ``oracle.gamma_all`` and ``estimate_oracle_mode`` (at
eps 0.3); ``PartitionSelector.feed`` and ``oracle.alpha`` again on the
input shape of the ``select-general`` benchmark workload (long intervals,
so most pairs straddle a window boundary); then the same-length layer
over code columns: ``ShiftedGridSelector.feed``,
``SamelenAlphaEstimator.feed`` and ``samelen_estimate_oracle`` on a
stream of equal-length intervals,
``ShiftedGridSelector.process`` and ``SamelenAlphaEstimator.process`` one
Interval at a time on a small such stream (each call feeds a chunk of
one pair, so these time the vectorised pass at its smallest), and the
lambda 0 route (``distinct_points_estimate``) on a stream of points, with
``oracle.alpha`` on each of the two streams beside them.  ``dense_ratio`` is the 400k
time over the 100k time; a selector linear in m reads 4.
``dense_bytes_per_window`` is the memory a ``PartitionSelector`` still holds
after its feed of the 400k dense stream, by ``tracemalloc`` in a run of its
own, over its window count.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import tracemalloc

import numpy as np

from intervalstream import oracle
from intervalstream.core import Instance, format_stream, parse_stream
from intervalstream.estimator import estimate_oracle_mode
from intervalstream.estimator_samelen import (SamelenAlphaEstimator, SamelenConfig,
                                              distinct_points_estimate, samelen_estimate_oracle)
from intervalstream.generators import gen_uniform, gen_uniform_samelen
from intervalstream.selector import PartitionSelector
from intervalstream.selector_samelen import ShiftedGridSelector

ROUNDS = 3
SEED = 1
UNIFORM = dict(n=1 << 20, count=200_000, max_len=64)  # the ROADMAP Baseline point
SELECT_GENERAL = dict(n=1 << 20, count=50_000, max_len=16384)  # as the select-general workload
ORACLE_EPS = 0.3  # as the oracle-general benchmark workload
DENSE = dict(n=1 << 22, max_len=1)  # length <= 1: the selector keeps most items
SAMELEN = dict(n=1 << 20, count=200_000, lam=16, eps=0.2)
SAMELEN_ITEMS = dict(n=1 << 16, count=3_000, lam=4, eps=0.2)  # per-item process: one-pair chunks
POINTS = dict(n=1 << 20, count=1_000_000, eps=0.3)  # the lambda 0 route


def best_seconds(fn, *args) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def feed(inst) -> None:
    PartitionSelector().feed(inst.lcodes, inst.rcodes)


def bytes_per_window(inst) -> float:
    """Bytes allocated during a feed of inst and still held after it, over
    the selector's window count."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    sel = PartitionSelector()
    sel.feed(inst.lcodes, inst.rcodes)
    held = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    return held / sel.window_count


def run_samelen(inst) -> None:
    ShiftedGridSelector(SAMELEN["lam"]).feed(inst.lcodes, inst.rcodes)


def run_samelen_estimator(inst) -> None:
    SamelenAlphaEstimator(SamelenConfig(n=SAMELEN["n"], lam=SAMELEN["lam"], user_eps=SAMELEN["eps"],
                                        seed=SEED)).feed(inst.lcodes, inst.rcodes)


def run_samelen_oracle(inst) -> None:
    samelen_estimate_oracle(inst, SAMELEN["lam"], SAMELEN["eps"])


def run_selector_items(inst) -> None:
    sel = ShiftedGridSelector(SAMELEN_ITEMS["lam"])
    for iv in inst:
        sel.process(iv)


def run_samelen_items(inst) -> None:
    est = SamelenAlphaEstimator(SamelenConfig(n=SAMELEN_ITEMS["n"], lam=SAMELEN_ITEMS["lam"],
                                              user_eps=SAMELEN_ITEMS["eps"], seed=SEED))
    for iv in inst:
        est.process(iv)


def run_points(inst) -> None:
    distinct_points_estimate(inst, POINTS["eps"], SEED)


def main() -> int:
    uniform = gen_uniform(UNIFORM["n"], UNIFORM["count"], UNIFORM["max_len"], SEED)
    text = format_stream(uniform)
    seconds = {
        "parse_stream": best_seconds(parse_stream, text),
        "PartitionSelector.feed": best_seconds(feed, uniform),
        "oracle.alpha": best_seconds(oracle.alpha, uniform),
        "oracle.gamma_all": best_seconds(oracle.gamma_all, uniform),
        "estimate_oracle_mode": best_seconds(estimate_oracle_mode, uniform, ORACLE_EPS),
    }
    result = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__},
              "seed": SEED, "rounds": ROUNDS, "uniform": UNIFORM, "oracle_eps": ORACLE_EPS, "dense": DENSE,
              "select_general": SELECT_GENERAL, "samelen": SAMELEN, "samelen_items": SAMELEN_ITEMS,
              "items_per_s": {name: round(UNIFORM["count"] / s) for name, s in seconds.items()}}
    select_general = gen_uniform(SELECT_GENERAL["n"], SELECT_GENERAL["count"], SELECT_GENERAL["max_len"], SEED)
    for name, fn in (("PartitionSelector.feed", feed), ("oracle.alpha", oracle.alpha)):
        result["items_per_s"][f"{name}.select_general"] = round(
            SELECT_GENERAL["count"] / best_seconds(fn, select_general))
    dense_s = {}
    for count in (100_000, 400_000):
        dense = gen_uniform(DENSE["n"], count, DENSE["max_len"], SEED)
        dense_s[count] = best_seconds(feed, dense)
        result["items_per_s"][f"PartitionSelector.feed.dense_{count // 1000}k"] = round(count / dense_s[count])
    result["dense_ratio"] = round(dense_s[400_000] / dense_s[100_000], 2)
    result["dense_bytes_per_window"] = round(bytes_per_window(dense), 1)
    samelen = gen_uniform_samelen(SAMELEN["n"], SAMELEN["count"], SAMELEN["lam"], SEED)
    samelen_items = gen_uniform_samelen(SAMELEN_ITEMS["n"], SAMELEN_ITEMS["count"],
                                        SAMELEN_ITEMS["lam"], SEED)
    xs = np.random.default_rng(SEED).integers(1, POINTS["n"] + 1, POINTS["count"])
    points = Instance._trusted(POINTS["n"], 2 * xs, 2 * xs)
    result["points"] = POINTS
    for name, fn, inst in (("ShiftedGridSelector.feed", run_samelen, samelen),
                           ("SamelenAlphaEstimator.feed", run_samelen_estimator, samelen),
                           ("samelen_estimate_oracle", run_samelen_oracle, samelen),
                           ("ShiftedGridSelector.process", run_selector_items, samelen_items),
                           ("SamelenAlphaEstimator.process", run_samelen_items, samelen_items),
                           ("distinct_points_estimate", run_points, points)):
        result["items_per_s"][name] = round(len(inst) / best_seconds(fn, inst))
    for stream, inst in (("samelen", samelen), ("points", points)):
        result["items_per_s"][f"oracle.alpha.{stream}"] = round(
            len(inst) / best_seconds(oracle.alpha, inst))
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
