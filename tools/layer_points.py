"""Items per second of single layers at fixed seeded points.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/layer_points.py

It prints one JSON object.  Each rate is the best of three in-process runs:
``gen_uniform`` writing a uniform stream and ``format_stream`` on it,
``parse_stream`` on its text, ``PartitionSelector.feed``
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
``oracle.alpha`` on each of the two streams beside them; and
``GeneralAlphaEstimator.feed`` (then ``estimate``, which flushes the last
partial chunk) at the general estimator's item-2 point of ROADMAP.md, once
with the exact counter and once with ``kmv`` (``.kmv``).  ``gen_uniform``,
``gen_uniform_samelen`` and ``format_stream`` run again at the 1M-item
inputs of ROADMAP item 2 (``.1m``).  ``parse_stream`` runs again on the
text of the ``select_general`` and ``.1m`` inputs, beside
``parse_stream.file`` on an open file of the same text (one np.loadtxt
pass), and ``parse_stream.file.1m_flag_last`` on the 1M-item file with one
flagged last line (the worst case: the one pass is refused at its end and
the file is read again a block at a time).  ``cli_start.select_general`` and
``cli_start.estimate_general`` (in ``seconds``) time the CLI's start: each
is the median, over 7 fresh processes run one after another, of the time
from spawning ``python`` to the end of one ``cli.main`` on the smoke-sized
input of that benchmark workload (interpreter start, the imports the
command runs, parsing and the command itself).  ``dense_ratio`` is the 400k
time over the 100k time; a selector linear in m reads 4.
``dense_bytes_per_window`` is the memory a ``PartitionSelector`` still holds
after its feed of the 400k dense stream, by ``tracemalloc`` in a run of its
own, over its window count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import intervalstream
from intervalstream import oracle
from intervalstream.core import Instance, format_stream, parse_stream
from intervalstream.estimator import EstimatorConfig, GeneralAlphaEstimator, estimate_oracle_mode
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
GENERAL = dict(n=1 << 20, count=20_000, max_len=64, eps=0.45, scale=1e-7)  # ROADMAP item 2
GEN_1M = dict(n=1 << 20, count=1_000_000, max_len=64, length=16)  # ROADMAP item 2 input sizes
START_RUNS = 7
# the smoke-sized input and the command of two benchmark workloads
CLI_START = {
    "select_general": (dict(n=4096, count=300, max_len=64), ["select", "--algo", "general"]),
    "estimate_general": (dict(n=64, count=20, max_len=8),
                         ["estimate", "--algo", "general", "--eps", "0.45", "--scale", "1e-7",
                          "--seed", "1"]),
}
START_CHILD = ("import sys, time\n"
               "from intervalstream import cli\n"
               "cli.main(sys.argv[1:])\n"
               "print(time.monotonic())\n")


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


def run_general(inst, counter: str) -> None:
    est = GeneralAlphaEstimator(EstimatorConfig(n=GENERAL["n"], user_eps=GENERAL["eps"], seed=SEED,
                                                counter_kind=counter, scale=GENERAL["scale"]))
    est.feed(inst.lcodes, inst.rcodes)
    est.estimate()


def parse_file(path) -> None:
    with open(path) as fh:
        parse_stream(fh)


def parse_points(work, name, inst, rates) -> None:
    """Rates of parse_stream on the text of inst and on an open file of it,
    and, for the 1M-item input, on that file with a flagged last line."""
    text = format_stream(inst)
    path = os.path.join(work, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    rates[f"parse_stream.{name}"] = round(len(inst) / best_seconds(parse_stream, text))
    rates[f"parse_stream.file.{name}"] = round(len(inst) / best_seconds(parse_file, path))
    if name == "1m":
        with open(path, "a") as fh:
            fh.write("1 2 oc\n")
        rates["parse_stream.file.1m_flag_last"] = round((len(inst) + 1) / best_seconds(parse_file, path))


def cli_start_seconds(argv) -> float:
    """Median, over START_RUNS fresh processes run one after another, of the
    seconds from spawn to the end of one ``cli.main(argv)``."""
    src = os.path.dirname(os.path.dirname(intervalstream.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(START_RUNS):
        spawned = time.monotonic()
        child = subprocess.run([sys.executable, "-c", START_CHILD, *argv], env=env, check=True,
                               capture_output=True, text=True)
        times.append(float(child.stdout) - spawned)
    return statistics.median(times)


def main() -> int:
    uniform = gen_uniform(UNIFORM["n"], UNIFORM["count"], UNIFORM["max_len"], SEED)
    text = format_stream(uniform)
    seconds = {
        "gen_uniform": best_seconds(gen_uniform, UNIFORM["n"], UNIFORM["count"], UNIFORM["max_len"], SEED),
        "format_stream": best_seconds(format_stream, uniform),
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
              "gen_1m": GEN_1M,
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
    general = gen_uniform(GENERAL["n"], GENERAL["count"], GENERAL["max_len"], SEED)
    result["general"] = GENERAL
    for name, counter in (("GeneralAlphaEstimator.feed", "exact"),
                          ("GeneralAlphaEstimator.feed.kmv", "kmv")):
        result["items_per_s"][name] = round(len(general) / best_seconds(run_general, general, counter))
    n, count = GEN_1M["n"], GEN_1M["count"]
    for name, fn, size in (("gen_uniform.1m", gen_uniform, GEN_1M["max_len"]),
                           ("gen_uniform_samelen.1m", gen_uniform_samelen, GEN_1M["length"])):
        result["items_per_s"][name] = round(count / best_seconds(fn, n, count, size, SEED))
    uniform_1m = gen_uniform(n, count, GEN_1M["max_len"], SEED)
    result["items_per_s"]["format_stream.1m"] = round(count / best_seconds(format_stream, uniform_1m))
    result["seconds"] = {}
    with tempfile.TemporaryDirectory() as work:
        for name, inst in (("select_general", select_general), ("1m", uniform_1m)):
            parse_points(work, name, inst, result["items_per_s"])
        for name, (shape, command) in CLI_START.items():
            path = os.path.join(work, f"{name}.txt")
            with open(path, "w") as fh:
                fh.write(format_stream(gen_uniform(shape["n"], shape["count"], shape["max_len"], SEED)))
            result["seconds"][f"cli_start.{name}"] = round(
                cli_start_seconds([*command, "--in", path, "--out", os.devnull]), 4)
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
