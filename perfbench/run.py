#!/usr/bin/env python3
"""The intervalstream benchmark: seeded CLI workloads, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload select-general --seed 1 --seconds 20 --trace 0

Each workload is one ``intervalstream`` command run as a user runs it, in a
closed loop: one command at a time, each in a fresh child process.  Set-up
generates a few seeded inputs with ``intervalstream gen``.  Then, for
``--seconds``, the runner cycles through the inputs, starting one child per
invocation, and checks every output against an independently recomputed
optimum and guarantee bracket (see check.py).

The host is shared and its speed drifts, so every time in the metrics is
rescaled to a host of fixed speed: the fixed task of reference.py is timed
beside each measured call, and a call that took ``wall`` seconds while the
task took ``r`` counts as ``wall * reference.NOMINAL_S / r``.  The raw times
are kept in the record.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` each round runs the command once untraced and once traced
(spans around the package's public functions and the state the streaming
estimators retain, see tracer.py), and the last line reports the per-layer
metrics.  The line before it is the full record: environment, inputs,
per-invocation samples, tail percentile and failures.  Files go under
``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import check
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPUTS_PER_RUN = 3          # set-up is repeated this often; setup_s is the median
RUN_LIMIT_S = 150.0         # children still running this long after start are killed
TAIL_BEYOND = 10            # a tail percentile needs this many samples above it


@dataclass(frozen=True)
class Workload:
    gen: Tuple[str, ...]        # `intervalstream gen` arguments without --seed/--out
    smoke_gen: Tuple[str, ...]  # tiny input of the same shape: warm-up and --smoke
    command: Tuple[str, ...]    # the measured command without --seed/--in/--out
    kind: str                   # the report's algorithm, which picks the bracket
    randomized: bool            # takes --seed per invocation

    @property
    def eps(self) -> float:
        return float(self.command[self.command.index("--eps") + 1]) if "--eps" in self.command else 0.0


def _items(gen_args: Tuple[str, ...]) -> int:
    return int(gen_args[gen_args.index("--count") + 1])


# Sizes follow the workload definitions in README.md; --count (and n for
# oracle-general, whose cost is O(n) whatever the count) are scaled so one
# invocation takes one to four seconds on a 2-core host.
WORKLOADS: Dict[str, Workload] = {
    "select-general": Workload(
        gen=("uniform", "--n", "1048576", "--count", "50000", "--max-len", "16384"),
        smoke_gen=("uniform", "--n", "4096", "--count", "300", "--max-len", "64"),
        command=("select", "--algo", "general"),
        kind="select-general", randomized=False),
    "estimate-general": Workload(
        gen=("uniform", "--n", "4096", "--count", "200", "--max-len", "64"),
        smoke_gen=("uniform", "--n", "64", "--count", "20", "--max-len", "8"),
        command=("estimate", "--algo", "general", "--eps", "0.45", "--scale", "1e-7"),
        kind="estimate-general", randomized=True),
    "estimate-samelen": Workload(
        gen=("uniform", "--n", "1048576", "--count", "500", "--length", "16"),
        smoke_gen=("uniform", "--n", "4096", "--count", "20", "--length", "16"),
        command=("estimate", "--algo", "samelen", "--lambda", "16", "--eps", "0.2"),
        kind="estimate-samelen", randomized=True),
    "oracle-general": Workload(
        gen=("uniform", "--n", "65536", "--count", "2000", "--max-len", "64"),
        smoke_gen=("uniform", "--n", "1024", "--count", "100", "--max-len", "16"),
        command=("estimate", "--algo", "general", "--oracle-mode", "--eps", "0.3"),
        kind="estimate-general-oracle", randomized=False),
}

END_TO_END = (
    ("items_per_s", "items/s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

# name, unit, better; the per-layer metrics of a traced run
PER_LAYER = (
    ("cli.main.self_s", "s", "lower"),
    ("harness.run_single.self_s", "s", "lower"),
    ("core.parse_stream.s", "s", "lower"),
    ("selector.process.s", "s", "lower"),
    ("selector.process.calls", "count", "lower"),
    ("selector.peak_windows", "count", "lower"),
    ("oracle.alpha.s", "s", "lower"),
    ("hashing.PolyBank.keys.calls", "count", "lower"),
    ("hashing.PolyBank.keys.columns", "count", "lower"),
    ("hashing.PolyBank.keys.s", "s", "lower"),
    ("hashing.object_path_rows", "count", "lower"),
    ("hashing.distinct.fresh_ratio", "ratio", "higher"),
    ("estimator.process.self_s", "s", "lower"),
    ("estimator.flush.self_s", "s", "lower"),
    ("estimator.flush.calls", "count", "lower"),
    ("estimator.flush.selector_calls", "count", "lower"),
    ("estimator.estimate.s", "s", "lower"),
    ("estimator.state_mb", "MB", "lower"),
    ("estimator.peak_units", "count", "lower"),
    ("estimator_samelen.process.self_s", "s", "lower"),
    ("estimator_samelen.keys_per_item", "calls/item", "lower"),
    ("estimator_samelen.state_mb", "MB", "lower"),
    ("estimator_samelen.units", "count", "lower"),
    ("oracle.gamma_all.s", "s", "lower"),
    ("oracle.relevant_segments.self_s", "s", "lower"),
    ("oracle.beta_hat.calls", "count", "lower"),
    ("oracle.beta_hat.s", "s", "lower"),
    ("layer.cli.self_s", "s", "lower"),
    ("layer.core.self_s", "s", "lower"),
    ("layer.harness.self_s", "s", "lower"),
    ("layer.selector.self_s", "s", "lower"),
    ("layer.selector_samelen.self_s", "s", "lower"),
    ("layer.oracle.self_s", "s", "lower"),
    ("layer.hashing.self_s", "s", "lower"),
    ("layer.estimator.self_s", "s", "lower"),
    ("layer.estimator_samelen.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
)

GE = "estimator.GeneralAlphaEstimator"
SE = "estimator_samelen.SamelenAlphaEstimator"


def traced_metrics(trace: Dict, state_mb: Dict[str, float], report_units: int, kind: str,
                   items: int) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation, from its span summary and
    the estimators' retained state."""
    spans, edges, counters = trace["spans"], trace["edges"], trace["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    adds = counters.get("hashing.distinct.add", 0)
    out = {
        "cli.main.self_s": self_s("cli.main"),
        "harness.run_single.self_s": self_s("harness.run_single"),
        "core.parse_stream.s": total("core.parse_stream"),
        "selector.process.s": total("selector.PartitionSelector.process"),
        "selector.process.calls": calls("selector.PartitionSelector.process"),
        "selector.peak_windows": counters.get("selector.peak_windows", 0),
        "oracle.alpha.s": total("oracle.alpha"),
        "hashing.PolyBank.keys.calls": calls("hashing.PolyBank.keys"),
        "hashing.PolyBank.keys.columns": counters.get("hashing.PolyBank.keys.columns", 0),
        "hashing.PolyBank.keys.s": total("hashing.PolyBank.keys"),
        "hashing.object_path_rows": counters.get("hashing.object_path_rows", 0),
        "hashing.distinct.fresh_ratio": counters.get("hashing.distinct.fresh", 0) / adds if adds else 0.0,
        "estimator.process.self_s": self_s(f"{GE}.process"),
        "estimator.flush.self_s": self_s(f"{GE}.flush"),
        "estimator.flush.calls": calls(f"{GE}.flush"),
        "estimator.flush.selector_calls": edges.get(f"{GE}.flush>selector.PartitionSelector.process", 0),
        "estimator.estimate.s": total(f"{GE}.estimate"),
        "estimator.state_mb": state_mb.get("estimator.state_mb", 0.0),
        "estimator.peak_units": report_units if kind == "estimate-general" else 0,
        "estimator_samelen.process.self_s": self_s(f"{SE}.process"),
        "estimator_samelen.keys_per_item": edges.get(f"{SE}.process>hashing.PolyBank.keys", 0) / items,
        "estimator_samelen.state_mb": state_mb.get("estimator_samelen.state_mb", 0.0),
        "estimator_samelen.units": report_units if kind == "estimate-samelen" else 0,
        "oracle.gamma_all.s": total("oracle.gamma_all"),
        "oracle.relevant_segments.self_s": self_s("oracle.relevant_segments"),
        "oracle.beta_hat.calls": calls("oracle.beta_hat"),
        "oracle.beta_hat.s": total("oracle.beta_hat"),
    }
    for layer, seconds in trace["layers"].items():
        out[f"layer.{layer}.self_s"] = seconds
    return out


def environment() -> Dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
            "loadavg_start": os.getloadavg()}


def tail(samples: List[float]) -> Dict:
    """Median and the highest percentile with TAIL_BEYOND samples above it
    (none when that percentile would not exceed the median)."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    out = {"samples": len(ordered), "median": median(ordered) if ordered else None,
           "tail_percentile": None, "tail": None}
    if rank > len(ordered) / 2:
        out["tail_percentile"] = 100.0 * rank / len(ordered)
        out["tail"] = ordered[rank - 1]
    return out


class Runner:
    def __init__(self, wl: Workload, work: Path, smoke: bool):
        self.wl, self.work = wl, work
        self.kill_at = time.monotonic() + RUN_LIMIT_S
        self.gen_args = wl.smoke_gen if smoke else wl.gen
        self.items = _items(self.gen_args)
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.spans_written = False

    def setup(self, rng: random.Random) -> Tuple[List[Tuple[Path, int, int]], List[Tuple[float, float]]]:
        """Generate the run's inputs with the CLI; return (path, seed, own
        alpha) per input and, per input, its generate-and-write seconds with
        the reference task's seconds around them."""
        sys.path.insert(0, str(SRC))
        from intervalstream import cli
        inputs, gen_s = [], []
        for i in range(INPUTS_PER_RUN):
            path, seed = self.work / f"input{i}.txt", rng.getrandbits(32)
            before = reference.seconds()
            start = time.perf_counter()
            code = cli.main(["gen", *self.gen_args, "--seed", str(seed), "--out", str(path)])
            elapsed = time.perf_counter() - start
            gen_s.append((elapsed, (before + reference.seconds()) / 2))
            if code != 0:
                raise RuntimeError(f"intervalstream gen exited {code}")
            _, intervals = check.read_closed_intervals(str(path))
            inputs.append((path, seed, check.exact_alpha(intervals)))
        warm = self.work / "warmup.txt"
        if cli.main(["gen", *self.wl.smoke_gen, "--seed", "1", "--out", str(warm)]) != 0:
            raise RuntimeError("intervalstream gen exited non-zero for the warm-up input")
        self.warmup_argv = [*self.wl.command, *(["--seed", "1"] if self.wl.randomized else []),
                            "--in", str(warm), "--out", str(self.work / "warmup.out")]
        return inputs, gen_s

    def invoke(self, mode: str, path: Path, alpha: int, seed: int) -> Dict:
        """One child process running the command once; returns its samples
        and the independent check's verdict."""
        out_path, result_path = self.work / f"{mode}.out", self.work / f"{mode}.json"
        for stale in (out_path, result_path):
            stale.unlink(missing_ok=True)
        argv = [*self.wl.command, *(["--seed", str(seed)] if self.wl.randomized else []),
                "--in", str(path), "--out", str(out_path)]
        spans_path = ""
        if mode == "trace" and not self.spans_written:
            spans_path, self.spans_written = str(self.work / "spans.json"), True
        spawned = time.monotonic()
        with open(self.work / "child.stderr", "ab") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(result_path), spans_path,
                 json.dumps(self.warmup_argv), json.dumps(argv)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.kill_at - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = exit_code = os.waitstatus_to_exitcode(status)
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        report = out_path.read_text() if out_path.exists() else None
        verdict = check.verify(self.wl.kind, report, exit_code, alpha, self.wl.eps)
        if result.get("warmup_exit_code", 0) != 0:
            verdict.problems.append(f"warm-up exited {result['warmup_exit_code']}")
        sample = {"mode": mode, "input": path.name, "seed": seed, "exit_code": exit_code,
                  "rss_mb": usage.ru_maxrss / 1024.0, "problems": verdict.problems,
                  "in_bracket": verdict.in_bracket, "ok": verdict.ok}
        if "wall_s" in result:
            before, after = result["reference_s"]
            sample["wall_s"] = result["wall_s"]
            sample["startup_s"] = result["ready_monotonic"] - spawned
            sample["reference_s"] = [before, after]
            sample["scaled_wall_s"] = result["wall_s"] * reference.NOMINAL_S * 2 / (before + after)
            sample["scaled_startup_s"] = sample["startup_s"] * reference.NOMINAL_S / before
        if "trace" in result:
            layers = traced_metrics(result["trace"], result["state_mb"],
                                    verdict.report.get("peak_memory_units", 0),
                                    self.wl.kind, self.items)
            scale = sample["scaled_wall_s"] / sample["wall_s"]
            sample["layers"] = {name: value * scale if name.endswith(("_s", ".s")) else value
                                for name, value in layers.items()}
        return sample


def measure(runner: Runner, inputs, rng: random.Random, seconds: float, trace: bool) -> List[Dict]:
    modes = ("plain", "trace") if trace else ("plain",)
    deadline = time.monotonic() + seconds
    samples: List[Dict] = []
    rounds = 0
    while (rounds < len(inputs) or time.monotonic() < deadline) and time.monotonic() < runner.kill_at:
        path, _, alpha = inputs[rounds % len(inputs)]
        seed = rng.getrandbits(32)
        for mode in modes:
            samples.append(runner.invoke(mode, path, alpha, seed))
        rounds += 1
    return samples


def end_to_end(samples: List[Dict], gen_s: List[Tuple[float, float]], items: int) -> Dict[str, float]:
    """The end-to-end metrics; every time is rescaled to the nominal host speed."""
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        raise RuntimeError("no invocation produced a timing")
    wall = median(s["scaled_wall_s"] for s in timed)
    gen = median(g * reference.NOMINAL_S / r for g, r in gen_s)
    return {"items_per_s": items / wall, "wall_s": wall,
            "peak_rss_mb": median(s["rss_mb"] for s in timed),
            "setup_s": gen + median(s["scaled_startup_s"] for s in timed)}


def per_layer(samples: List[Dict]) -> Dict[str, float]:
    traced = [s["layers"] for s in samples if "layers" in s]
    if not traced:
        raise RuntimeError("no traced invocation produced spans")
    out = {name: median(t[name] for t in traced) for name in traced[0]}
    plain = median(s["scaled_wall_s"] for s in samples if s["mode"] == "plain" and "wall_s" in s)
    traced_wall = median(s["scaled_wall_s"] for s in samples if s["mode"] == "trace" and "wall_s" in s)
    out.update({"trace.overhead": traced_wall / plain - 1.0,
                "trace.traced_wall_s": traced_wall, "trace.untraced_wall_s": plain})
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "intervalstream" / "cli.py").is_file():
        print(f"error: no intervalstream sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    runner = Runner(wl, work, args.smoke)
    env = environment()

    inputs, gen_s = runner.setup(rng)
    samples = measure(runner, inputs, rng, args.seconds, bool(args.trace))

    failed = sum(not s["ok"] for s in samples)
    correct = all(not s["problems"] for s in samples) and (
        wl.randomized or all(s["in_bracket"] for s in samples))
    values = per_layer(samples) if args.trace else end_to_end(samples, gen_s, runner.items)
    units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)}
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "gen": list(runner.gen_args), "command": list(wl.command), "items": runner.items,
        "inputs": [{"file": p.name, "seed": s, "alpha": a, "gen_s": g, "reference_s": r}
                   for (p, s, a), (g, r) in zip(inputs, gen_s)],
        "wall_s": tail([s["scaled_wall_s"] for s in samples if s["mode"] == "plain" and "wall_s" in s]),
        "raw_wall_s": tail([s["wall_s"] for s in samples if s["mode"] == "plain" and "wall_s" in s]),
        "fail_fraction": failed / len(samples),
        "failures": [s for s in samples if not s["ok"]],
        "samples": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "metrics": values,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in record if k not in ("samples", "failures")}
                     | {"failures": record["failures"][:5]}))
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
