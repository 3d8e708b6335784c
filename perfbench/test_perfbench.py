"""Tests of the benchmark itself: its metric names match BENCHMARK.json, a
tiny-size run emits every named metric, the runner refuses to run without
the package sources, the span arithmetic is right, and the output check
flags doctored reports.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import check
import reference
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per workload, per-layer metrics that must be non-zero: each needs the
# wrapper installed where its caller looks the function up.
EXERCISED = {
    "select-general": ("core.parse_stream.s", "selector.process.calls", "oracle.alpha.s",
                       "harness.run_single.self_s", "selector.peak_windows"),
    "estimate-general": ("hashing.PolyBank.keys.calls", "estimator.flush.calls",
                         "estimator.flush.selector_calls", "estimator.state_mb",
                         "estimator.peak_units", "hashing.distinct.fresh_ratio"),
    "estimate-samelen": ("estimator_samelen.keys_per_item", "estimator_samelen.state_mb",
                         "estimator_samelen.units", "estimator_samelen.process.self_s"),
    "oracle-general": ("oracle.gamma_all.s", "oracle.beta_hat.calls",
                       "oracle.relevant_segments.self_s"),
}


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert set(EXERCISED) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.INPUTS_PER_RUN
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in EXERCISED[workload]), values
    else:
        assert all(v > 0 for v in values.values()), values


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-general", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_child_spans():
    recorder = tracer.SpanRecorder()
    inner = recorder.wrap("hashing.inner", lambda: sum(range(20000)))

    def body():
        sum(range(20000))
        inner()
        inner()

    recorder.wrap("cli.outer", body)()
    summary = recorder.summary()
    outer_calls, outer_total, outer_self = summary["spans"]["cli.outer"]
    inner_calls, inner_total, inner_self = summary["spans"]["hashing.inner"]
    assert (outer_calls, inner_calls) == (1, 2)
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert inner_self == pytest.approx(inner_total)
    assert summary["edges"] == {">cli.outer": 1, "cli.outer>hashing.inner": 2}
    assert sum(summary["layers"].values()) == pytest.approx(outer_total)


def test_retained_bytes_counts_shared_buffers_once():
    buffer = np.zeros(1 << 17)                     # 1 MiB
    holder = {"array": buffer, "view": buffer[:10], "again": buffer}
    size = tracer.retained_bytes(holder)
    assert buffer.nbytes < size < buffer.nbytes + 4096
    assert tracer.retained_bytes([holder, holder]) < size + 200


def test_reference_task_is_fixed():
    assert reference.task() == reference.task()
    assert reference.seconds() > 0


def test_end_to_end_times_are_rescaled_to_the_reference_speed():
    nominal = reference.NOMINAL_S
    samples = [{"wall_s": 2.0, "scaled_wall_s": 1.0, "startup_s": 0.6, "scaled_startup_s": 0.3,
                "rss_mb": 50.0}]
    out = run.end_to_end(samples, [(0.4, 2 * nominal)], items=100)
    assert out == {"items_per_s": 100.0, "wall_s": 1.0, "peak_rss_mb": 50.0,
                   "setup_s": pytest.approx(0.2 + 0.3)}


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 20)["tail"] is None
    out = run.tail([float(i) for i in range(1, 41)])
    assert out["samples"] == 40 and out["tail_percentile"] == 75.0 and out["tail"] == 30.0


def _brute_alpha(intervals):
    for size in range(len(intervals), 0, -1):
        for subset in combinations(intervals, size):
            ordered = sorted(subset)
            if all(a[1] < b[0] for a, b in zip(ordered, ordered[1:])):
                return size
    return 0


def test_exact_alpha_matches_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        ivs = []
        for _ in range(rng.randrange(0, 9)):
            left = rng.randrange(1, 12)
            ivs.append((left, left + rng.randrange(0, 4)))
        assert check.exact_alpha(ivs) == _brute_alpha(ivs)


def test_reader_rejects_open_intervals(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("n 10\n1 3\n2 5 oo\n")
    with pytest.raises(ValueError):
        check.read_closed_intervals(str(path))
    path.write_text("n 10\n1 3\n4 9\n")
    assert check.read_closed_intervals(str(path)) == (10, [(1, 3), (4, 9)])


def _report(kind, output, alpha, success, **extra):
    obj = {"kind": "trial", "algorithm": kind, "alpha": alpha, "output": output,
           "success": success, "peak_memory_units": 3, "details": {}}
    obj.update(extra)
    return json.dumps(obj)


def test_check_accepts_an_honest_report():
    v = check.verify("estimate-general", _report("estimate-general", 7.0, 10, True), 0, 10, 0.45)
    assert v.ok and not v.problems
    text = _report("select-general", 6.0, 10, True, space_ok=True, details={"disjoint": True})
    assert check.verify("select-general", text, 0, 10, 0.25).ok


@pytest.mark.parametrize("kind,eps,alpha,low_ok,low_bad", [
    ("estimate-general", 0.45, 11, 3.026, 3.024),         # 1/2 (1 - eps) alpha
    ("estimate-samelen", 0.2, 10, 5.334, 5.333),          # 2/3 (1 - eps) alpha
    ("estimate-general-oracle", 0.3, 10, 4.0817, 4.0816),  # (1/2 - e1) / (1 + e1)^2 alpha
    ("select-general", 0.25, 10, 5.5, 5.0),               # more than alpha / 2
])
def test_bracket_edges(kind, eps, alpha, low_ok, low_bad):
    assert check.in_bracket(kind, low_ok, alpha, eps)
    assert not check.in_bracket(kind, low_bad, alpha, eps)
    if kind != "select-general":
        assert check.in_bracket(kind, alpha, alpha, eps)
        assert not check.in_bracket(kind, alpha + 0.5, alpha, eps)


def test_check_flags_alpha_off_by_one():
    v = check.verify("estimate-general", _report("estimate-general", 7.0, 11, True), 0, 10, 0.45)
    assert any("alpha" in p for p in v.problems)


def test_check_flags_output_outside_bracket_claimed_successful():
    v = check.verify("estimate-samelen", _report("estimate-samelen", 12.0, 10, True), 0, 10, 0.2)
    assert not v.in_bracket and any("success flag" in p for p in v.problems)


def test_check_counts_an_honest_miss_as_failed_without_a_problem():
    v = check.verify("estimate-samelen", _report("estimate-samelen", 2.0, 10, False), 1, 10, 0.2)
    assert not v.problems and not v.ok


def test_check_flags_exit_code_that_contradicts_the_bracket():
    v = check.verify("estimate-general", _report("estimate-general", 7.0, 10, True), 1, 10, 0.45)
    assert any("exit code" in p for p in v.problems)


def test_check_flags_doctored_selection():
    not_disjoint = _report("select-general", 6.0, 10, True, space_ok=True, details={"disjoint": False})
    assert any("disjoint" in p for p in check.verify("select-general", not_disjoint, 1, 10, 0.25).problems)
    lying_space = _report("select-general", 6.0, 10, True, space_ok=True, peak_memory_units=11,
                          details={"disjoint": True})
    assert any("space_ok" in p for p in check.verify("select-general", lying_space, 1, 10, 0.25).problems)
    half = _report("select-general", 5.0, 10, True, space_ok=True, details={"disjoint": True})
    assert check.verify("select-general", half, 0, 10, 0.25).problems


def test_check_flags_missing_or_garbled_report():
    assert check.verify("select-general", None, 0, 10, 0.25).problems
    assert check.verify("select-general", "not json", 0, 10, 0.25).problems
