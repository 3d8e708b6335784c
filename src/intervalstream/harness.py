"""Trial runner: executes selectors and estimators against the exact
oracle, records auditable per-trial reports, and aggregates success
statistics.  Trials are deterministic per seed and embarrassingly
parallel; reports are always merged in seed order.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from . import oracle
from .core import Instance, pairwise_disjoint
from .estimator import EstimatorConfig, GeneralAlphaEstimator, estimate_oracle_mode
from .estimator_samelen import (SamelenAlphaEstimator, SamelenConfig, distinct_points_estimate,
                                samelen_estimate_oracle)
from .selector import PartitionSelector
from .selector_samelen import ShiftedGridSelector

ALGORITHMS = ("select-general", "select-samelen",
              "estimate-general", "estimate-general-oracle",
              "estimate-samelen", "estimate-samelen-oracle")


def json_line(obj) -> str:
    """The one JSON writer for reports: sorted keys and no spaces, so that
    identical runs give identical bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class TrialReport:
    instance_id: str
    algorithm: str
    params: Dict
    output: float
    alpha: int
    success: bool
    peak_memory_units: int
    wall_time_s: Optional[float] = None
    details: Dict = field(default_factory=dict)
    space_ok: Optional[bool] = None  # the selectors' space bound; None for estimators

    @property
    def passed(self) -> bool:
        """The run's verdict, on which every command exits: the guarantee
        held, and no space bound or disjointness check failed."""
        return (self.success and self.space_ok is not False
                and self.details.get("disjoint") is not False)

    def to_json(self) -> str:
        obj = {"kind": "trial", "instance_id": self.instance_id,
               "algorithm": self.algorithm, "params": self.params,
               "output": self.output, "alpha": self.alpha,
               "success": self.success,
               "peak_memory_units": self.peak_memory_units,
               "wall_time_s": self.wall_time_s, "details": self.details}
        if self.space_ok is not None:
            obj["space_ok"] = self.space_ok
        return json_line(obj)


def trial_success(algorithm: str, output: float, alpha: int, eps: float = 0.0) -> bool:
    """Recompute the success flag from the stored fields."""
    if algorithm == "select-general":
        return output > alpha / 2.0 or output == alpha == 0
    if algorithm == "select-samelen":
        return output >= math.ceil(2.0 * alpha / 3.0)
    if algorithm == "estimate-general":
        return 0.5 * (1.0 - eps) * alpha <= output <= alpha
    if algorithm == "estimate-general-oracle":
        eps1 = eps / 6.0
        return (0.5 - eps1) / (1.0 + eps1) ** 2 * alpha <= output <= alpha
    if algorithm in ("estimate-samelen", "estimate-samelen-oracle"):
        return (2.0 / 3.0) * (1.0 - eps) * alpha <= output <= alpha
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_single(algorithm: str, inst: Instance, seed: int, eps: float = 0.25,
               lam: int = 1, scale: float = 1.0, counter: str = "exact",
               instance_id: str = "instance", alpha: Optional[int] = None,
               timing: bool = False) -> TrialReport:
    if alpha is None:
        alpha = oracle.alpha(inst)
    params = {"seed": seed, "eps": eps, "lambda": lam, "scale": scale,
              "counter": counter}
    details: Dict = {}
    space_ok = None
    start = time.perf_counter()

    if algorithm == "select-general":
        sel = PartitionSelector()
        sel.feed(inst.lcodes, inst.rcodes)
        output = float(sel.window_count)
        units = sel.peak_windows
        space_ok = units <= max(alpha, 1)
        details["disjoint"] = pairwise_disjoint(sel.solution())
    elif algorithm == "select-samelen":
        sel = ShiftedGridSelector(lam)
        sel.feed(inst.lcodes, inst.rcodes)
        solution = sel.solution()
        output = float(len(solution))
        units = sel.peak_windows
        space_ok = units <= 3 * alpha + 3
        details["best_shift"] = sel.best_shift()
        details["disjoint"] = pairwise_disjoint(solution)
    elif algorithm == "estimate-general":
        est = GeneralAlphaEstimator(EstimatorConfig(
            n=inst.n, user_eps=eps, seed=seed, counter_kind=counter, scale=scale))
        for iv in inst:
            est.process(iv)
        res = est.estimate()
        output = res.value
        units = res.peak_units
        details.update(branch=res.branch, degraded=res.degraded,
                       rho_available=res.rho_available,
                       relevant_count=res.relevant_count, tracked_nodes=res.tracked_nodes,
                       columns_hashed=est.columns_hashed)
    elif algorithm == "estimate-general-oracle":
        output = estimate_oracle_mode(inst, eps)
        units = 0
    elif algorithm == "estimate-samelen" and lam == 0:
        output, units = distinct_points_estimate(inst, eps, seed, counter)
        details["route"] = "distinct-points"
    elif algorithm == "estimate-samelen":
        est = SamelenAlphaEstimator(SamelenConfig(
            n=inst.n, lam=lam, user_eps=eps, seed=seed, counter_kind=counter))
        est.feed(inst.lcodes, inst.rcodes)
        res = est.estimate()
        output = res.value
        units = res.units
        details.update(type2_counts=res.type2_counts, k=res.k,
                       columns_hashed=est.columns_hashed)
    elif algorithm == "estimate-samelen-oracle":
        output = samelen_estimate_oracle(inst, lam, eps)
        units = 0
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    wall = time.perf_counter() - start
    return TrialReport(instance_id=instance_id, algorithm=algorithm, params=params,
                       output=output, alpha=alpha,
                       success=trial_success(algorithm, output, alpha, eps),
                       peak_memory_units=units,
                       wall_time_s=wall if timing else None,
                       details=details, space_ok=space_ok)


def _trial_task(args) -> TrialReport:
    return run_single(**args)


def run_trials(algorithm: str, inst: Instance, trials: int, base_seed: int,
               eps: float = 0.25, lam: int = 1, scale: float = 1.0,
               counter: str = "exact", instance_id: str = "instance",
               workers: int = 1, groups: Optional[int] = None,
               timing: bool = False) -> Tuple[List[TrialReport], Dict]:
    """Run independent seeded trials and summarize them.

    Seeds are base_seed + index; reports come back in seed order regardless
    of worker count.  The pool has min(workers, trials, CPUs) processes,
    because a fork-started pool starts all of its processes at once.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    alpha = oracle.alpha(inst)
    tasks = [dict(algorithm=algorithm, inst=inst, seed=base_seed + t, eps=eps,
                  lam=lam, scale=scale, counter=counter, instance_id=instance_id,
                  alpha=alpha, timing=timing)
             for t in range(trials)]
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_trial_task, tasks))
    else:
        reports = [_trial_task(t) for t in tasks]

    outputs = [r.output for r in reports]
    summary = {
        "kind": "summary",
        "instance_id": instance_id,
        "algorithm": algorithm,
        "trials": trials,
        "alpha": alpha,
        "success_fraction": sum(r.success for r in reports) / trials,
        "median_output": median(outputs),
        "min_output": min(outputs),
        "max_output": max(outputs),
        "ratio_median": median(outputs) / alpha if alpha else None,
        "peak_memory_units": max(r.peak_memory_units for r in reports),
    }
    if groups:
        summary["group_medians"] = median_of_groups(outputs, groups)
        summary["median_of_groups"] = median(summary["group_medians"])
    return reports, summary


def median_of_groups(values: List[float], groups: int) -> List[float]:
    """Split values into contiguous groups and take each group's median.
    Every value counts: the first len(values) % groups groups hold one
    value more than the others."""
    if groups < 1 or groups > len(values):
        raise ValueError(f"groups must be in [1, {len(values)}], got {groups}")
    size, extra = divmod(len(values), groups)
    out, start = [], 0
    for g in range(groups):
        end = start + size + (1 if g < extra else 0)
        out.append(median(values[start:end]))
        start = end
    return out
