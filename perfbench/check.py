"""Independent output check for the benchmark.

Everything here is recomputed from the generated input file with the
benchmark's own code: the input is parsed by a separate reader, the exact
optimum comes from a separate earliest-finish sweep, and each guarantee
bracket is written out again from the paper's statements.  The CLI's own
``success`` flag and exit code are checked against these values, never
trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def read_closed_intervals(path: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Read a stream file of closed intervals: an ``n <int>`` header and
    ``<left> <right>`` lines.  Any other line shape is an error, because
    the benchmark only generates closed intervals."""
    n: Optional[int] = None
    intervals: List[Tuple[int, int]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            if tokens[0] == "n" and len(tokens) == 2 and n is None and not intervals:
                n = int(tokens[1])
                continue
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'left right', got {raw!r}")
            left, right = int(tokens[0]), int(tokens[1])
            if not 1 <= left <= right:
                raise ValueError(f"{path}:{lineno}: bad interval {left} {right}")
            intervals.append((left, right))
    if n is None:
        raise ValueError(f"{path}: missing 'n' header")
    return n, intervals


def exact_alpha(intervals: List[Tuple[int, int]]) -> int:
    """Maximum number of pairwise-disjoint closed intervals: take intervals
    by increasing right end, keeping each that starts after the last kept
    one ends."""
    count = 0
    last_right = None
    for left, right in sorted(intervals, key=lambda lr: lr[1]):
        if last_right is None or left > last_right:
            count += 1
            last_right = right
    return count


def in_bracket(kind: str, output: float, alpha: int, eps: float) -> bool:
    """The guarantee each command asserts, restated from the paper."""
    if kind == "select-general":
        # more than half the optimum (trivially met when the optimum is 0)
        return output > alpha / 2.0 or output == alpha == 0
    if kind == "estimate-general":
        return 0.5 * (1.0 - eps) * alpha <= output <= alpha
    if kind == "estimate-samelen":
        return (2.0 / 3.0) * (1.0 - eps) * alpha <= output <= alpha
    if kind == "estimate-general-oracle":
        eps1 = eps / 6.0
        return (0.5 - eps1) / (1.0 + eps1) ** 2 * alpha <= output <= alpha
    raise ValueError(f"unknown check kind {kind!r}")


@dataclass
class Verdict:
    """Outcome of checking one invocation.

    ``problems`` are inconsistencies that are wrong on every seed (a wrong
    optimum, a flag or exit code that contradicts the recomputed bracket, a
    missing report).  ``in_bracket`` is False when the output missed its
    guarantee; for a randomized estimator that can be an honest unlucky
    draw, which still counts as a failed invocation.
    """

    problems: List[str] = field(default_factory=list)
    in_bracket: bool = False
    report: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems and self.in_bracket


def verify(kind: str, report_text: Optional[str], exit_code: int, alpha: int,
           eps: float) -> Verdict:
    """Check one CLI report (its JSON line) and exit code against the
    independently computed optimum ``alpha``."""
    verdict = Verdict()
    if not report_text or not report_text.strip():
        verdict.problems.append(f"no report (exit code {exit_code})")
        return verdict
    try:
        report = json.loads(report_text.strip().splitlines()[-1])
    except json.JSONDecodeError as exc:
        verdict.problems.append(f"report is not JSON: {exc}")
        return verdict
    verdict.report = report
    if report.get("algorithm") != kind:
        verdict.problems.append(f"algorithm {report.get('algorithm')!r} != {kind!r}")
        return verdict
    if report.get("alpha") != alpha:
        verdict.problems.append(f"reported alpha {report.get('alpha')} != recomputed {alpha}")
    output = report.get("output")
    if not isinstance(output, (int, float)):
        verdict.problems.append(f"output {output!r} is not a number")
        return verdict
    verdict.in_bracket = in_bracket(kind, output, alpha, eps)
    if report.get("success") is not verdict.in_bracket:
        verdict.problems.append(
            f"success flag {report.get('success')} != recomputed {verdict.in_bracket}")
    passed = verdict.in_bracket
    if kind == "select-general":
        space_ok = report.get("peak_memory_units", alpha + 1) <= max(alpha, 1)
        if report.get("space_ok") is not space_ok:
            verdict.problems.append(f"space_ok flag {report.get('space_ok')} != recomputed {space_ok}")
        disjoint = report.get("details", {}).get("disjoint")
        if disjoint is not True:
            verdict.problems.append(f"selection not reported disjoint ({disjoint!r})")
        if not space_ok:
            verdict.problems.append("selector stored more windows than the optimum")
        passed = passed and space_ok and disjoint is True
    expected_exit = 0 if passed else 1
    if exit_code != expected_exit:
        verdict.problems.append(f"exit code {exit_code} != expected {expected_exit}")
    return verdict
