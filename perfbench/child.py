"""One benchmark invocation in a fresh process.

Usage: child.py MODE RESULT_PATH SPANS_PATH WARMUP_ARGV_JSON ARGV_JSON

Imports the CLI, runs it once on a tiny input of the same command shape
(warm-up), then times one ``cli.main(argv)`` call, with the fixed
reference task (reference.py) timed right before and right after it.
MODE is ``plain`` (untraced) or ``trace`` (spans around every public
function; after the timed call, the state each streaming estimator
retained).  Writes a JSON result to RESULT_PATH and exits with the CLI's
exit code, so the parent sees the status a user would see.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    mode, result_path, spans_path = sys.argv[1], sys.argv[2], sys.argv[3]
    warmup_argv, argv = json.loads(sys.argv[4]), json.loads(sys.argv[5])

    from intervalstream import cli
    warmup_code = cli.main(warmup_argv)
    ready = time.monotonic()

    import reference
    reference_before = reference.seconds()

    recorder = probe = None
    if mode == "trace":
        import tracer
        recorder = tracer.SpanRecorder().install()
        probe = tracer.StateProbe().install()

    start = time.perf_counter()
    code = cli.main(argv)
    wall_s = time.perf_counter() - start
    reference_after = reference.seconds()

    result = {"mode": mode, "exit_code": code, "warmup_exit_code": warmup_code,
              "wall_s": wall_s, "ready_monotonic": ready,
              "reference_s": [reference_before, reference_after]}
    if recorder is not None:
        result["trace"] = recorder.summary()
        result["state_mb"] = probe.state_mb()
        if spans_path:
            recorder.dump(spans_path, invocation=result_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
