"""Command-line surface: instance generation, selection, estimation, exact
oracle queries, and multi-trial benchmarking.

All report output is machine-readable JSON lines with sorted keys; a
command repeated with identical flags and seeds produces byte-identical
output.  Exit code 0 means every guarantee asserted by the invoked run
held.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from pathlib import Path
from typing import List, Optional

from . import oracle
from .core import DomainError, Instance, ParseError, format_stream, parse_stream
from .harness import ALGORITHMS, json_line, run_single, run_trials


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_instance(args, require_header: bool = False) -> Instance:
    # parse_stream opens --in by its path (a regular file of 128 KiB or more
    # goes in one np.loadtxt pass); stdin is split at \n, \r and \r\n as
    # that file is.  Neither holds the text of the whole stream at once.
    if args.infile:
        try:
            return parse_stream(Path(args.infile), require_header=require_header)
        except OSError as exc:
            raise ValueError(f"cannot read --in {args.infile}: {exc.strerror}") from exc
    try:
        fd = sys.stdin.fileno()
    except io.UnsupportedOperation:  # a stdin with no descriptor, such as a StringIO
        return parse_stream(sys.stdin, require_header=require_header)
    with open(fd, encoding=sys.stdin.encoding, errors=sys.stdin.errors, closefd=False) as stdin:
        return parse_stream(stdin, require_header=require_header)


def _instance_id(args) -> str:
    return args.infile if args.infile else "<stdin>"


def _parse_members(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_gen(args) -> int:
    from .generators import (expected_alpha_index_general, expected_alpha_index_samelen,
                             gen_index_general, gen_index_samelen, gen_uniform,
                             gen_uniform_samelen, random_index_input)
    if args.mode == "uniform":
        if args.length is not None:
            inst = gen_uniform_samelen(args.n, args.count, args.length, args.seed)
        else:
            inst = gen_uniform(args.n, args.count, args.max_len, args.seed)
        _write(args, format_stream(inst))
        return 0
    if args.members is not None and args.i is not None:
        members, i = set(_parse_members(args.members)), args.i
    else:
        members, i = random_index_input(args.n_bits, args.seed)
    if args.mode == "index-samelen":
        inst = gen_index_samelen(args.n_bits, members, i)
        expected = expected_alpha_index_samelen(members, i)
    else:
        inst = gen_index_general(args.n_bits, members, i, args.k)
        expected = expected_alpha_index_general(members, i, args.k)
    got = oracle.alpha(inst)
    if got != expected:
        print(f"construction alpha {got} != expected {expected}", file=sys.stderr)
        return 1
    _write(args, format_stream(inst))
    return 0


def cmd_select(args) -> int:
    inst = _read_instance(args)
    algorithm = f"select-{args.algo}"
    report = run_single(algorithm, inst, seed=args.seed, eps=args.eps,
                        lam=args.lam, instance_id=_instance_id(args))
    _write(args, report.to_json() + "\n")
    return 0 if report.passed else 1


def cmd_estimate(args) -> int:
    inst = _read_instance(args, require_header=True)
    algorithm = f"estimate-{args.algo}" + ("-oracle" if args.oracle_mode else "")
    report = run_single(algorithm, inst, seed=args.seed, eps=args.eps,
                        lam=args.lam, scale=args.scale, counter=args.counter,
                        instance_id=_instance_id(args), timing=args.timing)
    _write(args, report.to_json() + "\n")
    return 0 if report.passed else 1


def cmd_exact(args) -> int:
    inst = _read_instance(args)
    obj = {"kind": "exact", "n": inst.n, "intervals": len(inst),
           "alpha": oracle.alpha(inst)}
    _write(args, json_line(obj) + "\n")
    return 0


def cmd_trials(args) -> int:
    require_header = args.algo.startswith("estimate-")
    inst = _read_instance(args, require_header=require_header)
    reports, summary = run_trials(args.algo, inst, trials=args.trials,
                                  base_seed=args.seed, eps=args.eps, lam=args.lam,
                                  scale=args.scale, counter=args.counter,
                                  instance_id=_instance_id(args),
                                  workers=args.workers, groups=args.groups,
                                  timing=args.timing)
    lines = [r.to_json() for r in reports] + [json_line(summary)]
    _write(args, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalstream",
        description="Streaming interval selection and independent-set size estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, instance_input=True):
        if instance_input:
            p.add_argument("--in", dest="infile", default=None,
                           help="instance file in stream format (default: stdin)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_gen = sub.add_parser("gen", help="generate an instance stream")
    p_gen.add_argument("mode", choices=["uniform", "index-samelen", "index-general"])
    p_gen.add_argument("--n", type=int, default=1024)
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--max-len", type=int, default=32)
    p_gen.add_argument("--length", type=int, default=None,
                       help="fixed interval length (same-length uniform stream)")
    p_gen.add_argument("--n-bits", type=int, default=16)
    p_gen.add_argument("--members", default=None, help="comma-separated member bits")
    p_gen.add_argument("--i", type=int, default=None, help="queried bit")
    p_gen.add_argument("--k", type=int, default=3, help="chain length (index-general)")
    p_gen.add_argument("--seed", type=int, default=0)
    add_io(p_gen, instance_input=False)
    p_gen.set_defaults(func=cmd_gen)

    p_sel = sub.add_parser("select", help="run a one-pass selector")
    p_sel.add_argument("--algo", choices=["general", "samelen"], required=True)
    p_sel.add_argument("--lambda", dest="lam", type=int, default=1)
    p_sel.add_argument("--eps", type=float, default=0.25)
    p_sel.add_argument("--seed", type=int, default=0)
    add_io(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_est = sub.add_parser("estimate", help="run a one-pass size estimator")
    p_est.add_argument("--algo", choices=["general", "samelen"], required=True)
    p_est.add_argument("--eps", type=float, default=0.25)
    p_est.add_argument("--lambda", dest="lam", type=int, default=1)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--scale", type=float, default=1.0)
    p_est.add_argument("--counter", choices=["exact", "kmv"], default="exact")
    p_est.add_argument("--oracle-mode", action="store_true",
                       help="deterministic pipeline over exact quantities")
    p_est.add_argument("--timing", action="store_true")
    add_io(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_exact = sub.add_parser("exact", help="exact optimum of an instance")
    add_io(p_exact)
    p_exact.set_defaults(func=cmd_exact)

    p_tr = sub.add_parser("trials", help="independent seeded trials plus summary")
    p_tr.add_argument("--algo", choices=ALGORITHMS, required=True)
    p_tr.add_argument("--trials", type=int, default=10)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--eps", type=float, default=0.25)
    p_tr.add_argument("--lambda", dest="lam", type=int, default=1)
    p_tr.add_argument("--scale", type=float, default=1.0)
    p_tr.add_argument("--counter", choices=["exact", "kmv"], default="exact")
    p_tr.add_argument("--workers", type=int, default=1)
    p_tr.add_argument("--groups", type=int, default=None,
                      help="median-of-groups aggregation")
    p_tr.add_argument("--timing", action="store_true")
    add_io(p_tr)
    p_tr.set_defaults(func=cmd_trials)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process and reused by every ``main``
    call, since parsing leaves it unchanged: building it takes about a
    millisecond, which a short call would otherwise pay each time."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
