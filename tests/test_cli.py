import json
import subprocess
import sys

import pytest

from intervalstream import core
from intervalstream.cli import main
from intervalstream.core import Interval, parse_stream
from intervalstream.harness import run_trials
from intervalstream import oracle
from intervalstream.rng import SplitMix64
from intervalstream.selector import PartitionSelector

from conftest import fed_tables


def run_cli(args, stdin_text=None, capsys=None):
    """Invoke the CLI in-process via main(); returns (exit_code, stdout)."""
    import io
    from contextlib import redirect_stdout
    old_stdin = sys.stdin
    buf = io.StringIO()
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(buf):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def test_gen_uniform_roundtrip(tmp_path):
    out = tmp_path / "inst.txt"
    code, _ = run_cli(["gen", "uniform", "--n", "100", "--count", "20",
                       "--max-len", "10", "--seed", "4", "--out", str(out)])
    assert code == 0
    inst = parse_stream(out.read_text())
    assert inst.n == 100 and len(inst) == 20


def test_gen_deterministic_bytes():
    c1, t1 = run_cli(["gen", "uniform", "--n", "64", "--count", "10",
                      "--max-len", "6", "--seed", "9"])
    c2, t2 = run_cli(["gen", "uniform", "--n", "64", "--count", "10",
                      "--max-len", "6", "--seed", "9"])
    assert c1 == c2 == 0 and t1 == t2


def test_gen_index_modes():
    code, text = run_cli(["gen", "index-samelen", "--n-bits", "7",
                          "--members", "1,3,4,6", "--i", "2"])
    assert code == 0
    inst = parse_stream(text)
    assert oracle.alpha(inst) == 2
    code, text = run_cli(["gen", "index-general", "--n-bits", "7",
                          "--members", "1,3,4,6", "--i", "3", "--k", "3"])
    assert code == 0
    assert oracle.alpha(parse_stream(text)) == 7
    code, _ = run_cli(["gen", "index-samelen", "--n-bits", "12", "--seed", "5"])
    assert code == 0
    # empty --members: no bit is set
    code, text = run_cli(["gen", "index-samelen", "--n-bits", "7", "--members", "", "--i", "2"])
    assert code == 0
    assert oracle.alpha(parse_stream(text)) == 2


def test_select_general_stdin():
    code, out = run_cli(["select", "--algo", "general"],
                        stdin_text="n 10\n1 10\n2 3\n5 6\n")
    assert code == 0
    obj = json.loads(out)
    assert obj["output"] == 2.0 and obj["alpha"] == 2
    assert obj["success"] and obj["space_ok"]


def test_select_samelen(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("n 21\n1 3\n10 12\n19 21\n")
    code, out = run_cli(["select", "--algo", "samelen", "--lambda", "2",
                         "--in", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["output"] == 3.0


def test_estimate_requires_header():
    code, _ = run_cli(["estimate", "--algo", "general", "--eps", "0.3",
                       "--scale", "1e-9"], stdin_text="1 3\n2 5\n")
    assert code == 2


def test_estimate_general_fallback():
    code, out = run_cli(["estimate", "--algo", "general", "--eps", "0.3",
                         "--seed", "1", "--scale", "1e-9"],
                        stdin_text="n 16\n1 3\n2 5\n8 9\n")
    assert code == 0
    obj = json.loads(out)
    assert obj["details"]["branch"] == "fallback"
    assert obj["output"] == 2.0 and obj["alpha"] == 2


def test_estimate_reports_columns_hashed():
    # with an exact counter every active node (general: in both banks) and
    # every occupied window of each grid (samelen) is hashed exactly once
    _, text = run_cli(["gen", "uniform", "--n", "4096", "--count", "300",
                       "--max-len", "64", "--seed", "7"])
    inst = parse_stream(text)
    code, out = run_cli(["estimate", "--algo", "general", "--eps", "0.45",
                         "--seed", "3", "--scale", "1e-7"], stdin_text=text)
    assert code == 0
    active = oracle.active_segments(inst, oracle.SegTree(inst.n))
    assert json.loads(out)["details"]["columns_hashed"] == 2 * len(active)
    _, text = run_cli(["gen", "uniform", "--n", "4096", "--count", "300",
                       "--length", "8", "--seed", "7"])
    inst = parse_stream(text)
    code, out = run_cli(["estimate", "--algo", "samelen", "--lambda", "8",
                         "--eps", "0.3", "--seed", "2"], stdin_text=text)
    assert code == 0
    windows = sum(len(table.rows) for table in fed_tables(inst, 8))
    assert json.loads(out)["details"]["columns_hashed"] == windows


def test_estimate_oracle_mode():
    code, out = run_cli(["estimate", "--algo", "general", "--eps", "0.3",
                         "--oracle-mode"], stdin_text="n 16\n1 3\n4 7\n")
    assert code == 0
    assert json.loads(out)["output"] == 2.0


def test_estimate_samelen_and_lambda_zero():
    code, out = run_cli(["estimate", "--algo", "samelen", "--lambda", "1",
                         "--eps", "0.3", "--seed", "2"],
                        stdin_text="n 9\n1 2\n4 5\n7 8\n")
    assert code == 0
    assert json.loads(out)["success"]
    code, out = run_cli(["estimate", "--algo", "samelen", "--lambda", "0",
                         "--eps", "0.3", "--seed", "2"],
                        stdin_text="n 9\n1 1\n1 1\n5 5\n")
    assert code == 0
    obj = json.loads(out)
    # the exact count over 1 + eps/3
    assert obj["alpha"] == 2 and obj["output"] == 2.0 / (1.0 + 0.3 / 3.0)
    assert obj["details"]["route"] == "distinct-points"
    # zero-length route rejects a nonzero-length interval
    code, _ = run_cli(["estimate", "--algo", "samelen", "--lambda", "0"],
                      stdin_text="n 9\n1 2\n")
    assert code == 2


def _random_points(n: int, count: int, seed: int) -> str:
    rng = SplitMix64(seed)
    return f"n {n}\n" + "".join(f"{x} {x}\n" for x in
                                (rng.randrange(1, n + 1) for _ in range(count)))


@pytest.mark.parametrize("n,count,eps,kmv_k", [(100_000, 3000, 0.3, 9600),
                                               (1_000_000, 10_000, 0.45, 4267)],
                         ids=["3000-points", "10000-points-saturated"])
def test_lambda_zero_kmv_success_fraction(n, count, eps, kmv_k):
    # the paper's probability 2/3 over seeds 0-19, fixed in advance; on the
    # second input the sketch of ceil(96/(eps/3)**2) pairs fills
    text = _random_points(n, count, seed=1)
    outcomes = []
    for seed in range(20):
        code, out = run_cli(["estimate", "--algo", "samelen", "--lambda", "0",
                             "--eps", str(eps), "--counter", "kmv", "--seed", str(seed)],
                            stdin_text=text)
        obj = json.loads(out)
        assert code == (0 if obj["success"] else 1)
        assert obj["peak_memory_units"] == min(kmv_k, obj["alpha"])
        outcomes.append(obj["success"])
    assert sum(outcomes) / len(outcomes) >= 2 / 3, outcomes


def test_exact_command():
    code, out = run_cli(["exact"], stdin_text="n 10\n1 3\n2 5\n4 7\n6 9\n")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"alpha": 2, "intervals": 4, "kind": "exact", "n": 10}


def test_trials_output_shape(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("n 64\n" + "\n".join(f"{i} {i+3}" for i in range(1, 60, 7)) + "\n")
    code, out = run_cli(["trials", "--algo", "select-general", "--trials", "4",
                         "--seed", "3", "--in", str(path)])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    objs = [json.loads(line) for line in lines]
    assert [o["kind"] for o in objs] == ["trial"] * 4 + ["summary"]
    assert objs[-1]["success_fraction"] == 1.0
    assert all(o["space_ok"] for o in objs[:-1])


@pytest.mark.parametrize("fault", ["overlap", "space"])
def test_trials_select_exit_reads_disjointness_and_space(tmp_path, monkeypatch, fault):
    # each trial meets its bracket, but its selection overlaps or its peak
    # passes max(alpha, 1): the command fails as select would
    path = tmp_path / "t.txt"
    path.write_text("n 64\n" + "\n".join(f"{i} {i+3}" for i in range(1, 60, 7)) + "\n")
    if fault == "overlap":
        monkeypatch.setattr(PartitionSelector, "solution",
                            lambda self: [Interval(1, 3), Interval(2, 4)])
    else:
        monkeypatch.setattr(PartitionSelector, "peak_windows", property(lambda self: 10 ** 6))
    code, out = run_cli(["trials", "--algo", "select-general", "--trials", "2",
                         "--in", str(path)])
    trials = [json.loads(line) for line in out.strip().split("\n")[:-1]]
    assert code == 1
    assert [t["success"] for t in trials] == [True, True]
    assert [t["details"]["disjoint"] for t in trials] == [fault != "overlap"] * 2
    assert [t["space_ok"] for t in trials] == [fault != "space"] * 2


def test_trials_lambda_zero_lines_match_estimate(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text(_random_points(10_000, 500, seed=1))
    opts = ["--lambda", "0", "--eps", "0.3", "--counter", "kmv", "--in", str(path)]
    code, out = run_cli(["trials", "--algo", "estimate-samelen", *opts,
                         "--trials", "3", "--seed", "4"])
    lines = out.strip().split("\n")[:-1]
    singles = [run_cli(["estimate", "--algo", "samelen", *opts, "--seed", str(seed)])
               for seed in (4, 5, 6)]
    assert lines == [single.strip() for _, single in singles]
    assert code == max(c for c, _ in singles) == 0
    reports, _ = run_trials("estimate-samelen", parse_stream(path.read_text()), trials=3,
                            base_seed=4, eps=0.3, lam=0, counter="kmv",
                            instance_id=str(path))
    assert [r.to_json() for r in reports] == lines
    assert all('"space_ok"' not in line for line in lines)


@pytest.mark.parametrize("args,stdin_text,message", [
    (["estimate", "--algo", "samelen", "--lambda", "0", "--oracle-mode"], "n 9\n1 1\n",
     "interval length must be >= 1, got 0"),
    (["trials", "--algo", "estimate-samelen-oracle", "--lambda", "0"], "n 9\n1 1\n",
     "interval length must be >= 1, got 0"),
    (["estimate", "--algo", "samelen", "--lambda", "-4", "--oracle-mode"], "n 9\n1 1\n",
     "interval length must be >= 1, got -4"),
    (["estimate", "--algo", "samelen", "--lambda", "4", "--oracle-mode"],
     "n 40\n1 5\n3 9\n10 14\n", "interval [3,9] has length 6, expected 4"),
], ids=["lambda-0", "trials-lambda-0", "lambda-negative", "mixed-lengths"])
def test_samelen_oracle_mode_refuses_what_the_selector_refuses(args, stdin_text, message,
                                                              capsys):
    assert run_cli(args, stdin_text=stdin_text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["estimate", "--algo", "general", "--scale", "inf"], "scale must be finite and positive, got inf"),
    (["estimate", "--algo", "general", "--scale", "nan"], "scale must be finite and positive, got nan"),
    (["trials", "--algo", "estimate-general", "--trials", "2", "--scale", "inf"],
     "scale must be finite and positive, got inf"),
    (["trials", "--algo", "estimate-general", "--trials", "2", "--scale", "nan"],
     "scale must be finite and positive, got nan"),
    (["trials", "--algo", "select-general", "--trials", "3", "--groups", "0"],
     "groups must be in [1, 3], got 0"),
    (["trials", "--algo", "select-general", "--trials", "3", "--groups", "5"],
     "groups must be in [1, 3], got 5"),
], ids=["estimate-scale-inf", "estimate-scale-nan", "trials-scale-inf", "trials-scale-nan",
        "trials-groups-0", "trials-groups-above-trials"])
def test_refused_options_exit_2(args, message, capsys):
    assert run_cli(args, stdin_text="n 64\n1 3\n4 9\n20 40\n") == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_trials_byte_identical_repetition(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("n 256\n" + "\n".join(f"{i} {i+4}" for i in range(1, 200, 9)) + "\n")
    args = ["trials", "--algo", "estimate-samelen", "--lambda", "4", "--eps",
            "0.3", "--trials", "3", "--seed", "11", "--in", str(path)]
    c1, o1 = run_cli(args)
    c2, o2 = run_cli(args)
    assert c1 == c2 and o1 == o2
    c3, o3 = run_cli(args + ["--workers", "2"])
    assert o3 == o1


def test_parse_error_exit_code():
    code, _ = run_cli(["exact"], stdin_text="garbage line here\n")
    assert code == 2


def test_missing_input_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    for args in (["exact"], ["estimate", "--algo", "general"]):
        code, out = run_cli(args + ["--in", str(missing)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
    # a directory opens no file: parse_stream's open fails, worded as --in's
    code, out = run_cli(["exact", "--in", str(tmp_path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith(f"error: cannot read --in {tmp_path}: ")


@pytest.mark.parametrize("args,stdin_text,error", [
    (["gen", "uniform", "--n", str(10 ** 23)], "", f"n must be below 2**62, got {10 ** 23}"),
    (["estimate", "--algo", "samelen", "--lambda", "0", "--counter", "kmv"],
     f"n {1 << 61}\n1 1\n", "bound must be in (0, 2**64"),
    (["estimate", "--algo", "general", "--eps", "0.45", "--scale", "1e-9"],
     f"n {1 << 54}\n1 3\n", "bound must be in (0, 2**64"),
], ids=["gen-n-1e23", "lambda0-kmv-n2^61", "general-n2^54"])
def test_bound_of_2_64_or_more_is_an_error_not_a_hang(args, stdin_text, error):
    # a draw bound past 2**64 once looped forever (gen, the lambda 0 KMV
    # counter, whose field prime passes 2**64 from n = 2**61) or raised
    # OverflowError (the general estimator's banks); gen now refuses its n
    proc = subprocess.run([sys.executable, "-m", "intervalstream.cli", *args],
                          input=stdin_text, text=True, capture_output=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {error}")


def test_console_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "intervalstream.cli", "exact"],
                          input="n 5\n1 2\n4 5\n", text=True, capture_output=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 2


B62 = 2 ** 62
HUGE_STREAMS = {
    # endpoints up to 2**62 - 1 are answered; a right end of 2**62 or more
    # is refused at its line: (body, the refusal without a header or None)
    "below-2^62": (f"{B62 - 1} {B62 - 1}\n{B62 - 3} {B62 - 1} oc\n2 {B62 - 2}\n", None),
    "at-2^62": (f"1 {B62}\n{B62} {B62}\n{B62 - 1} {B62} co\n",
                f"line 1: endpoint {B62} must be below 2**62"),
    "2^70": (f"3 5\n{B62} {2 ** 70}\n{2 ** 70} {2 ** 70}\n",
             f"line 2: endpoint {2 ** 70} must be below 2**62"),
}
HUGE_SELECT_OUT = (
    '{"algorithm":"select-general","alpha":2,"details":{"disjoint":true},'
    '"instance_id":"<stdin>","kind":"trial","output":2.0,"params":{"counter":"exact",'
    '"eps":0.25,"lambda":1,"scale":1.0,"seed":0},"peak_memory_units":2,"space_ok":true,'
    '"success":true,"wall_time_s":null}\n')


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header-2^70"])
@pytest.mark.parametrize("name", list(HUGE_STREAMS))
def test_huge_endpoints_exact_and_select(name, header, capsys):
    """The stream below 2**62 is answered, as n = 2**62 - 1 under no header
    or that header; a header of 2**70 and a right end of 2**62 or more are
    refused at their line, with exit 2 and empty stdout."""
    body, refusal = HUGE_STREAMS[name]
    if header:
        refusal = f"line 1: n must be below 2**62, got {2 ** 70}"
    texts = [(f"n {2 ** 70}\n" if header else "") + body]
    if refusal is None:
        texts.append(f"n {B62 - 1}\n" + body)
    for text in texts:
        for args in (["exact"], ["select", "--algo", "general"]):
            code, out = run_cli(args, stdin_text=text)
            if refusal is not None:
                assert (code, out, capsys.readouterr().err) == (2, "", f"error: {refusal}\n")
            elif args == ["exact"]:
                assert (code, out) == (0, f'{{"alpha":2,"intervals":3,"kind":"exact","n":{B62 - 1}}}\n')
            else:
                assert (code, out) == (0, HUGE_SELECT_OUT)
    assert capsys.readouterr().err == ""


def test_select_rights_at_the_top_after_a_long_prefix():
    # past the first feed chunk, right ends up to 2**62 - 1 in the last
    # window are contained there: below the int64 max window sentinel
    text = f"n {B62 - 1}\n" + "5 6\n" * 300 + f"20 {B62 - 2}\n30 {B62 - 1}\n"
    assert run_cli(["exact"], stdin_text=text) == (
        0, f'{{"alpha":2,"intervals":302,"kind":"exact","n":{B62 - 1}}}\n')
    assert run_cli(["select", "--algo", "general"], stdin_text=text) == (0, HUGE_SELECT_OUT)


def test_n_and_endpoints_of_2_62_are_refused_at_the_boundary(tmp_path, capsys):
    """gen's n, a header, a right end with no header, and the last line of
    an --in file of over 128 KiB, which the one-pass read refuses and the
    line check words with its line number: exit 2, empty stdout and one
    error line each."""
    big = tmp_path / "big.txt"
    big.write_text("1 2\n" * 40000 + f"3 {B62}\n")
    assert big.stat().st_size > 128 * 1024
    cases = [
        (["gen", "uniform", "--n", str(B62)], None, f"n must be below 2**62, got {B62}"),
        (["exact"], f"n {B62}\n1 2\n", f"line 1: n must be below 2**62, got {B62}"),
        (["exact"], f"1 2\n3 {B62}\n", f"line 2: endpoint {B62} must be below 2**62"),
        (["exact", "--in", str(big)], None, f"line 40001: endpoint {B62} must be below 2**62"),
    ]
    for args, stdin_text, error in cases:
        assert run_cli(args, stdin_text=stdin_text) == (2, "")
        assert capsys.readouterr().err == f"error: {error}\n"


TOP = B62 - 1  # the largest n
TOP_LAM = 1 << 40


def _top_stream(seed, lam=None, span=1 << 41):
    """24 intervals at n = TOP with endpoints within ``span`` of it and
    every openness: lengths below 2**40, or all ``lam``."""
    rng = SplitMix64(seed)
    lines = [f"n {TOP}"]
    for i in range(24):
        length = rng.below(TOP_LAM) if lam is None else lam
        left = TOP - length - rng.below(span - length)
        flags = ("cc", "co", "oc", "oo")[i % 4] if length else "cc"
        lines.append(f"{left} {left + length} {flags}")
    return "\n".join(lines) + "\n"


TOP_GENERAL = _top_stream(7)
TOP_SAMELEN = _top_stream(8, TOP_LAM, 1 << 44)


_SELECT_TOP = (
    '{"algorithm":"select-general","alpha":6,"details":{"disjoint":true},"instance_id":"<stdin>",'
    '"kind":"trial","output":4.0,"params":{"counter":"exact","eps":0.25,"lambda":1,"scale":1.0,'
    '"seed":0},"peak_memory_units":4,"space_ok":true,"success":true,"wall_time_s":null}\n')
_ORACLE_TOP = (
    '{"algorithm":"estimate-general-oracle","alpha":6,"details":{},"instance_id":"<stdin>",'
    '"kind":"trial","output":4.0,"params":{"counter":"exact","eps":0.25,"lambda":1,"scale":1.0,'
    '"seed":0},"peak_memory_units":0,"success":true,"wall_time_s":null}\n')
_SELECT_SAMELEN_TOP = (
    '{"algorithm":"select-samelen","alpha":9,"details":{"best_shift":0,"disjoint":true},'
    '"instance_id":"<stdin>","kind":"trial","output":8.0,"params":{"counter":"exact","eps":0.25,'
    '"lambda":1099511627776,"scale":1.0,"seed":0},"peak_memory_units":14,"space_ok":true,'
    '"success":true,"wall_time_s":null}\n')
_ESTIMATE_SAMELEN_TOP = (
    '{"algorithm":"estimate-samelen","alpha":9,"details":{"columns_hashed":14,"k":10368,'
    '"type2_counts":[3,2,3]},"instance_id":"<stdin>","kind":"trial","output":7.111111111111111,'
    '"params":{"counter":"COUNTER","eps":0.25,"lambda":1099511627776,"scale":1.0,"seed":0},'
    '"peak_memory_units":56,"success":true,"wall_time_s":null}\n')
# (arguments, stdin, stdout) of each layer that had a path for codes past
# int64, pinned from the code that still had it
TOP_RUNS = [
    (["exact"], TOP_GENERAL, f'{{"alpha":6,"intervals":24,"kind":"exact","n":{TOP}}}\n'),
    (["select", "--algo", "general"], TOP_GENERAL, _SELECT_TOP),
    (["estimate", "--algo", "general", "--oracle-mode"], TOP_GENERAL, _ORACLE_TOP),
    (["exact"], TOP_SAMELEN, f'{{"alpha":9,"intervals":24,"kind":"exact","n":{TOP}}}\n'),
    (["select", "--algo", "samelen", "--lambda", str(TOP_LAM)], TOP_SAMELEN, _SELECT_SAMELEN_TOP),
    *[(["estimate", "--algo", "samelen", "--lambda", str(TOP_LAM), "--counter", counter],
       TOP_SAMELEN, _ESTIMATE_SAMELEN_TOP.replace("COUNTER", counter))
      for counter in ("exact", "kmv")],
]


@pytest.mark.parametrize("args,stdin_text,expected", TOP_RUNS,
                         ids=["exact", "select-general", "estimate-general-oracle",
                              "exact-samelen", "select-samelen", "estimate-samelen-exact",
                              "estimate-samelen-kmv"])
def test_top_of_the_range_output(args, stdin_text, expected, capsys):
    """Codes reaching within 2**42 of int64 max, through every layer: a wrap
    anywhere changes these bytes, and exact's alpha is brute force's."""
    assert run_cli(args, stdin_text=stdin_text) == (0, expected)
    assert capsys.readouterr().err == ""
    if args == ["exact"]:
        inst = parse_stream(stdin_text)
        assert json.loads(expected)["alpha"] == oracle.brute_force_alpha(inst)
        assert inst.n == TOP and int(inst.rcodes.max()) > 2 * TOP - 2 ** 42


def _open_ends(count, lam, n, seed):
    """A same-length stream with every openness."""
    rng = SplitMix64(seed)
    lines = [f"n {n}"]
    for _ in range(count):
        x = rng.randrange(1, n - lam)
        lines.append(f"{x} {x + lam} {('cc', 'co', 'oc', 'oo')[rng.below(4)]}")
    return "\n".join(lines) + "\n"


OPEN_ENDS = _open_ends(150, 4, 400, 3)
POINTS = _random_points(2000, 300, seed=5)
WRONG_FIRST = "n 100\n3 9\n" + "".join(f"{x} {x + 4}\n" for x in range(1, 90, 3))
WRONG_MIDDLE = "n 100\n" + "".join(f"{x} {x + 4}\n" for x in range(1, 90, 3)) + \
    "20 22\n" + "".join(f"{x} {x + 4}\n" for x in range(2, 90, 3))

# (arguments, stdin) of the same-length and lambda 0 runs whose output must
# not depend on how the layer reads its stream
PARITY = [
    (["select", "--algo", "samelen", "--lambda", "4"], OPEN_ENDS),
    (["estimate", "--algo", "samelen", "--lambda", "4", "--eps", "0.3", "--seed", "1"], OPEN_ENDS),
    (["estimate", "--algo", "samelen", "--lambda", "4", "--eps", "0.3", "--seed", "1",
      "--counter", "kmv"], OPEN_ENDS),
    (["estimate", "--algo", "samelen", "--lambda", "4", "--oracle-mode"], OPEN_ENDS),
    (["trials", "--algo", "estimate-samelen", "--lambda", "4", "--eps", "0.3", "--trials", "3"],
     OPEN_ENDS),
    (["trials", "--algo", "select-samelen", "--lambda", "4", "--trials", "2"], OPEN_ENDS),
    *[([*cmd, "--lambda", "4"], text)
      for text in (WRONG_FIRST, WRONG_MIDDLE)
      for cmd in (["select", "--algo", "samelen"], ["estimate", "--algo", "samelen"],
                  ["estimate", "--algo", "samelen", "--oracle-mode"],
                  ["trials", "--algo", "estimate-samelen"])],
    (["estimate", "--algo", "samelen", "--lambda", "4"], "n 50\n1 5\n48 52\n"),
    (["estimate", "--algo", "samelen", "--lambda", "0"], "n 50\n1 1\n4 5 oo\n7 7\n"),
    *[(["estimate", "--algo", "samelen", "--lambda", "0", "--eps", "0.3", "--counter", counter,
        "--seed", str(seed)], POINTS) for counter in ("exact", "kmv") for seed in range(20)],
    *[(["trials", "--algo", "estimate-samelen", "--lambda", "0", "--counter", counter,
        "--trials", "3"], POINTS) for counter in ("exact", "kmv")],
]

# index in PARITY: stdout (exit 0) or stderr (exit 2), as recorded when the
# layer still read the stream one Interval at a time
RECORDED = {
    0: '{"algorithm":"select-samelen","alpha":67,"details":{"best_shift":2,"disjoint":true},'
       '"instance_id":"<stdin>","kind":"trial","output":55.0,"params":{"counter":"exact",'
       '"eps":0.25,"lambda":4,"scale":1.0,"seed":0},"peak_memory_units":99,"space_ok":true,'
       '"success":true,"wall_time_s":null}\n',
    1: '{"algorithm":"estimate-samelen","alpha":67,"details":{"columns_hashed":99,"k":7201,'
       '"type2_counts":[17,20,22]},"instance_id":"<stdin>","kind":"trial",'
       '"output":47.826086956521735,"params":{"counter":"exact","eps":0.3,"lambda":4,'
       '"scale":1.0,"seed":1},"peak_memory_units":396,"success":true,"wall_time_s":null}\n',
    2: '{"algorithm":"estimate-samelen","alpha":67,"details":{"columns_hashed":99,"k":7201,'
       '"type2_counts":[17,20,22]},"instance_id":"<stdin>","kind":"trial",'
       '"output":47.826086956521735,"params":{"counter":"kmv","eps":0.3,"lambda":4,'
       '"scale":1.0,"seed":1},"peak_memory_units":396,"success":true,"wall_time_s":null}\n',
    6: "error: interval [3,9] has length 6, expected 4\n",
    10: "error: interval [20,22] has length 2, expected 4\n",
    14: "error: line 3: endpoint 52 > declared n 50\n",
    15: "error: lambda 0 requires zero-length intervals, got (4,5)\n",
}


def _run_full(args, stdin_text, capsys):
    code, out = run_cli(args, stdin_text=stdin_text)
    return code, out, capsys.readouterr().err


def test_column_feed_output_is_byte_identical_to_per_item(monkeypatch, capsys):
    # every same-length and lambda 0 run: stdout, stderr and exit code with
    # the vectorised pass on chunks of 37 pairs equal those of per-item
    # process (every chunk below _MIN_BULK) and of the default constants,
    # and the recorded runs keep their recorded bytes
    from intervalstream import selector_samelen
    runs = {}
    for name, chunk, min_bulk in (("default", selector_samelen._CHUNK, selector_samelen._MIN_BULK),
                                  ("bulk", 37, 0), ("per-item", 37, 38)):
        monkeypatch.setattr(selector_samelen, "_CHUNK", chunk)
        monkeypatch.setattr(selector_samelen, "_MIN_BULK", min_bulk)
        runs[name] = [_run_full(args, text, capsys) for args, text in PARITY]
    assert runs["bulk"] == runs["per-item"] == runs["default"]
    for i, expected in RECORDED.items():
        code, out, err = runs["default"][i]
        assert (out if code == 0 else err) == expected, PARITY[i][0]
        assert code == (0 if expected.startswith("{") else 2)
    codes = [code for code, _, _ in runs["default"]]
    assert codes.count(2) == 10 and codes.count(1) + codes.count(0) == len(PARITY) - 10


def test_repeated_calls_carry_no_flag_over(tmp_path):
    """main parses every call with one parser: a flag of one call leaves
    the next call's defaults as they were."""
    path = tmp_path / "inst.txt"
    run_cli(["gen", "uniform", "--n", "64", "--count", "10", "--length", "4",
             "--seed", "1", "--out", str(path)])
    args = ["estimate", "--algo", "samelen", "--lambda", "4", "--eps", "0.3", "--seed", "2",
            "--in", str(path)]
    _, first = run_cli(args)
    _, flagged = run_cli(args + ["--timing", "--counter", "kmv"])
    _, again = run_cli(args)
    assert json.loads(first)["params"]["counter"] == "exact"
    assert json.loads(first)["wall_time_s"] is None
    assert json.loads(flagged)["params"]["counter"] == "kmv"
    assert json.loads(flagged)["wall_time_s"] is not None
    assert again == first


# closed intervals, enough bytes for the one-pass read of a --in file
BIG = [f"{i} {i + 4}\n" for i in range(100_000, 112_000)]
IN_STREAMS = {
    "closed": ["n 200000\n", *BIG],
    "flagged": ["n 200000\n", *(line[:-1] + " oc\n" if i % 7 == 0 else line for i, line in enumerate(BIG))],
    "bad-middle": ["n 200000\n", *BIG[:6000], "7 x\n", *BIG[6000:]],
    "late-header": [*BIG[:6000], "n 200000\n", *BIG[6000:]],
    "lone-cr": [line.replace("\n", "\r") for line in ["n 200000\n", *BIG]],
    "crlf": [line.replace("\n", "\r\n") for line in ["n 200000\n", *BIG]],
}


@pytest.mark.parametrize("command", [["exact"], ["select", "--algo", "general"]], ids=["exact", "select"])
@pytest.mark.parametrize("stream", sorted(IN_STREAMS))
def test_in_file_and_stdin_print_the_same(tmp_path, command, stream):
    """`--in FILE` (read in one pass) and stdin redirected from the same
    file (read a block at a time, split at \\n, \\r and \\r\\n as the
    file is) give the same exit code, stdout and stderr, but for the
    instance id."""
    path = tmp_path / "s.txt"
    path.write_text("".join(IN_STREAMS[stream]))
    assert path.stat().st_size >= core._ONE_PASS_BYTES
    cli = [sys.executable, "-m", "intervalstream.cli", *command]
    by_name = subprocess.run([*cli, "--in", str(path)], capture_output=True, text=True, timeout=60)
    with open(path) as stdin:
        by_stdin = subprocess.run(cli, stdin=stdin, capture_output=True, text=True, timeout=60)
    assert by_name.returncode == by_stdin.returncode == (0 if stream in ("closed", "crlf", "flagged", "lone-cr") else 2)
    assert by_name.stderr == by_stdin.stderr
    assert by_name.stdout.replace(json.dumps(str(path)), '"<stdin>"') == by_stdin.stdout
